"""Command-line front end: text formats, DOT export, and reports.

Three line-oriented UTF-8 formats (``#`` starts a comment anywhere):

table::

    alphabet <name>+          # required, first
    unit <name>               # optional
    rule <a> <b> -> <c> <d>   # unlisted pairs are fixed

machine::

    states <name>+
    alphabet <name>+
    trans <state> <letter> -> <next> <output>   # exactly once per pair

presentation::

    atoms <name>+
    rel <word> = <word>       # words are space-separated atom names
    family <name> = <word|EPS>

Emission is canonical (sorted, comment-free), so emitting is byte-stable
and ``emit(parse(text))`` is the canonical reformatting of ``text``.

Reports are key trees rendered either as ``path = value`` lines in
deterministic tree order or as JSON (``--json``).  Exit codes: 0 success
or predicate true, 1 predicate false, 2 input or format error (a word
reaching two distinct normal words, or none, included), 3 search budget
exhausted.  The ``GARNORM_BUDGET`` environment variable overrides the
default budgets.
Words on the command line are space-separated symbol names in a single
argument; over single-character alphabets an unspaced word like ``110`` is
also understood, and ``--compact`` forces that reading.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import core, machines
from .core import (
    Alphabet,
    BudgetExhausted,
    DEFAULT_NODE_BUDGET,
    GarnormError,
    NormTable,
    ParseError,
    Word,
)
from .gallery import gallery
from .greedy import PresentedMonoid, greedy_table, make_family, family_unit
from .machines import MealyMachine, build_mealy, build_thurston, dual


def _budget() -> int:
    raw = os.environ.get("GARNORM_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise GarnormError(f"GARNORM_BUDGET must be an integer, got {raw!r}") from None
    if value <= 0:
        raise GarnormError(f"GARNORM_BUDGET must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# parsing


def _directive_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _header(lineno: int, head: str, names: list[str], current: Alphabet | None) -> Alphabet:
    """The alphabet an ``alphabet``, ``states`` or ``atoms`` line declares;
    ``current`` is the one an earlier such line declared, if any."""
    if current is not None:
        raise ParseError(lineno, f"duplicate {head} line")
    if not names:
        raise ParseError(lineno, f"{head} line lists no symbols")
    try:
        return Alphabet(names)
    except GarnormError as exc:
        raise ParseError(lineno, str(exc)) from None


def _first_use(first_lines: dict, key, lineno: int, what: str) -> None:
    """Record that ``key`` is declared at ``lineno``; a second declaration
    is an error naming the line of the first."""
    if key in first_lines:
        raise ParseError(lineno, f"duplicate {what}; first at line {first_lines[key]}")
    first_lines[key] = lineno


def parse_table(text: str) -> NormTable:
    """Parse the table format; diagnostics carry line numbers."""
    alphabet = None
    unit = None
    rules = []
    seen_pairs: dict[tuple[str, str], int] = {}
    for lineno, tokens in _directive_lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "alphabet":
            alphabet = _header(lineno, head, rest, alphabet)
            continue
        if alphabet is None:
            raise ParseError(lineno, "the first directive must be 'alphabet'")
        if head == "unit":
            if unit is not None:
                raise ParseError(lineno, "duplicate unit line")
            if len(rest) != 1:
                raise ParseError(lineno, "unit line needs exactly one symbol")
            if rest[0] not in alphabet:
                raise ParseError(lineno, f"unit {rest[0]!r} is not in the alphabet")
            unit = rest[0]
        elif head == "rule":
            if len(rest) != 5 or rest[2] != "->":
                raise ParseError(lineno, "expected 'rule <a> <b> -> <c> <d>'")
            a, b, _, c, d = rest
            for name in (a, b, c, d):
                if name not in alphabet:
                    raise ParseError(lineno, f"unknown symbol {name!r}")
            _first_use(seen_pairs, (a, b), lineno, f"rule for pair ({a} {b})")
            rules.append(((a, b), (c, d)))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if alphabet is None:
        raise ParseError(1, "missing alphabet line")
    return NormTable(alphabet, rules, unit=unit)


def parse_machine(text: str) -> MealyMachine:
    """Parse the machine format; every (state, letter) pair must appear
    exactly once."""
    states = None
    alphabet = None
    trans: dict[tuple[str, str], tuple[str, str]] = {}
    lines_seen: dict[tuple[str, str], int] = {}
    for lineno, tokens in _directive_lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "states":
            states = _header(lineno, head, rest, states)
            states_line = lineno
        elif head == "alphabet":
            alphabet = _header(lineno, head, rest, alphabet)
        elif head == "trans":
            if states is None or alphabet is None:
                raise ParseError(lineno, "'states' and 'alphabet' must come before 'trans'")
            if len(rest) != 5 or rest[2] != "->":
                raise ParseError(lineno, "expected 'trans <state> <letter> -> <next> <output>'")
            q, i, _, nq, o = rest
            if q not in states:
                raise ParseError(lineno, f"unknown state {q!r}")
            if nq not in states:
                raise ParseError(lineno, f"unknown state {nq!r}")
            if i not in alphabet:
                raise ParseError(lineno, f"unknown letter {i!r}")
            if o not in alphabet:
                raise ParseError(lineno, f"unknown letter {o!r}")
            _first_use(lines_seen, (q, i), lineno, f"transition for ({q} {i})")
            trans[q, i] = (nq, o)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if states is None or alphabet is None:
        raise ParseError(1, "missing states or alphabet line")
    for q in states.names():
        for i in alphabet.names():
            if (q, i) not in trans:
                raise ParseError(states_line, f"missing transition for ({q} {i})")
    nxt = [[states[trans[q, i][0]].id for i in alphabet.names()] for q in states.names()]
    out = [[alphabet[trans[q, i][1]].id for i in alphabet.names()] for q in states.names()]
    return MealyMachine(states, alphabet, nxt, out)


def parse_presentation(text: str, search_budget: int | None = None):
    """Parse the presentation format.

    Returns (monoid, family, unit element or None); EPS denotes the empty
    representative.
    """
    atoms = None
    relations = []
    family_entries = []
    family_names: dict[str, int] = {}
    for lineno, tokens in _directive_lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "atoms":
            atoms = _header(lineno, head, rest, atoms)
            continue
        if atoms is None:
            raise ParseError(lineno, "the first directive must be 'atoms'")
        if head == "rel":
            if "=" not in rest:
                raise ParseError(lineno, "expected 'rel <word> = <word>'")
            eq = rest.index("=")
            lhs, rhs = rest[:eq], rest[eq + 1 :]
            if not lhs or not rhs or "=" in rhs:
                raise ParseError(lineno, "expected 'rel <word> = <word>'")
            try:
                relations.append((atoms.word_of(lhs), atoms.word_of(rhs)))
            except GarnormError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif head == "family":
            if len(rest) < 3 or rest[1] != "=":
                raise ParseError(lineno, "expected 'family <name> = <word|EPS>'")
            name, words = rest[0], rest[2:]
            _first_use(family_names, name, lineno, f"family name {name!r}")
            if words == ["EPS"]:
                rep_text = ""
            else:
                for w in words:
                    if w not in atoms:
                        raise ParseError(lineno, f"unknown atom {w!r}")
                rep_text = " ".join(words)
            family_entries.append((name, rep_text))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if atoms is None:
        raise ParseError(1, "missing atoms line")
    budget = DEFAULT_NODE_BUDGET if search_budget is None else search_budget
    monoid = PresentedMonoid(atoms, tuple(relations), search_budget=budget)
    try:
        family = make_family(atoms, family_entries)
    except GarnormError as exc:
        raise ParseError(1, str(exc)) from None
    return monoid, family, family_unit(family)


# ---------------------------------------------------------------------------
# emission


def emit_table(table: NormTable) -> str:
    lines = ["alphabet " + " ".join(table.alphabet.names())]
    if table.unit is not None:
        lines.append(f"unit {table.unit.name}")
    for (a, b), (c, d) in table.rules():
        lines.append(f"rule {a} {b} -> {c} {d}")
    return "\n".join(lines) + "\n"


def emit_machine(m: MealyMachine) -> str:
    lines = [
        "states " + " ".join(m.states.names()),
        "alphabet " + " ".join(m.alphabet.names()),
    ]
    for q, i, nq, o in m.transitions():
        lines.append(f"trans {q} {i} -> {nq} {o}")
    return "\n".join(lines) + "\n"


def emit_presentation(monoid: PresentedMonoid, family=()) -> str:
    lines = ["atoms " + " ".join(monoid.atoms.names())]
    for lhs, rhs in monoid.relations:
        lines.append(f"rel {lhs} = {rhs}")
    for f in family:
        rep = str(f.rep) if len(f.rep) else "EPS"
        lines.append(f"family {f.name} = {rep}")
    return "\n".join(lines) + "\n"


def export_dot(m: MealyMachine) -> str:
    """Deterministic DOT rendering: nodes sorted by name, one edge per
    (source, target) pair with its ``input|output`` labels merged in
    lexicographic order."""
    lines = ["digraph mealy {", "  rankdir=LR;"]
    for name in sorted(m.states.names()):
        lines.append(f'  "{name}";')
    edges: dict[tuple[str, str], list[str]] = {}
    for q, i, nq, o in m.transitions():
        edges.setdefault((q.name, nq.name), []).append(f"{i.name}|{o.name}")
    for (src, dst) in sorted(edges):
        label = ", ".join(sorted(edges[src, dst]))
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


class Report:
    """A key tree of verdicts and witnesses with two stable serialisations:
    ``path = value`` lines in deterministic tree order, and JSON."""

    def __init__(self, tree: dict):
        self.tree = tree

    @staticmethod
    def _scalar(value) -> str:
        if value is True:
            return "true"
        if value is False:
            return "false"
        if value is None:
            return "none"
        return str(value)

    def _lines(self, prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                yield from self._lines(prefix + key + ".", value[key])
        elif isinstance(value, (list, tuple)):
            for idx, item in enumerate(value):
                yield from self._lines(f"{prefix}{idx}.", item)
        else:
            yield f"{prefix[:-1]} = {self._scalar(value)}"

    def to_text(self) -> str:
        # dict keys sorted, list items in order: deterministic and stable
        return "\n".join(self._lines("", self.tree)) + "\n"

    def to_json(self) -> str:
        def plain(v):
            if isinstance(v, dict):
                return {k: plain(x) for k, x in sorted(v.items())}
            if isinstance(v, (list, tuple)):
                return [plain(x) for x in v]
            if isinstance(v, (bool, int, float)) or v is None:
                return v
            return str(v)

        return json.dumps(plain(self.tree), sort_keys=True, ensure_ascii=False) + "\n"


def _render_word(w: Word) -> str:
    names = w.names()
    if names and all(len(n) == 1 for n in names):
        return "".join(names)
    return " ".join(names)


# ---------------------------------------------------------------------------
# resource loading


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GarnormError(f"cannot read {path!r}: {exc}") from None


def _gallery_part(name: str, part: str):
    """The table, machine or presentation of a gallery entry; an entry with
    a table but no machine stands for the table's right-context
    transducer."""
    entry = gallery(name)
    if part == "machine" and entry.machine is None and entry.table is not None:
        return build_mealy(entry.table)
    value = getattr(entry, part)
    if value is None:
        raise GarnormError(f"gallery entry {entry.name!r} has no {part}")
    return value


def _load_table(source: str) -> NormTable:
    if source.startswith("gallery:"):
        return _gallery_part(source[len("gallery:") :], "table")
    return parse_table(_read(source))


def _sniff(text: str) -> str:
    for _, tokens in _directive_lines(text):
        return {"alphabet": "table", "states": "machine", "atoms": "presentation"}.get(
            tokens[0], "unknown"
        )
    return "unknown"


def _load_machine(source: str) -> MealyMachine:
    if source.startswith("gallery:"):
        return _gallery_part(source[len("gallery:") :], "machine")
    text = _read(source)
    kind = _sniff(text)
    if kind == "table":
        return build_mealy(parse_table(text))
    if kind == "machine":
        return parse_machine(text)
    raise GarnormError(f"{source!r} is neither a table nor a machine file")


def _load_presentation(source: str):
    if source.startswith("gallery:"):
        return _gallery_part(source[len("gallery:") :], "presentation")
    return parse_presentation(_read(source), search_budget=_budget())


# ---------------------------------------------------------------------------
# commands


def _print_report(args, tree: dict) -> None:
    report = Report(tree)
    sys.stdout.write(report.to_json() if args.json else report.to_text())


def _truncate(items: list, limit: int = 10) -> list:
    if len(items) <= limit:
        return items
    return items[:limit] + [f"(+{len(items) - limit} more)"]


def _cmd_check(args) -> int:
    table = _load_table(args.table)
    report = core.verify_normalisation(table, max_len=args.max_len)
    tree = {
        "alphabet": " ".join(table.alphabet.names()),
        "max_len": args.max_len,
        "ok": report.ok,
        "idempotence_failures": _truncate(
            [
                f"({a} {b}) -> ({c} {d}) -> ({e} {f})"
                for (a, b), (c, d), (e, f) in report.idempotence_failures
            ]
        ),
        "not_normalising": _truncate([str(w) for w in report.not_normalising]),
        "not_confluent": _truncate(
            [f"{w} -> {x} and {y}" for w, x, y in report.not_confluent]
        ),
        "axiom_failures": [],  # always empty, see core.verify_normalisation
    }
    ok = report.ok
    if table.unit is None:
        tree["unit"] = {"name": None, "ok": None, "failures": []}
    elif not report.ok:
        # the unit check normalises words, which may not terminate here
        tree["unit"] = {
            "name": table.unit.name,
            "ok": None,
            "failures": ["skipped: the normalisation axioms already failed"],
        }
    else:
        failures = core.unit_condition_failures(table)
        tree["unit"] = {"name": table.unit.name, "ok": not failures, "failures": failures}
        ok = ok and not failures
    _print_report(args, tree)
    return 0 if ok else 1


def _coordinate(value) -> int | str:
    return value if isinstance(value, int) else "Unbounded"


def _cmd_breadth(args) -> int:
    table = _load_table(args.table)
    b = core.breadth(table, cap=args.cap)
    tree = {
        "d": _coordinate(b.d),
        "p": _coordinate(b.p),
        "d_witness": str(b.d_witness),
        "p_witness": str(b.p_witness),
    }
    if b.warning:
        tree["warning"] = b.warning
    _print_report(args, tree)
    return 0


def _cmd_home(args) -> int:
    table = _load_table(args.table)
    b = core.breadth(table, cap=args.cap)
    reasons = []
    if not isinstance(b.d, int):
        reasons.append(f"d unbounded at cap {args.cap} (witness {b.d_witness})")
    elif b.d > 4:
        reasons.append(f"d={b.d} exceeds 4")
    if not isinstance(b.p, int):
        reasons.append(f"p unbounded at cap {args.cap} (witness {b.p_witness})")
    elif b.p > 3:
        reasons.append(f"p={b.p} exceeds 3")
    verdict = not reasons
    _print_report(
        args,
        {
            "condition_home": verdict,
            "d": _coordinate(b.d),
            "p": _coordinate(b.p),
            "reasons": reasons,
        },
    )
    return 0 if verdict else 1


def _cmd_normalize(args) -> int:
    table = _load_table(args.table)
    w = table.alphabet.word(args.word, compact=args.compact)
    nf = core.normalize(table, w, node_budget=_budget())
    _print_report(args, {"input": _render_word(w), "normal": _render_word(nf)})
    return 0


def _cmd_mealy(args) -> int:
    sys.stdout.write(emit_machine(build_mealy(_load_table(args.table))))
    return 0


def _cmd_thurston(args) -> int:
    sys.stdout.write(emit_machine(build_thurston(_load_table(args.table))))
    return 0


def _cmd_dual(args) -> int:
    sys.stdout.write(emit_machine(dual(_load_machine(args.machine))))
    return 0


def _cmd_run(args) -> int:
    m = _load_machine(args.machine)
    w = m.alphabet.word(args.word, compact=args.compact)
    out, final = machines.run(m, args.state, w)
    _print_report(args, {"output": _render_word(out), "final": final.name})
    return 0


def _cmd_iterate(args) -> int:
    m = _load_machine(args.machine)
    w = m.alphabet.word(args.word, compact=args.compact)
    result = machines.numeration_iterate(m, args.state, w, args.steps)
    tree = {
        "collected": _render_word(result.collected),
        "cycle_start": result.cycle_start,
        "period": result.period,
    }
    if args.mode == "sweep":
        tree["words"] = [_render_word(x) for x in result.words]
    _print_report(args, tree)
    return 0


def _cmd_equal(args) -> int:
    m = _load_machine(args.source)
    u = m.states.word(args.left, compact=args.compact)
    v = m.states.word(args.right, compact=args.compact)
    witness = machines.distinguishing_word(m, u, v)
    tree = {"equal": witness is None}
    if witness is not None:
        tree["witness"] = _render_word(witness)
    _print_report(args, tree)
    return 0 if witness is None else 1


def _cmd_growth(args) -> int:
    m = _load_machine(args.machine)
    counts = machines.growth(m, max_len=args.max)
    _print_report(args, {"growth": counts})
    return 0


def _cmd_greedy(args) -> int:
    monoid, family, unit = _load_presentation(args.presentation)
    if unit is None:
        raise GarnormError("the family must contain a unit element (rep EPS)")
    sys.stdout.write(emit_table(greedy_table(monoid, family, unit)))
    return 0


def _cmd_gallery(args) -> int:
    emit = args.emit
    if emit == "auto":
        emit = "table" if gallery(args.name).table is not None else "machine"
    part = _gallery_part(args.name, emit)
    if emit == "table":
        sys.stdout.write(emit_table(part))
    elif emit == "machine":
        sys.stdout.write(emit_machine(part))
    else:  # presentation
        monoid, family, _ = part
        sys.stdout.write(emit_presentation(monoid, family))
    return 0


def _cmd_dot(args) -> int:
    sys.stdout.write(export_dot(_load_machine(args.source)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garnorm",
        description="Normalisation tables, Mealy transducers, and greedy normal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        return p

    p = add("check", _cmd_check, "verify the normalisation axioms and the unit condition")
    p.add_argument("table")
    p.add_argument("--max-len", type=int, default=5, dest="max_len")

    p = add("breadth", _cmd_breadth, "alternating-sequence breadth of a table")
    p.add_argument("table")
    p.add_argument("--cap", type=int, default=64)

    p = add("home", _cmd_home, "test the bounded-breadth condition (d <= 4, p <= 3)")
    p.add_argument("table")
    p.add_argument("--cap", type=int, default=64)

    p = add("normalize", _cmd_normalize, "normal form of a word")
    p.add_argument("table")
    p.add_argument("word")
    p.add_argument("--compact", action="store_true")

    p = add("mealy", _cmd_mealy, "emit the right-context transducer of a table")
    p.add_argument("table")

    p = add("thurston", _cmd_thurston, "emit the sweeping transducer of a table")
    p.add_argument("table")

    p = add("dual", _cmd_dual, "emit the dual of a machine")
    p.add_argument("machine")

    p = add("run", _cmd_run, "run a machine from a state over a word")
    p.add_argument("machine")
    p.add_argument("state")
    p.add_argument("word")
    p.add_argument("--compact", action="store_true")

    p = add("iterate", _cmd_iterate, "iterated runs, collecting arrival states")
    p.add_argument("machine")
    p.add_argument("state")
    p.add_argument("word")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=("collect", "sweep"),
        default="collect",
        help="collect: arrival states only; sweep: also list each working word",
    )
    p.add_argument("--compact", action="store_true")

    p = add("equal", _cmd_equal, "decide equality of two state-word actions")
    p.add_argument("source", help="table or machine (file or gallery:<name>)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--compact", action="store_true")

    p = add("growth", _cmd_growth, "action-class counts by state-word length")
    p.add_argument("machine")
    p.add_argument("--max", type=int, default=5)

    p = add("greedy", _cmd_greedy, "emit the greedy table of a presented monoid")
    p.add_argument("presentation")

    p = add("gallery", _cmd_gallery, "emit a gallery entry")
    p.add_argument("name")
    p.add_argument("--emit", choices=("auto", "table", "machine", "presentation"), default="auto")

    p = add("dot", _cmd_dot, "DOT rendering of a machine (or of a table's transducer)")
    p.add_argument("source")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GarnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
