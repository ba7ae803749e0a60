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

    atoms <name>+             # any name but EPS
    rel <word> = <word>       # words are space-separated atom names
    family <name> = <word|EPS>

Emission is canonical (sorted, comment-free), so emitting is byte-stable
and ``emit(parse(text))`` is the canonical reformatting of ``text``.

Every source argument is a file or a ``gallery:<name>`` entry, resolved
in one place (``_load``).  Wherever a machine is wanted, a table, as a
file or a gallery entry, stands for its right-context Mealy machine.

The subcommands are one table, ``_COMMANDS``, of help texts, source kinds,
arguments and functions from (loaded source, args) to the text to emit or
a report tree and exit code.  ``_build_parser`` reads the subparsers off
it; ``main`` alone loads the source, runs the command under the node
budget, maps errors to exit codes and writes the output.  Every command
accepts ``--json``; those that emit a file ignore it.

Reports are key trees rendered either as ``path = value`` lines in
deterministic tree order or as JSON (``--json``).  Exit codes: 0 success
or predicate true, 1 predicate false, 2 input or format error (a word
reaching two distinct normal words, or none, and a file that cannot be
read or is not UTF-8 included), 3 search budget exhausted (also
``gallery finite:Z/<n>`` when its n² products exceed the default node
budget).  The ``GARNORM_BUDGET`` environment variable sets the node
budget of every command (``garnorm.node_budget``).
Words on the command line are space-separated symbol names in a single
argument; over single-character alphabets an unspaced word like ``110`` is
also understood, and ``--compact`` forces that reading.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple, Sequence

from . import core, machines
from .core import (
    Alphabet,
    BudgetExhausted,
    DEFAULT_NODE_BUDGET,
    GarnormError,
    LetterNotInAlphabet,
    NormTable,
    ParseError,
    Symbol,
    Word,
    _identity_pairs,
    node_budget,
)
from .gallery import gallery
from .greedy import FamilyElement, PresentedMonoid, family_unit, greedy_table
from .machines import MealyMachine, build_mealy, build_thurston, dual


_EPS_RESERVED = "atom name 'EPS' is reserved for the empty representative"


def _budget() -> int:
    raw = os.environ.get("GARNORM_BUDGET", str(DEFAULT_NODE_BUDGET))
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


def _letters(lineno: int, alphabet: Alphabet, names, what: str) -> list[Symbol]:
    """The letters of ``alphabet`` named on a directive line; an unknown
    name is an error at that line, reported as an unknown ``what``."""
    try:
        return [alphabet[name] for name in names]
    except LetterNotInAlphabet:
        bad = next(name for name in names if name not in alphabet)
        raise ParseError(lineno, f"unknown {what} {bad!r}") from None


def _first_use(first_lines: dict, key, lineno: int, what: str) -> None:
    """Record that ``key`` is declared at ``lineno``; a second declaration
    is an error naming the line of the first."""
    if key in first_lines:
        raise ParseError(lineno, f"duplicate {what}; first at line {first_lines[key]}")
    first_lines[key] = lineno


def parse_table(text: str) -> NormTable:
    """Parse the table format; diagnostics carry line numbers.  Each rule
    is written straight into the table's flat pair table, so a parse keeps
    no object per rule."""
    alphabet = None
    unit = None
    first_lines: dict[int, int] = {}  # pair index a * g + b -> line of its rule
    for lineno, tokens in _directive_lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "alphabet":
            alphabet = _header(lineno, head, rest, alphabet)
            g = len(alphabet)
            fixed = _identity_pairs(g)
            pairs = list(fixed)
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
            a, b, c, d = _letters(lineno, alphabet, (a, b, c, d), "symbol")
            k = a.id * g + b.id
            _first_use(first_lines, k, lineno, f"rule for pair ({a} {b})")
            pairs[k] = fixed[c.id * g + d.id]
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if alphabet is None:
        raise ParseError(1, "missing alphabet line")
    return NormTable._of_pairs(alphabet, tuple(pairs), None if unit is None else alphabet[unit])


def parse_machine(text: str) -> MealyMachine:
    """Parse the machine format; every (state, letter) pair must appear
    exactly once, and is written straight into the flat pair table."""
    states = None
    alphabet = None
    pairs: list = []
    first_lines: dict[int, int] = {}  # pair index q * s + i -> line of its transition
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
            q, nq = _letters(lineno, states, (q, nq), "state")
            i, o = _letters(lineno, alphabet, (i, o), "letter")
            pairs = pairs or [None] * (len(states) * len(alphabet))
            k = q.id * len(alphabet) + i.id
            _first_use(first_lines, k, lineno, f"transition for ({q} {i})")
            pairs[k] = (o.id, nq.id)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if states is None or alphabet is None:
        raise ParseError(1, "missing states or alphabet line")
    s = len(alphabet)
    missing = [k for k in range(len(states) * s) if k not in first_lines]
    if missing:
        q, i = states.symbols[missing[0] // s], alphabet.symbols[missing[0] % s]
        raise ParseError(states_line, f"missing transition for ({q} {i})")
    return MealyMachine._of_pairs(states, alphabet, tuple(pairs))


def parse_presentation(text: str):
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
            if "EPS" in atoms:
                raise ParseError(lineno, _EPS_RESERVED)
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
            lhs, rhs = (Word(_letters(lineno, atoms, side, "symbol")) for side in (lhs, rhs))
            relations.append((lhs, rhs))
        elif head == "family":
            if len(rest) < 3 or rest[1] != "=":
                raise ParseError(lineno, "expected 'family <name> = <word|EPS>'")
            name, words = rest[0], rest[2:]
            _first_use(family_names, name, lineno, f"family name {name!r}")
            try:
                core._check_name(name)
            except GarnormError as exc:
                raise ParseError(lineno, str(exc)) from None
            if words == ["EPS"]:
                if any(not rep for _, rep in family_entries):
                    raise ParseError(
                        lineno, "at most one family element may have an empty representative"
                    )
                rep = Word()
            else:
                rep = Word(_letters(lineno, atoms, words, "atom"))
            family_entries.append((name, rep))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if atoms is None:
        raise ParseError(1, "missing atoms line")
    monoid = PresentedMonoid(atoms, tuple(relations))
    names = Alphabet(name for name, _ in family_entries)
    family = tuple(FamilyElement(sym, rep) for sym, (_, rep) in zip(names, family_entries))
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
    if "EPS" in monoid.atoms:
        raise GarnormError(_EPS_RESERVED)
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

    def quoted(text: str) -> str:  # a DOT string, with \ and " escaped
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph mealy {", "  rankdir=LR;"]
    for name in sorted(m.states.names()):
        lines.append(f"  {quoted(name)};")
    edges: dict[tuple[str, str], list[str]] = {}
    for q, i, nq, o in m.transitions():
        edges.setdefault((q.name, nq.name), []).append(f"{i.name}|{o.name}")
    for (src, dst) in sorted(edges):
        label = quoted(", ".join(sorted(edges[src, dst])))
        lines.append(f"  {quoted(src)} -> {quoted(dst)} [label={label}];")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise GarnormError(f"cannot read {path!r}: {exc}") from None


def _load(source: str, part: str):
    """The ``part`` ("table", "machine" or "presentation") that ``source``
    names: a file or a ``gallery:<name>`` entry.  Wherever a machine is
    wanted, a table stands for its right-context Mealy machine; a file is
    then read as the kind its first directive starts."""
    if source.startswith("gallery:"):
        entry = gallery(source[len("gallery:") :])
        value = getattr(entry, part)
        if value is None and part == "machine":
            value = entry.table
        if value is None:
            raise GarnormError(f"gallery entry {entry.name!r} has no {part}")
    else:
        text = _read(source)
        if part != "machine":
            return (parse_table if part == "table" else parse_presentation)(text)
        head = next((tokens[0] for _, tokens in _directive_lines(text)), None)
        if head == "states":
            return parse_machine(text)
        if head != "alphabet":
            raise GarnormError(f"{source!r} is neither a table nor a machine file")
        value = parse_table(text)
    if part == "machine" and isinstance(value, NormTable):
        return build_mealy(value)
    return value


# ---------------------------------------------------------------------------
# commands


def _truncate(items: Sequence, text, limit: int = 10) -> list:
    """The first ``limit`` items as ``text`` makes them, then how many more
    there are; the rest are neither read nor formatted."""
    shown = [text(x) for x in items[:limit]]
    if len(items) > limit:
        shown.append(f"(+{len(items) - limit} more)")
    return shown


def _check(table, args):
    report = core.verify_normalisation(table, max_len=args.max_len)
    tree = {
        "alphabet": " ".join(table.alphabet.names()),
        "max_len": args.max_len,
        "ok": report.ok,
        "idempotence_failures": _truncate(
            report.idempotence_failures,
            lambda p: "({} {}) -> ({} {}) -> ({} {})".format(*p[0], *p[1], *p[2]),
        ),
        "not_normalising": _truncate(report.not_normalising, str),
        "not_confluent": _truncate(report.not_confluent, lambda t: "{} -> {} and {}".format(*t)),
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
    return tree, 0 if ok else 1


def _breadth(table, args):
    b = core.breadth(table)
    tree = {
        "d": b.d,
        "p": b.p,
        "d_witness": str(b.d_witness),
        "p_witness": str(b.p_witness),
    }
    return tree, 0


def _home(table, args):
    b = core.breadth(table)
    reasons = core.home_failures(b)
    verdict = not reasons
    tree = {
        "condition_home": verdict,
        "d": b.d,
        "p": b.p,
        "reasons": reasons,
    }
    return tree, 0 if verdict else 1


def _normalize(table, args):
    w = table.alphabet.word(args.word, compact=args.compact)
    nf = core.normalize(table, w)
    return {"input": _render_word(w), "normal": _render_word(nf)}, 0


def _run(m, args):
    w = m.alphabet.word(args.word, compact=args.compact)
    out, final = machines.run(m, args.state, w)
    return {"output": _render_word(out), "final": final.name}, 0


def _iterate(m, args):
    w = m.alphabet.word(args.word, compact=args.compact)
    result = machines.numeration_iterate(m, args.state, w, args.steps)
    tree = {
        "collected": _render_word(result.collected),
        "cycle_start": result.cycle_start,
        "period": result.period,
    }
    if args.mode == "sweep":
        tree["words"] = [_render_word(x) for x in result.words]
    return tree, 0


def _equal(m, args):
    u = m.states.word(args.left, compact=args.compact)
    v = m.states.word(args.right, compact=args.compact)
    witness = machines.distinguishing_word(m, u, v)
    tree = {"equal": witness is None}
    if witness is not None:
        tree["witness"] = _render_word(witness)
    return tree, 0 if witness is None else 1


def _gallery(name, args):
    emit = args.emit
    if emit == "auto":
        emit = "table" if gallery(name).table is not None else "machine"
    part = _load("gallery:" + name, emit)
    if emit == "table":
        return emit_table(part)
    if emit == "machine":
        return emit_machine(part)
    monoid, family, _ = part  # presentation
    return emit_presentation(monoid, family)


class _Command(NamedTuple):
    help: str
    kind: str  # the source's part for _load, or "name": a gallery entry's name
    run: Callable  # (source, args) -> text to emit, or (report tree, exit code)
    arguments: tuple = ()  # (name, add_argument keywords) after the source
    source: tuple = ()  # the source's (name, keywords) when not (kind, {})


_COMPACT = ("--compact", {"action": "store_true"})

_COMMANDS = {
    "check": _Command("verify the normalisation axioms and the unit condition", "table", _check,
                      (("--max-len", {"type": int, "default": 5, "dest": "max_len"}),)),
    "breadth": _Command("alternating-sequence breadth of a table", "table", _breadth),
    "home": _Command("test the bounded-breadth condition (d <= 4, p <= 3)", "table", _home),
    "normalize": _Command("normal form of a word", "table", _normalize, (("word", {}), _COMPACT)),
    "mealy": _Command("emit the right-context transducer of a table", "table",
                      lambda table, args: emit_machine(build_mealy(table))),
    "thurston": _Command("emit the sweeping transducer of a table", "table",
                         lambda table, args: emit_machine(build_thurston(table))),
    "dual": _Command("emit the dual of a machine", "machine",
                     lambda m, args: emit_machine(dual(m))),
    "run": _Command("run a machine from a state over a word", "machine", _run,
                    (("state", {}), ("word", {}), _COMPACT)),
    "iterate": _Command(
        "iterated runs, collecting arrival states", "machine", _iterate,
        (("state", {}), ("word", {}), ("--steps", {"type": int, "required": True}),
         ("--mode", {"choices": ("collect", "sweep"), "default": "collect",
                     "help": "collect: arrival states only; sweep: also list each working word"}),
         _COMPACT),
    ),
    "equal": _Command("decide equality of two state-word actions", "machine", _equal,
                      (("left", {}), ("right", {}), _COMPACT),
                      ("source", {"help": "table or machine (file or gallery:<name>)"})),
    "growth": _Command("action-class counts by state-word length", "machine",
                       lambda m, args: ({"growth": machines.growth(m, max_len=args.max)}, 0),
                       (("--max", {"type": int, "default": 5}),)),
    "greedy": _Command("emit the greedy table of a presented monoid", "presentation",
                       lambda presented, args: emit_table(greedy_table(*presented))),
    "gallery": _Command("emit a gallery entry", "name", _gallery,
                        (("--emit", {"choices": ("auto", "table", "machine", "presentation"),
                                     "default": "auto"}),)),
    "dot": _Command("DOT rendering of a machine (or of a table's transducer)", "machine",
                    lambda m, args: export_dot(m), source=("source", {})),
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garnorm",
        description="Normalisation tables, Mealy transducers, and greedy normal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        metavar, keywords = command.source or (command.kind, {})
        p.add_argument("source", metavar=metavar, **keywords)
        for arg, keywords in command.arguments:
            p.add_argument(arg, **keywords)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        with node_budget(_budget()):
            source = args.source if command.kind == "name" else _load(args.source, command.kind)
            result = command.run(source, args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GarnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
        return 0
    tree, code = result
    report = Report(tree)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
