"""The four workloads: seeded inputs, one public call per operation, and
the oracle check of each answer.

``build(name, seed, call)`` does the set-up a session pays once: it
constructs the gallery, the machines and the inputs, routing each library
call it makes through ``call(span_name, fn, *args)`` so the traced run can
time it, and returns the operations every pass runs.  Inputs depend only
on the seed, and their sizes are drawn from fixed multisets, so two seeds
differ in letters and order but not in how much work a pass holds.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

from garnorm import core, greedy, machines, shell
from garnorm.core import NormTable, NotIdempotent, UNBOUNDED, Word
from garnorm.gallery import BASE_NAMES, gallery

from oracle import (
    OracleMachine,
    OracleTable,
    braid_invariant,
    braid_perm,
    bs10_invariant,
    bs32_invariant,
    check_report,
    expected_report,
)
from ops import Op

#: Every gallery entry a session constructs at start-up.
GALLERY_NAMES = BASE_NAMES + ("finite:Z/2", "finite:Z/3", "finite:Z/8")
#: The tables ``gallery_tables()`` ships.
TABLE_NAMES = (
    "bicyclic", "bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3",
)


def _gallery(call) -> dict:
    return {name: call("gallery.gallery", gallery, name) for name in GALLERY_NAMES}


def _home(entry) -> bool:
    """Pinned: the table satisfies condition_home and the unit condition."""
    exps = entry.expectations
    return bool(exps.get("condition_home") and exps.get("unit_condition"))


def _stratified(count: int, lo: int, hi: int, skew: float, rng) -> list[int]:
    """``count`` sizes from lo to hi at evenly spaced quantiles of u**skew,
    shuffled: the multiset is the same for every seed."""
    sizes = [lo + round((hi - lo) * ((j + 0.5) / count) ** skew) for j in range(count)]
    rng.shuffle(sizes)
    return sizes


class _Oracles:
    """Oracle objects built on first use, outside the timed phase."""

    def __init__(self):
        self._tables: dict = {}
        self._nf: dict = {}

    def table(self, table: NormTable) -> OracleTable:
        key = id(table)
        if key not in self._tables:
            self._tables[key] = (table, OracleTable(table))
        return self._tables[key][1]

    def nf(self, table: NormTable, ids: tuple) -> tuple:
        key = (id(table), ids)
        if key not in self._nf:
            self._nf[key] = self.table(table).naive_nf(ids)
        return self._nf[key]


# ---------------------------------------------------------------------------
# words: per-word rewriting and sweeping

WORD_TABLES = ("bicyclic", "bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/8")
WORD_OPS = 2000
#: Shares of normalize : thurston_normalize : padding_normal_form.
WORD_MIX = (("normalize", 2), ("thurston", 2), ("padding", 1))


def _check_nf(oracles, table, ids, prefix, out) -> str | None:
    got = out.ids()
    if not oracles.table(table).is_normal(got):
        return "answer is not normal"
    if got != prefix + oracles.nf(table, ids):
        return "answer differs from leftmost rewriting"
    return None


def words(seed: int, call):
    rng = random.Random(f"words:{seed}")
    entries = _gallery(call)
    tables = {n: entries[n].table for n in WORD_TABLES}
    home = [n for n in WORD_TABLES if entries[n].expectations["condition_home"]]
    sweepers = {n: call("machines.build_thurston", machines.build_thurston, tables[n])
                for n in WORD_TABLES}
    mealy = {n: call("machines.build_mealy", machines.build_mealy, tables[n]) for n in home}
    oracles = _Oracles()

    specs = []
    for kind, share in WORD_MIX:
        count = WORD_OPS * share // sum(s for _, s in WORD_MIX)
        names = home if kind == "padding" else WORD_TABLES
        for j, length in enumerate(_stratified(count, 4, 64, 3.0, rng)):
            specs.append((kind, names[j % len(names)], length, j % 4))
    rng.shuffle(specs)

    ops = []
    for kind, name, length, pad in specs:
        t = tables[name]
        w = Word(rng.choice(t.alphabet.symbols) for _ in range(length))
        counts = {"letters": length}
        if kind == "normalize":
            ops.append(Op("core.normalize", core.normalize, (t, w), counts=counts,
                          check=partial(_check_nf, oracles, t, w.ids(), ())))
        elif kind == "thurston":
            ops.append(Op("machines.thurston_normalize", machines.thurston_normalize,
                          (sweepers[name], w), counts=counts,
                          check=partial(_check_nf, oracles, t, w.ids(), ())))
        else:
            ops.append(Op("machines.padding_normal_form", machines.padding_normal_form,
                          (mealy[name], t.unit, w, length + pad), counts=counts,
                          check=partial(_check_nf, oracles, t, w.ids(), (t.unit.id,) * pad)))
    return ops


# ---------------------------------------------------------------------------
# exhaustive: whole-table verdicts

#: Gallery tables are verified on words up to length 5, or 4 beyond six
#: letters (bs32 and malcev).  At length 6, or 5 for those two, single
#: calls take 0.7 to 1.1 s, a run repeats each only a few times, and the
#: fastest repetition no longer filters out slow spells of a shared core.
GALLERY_MAX_LEN = 5
LARGE_GALLERY_MAX_LEN = 4
#: Random tables per alphabet size 3, 4 and 5; a pass holds 149 operations.
RANDOM_TABLES = 19
RANDOM_MAX_LEN = 4
RULE_DENSITY = 0.35


def random_table(rng, g: int, idempotent: bool, with_unit: bool) -> NormTable:
    """A seeded pair map on g letters.  With a unit, (x, 1) -> (1, x) and the
    random rules avoid the unit.  An idempotent map sends every rewritten
    pair to a pair it leaves fixed; a free map has at least one rewritten
    pair whose image is rewritten again."""
    names = (["1"] if with_unit else []) + list("abcde")[: g - with_unit]
    pairs = list(itertools.product(range(g), repeat=2))
    unit_pairs = {(x, 0) for x in range(1, g)} if with_unit else set()
    eligible = [p for p in pairs if not (with_unit and 0 in p)]
    rules = {p: (0, p[0]) for p in unit_pairs}
    targets = {(0, x) for x in range(1, g)} if with_unit else set()
    rng.shuffle(eligible)
    for p in eligible:
        if rng.random() >= RULE_DENSITY:
            continue
        if not idempotent:
            rules[p] = rng.choice([q for q in pairs if q != p])
        elif p not in targets:
            choices = [q for q in pairs if q != p and q not in rules and q not in unit_pairs]
            rules[p] = rng.choice(choices)
            targets.add(rules[p])
    if not idempotent:
        p, q = eligible[0], eligible[1]
        rules[p], rules[q] = q, p  # a rewrite cycle p -> q -> p
    named = [((names[a], names[b]), (names[c], names[d])) for (a, b), (c, d) in rules.items()]
    return NormTable(core.Alphabet(names), named, unit="1" if with_unit else None)


def _pair(b) -> tuple:
    return tuple(None if x is UNBOUNDED else x for x in b.as_pair())


def _words_enumerated(g: int, max_len: int) -> int:
    return sum(g**n for n in range(2, max_len + 1))


def _check_gallery_report(report) -> str | None:
    return None if report.ok else "a gallery table failed the normalisation axioms"


def _check_random_report(oracles, t, max_len, report) -> str | None:
    return check_report(report, expected_report(oracles.table(t), max_len))


def _check_breadth(want, b) -> str | None:
    return None if _pair(b) == want else f"breadth {_pair(b)} != {want}"


def _check_gallery_breadth(oracles, t, pinned, b) -> str | None:
    """Pinned breadth where the gallery records one, else the oracle's."""
    return _check_breadth(pinned or oracles.table(t).breadth(), b)


def _check_unit(holds: bool, failures) -> str | None:
    return None if (not failures) == holds else f"unit condition failures: {failures[:3]}"


def _check_equal(want, got) -> str | None:
    return None if got == want else f"{got!r} != {want!r}"


def exhaustive(seed: int, call):
    rng = random.Random(f"exhaustive:{seed}")
    entries = _gallery(call)
    oracles = _Oracles()
    ops = []
    for name in TABLE_NAMES:
        t = entries[name].table
        exps = entries[name].expectations
        g = len(t.alphabet)
        max_len = GALLERY_MAX_LEN if g <= 6 else LARGE_GALLERY_MAX_LEN
        ops.append(Op("core.verify_normalisation", core.verify_normalisation,
                      (t, max_len), check=_check_gallery_report,
                      counts={"words": _words_enumerated(g, max_len)}))
        ops.append(Op("core.breadth", core.breadth, (t,),
                      check=partial(_check_gallery_breadth, oracles, t, exps.get("breadth"))))
        ops.append(Op("core.condition_home", core.condition_home, (t,),
                      check=partial(_check_equal, exps["condition_home"])))
        ops.append(Op("core.unit_condition_failures", core.unit_condition_failures, (t,),
                      check=partial(_check_unit, exps["unit_condition"])))

    # Every table gets verify_normalisation; the free ones also get breadth
    # and condition_home, which must refuse them.  Idempotent random tables
    # get no breadth call: on tables whose triples do not normalise
    # uniquely its answer depends on the search strategy.
    for g in (3, 4, 5):
        for j in range(RANDOM_TABLES):
            idempotent, with_unit = j % 2 == 1, j % 4 < 2
            t = random_table(rng, g, idempotent, with_unit)
            ops.append(Op("core.verify_normalisation", core.verify_normalisation,
                          (t, RANDOM_MAX_LEN),
                          check=partial(_check_random_report, oracles, t, RANDOM_MAX_LEN),
                          counts={"words": _words_enumerated(g, RANDOM_MAX_LEN)}))
            if not idempotent:
                ops.append(Op("core.breadth", core.breadth, (t,), expect=NotIdempotent))
                ops.append(Op("core.condition_home", core.condition_home, (t,),
                              expect=NotIdempotent))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# actions: bisimulation and refinement over state tuples

#: Growth to length 5 and state words of length 5 cost up to 1.5 s a call
#: on malcev, too long for the fastest of a run's repetitions to filter
#: out slow spells of a shared core; length 4 keeps every call under 0.15 s.
GROWTH_LEN = 4
#: Pair lengths per verdict on each machine, skewed short.
STATE_WORD_LENGTHS = (2,) * 30 + (3,) * 8 + (4,)
#: malcev, the largest machine, gets this many times the pairs: its pairs
#: are the costliest bisimulations and cost much the same for any words of
#: one length, so p99 falls among its length-3 pairs and p90 among its
#: length-2 pairs instead of on seed-dependent pairs of other machines.
MALCEV_PAIR_WEIGHT = 4
#: Inputs up to this length decide the bounded agreement checks.
AGREE_LEN = 3


def _backward_walk(rng, o: OracleTable, w: tuple, steps: int) -> tuple:
    """Undo random rewrites: replace a pair by one of its preimages."""
    pre: dict = {}
    for src, img in o.map.items():
        if src != img:
            pre.setdefault(img, []).append(src)
    for _ in range(steps):
        moves = [(i, s) for i in range(len(w) - 1) for s in pre.get(w[i:i + 2], ())]
        if not moves:
            break
        i, s = rng.choice(moves)
        w = w[:i] + s + w[i + 2:]
    return w


def _check_growth(want, got) -> str | None:
    return None if list(got) == list(want) else f"growth {got} != {want}"


def _check_minimize(om: OracleMachine, states, part) -> str | None:
    for x, y in itertools.combinations(range(om.q), 2):
        same = part.class_of(states[x]) == part.class_of(states[y])
        if same != om.agree_up_to((x,), (y,), AGREE_LEN):
            return f"states {states[x]} and {states[y]} misclassified"
    return None


def _check_action_equal(equal: bool, got) -> str | None:
    return None if got is equal else f"action_equal gave {got}, normal forms say {equal}"


def _check_witness(om: OracleMachine, u, v, equal, w) -> str | None:
    """``equal`` is the normal-form verdict on home tables and None where
    only the witness can be checked."""
    if w is None:
        if equal is False:
            return "no witness for words with different normal forms"
        if not om.agree_up_to(u, v, AGREE_LEN):
            return "no witness, yet a short input distinguishes the pair"
        return None
    if equal:
        return "witness for words with equal normal forms"
    if not om.distinguishes(u, v, w.ids()):
        return "the witness does not distinguish the pair"
    return None


def actions(seed: int, call):
    rng = random.Random(f"actions:{seed}")
    entries = _gallery(call)
    oracles = _Oracles()
    ops = []
    for name in TABLE_NAMES + ("div3", "mul2"):
        entry = entries[name]
        t = entry.table
        if t is not None:
            m = call("machines.build_mealy", machines.build_mealy, t)
        else:
            m = entry.machine
        om = OracleMachine(m)
        q = len(m.states)
        home = t is not None and _home(entry)
        if t is None:
            want = [q**k for k in range(1, GROWTH_LEN + 1)]  # pinned: the semigroup is free
        elif home:
            want = oracles.table(t).growth(GROWTH_LEN)
        else:
            want = None  # no oracle for bicyclic's growth
        if want is not None:
            ops.append(Op("machines.growth", machines.growth, (m, GROWTH_LEN),
                          check=partial(_check_growth, want),
                          counts={"tuples": sum(q**k for k in range(1, GROWTH_LEN + 1))}))
        ops.append(Op("machines.minimize", machines.minimize, (m,),
                      check=partial(_check_minimize, om, m.states.symbols)))

        # State words avoid the unit, which only pads, unless that leaves one
        # letter; pairs on table machines are half made equal through normal
        # forms, half drawn apart.
        letters = [x for x in range(q) if t is None or x != t.unit.id]
        if len(letters) < 2:
            letters = list(range(q))
        weight = MALCEV_PAIR_WEIGHT if name == "malcev" else 1
        shapes = [(length, made_equal) for length in STATE_WORD_LENGTHS * weight
                  for made_equal in (True, False)]
        for j, (length, made_equal) in enumerate(shapes):
            u = tuple(rng.choice(letters) for _ in range(length))
            if t is not None and made_equal:
                o = oracles.table(t)
                v = _backward_walk(rng, o, o.naive_nf(u), 2 * length)
            else:
                v = u
                while v == u:
                    v = tuple(rng.choice(letters) for _ in range(length))
            equal = (oracles.nf(t, u) == oracles.nf(t, v)) if home else None
            su = Word(m.states.symbols[i] for i in u)
            sv = Word(m.states.symbols[i] for i in v)
            counts = {"state_letters": len(u) + len(v)}
            if home and (j // 2) % 2 == 0:
                ops.append(Op("machines.action_equal", machines.action_equal, (m, su, sv),
                              check=partial(_check_action_equal, equal), counts=counts))
            else:
                ops.append(Op("machines.distinguishing_word", machines.distinguishing_word,
                              (m, su, sv), check=partial(_check_witness, om, u, v, equal),
                              counts=counts))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# greedy: the word-problem layer through the shell's file formats

SLACK = 4  # PresentedMonoid's default length slack
PAIR_LENGTHS = (6, 12)
#: With the pipelines, closures and probes a pass holds 155 operations, so
#: the nearest-rank p99 is the second slowest operation.
PAIRS_PER_PRESENTATION = 33


def _braid4_family() -> list[tuple[str, str]]:
    """The 24 simple braids of B4+, each named by its first reduced word in
    breadth-first order."""
    reduced = {braid_perm("", 4): ""}
    frontier = [""]
    while frontier:
        nxt = []
        for w in frontier:
            for ch in "abc":
                p = braid_perm(w + ch, 4)
                if p not in reduced:
                    reduced[p] = w + ch
                    nxt.append(w + ch)
        frontier = nxt
    return [(w or "1", w) for w in sorted(reduced.values(), key=lambda w: (len(w), w))]


#: name -> (atoms, relations, family, invariant of atom strings).  Family
#: entries are (name, representative); the empty representative is the unit.
PRESENTATIONS = {
    "bs10": ("ab", [("ab", "a")], [("1", ""), ("a", "a"), ("b", "b")], bs10_invariant),
    "bs32": ("ab", [("abbb", "bba")],
             [("1", ""), ("a", "a"), ("b", "b"), ("ab", "ab"), ("b2", "bb"),
              ("ab2", "abb"), ("ab3", "abbb"), ("ab4", "abbbb")], bs32_invariant),
    "braid3": ("ab", [("aba", "bab")],
               [("1", ""), ("a", "a"), ("b", "b"), ("ab", "ab"), ("ba", "ba"), ("D", "aba")],
               braid_invariant(3)),
    "braid4": ("abc", [("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")], _braid4_family(),
               braid_invariant(4)),
}
#: A known defect: a = b^6 = c, where every connecting path passes through
#: b^6 and so leaves the length window of a short query.
DEFECT = ("abc", [("a", "bbbbbb"), ("c", "bbbbbb")])
DEFECT_PROBES = (("a", "c"), ("ab", "cb"), ("ba", "bc"), ("a", "bbbbbb"))
KNOWN_DEFECT = ("bounded_equal answers False on a = b^6 = c when the length window "
                "prunes the connecting path")
CLOSURE_NAMES = ("bs10", "bs32", "braid3")


def presentation_text(atoms: str, relations, family=()) -> str:
    spaced = lambda w: " ".join(w)
    lines = ["atoms " + spaced(atoms)]
    lines += [f"rel {spaced(l)} = {spaced(r)}" for l, r in relations]
    lines += [f"family {n} = {spaced(rep) if rep else 'EPS'}" for n, rep in family]
    return "\n".join(lines) + "\n"


def _atom_word(monoid, s: str) -> Word:
    return monoid.atoms.word_of(list(s))


def _check_parsed(atoms, relations, family, got) -> str | None:
    monoid, fam, unit = got
    if monoid.atoms.names() != tuple(atoms) or len(monoid.relations) != len(relations):
        return "atoms or relations differ from the source"
    if [(f.name.name, "".join(f.rep.names())) for f in fam] != list(family):
        return "family differs from the source"
    if unit is None or unit.name.name != "1":
        return "unit not found"
    return None


def _check_greedy(family, invariant, pinned, table) -> str | None:
    reps = dict(family)
    if table.alphabet.names() != tuple(n for n, _ in family) or table.unit.name != "1":
        return "table alphabet or unit differs from the family"
    for x, y in itertools.product(reps, repeat=2):
        c, d = table.entry(x, y)
        if invariant(reps[c.name] + reps[d.name]) != invariant(reps[x] + reps[y]):
            return f"entry ({x} {y}) -> ({c} {d}) changes the element"
    for (x, y), (c, d) in pinned:
        if tuple(s.name for s in table.entry(x, y)) != (c, d):
            return f"pinned entry ({x} {y}) -> ({c} {d}) differs"
    return None


def expected_emission(table) -> str:
    syms = table.alphabet.symbols
    lines = ["alphabet " + " ".join(s.name for s in syms)]
    if table.unit is not None:
        lines.append(f"unit {table.unit.name}")
    for a, b in itertools.product(syms, repeat=2):
        c, d = table.entry(a, b)
        if (c, d) != (a, b):
            lines.append(f"rule {a} {b} -> {c} {d}")
    return "\n".join(lines) + "\n"


def _check_emit(source: Op, text) -> str | None:
    return None if text == expected_emission(source.first) else "emitted text differs"


def _check_reparse(source: Op, table) -> str | None:
    return None if table == source.first else "parsed table differs from the emitted one"


def _check_closure(report) -> str | None:
    return None if report.ok else "a gallery family failed the closure check"


def _check_bounded(equal, got) -> str | None:
    """``equal`` is True for pairs made equal by relation moves, False when
    an invariant separates the words, None when neither is known."""
    if not isinstance(got, bool):
        return f"non-boolean answer {got!r}"
    if equal is not None and got is not equal:
        return f"bounded_equal gave {got}, expected {equal}"
    return None


def _move(rng, relations, w: str) -> str | None:
    moves = []
    for lhs, rhs in relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            start = w.find(a)
            while start >= 0:
                moves.append((start, a, b))
                start = w.find(a, start + 1)
    if not moves:
        return None
    i, a, b = rng.choice(moves)
    return w[:i] + b + w[i + len(a):]


def _equal_pair(rng, atoms, relations, length) -> tuple[str, str]:
    """Two words joined by random relation moves, both of a length in
    PAIR_LENGTHS, whose intermediate words all stay inside bounded_equal's
    length window."""
    lo, hi = PAIR_LENGTHS
    while True:
        u = "".join(rng.choice(atoms) for _ in range(length))
        w, longest = u, len(u)
        for _ in range(rng.randint(1, 8)):
            nxt = _move(rng, relations, w)
            if nxt is None:
                break
            w = nxt
            longest = max(longest, len(w))
        if w != u and lo <= len(w) <= hi and longest <= max(len(u), len(w)) + SLACK:
            return u, w


def _pipeline(name: str, text: str, pinned) -> list:
    """parse_presentation -> greedy_table -> emit_table -> parse_table, in
    order, each call taking the previous answer, as ``garnorm greedy``
    does; then the family closure check on the parsed presentation."""
    atoms, relations, family, invariant = PRESENTATIONS[name]
    parse = Op("shell.parse_presentation", shell.parse_presentation, (text,),
               check=partial(_check_parsed, atoms, relations, family))
    table = Op("greedy.greedy_table", greedy.greedy_table, prepare=lambda: parse.last,
               check=partial(_check_greedy, family, invariant, pinned))
    emit = Op("shell.emit_table", shell.emit_table, prepare=lambda: (table.last,),
              check=partial(_check_emit, table))
    reparse = Op("shell.parse_table", shell.parse_table, prepare=lambda: (emit.last,),
                 check=partial(_check_reparse, table))
    block = [parse, table, emit, reparse]
    if name in CLOSURE_NAMES:
        block.append(Op("greedy.check_family_closure", greedy.check_family_closure,
                        prepare=lambda: parse.last[:2], check=_check_closure))
    return block


def greedy_session(seed: int, call):
    """The pipelines, the closures, the a = b^6 = c probes and seeded
    bounded_equal pairs, half made equal by relation moves.  Every pass
    asks the same questions, so after the first pass the session's memo
    answers the word problem, as in a long library session."""
    rng = random.Random(f"greedy:{seed}")
    entries = _gallery(call)
    texts = {n: presentation_text(a, r, f) for n, (a, r, f, _) in PRESENTATIONS.items()}
    blocks = [_pipeline(n, texts[n], entries[n].expectations.get("table_entries", ())
                        if n in entries else ()) for n in PRESENTATIONS]
    defect = call("shell.parse_presentation", shell.parse_presentation,
                  presentation_text(*DEFECT))[0]
    for u, v in DEFECT_PROBES:
        blocks.append([Op("greedy.bounded_equal", greedy.bounded_equal,
                          (defect, _atom_word(defect, u), _atom_word(defect, v)),
                          check=partial(_check_bounded, True), allow=core.BudgetExhausted,
                          known_defect=KNOWN_DEFECT)])
    for name, (atoms, relations, _, invariant) in PRESENTATIONS.items():
        monoid = call("shell.parse_presentation", shell.parse_presentation, texts[name])[0]
        for j, length in enumerate(_stratified(PAIRS_PER_PRESENTATION, *PAIR_LENGTHS, 1.0, rng)):
            if j % 2 == 0:
                u, v = _equal_pair(rng, atoms, relations, length)
                equal = True
            else:
                u = "".join(rng.choice(atoms) for _ in range(length))
                v = "".join(rng.choice(atoms) for _ in range(length))
                same = invariant(u) == invariant(v)
                equal = same if invariant is bs10_invariant else (None if same else False)
            blocks.append([Op("greedy.bounded_equal", greedy.bounded_equal,
                              (monoid, _atom_word(monoid, u), _atom_word(monoid, v)),
                              check=partial(_check_bounded, equal))])
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


WORKLOADS = {
    "words": words,
    "exhaustive": exhaustive,
    "actions": actions,
    "greedy": greedy_session,
}


def build(name: str, seed: int, call) -> list:
    """The workload's operations; every pass runs them all, in this order."""
    return WORKLOADS[name](seed, call)
