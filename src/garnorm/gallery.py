"""Named worked instances: normalisation tables, presentations, and raw
machines, each carrying the values the test suite pins them to.

Every entry is constructed programmatically on first request and cached;
entries are immutable and built under the default node budget.  The
``finite:Z/n`` scheme builds the padded multiplication table of a cyclic
group, and raises :class:`BudgetExhausted` before it allocates when its n²
products exceed that budget (the CLI exits 3).  Wherever the CLI wants a
machine, an entry's table stands for its right-context Mealy machine.  The
other names are fixed objects:

=============  ==============================================================
bicyclic       <a, b : ab = 1>, padded normal forms; breadth (3, 4)
bs10           <a, b : ab = a> via the greedy construction on {1, a, b}
bs32           <a, b : ab^3 = b^2 a> via greedy on its eight-element family
plactic2       rank-2 plactic monoid on the columns {1, a, b, ba}
malcev         the cancellative, non-group-embeddable eight-generator monoid
braid3         3-strand positive braids via greedy on {1, a, b, ab, ba, D}
div3           reads base-2 digits (most significant first), divides by 3
mul2           reads base-3 digits (least significant first), doubles
=============  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    DEFAULT_NODE_BUDGET,
    Alphabet,
    BudgetExhausted,
    NormTable,
    UnknownName,
    node_budget,
)
from .greedy import PresentedMonoid, greedy_table, make_family
from .machines import MealyMachine

@dataclass(frozen=True)
class GalleryEntry:
    """One named instance: at least one of table / machine / presentation,
    plus the expected values the suite checks against."""

    name: str
    table: NormTable | None = None
    machine: MealyMachine | None = None
    presentation: tuple | None = None  # (PresentedMonoid, family, unit element)
    expectations: dict = field(default_factory=dict)


def _finite_table(descriptor: str) -> tuple[NormTable, dict]:
    """finite:Z/n -- the padded multiplication table of the cyclic group of
    order n: every product ab is recorded as the pair (1, ab)."""
    if not descriptor.startswith("Z/"):
        raise UnknownName(
            f"unsupported finite monoid descriptor {descriptor!r} (expected Z/<n>)"
        )
    try:
        n = int(descriptor[2:])
    except ValueError:
        raise UnknownName(f"bad cyclic group order in {descriptor!r}") from None
    if n < 1:
        raise UnknownName(f"cyclic group order must be positive, got {n}")
    if n * n > DEFAULT_NODE_BUDGET:  # the budget every cached entry is built under
        raise BudgetExhausted(
            f"the {n * n} products of Z/{n} exceed the node budget of {DEFAULT_NODE_BUDGET}"
        )
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    alphabet = Alphabet(names)
    rules = []
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            if (i, j) != (0, k):
                rules.append(((names[i], names[j]), ("1", names[k])))
    table = NormTable(alphabet, rules, unit="1")
    exps = {
        "breadth": (3, 2) if n >= 2 else (0, 0),
        "condition_home": True,
        "unit_condition": True,
    }
    return table, exps


def _bicyclic() -> GalleryEntry:
    alphabet = Alphabet(("1", "a", "b"))
    table = NormTable(
        alphabet,
        [
            (("a", "b"), ("1", "1")),
            (("a", "1"), ("1", "a")),
            (("b", "1"), ("1", "b")),
        ],
        unit="1",
    )
    return GalleryEntry(
        name="bicyclic",
        table=table,
        expectations={
            "breadth": (3, 4),
            "condition_home": False,
            "unit_condition": True,
            "action_equal": ((("a b"), ("1 1"), False),),
            "mealy_transitions": ((("b"), ("a"), ("1"), ("1")),),
        },
    )


def _presented(name: str, atoms, relations, family, **expectations) -> GalleryEntry:
    """An entry built from a presentation: atom names, relations as pairs
    of word texts and the family as (name, representative text) pairs, the
    first of which is the unit; its table is the greedy table."""
    atoms = Alphabet(atoms)
    monoid = PresentedMonoid(atoms, tuple((atoms.word(u), atoms.word(v)) for u, v in relations))
    family = make_family(atoms, family)
    unit = family[0]
    return GalleryEntry(
        name=name,
        table=greedy_table(monoid, family, unit),
        presentation=(monoid, family, unit),
        expectations=expectations,
    )


def _bs10() -> GalleryEntry:
    return _presented(
        "bs10",
        ("a", "b"),
        [("a b", "a")],
        [("1", ""), ("a", "a"), ("b", "b")],
        condition_home=True,
        unit_condition=True,
        table_entries=(
            (("a", "b"), ("1", "a")),
            (("a", "1"), ("1", "a")),
            (("b", "1"), ("1", "b")),
            (("b", "a"), ("b", "a")),
            (("a", "a"), ("a", "a")),
        ),
        mealy_transitions=(
            ("b", "a", "1", "a"),
            ("a", "b", "b", "a"),
            ("a", "1", "1", "a"),
            ("b", "1", "1", "b"),
            ("a", "a", "a", "a"),
            ("1", "1", "1", "1"),
            ("1", "a", "1", "a"),
            ("1", "b", "1", "b"),
        ),
    )


def _bs32() -> GalleryEntry:
    return _presented(
        "bs32",
        ("a", "b"),
        [("a b b b", "b b a")],
        [
            ("1", ""),
            ("a", "a"),
            ("b", "b"),
            ("ab", "a b"),
            ("b2", "b b"),
            ("ab2", "a b b"),
            ("ab3", "a b b b"),
            ("ab4", "a b b b b"),
        ],
        condition_home=True,
        unit_condition=True,
    )


def _plactic2() -> GalleryEntry:
    alphabet = Alphabet(("1", "a", "b", "ba"))
    table = NormTable(
        alphabet,
        [
            (("b", "a"), ("1", "ba")),
            (("ba", "a"), ("a", "ba")),
            (("ba", "b"), ("b", "ba")),
            (("a", "1"), ("1", "a")),
            (("b", "1"), ("1", "b")),
            (("ba", "1"), ("1", "ba")),
        ],
        unit="1",
    )
    return GalleryEntry(
        name="plactic2",
        table=table,
        expectations={
            "breadth": (3, 3),
            "condition_home": True,
            "unit_condition": True,
            "action_equal": ((("a b a"), ("b a a"), True),),
        },
    )


def _malcev() -> GalleryEntry:
    names = ("1", "a", "b", "c", "d", "a'", "b'", "c'", "d'")
    alphabet = Alphabet(names)
    rules = [
        (("a", "b"), ("c", "d")),
        (("a'", "b'"), ("c'", "d'")),
        (("a'", "d"), ("c'", "b")),
    ]
    for x in names[1:]:
        rules.append(((x, "1"), ("1", x)))
    table = NormTable(alphabet, rules, unit="1")
    return GalleryEntry(
        name="malcev",
        table=table,
        expectations={
            "breadth": (3, 3),
            "condition_home": True,
            "unit_condition": True,
            "action_equal": ((("a d'"), ("c b'"), False),),
        },
    )


def _braid3() -> GalleryEntry:
    return _presented(
        "braid3",
        ("a", "b"),
        [("a b a", "b a b")],
        [
            ("1", ""),
            ("a", "a"),
            ("b", "b"),
            ("ab", "a b"),
            ("ba", "b a"),
            ("D", "a b a"),
        ],
        condition_home=True,
        unit_condition=True,
        states=6,
        action_equal=((("a b a"), ("b a b"), True),),
        table_entries=(
            (("a", "b"), ("1", "ab")),
            (("ab", "a"), ("1", "D")),
            (("ab", "b"), ("ab", "b")),
        ),
        mealy_transitions=(
            ("1", "a", "1", "a"),
            ("1", "D", "1", "D"),
            ("a", "1", "1", "a"),
            ("a", "b", "1", "ba"),
            ("a", "ab", "1", "D"),
            ("a", "ba", "ba", "a"),
            ("ab", "a", "a", "ab"),
            ("ab", "ab", "a", "D"),
        ),
    )


def _div3() -> GalleryEntry:
    states = Alphabet(("0", "1", "2"))
    alphabet = Alphabet(("0", "1"))
    # state r, digit x: value 2r + x; output its quotient by 3, move to the
    # remainder.
    machine = MealyMachine(
        states,
        alphabet,
        next_table=[[0, 1], [2, 0], [1, 2]],
        out_table=[[0, 0], [0, 1], [1, 1]],
    )
    return GalleryEntry(
        name="div3",
        machine=machine,
        expectations={
            "growth": (3, 9, 27, 81, 243),
            "minimize_classes": 3,
            "division_check_len": 8,
            "mealy_transitions": (("0", "1", "1", "0"), ("2", "0", "1", "1")),
        },
    )


def _mul2() -> GalleryEntry:
    states = Alphabet(("0", "1"))
    alphabet = Alphabet(("0", "1", "2"))
    # state c (carry), digit x: value 2x + c = 3c' + output.
    machine = MealyMachine(
        states,
        alphabet,
        next_table=[[0, 0, 1], [0, 1, 1]],
        out_table=[[0, 2, 1], [1, 0, 2]],
    )
    return GalleryEntry(
        name="mul2",
        machine=machine,
        expectations={
            "growth": (2, 4, 8, 16, 32),
            "dual_of": "div3",
            "iterate": {
                "start": "0",
                "word": "1 2",
                "steps": 6,
                "collected": "1 1 0 0 0 1",
                "cycle_start": 0,
                "period": 6,
            },
        },
    )


_BUILDERS = {
    "bicyclic": _bicyclic,
    "bs10": _bs10,
    "bs32": _bs32,
    "plactic2": _plactic2,
    "malcev": _malcev,
    "braid3": _braid3,
    "div3": _div3,
    "mul2": _mul2,
}
BASE_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def gallery(name: str) -> GalleryEntry:
    """The named entry; raises :class:`UnknownName` otherwise."""
    if name.startswith("finite:"):
        table, exps = _finite_table(name[len("finite:") :])
        return GalleryEntry(name=name, table=table, expectations=exps)
    builder = _BUILDERS.get(name)
    if builder is None:
        known = ", ".join(BASE_NAMES)
        raise UnknownName(f"unknown gallery entry {name!r} (known: {known}, finite:Z/<n>)")
    with node_budget(DEFAULT_NODE_BUDGET):  # entries are cached for the process
        return builder()


def gallery_tables() -> tuple[GalleryEntry, ...]:
    """Every shipped entry that carries a normalisation table."""
    machines = {e.name for e in gallery_machines()}
    names = [n for n in BASE_NAMES if n not in machines]
    names += ["finite:Z/2", "finite:Z/3"]
    return tuple(gallery(n) for n in names)


def gallery_machines() -> tuple[GalleryEntry, ...]:
    """Every shipped entry that carries a raw machine."""
    return (gallery("div3"), gallery("mul2"))
