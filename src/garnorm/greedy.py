"""Greedy normalisation tables from a presented monoid and a finite family.

Given a monoid presentation and a family of named elements containing the
unit, the greedy construction builds a normalisation table over the family
names: the image of a pair (x, y) is the factorisation c * d of the product
whose right part d is divisibility-maximal among all two-element
factorisations.  For well-behaved families (generating, closed under
left divisors and left-mcms) the resulting table has bounded breadth.

Equality of words is decided by a budgeted closure search over the
presentation's relations, applied in both directions at every position.
Length-changing relations are explored up to a configured length slack,
and exhausting the budget raises an error rather than guessing.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    Alphabet,
    AmbiguousMaximum,
    BudgetExhausted,
    DEFAULT_NODE_BUDGET,
    GarnormError,
    MissingUnit,
    NoFactorisation,
    NormTable,
    Symbol,
    Word,
    _word_from_ids,
)


@dataclass(frozen=True)
class PresentedMonoid:
    """A finite presentation: atoms, defining relations (unordered pairs of
    non-empty atom words), and budgets for the bounded word problem."""

    atoms: Alphabet
    relations: tuple[tuple[Word, Word], ...]
    search_budget: int = DEFAULT_NODE_BUDGET
    length_slack: int = 4

    def __post_init__(self):
        if self.search_budget <= 0:
            raise GarnormError("search budget must be positive")
        word = lambda w: _word_from_ids(self.atoms, self.atoms.ids(w))
        resolved = []
        for lhs, rhs in self.relations:
            if len(lhs) == 0 or len(rhs) == 0:
                raise GarnormError("relation sides must be non-empty")
            resolved.append((word(lhs), word(rhs)))
        object.__setattr__(self, "relations", tuple(resolved))


@dataclass(frozen=True)
class FamilyElement:
    """A named element of the family, given by a representative atom word.
    The empty representative stands for the unit."""

    name: Symbol
    rep: Word


def make_family(atoms: Alphabet, entries) -> tuple[FamilyElement, ...]:
    """Build a family from (name, representative text) pairs; the empty
    text is the unit.  Names become a fresh alphabet in the given order."""
    names = Alphabet(name for name, _ in entries)
    out = []
    units = 0
    for sym, (_, rep_text) in zip(names, entries):
        rep = atoms.word(rep_text) if rep_text else Word()
        units += not rep_text
        out.append(FamilyElement(sym, rep))
    if units > 1:
        raise GarnormError("at most one family element may have an empty representative")
    return tuple(out)


def family_unit(family) -> FamilyElement | None:
    for f in family:
        if len(f.rep) == 0:
            return f
    return None


# ---------------------------------------------------------------------------
# the bounded word problem


class _Search:
    """Budgeted equivalence-closure engine for one presentation.

    ``class_of(word, window)`` is the set of words of length <= window
    reachable by relation replacements; it is the equivalence class cut to
    the window whenever no connecting path needs longer intermediates.
    Closures and divisibility verdicts are memoised.
    """

    def __init__(self, monoid: PresentedMonoid):
        self.monoid = monoid
        rules = []
        for lhs, rhs in monoid.relations:
            rules.append((lhs.ids(), rhs.ids()))
            rules.append((rhs.ids(), lhs.ids()))
        self._rules = rules
        self._classes: dict = {}
        self._divides: dict = {}

    def class_of(self, word: tuple[int, ...], window: int) -> frozenset:
        key = (word, window)
        cached = self._classes.get(key)
        if cached is not None:
            return cached
        budget = self.monoid.search_budget
        rules = self._rules
        seen = {word}
        queue = deque([word])
        while queue:
            w = queue.popleft()
            n = len(w)
            for lhs, rhs in rules:
                k = len(lhs)
                if n - k + len(rhs) > window:
                    continue
                for i in range(n - k + 1):
                    if w[i : i + k] == lhs:
                        v = w[:i] + rhs + w[i + k :]
                        if v not in seen:
                            if len(seen) >= budget:
                                raise BudgetExhausted(
                                    f"word-problem search exceeded the budget of {budget} nodes"
                                )
                            seen.add(v)
                            queue.append(v)
        result = frozenset(seen)
        self._classes[key] = result
        return result

    def equal(self, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        window = max(len(u), len(v)) + self.monoid.length_slack
        return v in self.class_of(u, window)

    def divides(self, r1: tuple[int, ...], r2: tuple[int, ...]) -> bool:
        """Does the element of ``r1`` divide the element of ``r2`` as a
        factor (r2 = x * r1 * y for some x, y, possibly trivial)?"""
        key = (r1, r2)
        cached = self._divides.get(key)
        if cached is not None:
            return cached
        window = max(len(r1), len(r2)) + self.monoid.length_slack
        cls1 = self.class_of(r1, window)
        verdict = False
        for w in self.class_of(r2, window):
            n = len(w)
            if any(
                w[i:j] in cls1 for i in range(n + 1) for j in range(i, n + 1)
            ):
                verdict = True
                break
        self._divides[key] = verdict
        return verdict

    def right_divides(self, r1: tuple[int, ...], r2: tuple[int, ...]) -> bool:
        """Does some word equal to ``r2`` end with a word equal to ``r1``?"""
        window = max(len(r1), len(r2)) + self.monoid.length_slack
        cls1 = self.class_of(r1, window)
        for w in self.class_of(r2, window):
            if any(w[i:] in cls1 for i in range(len(w) + 1)):
                return True
        return False


@lru_cache(maxsize=None)
def _search_for(monoid: PresentedMonoid) -> _Search:
    return _Search(monoid)


def bounded_equal(monoid: PresentedMonoid, u: Word, v: Word) -> bool:
    """Decide u = v in the monoid by budgeted relation closure.

    True iff ``v`` is reachable from ``u`` by relation replacements within
    the length window max(|u|, |v|) + slack.  Raises
    :class:`BudgetExhausted` when the budget runs out (the answer is then
    unknown, never reported as False).
    """
    return _search_for(monoid).equal(monoid.atoms.ids(u), monoid.atoms.ids(v))


# ---------------------------------------------------------------------------
# divisibility and the greedy table


def _factorisations(
    search: _Search, e: tuple[int, ...], reps: list[tuple[int, ...]], maxlen: int
) -> list[tuple[int, int]]:
    """Index pairs (c, d), in lexicographic order, with reps[c] reps[d]
    equal to ``e`` within the window max(|e|, 2 * maxlen) + slack;
    ``maxlen`` is the length of the longest rep."""
    cls = search.class_of(e, max(len(e), 2 * maxlen) + search.monoid.length_slack)
    return [
        (c, d)
        for c in range(len(reps))
        for d in range(len(reps))
        if reps[c] + reps[d] in cls
    ]


def right_divisors(monoid: PresentedMonoid, e: Word, family) -> set[FamilyElement]:
    """Family elements d such that e = c * d for some family element c."""
    family = tuple(family)
    reps = [f.rep.ids() for f in family]
    maxlen = max((len(r) for r in reps), default=0)
    pairs = _factorisations(_search_for(monoid), monoid.atoms.ids(e), reps, maxlen)
    return {family[d] for _, d in pairs}


def greedy_table(monoid: PresentedMonoid, family, unit=None) -> NormTable:
    """Synthesise the greedy normalisation table over the family names.

    For each ordered pair (x, y), every factorisation of rep(x) * rep(y)
    into two family elements is a candidate; the entry is the candidate
    whose right part is the unique divisibility-maximal one.  Incomparable
    maxima, ties, or several left parts for the chosen right part raise
    :class:`AmbiguousMaximum`.  The result is checked for pair idempotence.
    """
    family = tuple(family)
    if unit is None:
        unit = family_unit(family)
    elif isinstance(unit, (str, Symbol)):
        name = unit.name if isinstance(unit, Symbol) else unit
        unit = next((f for f in family if f.name.name == name), None)
    if unit is None or unit not in family or len(unit.rep) != 0:
        raise MissingUnit(
            "the family must contain the unit (one element with an empty representative)"
        )

    alphabet = Alphabet(f.name.name for f in family)
    search = _search_for(monoid)
    reps = [f.rep.ids() for f in family]
    maxlen = max(len(r) for r in reps)

    def divides(i: int, j: int) -> bool:
        return search.divides(reps[i], reps[j])

    rules = []
    for xi, yi in itertools.product(range(len(family)), repeat=2):
        candidates = _factorisations(search, reps[xi] + reps[yi], reps, maxlen)
        if not candidates:
            raise NoFactorisation(
                f"{family[xi].name} {family[yi].name} has no factorisation "
                "into two family elements"
            )
        ds = []
        for _, di in candidates:
            if di not in ds:
                ds.append(di)
        maxima = [
            d
            for d in ds
            if not any(d2 != d and divides(d, d2) and not divides(d2, d) for d2 in ds)
        ]
        if len(maxima) != 1:
            names = ", ".join(str(family[d].name) for d in maxima)
            raise AmbiguousMaximum(
                f"pair ({family[xi].name} {family[yi].name}): no unique maximal "
                f"right part among {{{names}}}"
            )
        dstar = maxima[0]
        cs = [ci for ci, di in candidates if di == dstar]
        if len(cs) != 1:
            names = ", ".join(str(family[c].name) for c in cs)
            raise AmbiguousMaximum(
                f"pair ({family[xi].name} {family[yi].name}): right part "
                f"{family[dstar].name} admits several left parts {{{names}}}"
            )
        if (cs[0], dstar) != (xi, yi):
            rules.append(((xi, yi), (cs[0], dstar)))

    syms = alphabet.symbols
    table = NormTable(
        alphabet,
        [((syms[a], syms[b]), (syms[c], syms[d])) for (a, b), (c, d) in rules],
        unit=unit.name.name,
    )
    table.require_idempotent()
    return table


# ---------------------------------------------------------------------------
# family sanity checks


@dataclass
class FamilyClosureReport:
    """Advisory closure check: left divisors of family elements that match
    no family element, minimal common left-multiples likewise, and notes
    for verdicts the budget could not settle."""

    missing_left_divisors: list = field(default_factory=list)
    missing_left_mcms: list = field(default_factory=list)
    unknown: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.missing_left_divisors or self.missing_left_mcms or self.unknown)


def check_family_closure(monoid: PresentedMonoid, family) -> FamilyClosureReport:
    """Check the family for closure under left divisors and left-mcms.

    Left divisors are found as prefixes of words equal to a family
    representative; common left-multiples are sought among atom words no
    longer than the longest representative.  Advisory only: the greedy
    construction does not require a passing report.
    """
    family = tuple(family)
    report = FamilyClosureReport()
    search = _search_for(monoid)
    reps = {f: f.rep.ids() for f in family}
    maxlen = max((len(r) for r in reps.values()), default=0)
    window = 2 * maxlen + monoid.length_slack
    atoms = monoid.atoms

    def in_family(ids) -> bool:
        return any(ids in search.class_of(r, max(len(ids), len(r)) + monoid.length_slack)
                   for r in reps.values())

    # left divisors: prefixes of any word equal to a representative
    reported: list[frozenset] = []
    for f in family:
        try:
            cls = search.class_of(reps[f], window)
        except BudgetExhausted:
            report.unknown.append(f"left divisors of {f.name}: budget exhausted")
            continue
        prefixes = sorted({w[:i] for w in cls for i in range(len(w) + 1) if i <= maxlen})
        for p in prefixes:
            try:
                if in_family(p):
                    continue
                pcls = search.class_of(p, len(p) + monoid.length_slack)
                if any(p in cl for cl in reported):
                    continue
                reported.append(pcls)
                report.missing_left_divisors.append((f, _word_from_ids(atoms, p)))
            except BudgetExhausted:
                report.unknown.append(
                    f"left divisor '{_word_from_ids(atoms, p)}' of {f.name}: budget exhausted"
                )

    # left-mcms: minimal common left-multiples among short atom words
    pool = [
        t
        for n in range(maxlen + 1)
        for t in itertools.product(range(len(atoms)), repeat=n)
    ]
    for f, g in itertools.combinations(family, 2):
        try:
            common = [
                m
                for m in pool
                if search.right_divides(reps[f], m) and search.right_divides(reps[g], m)
            ]
            reported_m: list[frozenset] = []
            for m in common:
                proper = [
                    m2
                    for m2 in common
                    if m2 != m
                    and search.right_divides(m2, m)
                    and not search.equal(m2, m)
                ]
                if proper:
                    continue  # not minimal
                if in_family(m):
                    continue
                mcls = search.class_of(m, len(m) + monoid.length_slack)
                if any(m in cl for cl in reported_m):
                    continue
                reported_m.append(mcls)
                report.missing_left_mcms.append((f, g, _word_from_ids(atoms, m)))
        except BudgetExhausted:
            report.unknown.append(
                f"left-mcm of {f.name} and {g.name}: budget exhausted"
            )
    return report
