"""Greedy normalisation tables from a presented monoid and a finite family.

Given a monoid presentation and a family of named elements containing the
unit, the greedy construction builds a normalisation table over the family
names: the image of a pair (x, y) is the factorisation c * d of the product
whose right part d is maximal for two-sided (factor) divisibility among
all two-element factorisations.  For well-behaved families (generating,
closed under left divisors and left-mcms) the resulting table has bounded
breadth.

:meth:`_Search.equal`, the one decision of u = v behind :func:`bounded_equal`
and the closure check, first runs a shortlex Knuth–Bendix completion of
the presentation, once per search.  When that finishes, it compares
normal forms under the completed rules: exact, with no length window.
Otherwise it runs a budgeted closure search over the relations, applied
both ways at every position, with length-changing relations explored up
to ``LENGTH_SLACK`` letters past the longer word.  Exhausting the
:func:`~garnorm.core.node_budget` raises an error rather than guessing,
and a "not equal" the window may have cut short raises
:class:`WindowPruned`.  Divisibility, the greedy table and the closure
check's left divisors search classes in windows: they need class words.

The search stores each class it finds under every one of its words, so
the greedy table groups its products by class in one pass and works out
one entry per class.  It keeps its divisibility verdicts as long as its
classes, so repeated closure checks ask each question once.
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
    GarnormError,
    MissingUnit,
    NormTable,
    Symbol,
    WindowPruned,
    Word,
    _NODE_BUDGET,
    _identity_pairs,
    _word_from_ids,
)

#: How many letters past the longer of its words a closure search may go,
#: and past the longest relation side a completed rule's left side may go.
LENGTH_SLACK = 4


@dataclass(frozen=True)
class PresentedMonoid:
    """A finite presentation: atoms and defining relations (unordered pairs
    of non-empty atom words)."""

    atoms: Alphabet
    relations: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        word = lambda w: _word_from_ids(self.atoms, self.atoms.ids(w))
        resolved = []
        for lhs, rhs in self.relations:
            if len(lhs) == 0 or len(rhs) == 0:
                raise GarnormError("relation sides must be non-empty")
            resolved.append((word(lhs), word(rhs)))
        object.__setattr__(self, "relations", tuple(resolved))
        # every call looks up its search by presentation: hash it once
        object.__setattr__(self, "_hash", hash((self.atoms, self.relations)))

    def __hash__(self) -> int:
        return self._hash


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
    """Equivalence-closure engine for one presentation and node budget.

    ``class_of(word, window)`` is the set of words of length <= window
    reachable from ``word`` by relation replacements; it is the equivalence
    class cut to the window whenever no connecting path needs longer
    intermediates.  Every word asked lies within its window and every
    relation applies both ways, so each step can be undone in the window:
    the classes of a window partition its words.  So one memo,
    ``{window: {word: class}}``, stores each class under all its words.  A
    class over the budget raises from each of its words and is stored for
    none, so the memo changes no answer or error.  A class from which some
    move leaves the window is kept in ``_pruned``; a class outside it is
    closed under every move, so it is the whole equivalence class.  Both
    divisibility verdicts, two-sided and right, are memoised for the life
    of the search.

    ``completion()`` is the shortlex completion of the relations, run on
    the first call; when it finished, ``normal_form`` memoises each word's
    normal form under it.
    """

    def __init__(self, monoid: PresentedMonoid, budget: int):
        self.budget = budget
        rules = []
        for lhs, rhs in monoid.relations:
            lhs, rhs = monoid.atoms.ids(lhs), monoid.atoms.ids(rhs)
            rules += [(lhs, rhs), (rhs, lhs)]
        self._rules = rules
        self._classes: dict = {}  # window -> {word: its class}
        self._pruned: set = set()  # classes whose window cut a move
        # completion's (rules or None, nodes) once it has run; set here, not
        # added on first use, since an attribute added later gives searches
        # different layouts and slows every attribute read of every search
        self._completion = None
        self._normal_forms: dict = {}  # word -> its normal form under completion
        self._divides: dict = {}
        self._right_divides: dict = {}

    def class_of(self, word: tuple[int, ...], window: int) -> frozenset:
        """The class of ``word``, which must lie within ``window``."""
        known = self._classes.get(window)
        if known is None:
            known = self._classes[window] = {}
        cached = known.get(word)
        if cached is not None:
            return cached
        budget = self.budget
        rules = self._rules
        seen = {word}
        queue = deque([word])
        pruned = False
        while queue:
            w = queue.popleft()
            n = len(w)
            for lhs, rhs in rules:
                k = len(lhs)
                if n - k + len(rhs) > window:
                    pruned = pruned or _occurs(lhs, w)
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
        known.update(dict.fromkeys(result, result))
        if pruned:
            self._pruned.add(result)
        return result

    def equal(self, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        """Decide u = v, as :func:`bounded_equal` documents."""
        if self.completion() is not None:
            return self.normal_form(u) == self.normal_form(v)
        window = max(len(u), len(v)) + LENGTH_SLACK
        cls = self.class_of(u, window)
        if v in cls:
            return True
        if cls in self._pruned:
            raise WindowPruned(
                f"no path within the length window of {window} letters joins the words, "
                "but the window cut a move: the answer is unknown"
            )
        return False

    def completion(self) -> dict | None:
        """The completed rules ``{lhs: rhs}``, or None if completion gave
        up.  Completion runs on the first call."""
        if self._completion is None:
            self._completion = _complete(self._rules[::2], self.budget)
        return self._completion[0]

    def normal_form(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """``word``'s normal form under the finished completion."""
        normal = self._normal_forms.get(word)
        if normal is None:
            normal = self._normal_forms[word] = _reduce(self._completion[0], word)
        return normal

    def _contains(self, r1: tuple[int, ...], r2: tuple[int, ...], subwords) -> bool:
        """Does some word equal to ``r2`` have a subword, as ``subwords``
        lists them, equal to ``r1``?  The scan behind both verdicts."""
        window = max(len(r1), len(r2)) + LENGTH_SLACK
        cls1 = self.class_of(r1, window)
        for w in self.class_of(r2, window):
            if not cls1.isdisjoint(subwords(w)):
                return True
        return False

    def divides(self, r1: tuple[int, ...], r2: tuple[int, ...]) -> bool:
        """Does the element of ``r1`` divide the element of ``r2`` as a
        factor (r2 = x * r1 * y for some x, y, possibly trivial)?"""
        key = (r1, r2)
        verdict = self._divides.get(key)
        if verdict is None:
            verdict = self._divides[key] = self._contains(r1, r2, _factors)
        return verdict

    def right_divides(self, r1: tuple[int, ...], r2: tuple[int, ...]) -> bool:
        """Does some word equal to ``r2`` end with a word equal to ``r1``?"""
        key = (r1, r2)
        verdict = self._right_divides.get(key)
        if verdict is None:
            verdict = self._right_divides[key] = self._contains(r1, r2, _suffixes)
        return verdict


def _occurs(part: tuple[int, ...], w: tuple[int, ...]) -> bool:
    k = len(part)
    return any(w[i : i + k] == part for i in range(len(w) - k + 1))


def _reduce(rules: dict, word: tuple[int, ...]) -> tuple[int, ...]:
    """The normal form of ``word`` under ``rules``, rewritten leftmost
    first: the letters read so far never hold a left side, so a left side
    can only appear as their suffix."""
    lengths = sorted({len(lhs) for lhs in rules})
    out: list = []
    todo = list(reversed(word))
    while todo:
        out.append(todo.pop())
        for k in lengths:
            rhs = rules.get(tuple(out[-k:])) if k <= len(out) else None
            if rhs is not None:
                del out[-k:]
                todo += reversed(rhs)
                break
    return tuple(out)


def _complete(relations, budget: int) -> tuple[dict | None, int]:
    """Shortlex Knuth–Bendix completion of ``relations`` (Knuth and Bendix
    1970; Book and Otto, *String-Rewriting Systems*, 1993, ch. 2).

    Each equation is reduced on both sides, oriented by shortlex on atom
    ids and added as a rule; every rule whose left side holds the new left
    side is taken back out as an equation (its inclusion critical pair),
    and every right side is reduced.  The overlaps of the new rule with each rule, in
    both orders, are queued as equations.  When the queue empties, every
    critical pair is joinable and the rules are confluent, so two words are
    equal iff their normal forms are.  Each equation costs one node of the
    budget as it is queued, so the queue never outgrows the budget.
    Completion gives up (no rules) when the next equation is over the
    budget or a left side outgrows the longest relation side by more than
    ``LENGTH_SLACK``.  Returns the rules and the nodes charged, which are
    over the budget when it gave up for the budget.
    """
    cap = max((len(w) for pair in relations for w in pair), default=0) + LENGTH_SLACK
    rules: dict = {}
    queue = deque(relations)
    done = 0
    while queue:
        if done + len(queue) > budget:
            return None, done + len(queue)
        done += 1
        u, v = queue.popleft()
        u, v = _reduce(rules, u), _reduce(rules, v)
        if u == v:
            continue
        lhs, rhs = (u, v) if (len(u), u) > (len(v), v) else (v, u)
        if len(lhs) > cap:
            return None, done + len(queue)
        for l in [l for l in rules if _occurs(lhs, l)]:
            queue.append((l, rules.pop(l)))
        rules[lhs] = rhs
        for l, r in rules.items():
            rules[l] = _reduce(rules, r)
        for l, r in rules.items():
            queue += _overlaps(lhs, rhs, l, r)
            if l != lhs:
                queue += _overlaps(l, r, lhs, rhs)
    return rules, done


def _overlaps(l1, r1, l2, r2):
    """The critical pairs of l1 -> r1 and l2 -> r2 where a proper suffix of
    l1 is a proper prefix of l2."""
    return [
        (r1 + l2[k:], l1[:-k] + r2)
        for k in range(1, min(len(l1), len(l2)))
        if l1[-k:] == l2[:k]
    ]


def _factors(w: tuple[int, ...]):
    n = len(w)
    return (w[i:j] for i in range(n + 1) for j in range(i, n + 1))


def _suffixes(w: tuple[int, ...]):
    return (w[i:] for i in range(len(w) + 1))


_search = lru_cache(maxsize=None)(_Search)  # one per (presentation, budget)


def _search_for(monoid: PresentedMonoid) -> _Search:
    """The search for ``monoid`` under the node budget in force."""
    return _search(monoid, _NODE_BUDGET.get())


def bounded_equal(monoid: PresentedMonoid, u: Word, v: Word) -> bool:
    """Decide u = v in the monoid.

    When the shortlex completion of the presentation finished within the
    budget, the answer is exact: u = v iff both have the same normal form
    under the completed rules.  Otherwise it is True iff ``v`` is reachable
    from ``u`` by relation replacements within the length window
    max(|u|, |v|) + ``LENGTH_SLACK``, and False only when no move from the
    class of ``u`` left that window, so the class is whole.  If a move
    did, :class:`WindowPruned` is raised; when the budget runs out,
    :class:`BudgetExhausted`.  An unknown answer is never reported as False.
    """
    return _search_for(monoid).equal(monoid.atoms.ids(u), monoid.atoms.ids(v))


# ---------------------------------------------------------------------------
# divisibility and the greedy table


def _family_reps(monoid: PresentedMonoid, family):
    """The family, its representatives as atom ids (by name) and their longest length."""
    family = tuple(family)
    reps = [monoid.atoms.ids(f.rep) for f in family]
    return family, reps, max(map(len, reps), default=0)


def right_divisors(monoid: PresentedMonoid, e: Word, family) -> set[FamilyElement]:
    """Family elements d such that e = c * d for some family element c,
    within the window of :func:`greedy_table` or of ``e`` if longer."""
    family, reps, maxlen = _family_reps(monoid, family)
    e = monoid.atoms.ids(e)
    cls = _search_for(monoid).class_of(e, max(len(e), 2 * maxlen) + LENGTH_SLACK)
    return {family[d] for rc in reps for d, rd in enumerate(reps) if rc + rd in cls}


def greedy_table(monoid: PresentedMonoid, family, unit=None) -> NormTable:
    """Synthesise the greedy normalisation table over the family names.

    For each ordered pair (x, y), every factorisation of rep(x) * rep(y)
    into two family elements is a candidate; the entry is the candidate
    whose right part is the unique maximal one for two-sided (factor)
    divisibility, as :meth:`_Search.divides` decides it.  Incomparable
    maxima, ties, or several left parts for the chosen right part raise
    :class:`AmbiguousMaximum`.  The result is checked for pair idempotence.
    A ``unit`` given as a family element, a name or a symbol is matched by name.

    Every product has length at most 2 * maxlen, so all classes are taken
    in the one window 2 * maxlen + ``LENGTH_SLACK``, which they partition
    (see :class:`_Search`).  The candidates of (x, y), and so its entry,
    depend only on the class of its product: one pass in product order
    groups the pairs by class, and each group's entry is worked out once.
    Errors come as a pair-by-pair construction raises them: a group fails
    at its first pair, and a :class:`BudgetExhausted` met in the pass is
    raised once the groups begun before it are complete and settled.
    """
    family, reps, maxlen = _family_reps(monoid, family)
    alphabet = Alphabet(f.name.name for f in family)
    if unit is None:
        unit = family_unit(family)
    else:
        unit = family[alphabet[unit.name if isinstance(unit, FamilyElement) else unit].id]
    if unit is None or len(unit.rep) != 0:
        raise MissingUnit(
            "the family must contain the unit (one element with an empty representative)"
        )

    search = _search_for(monoid)
    window = 2 * maxlen + LENGTH_SLACK
    g = len(family)
    groups: dict = {}  # class -> its pairs (x, y) in product order
    stopped = None
    for x, y in itertools.product(range(g), repeat=2):
        product = reps[x] + reps[y]
        if stopped is None:
            try:
                groups.setdefault(search.class_of(product, window), []).append((x, y))
            except BudgetExhausted as exc:
                stopped = exc
        else:
            for cls, pairs in groups.items():
                if product in cls:
                    pairs.append((x, y))
                    break

    def divides(i: int, j: int) -> bool:
        return search.divides(reps[i], reps[j])

    fixed = _identity_pairs(g)
    images = [None] * (g * g)
    for pairs in groups.values():
        xi, yi = pairs[0]
        ds = list(dict.fromkeys(d for _, d in pairs))
        maxima = [
            d
            for d in ds
            if not any(d2 != d and divides(d, d2) and not divides(d2, d) for d2 in ds)
        ]
        # a window-limited divides need not be transitive, so there may be
        # no maximum at all
        if len(maxima) != 1:
            names = ", ".join(str(family[d].name) for d in maxima)
            raise AmbiguousMaximum(
                f"pair ({family[xi].name} {family[yi].name}): no unique maximal "
                f"right part among {{{names}}}"
            )
        dstar = maxima[0]
        cs = [c for c, d in pairs if d == dstar]
        if len(cs) != 1:
            names = ", ".join(str(family[c].name) for c in cs)
            raise AmbiguousMaximum(
                f"pair ({family[xi].name} {family[yi].name}): right part "
                f"{family[dstar].name} admits several left parts {{{names}}}"
            )
        image = fixed[cs[0] * g + dstar]
        for a, b in pairs:
            images[a * g + b] = image
    if stopped is not None:
        raise stopped

    table = NormTable._of_pairs(alphabet, tuple(images), alphabet[unit.name.name])
    table.require_idempotent()
    return table


# ---------------------------------------------------------------------------
# family sanity checks


@dataclass
class FamilyClosureReport:
    """Advisory closure check: left divisors of family elements that match
    no family element, minimal common left-multiples likewise, and notes
    for verdicts the budget or a pruned window could not settle."""

    missing_left_divisors: list = field(default_factory=list)
    missing_left_mcms: list = field(default_factory=list)
    unknown: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.missing_left_divisors or self.missing_left_mcms or self.unknown)


def _cause(exc: BudgetExhausted) -> str:
    return "window pruned" if isinstance(exc, WindowPruned) else "budget exhausted"


def check_family_closure(monoid: PresentedMonoid, family) -> FamilyClosureReport:
    """Check the family for closure under left divisors and left-mcms.

    Left divisors are prefixes of the words of a representative's class in
    the window of :func:`greedy_table`; common left-multiples are sought
    among atom words no longer than the longest representative.  Family
    membership, "already reported" and minimality ask :meth:`_Search.equal`,
    and an entry it cannot settle is unknown, naming the cause: "window
    pruned" or "budget exhausted".  Advisory only: the greedy construction
    does not require a passing report.

    The scan for a proper right divisor of a common multiple m stops at the
    first one: that True verdict is a witness whatever the verdicts not yet
    asked would say, and m is minimal only when all are asked and False, so
    an error before any witness still labels the pair unknown.
    """
    family, reps, maxlen = _family_reps(monoid, family)
    report = FamilyClosureReport()
    search = _search_for(monoid)
    equal, right_divides = search.equal, search.right_divides
    atoms = monoid.atoms

    def unreported(w, reported: list) -> bool:
        """Is ``w`` equal to no family element and to no word in
        ``reported``?  If so, it joins ``reported``."""
        if any(equal(r, w) for r in reps) or any(equal(x, w) for x in reported):
            return False
        reported.append(w)
        return True

    # left divisors: prefixes of any word equal to a representative
    reported: list = []
    for f, rf in zip(family, reps):
        try:
            cls = search.class_of(rf, 2 * maxlen + LENGTH_SLACK)
        except BudgetExhausted:
            report.unknown.append(f"left divisors of {f.name}: budget exhausted")
            continue
        prefixes = sorted({w[:i] for w in cls for i in range(len(w) + 1) if i <= maxlen})
        for p in prefixes:
            try:
                if unreported(p, reported):
                    report.missing_left_divisors.append((f, _word_from_ids(atoms, p)))
            except BudgetExhausted as exc:
                report.unknown.append(
                    f"left divisor '{_word_from_ids(atoms, p)}' of {f.name}: {_cause(exc)}"
                )

    # left-mcms: minimal common left-multiples among short atom words
    pool = [
        t
        for n in range(maxlen + 1)
        for t in itertools.product(range(len(atoms)), repeat=n)
    ]
    multiples: dict = {}  # rep -> the pool words it right-divides; order-free, see _Search
    for (f, rf), (g, rg) in itertools.combinations(zip(family, reps), 2):
        try:
            if rf not in multiples:
                multiples[rf] = [m for m in pool if right_divides(rf, m)]
            common = [m for m in multiples[rf] if right_divides(rg, m)]
            reported_m: list = []
            for m in common:
                minimal = not any(
                    m2 != m and right_divides(m2, m) and not equal(m2, m) for m2 in common
                )
                if minimal and unreported(m, reported_m):
                    report.missing_left_mcms.append((f, g, _word_from_ids(atoms, m)))
        except BudgetExhausted as exc:
            report.unknown.append(f"left-mcm of {f.name} and {g.name}: {_cause(exc)}")
    return report
