"""Mealy automata built from normalisation tables, their duals, and exact
decision procedures for their actions.

A Mealy machine here is a finite transducer reading and writing one letter
per step over a single alphabet: every (state, letter) pair has exactly
one next state and one output letter, so runs are deterministic and
length-preserving.  Running the machine from a state maps words to words
of the same length (the state's production function), and the semigroup
these functions generate is the object of interest.  Swapping the roles of
states and letters gives the dual machine.

Two constructions tie machines to a table.  ``build_mealy`` makes the
state read its *right* context: from state q on input i the machine looks
up the table at (i, q), emits the rightmost letter of the image and moves
to the leftmost.  Its dual, ``build_thurston``, sweeps instead: from state
x on input y it looks up (x, y), emits the leftmost letter and carries the
rightmost, so one run performs one left-to-right sweep of the rewriting
system and iterated runs compute normal forms.

Production functions of the first machine act on reversed normal words;
``padding_normal_form`` performs the reversal so callers only ever see
forward words.

A machine is stored as its pair table in the flat encoding of ``NormTable``:
(output, next state) of state q on letter i at index q * s + i over s
letters.  So the sweeping transducer is the table's own pairs, and a run
from q over w writes what the sweep ``core._sweep`` of the word q w writes;
a letter threaded through a tuple of states is one sweep of the dual
machine's pairs (see :func:`distinguishing_word`).
Machines list their *idle* states, those that write every letter they read
and stay put.  Every run goes through one loop, :func:`_run_in_place`,
which stops at the first idle state, since the rest of its output is the
rest of its input.  In ``build_mealy(table)`` the unit is idle when the
table sends (x, 1) to (1, x) for every x, so a run over unit padding ends
once it carries the unit.

Machines are immutable and all operations are pure.  A machine whose
states are its letters keeps the table of its own pairs in ``_table``, set
when the machine is built (``build_thurston`` keeps the table it was
given); the gates of :func:`thurston_normalize` and :func:`growth` read
the table's verdict and padding letter off that table, which computes
them once (``NormTable._inserter``).  Every other memo table is
per-call except four, each computed on first use and kept on the
machine: the dual machine (see :func:`dual`), the output and next-state
rows of each state (see :func:`_state_rows`), the representative of each
action class of length-2 state words (see :func:`_pair_reps`) and the
fixed pairs behind the gate of :func:`growth` (see :func:`_fixed_pairs`),
which :func:`action_equal` reads too.
Each is written once, without a lock; two threads that race compute equal
values, and either assignment leaves a correct value, so concurrent
readers are safe.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import (
    _NODE_BUDGET,
    Alphabet,
    BudgetExhausted,
    GarnormError,
    NormTable,
    Symbol,
    Word,
    _identity_pairs,
    _insert_ids,
    _sweep,
    _sweep_to_normal,
    _word_from_ids,
)


class MealyMachine:
    """A finite transducer with one output letter and one next state per
    (state, letter) pair.

    ``next_table[q][i]`` and ``out_table[q][i]`` are indexed by state id
    and letter id; both are total.  The machine keeps them as one flat
    pair table, (output, next state) at index q * s + i over s letters,
    and ``_idle[q]``, true when state q on every letter i writes i and
    stays q.  When the states are the letters, ``_table`` is the table with
    the machine's pairs, which decides whether they are home and finds
    their padding letter; otherwise it is None.
    """

    __slots__ = (
        "states", "alphabet", "_pairs", "_idle", "_rows", "_reps", "_fixed", "_table", "_dual",
    )

    def __init__(
        self,
        states: Alphabet,
        alphabet: Alphabet,
        next_table: Iterable[Iterable[int]],
        out_table: Iterable[Iterable[int]],
    ):
        nxt = tuple(tuple(row) for row in next_table)
        out = tuple(tuple(row) for row in out_table)
        q, s = len(states), len(alphabet)
        if len(nxt) != q or len(out) != q:
            raise GarnormError("transition tables must have one row per state")
        for row in nxt:
            if len(row) != s or not all(0 <= v < q for v in row):
                raise GarnormError("next-state table is not total over the stateset")
        for row in out:
            if len(row) != s or not all(0 <= v < s for v in row):
                raise GarnormError("output table is not total over the alphabet")
        self._store(states, alphabet, tuple(pair for o, n in zip(out, nxt) for pair in zip(o, n)))

    @classmethod
    def _of_pairs(cls, states: Alphabet, alphabet: Alphabet, pairs) -> "MealyMachine":
        """The machine on a flat pair table that is already total."""
        m = cls.__new__(cls)
        m._store(states, alphabet, pairs)
        return m

    def _store(self, states: Alphabet, alphabet: Alphabet, pairs) -> None:
        s = len(alphabet)
        self.states, self.alphabet, self._pairs = states, alphabet, pairs
        self._idle = tuple(
            all(pairs[x * s + i] == (i, x) for i in range(s)) for x in range(len(states))
        )
        self._rows: tuple[tuple, tuple] | None = None  # see _state_rows
        self._reps: tuple[tuple[int, int], ...] | None = None  # see _pair_reps
        self._fixed: tuple[tuple[int, ...], ...] | None = None  # see _fixed_pairs
        self._table = NormTable._of_pairs(alphabet, pairs) if states == alphabet else None
        self._dual: MealyMachine | None = None  # see dual

    def _pair(self, q: Symbol | str, i: Symbol | str) -> tuple[int, int]:
        return self._pairs[self.states[q].id * len(self.alphabet) + self.alphabet[i].id]

    def next_state(self, q: Symbol | str, i: Symbol | str) -> Symbol:
        return self.states.symbols[self._pair(q, i)[1]]

    def output(self, q: Symbol | str, i: Symbol | str) -> Symbol:
        return self.alphabet.symbols[self._pair(q, i)[0]]

    def transitions(self):
        """All transitions (state, letter, next, output) in table order."""
        states, letters = self.states.symbols, self.alphabet.symbols
        for k, (o, n) in enumerate(self._pairs):
            q, i = divmod(k, len(letters))
            yield states[q], letters[i], states[n], letters[o]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MealyMachine)
            and self.states == other.states
            and self.alphabet == other.alphabet
            and self._pairs == other._pairs
        )

    def __hash__(self) -> int:
        return hash((self.states, self.alphabet, self._pairs))

    def __repr__(self) -> str:
        return (
            f"MealyMachine(states={list(self.states.names())!r}, "
            f"alphabet={list(self.alphabet.names())!r})"
        )


@dataclass(frozen=True)
class ActionClassPartition:
    """States grouped by their induced word functions (Nerode-stable)."""

    classes: dict
    states: Alphabet

    @property
    def num_classes(self) -> int:
        return len(set(self.classes.values()))

    def class_of(self, state: Symbol | str) -> int:
        """The class of the state with this name, or with this symbol's name."""
        return self.classes[self.states[state]]


@dataclass(frozen=True)
class IterationResult:
    """Outcome of iterated runs: the concatenated arrival states, the
    successive working words (index 0 is the input), and the point where
    the working word first recurs, if it does within the requested steps."""

    collected: Word
    words: tuple[Word, ...]
    cycle_start: int | None
    period: int | None


# ---------------------------------------------------------------------------
# construction


def build_thurston(table: NormTable) -> MealyMachine:
    """The sweeping transducer: from state x on input y, look up (x, y);
    emit the leftmost letter of the image and carry the rightmost.  Its
    pair table is the table's own, and it keeps ``table`` itself, so the
    table and its transducers share one home verdict."""
    table.require_idempotent()
    m = MealyMachine._of_pairs(table.alphabet, table.alphabet, table._pairs)
    m._table = table
    return m


def build_mealy(table: NormTable) -> MealyMachine:
    """The transducer whose state is the right factor, the dual of
    :func:`build_thurston`: from state q on input i, look up (i, q); emit
    the rightmost letter of the image and move to the leftmost."""
    return dual(build_thurston(table))


def dual(m: MealyMachine) -> MealyMachine:
    """Exchange states and letters: transition x --i|j--> y becomes
    i --x|y--> j.  An involution: the dual is built once and kept in
    ``m._dual``, and its own dual is ``m``, so ``build_mealy(table)`` and
    the gate of :func:`growth` on it reach ``table`` itself."""
    d = m._dual
    if d is None:
        q, s, pairs = len(m.states), len(m.alphabet), m._pairs
        flipped = tuple(pairs[x * s + i][::-1] for i in range(s) for x in range(q))
        d = MealyMachine._of_pairs(m.alphabet, m.states, flipped)
        d._dual, m._dual = m, d
    return d


# ---------------------------------------------------------------------------
# running


def _run_in_place(m: MealyMachine, qs: Iterable[int], ids: list[int]) -> int:
    """Run the states ``qs`` one after another over ``ids``, rewriting it in
    place; the arrival state of the last run.  A run stops at the first
    idle state, which would write the letters left as they are."""
    pairs, s, idle = m._pairs, len(m.alphabet), m._idle
    for q in qs:
        j = 0
        try:
            while not idle[q]:
                ids[j], q = pairs[q * s + ids[j]]
                j += 1
        except IndexError:  # ids[j] past the end: the run read every letter
            pass
    return q


def _run_ids(m: MealyMachine, q: int, ids: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    res = list(ids)
    final = _run_in_place(m, (q,), res)
    return tuple(res), final


def run(m: MealyMachine, x: Symbol | str, w: Word) -> tuple[Word, Symbol]:
    """Feed ``w`` from state ``x``; the output word and the arrival state.
    The empty word maps to itself.  Once the run reaches an idle state (one
    that on every letter writes that letter and stays), the rest of ``w``
    is copied and that state is the arrival state."""
    res, final = _run_ids(m, m.states[x].id, m.alphabet.ids(w))
    return _word_from_ids(m.alphabet, res), m.states.symbols[final]


def _run_word_ids(m: MealyMachine, u: Word, ids: tuple[int, ...]) -> list[int]:
    if len(u) == 0:
        raise GarnormError("the state word must be non-empty")
    res = list(ids)
    _run_in_place(m, m.states.ids(u), res)
    return res


def run_word(m: MealyMachine, u: Word, w: Word) -> Word:
    """Composite production function of the state word ``u``; the first
    letter of ``u`` acts first."""
    return _word_from_ids(m.alphabet, _run_word_ids(m, u, m.alphabet.ids(w)))


# ---------------------------------------------------------------------------
# deciding action equality


def _pair_reps(m: MealyMachine) -> tuple[tuple[int, int], ...]:
    """The least pair, in lexicographic order, of the action class of each
    length-2 state word, at index a * q + b for the pair (a, b).

    Action equality is a congruence on state words, so these classes form
    a quadratic rewriting system on them, in the flat pair encoding of
    ``NormTable``: replacing an adjacent pair by its representative keeps
    the action.  Computed once per machine by refining level 2 of
    :func:`_levels` with every pair its own representative (q**2 * s row
    entries), and kept in ``m._reps``.
    """
    reps = m._reps
    if reps is None:
        *_, (pairs, outs, succs) = _levels(m, 2, _identity_pairs(len(m.states)))
        least: dict = {}
        reps = tuple(least.setdefault(c, p) for p, c in zip(pairs, _refine(outs, succs)))
        m._reps = reps
    return reps


def _reduce(m: MealyMachine, tup: tuple[int, ...]) -> tuple[int, ...]:
    """A state tuple with the action of ``tup`` in which every adjacent pair
    is its own representative.  Each replacement makes the tuple
    lexicographically smaller, so the sweeps stop."""
    if len(tup) < 2:
        return tup
    reps, q = _pair_reps(m), len(m.states)
    while (swept := tuple(_sweep(reps, q, tup[0], tup[1:]))) != tup:
        tup = swept
    return tup


def distinguishing_word(m: MealyMachine, u: Word, v: Word) -> Word | None:
    """The shortlex-least input on which the actions of ``u`` and ``v``
    differ, or None when they agree on all words.

    Both state words are first reduced by the representatives of the
    length-2 action classes (a one-time cost of q**2 * s row entries per
    machine); when the reduced tuples coincide the actions agree.
    Otherwise a breadth-first bisimulation runs over pairs of state
    tuples, trying letters in order: a pair is consistent iff every letter
    produces equal threaded outputs and a consistent successor pair.  A
    letter j is threaded through a tuple t by one sweep of the dual
    machine, ``core._sweep(dual(m)._pairs, q, j, t)``, whose letters are
    the states of t: it writes the successor tuple and carries the output
    of the last state.  The reachable pair set is finite, so the search
    terminates, and the first inconsistent letter ends the shortlex-least
    distinguishing input, which depends only on the two actions.

    On machines that pass the gate of :func:`growth`, :func:`action_equal`
    reads normal forms instead; this search is then the path to a witness,
    and the oracle the tests check those normal forms against.
    """
    su = m.states.ids(u)
    sv = m.states.ids(v)
    if not su or not sv:
        raise GarnormError("state words must be non-empty")
    start = (_reduce(m, su), _reduce(m, sv))
    if start[0] == start[1]:
        return None
    seen = {start}
    parent: dict = {}
    queue = deque([start])
    pairs, q = dual(m)._pairs, len(m.states)
    while queue:
        cur = queue.popleft()
        a, b = cur
        for j in range(len(m.alphabet)):
            na, nb = _sweep(pairs, q, j, a), _sweep(pairs, q, j, b)
            if na.pop() != nb.pop():
                letters = [j]
                p = cur
                while p != start:
                    p, jj = parent[p]
                    letters.append(jj)
                letters.reverse()
                return _word_from_ids(m.alphabet, letters)
            child = (tuple(na), tuple(nb))
            if child not in seen:
                seen.add(child)
                parent[child] = (cur, j)
                queue.append(child)
    return None


def action_equal(m: MealyMachine, u: Word, v: Word) -> bool:
    """True iff the production functions of ``u`` and ``v`` agree on all
    words.

    A machine that passes the gate of :func:`growth` is the Mealy machine
    of a home table T with padding letter 1, the table of the pairs of
    ``dual(m)``; there the answer is read off two insertion runs of T
    (``core._insert_ids``), one per state word, with the leading padding
    letters stripped.  Every other machine runs :func:`distinguishing_word`,
    which reads and checks the state words as this path does: u, then v,
    then the error on an empty word.  The gated answer is exact:

    - for words of one length, the growth docstring's argument: they act
      alike iff their unit-padded normal forms agree;
    - the unit state is idle, so it acts as the identity, and u acts as
      1^k u for every k;
    - the counted padding of ``_insert_ids`` gives N(u) = 1^j z_u with z_u
      free of leading padding, and N(1^k u) = 1^(k+j) z_u.  So padding the
      shorter word to the other's length shows that u and v act alike iff
      z_u = z_v.
    """
    if not _fixed_pairs(m):
        return distinguishing_word(m, u, v) is None
    su = m.states.ids(u)
    sv = m.states.ids(v)
    if not su or not sv:
        raise GarnormError("state words must be non-empty")
    table = dual(m)._table
    pairs, g, pad = table._pairs, len(m.states), table._pad
    nu, nv = _insert_ids(pairs, g, su, pad), _insert_ids(pairs, g, sv, pad)
    # the padding letters of a normal word are its prefix (see _insert_ids)
    return nu[nu.count(pad):] == nv[nv.count(pad):]


def _refine(initial_keys: list, next_rows: list) -> list[int]:
    """Partition refinement: start from ``initial_keys``, refine by the
    class rows of ``next_rows`` until stable.  Class ids are assigned in
    first-occurrence order, so the result is deterministic."""

    def assign(keys):
        ids: dict = {}
        return [ids.setdefault(k, len(ids)) for k in keys]

    cls = assign(initial_keys)
    while True:
        get = cls.__getitem__
        new = assign([(c, *map(get, row)) for c, row in zip(cls, next_rows)])
        if new == cls:
            return cls
        cls = new


def _state_rows(m: MealyMachine) -> tuple[tuple, tuple]:
    """The output rows and the next-state rows of the states of ``m``, one
    tuple per state over the letters, read off the flat pair table once
    and kept in ``m._rows``, written once without a lock as ``m._reps``
    is."""
    rows = m._rows
    if rows is None:
        q, s = len(m.states), len(m.alphabet)
        out, nxt = zip(*m._pairs) if m._pairs else ((), ())
        rows = m._rows = (tuple(out[x * s:(x + 1) * s] for x in range(q)),
                          tuple(nxt[x * s:(x + 1) * s] for x in range(q)))
    return rows


def _levels(m: MealyMachine, length: int, reps=None):
    """For k = 1 .. ``length``, the reduced state tuples of length k (those
    whose adjacent pairs are all representatives ``reps``, by default
    :func:`_pair_reps`) in lexicographic order, with their product-machine
    rows: ``outs[x][j]`` is the output of tuple x on letter j, and
    ``succs[x][j]`` the position of a reduced tuple with the action of its
    successor.  Every tuple reduces to one on its level, so the levels meet
    every action class.

    The prefix of a reduced tuple is reduced, so level k + 1 is built from
    level k.  Letter j through t + (b,) first passes t, which outputs
    o = outs[t][j] and moves to a tuple with the action of s = succs[t][j];
    then b reads o.  So the row entry of t + (b,) is b's output on o, and
    the position of the reduction of s + (b's next state on o).  With
    every pair its own representative, no successor needs a reduction.

    Level k + 1 has at most q times the tuples of level k, each a node of
    the :func:`node_budget`: :class:`BudgetExhausted` is raised before a
    level whose bound exceeds it is built.  The level that
    :func:`_pair_reps` builds is cached on the machine, so it is not
    charged: no cached value depends on the budget it was first asked
    under.
    """
    if length < 1:
        return
    q = len(m.states)
    budget = _NODE_BUDGET.get() if reps is None else float("inf")
    out, nxt = _state_rows(m)
    tuples, outs, succs = [(x,) for x in range(q)], out, nxt
    yield tuples, outs, succs
    for k in range(2, length + 1):
        if len(tuples) * q > budget:
            raise BudgetExhausted(
                f"level {k} of up to {len(tuples) * q} state tuples exceeds the node budget"
                f" of {budget}"
            )
        reps = _pair_reps(m) if reps is None else reps
        level = [(r, b) for r, t in enumerate(tuples) for b in range(q)
                 if reps[t[-1] * q + b] == (t[-1], b)]
        prev, tuples = tuples, [tuples[r] + (b,) for r, b in level]
        # position of the reduction of prev[r] + (b,), keyed r * q + b
        ext = {r * q + b: k for k, (r, b) in enumerate(level)}
        index = None  # position of each tuple, built on the first miss
        new_outs, new_succs = [], []
        for r, b in level:
            ob, nb = out[b], nxt[b]
            row = []
            for sr, o in zip(succs[r], outs[r]):
                key = sr * q + nb[o]
                k = ext.get(key)
                if k is None:
                    if index is None:
                        index = {t: k for k, t in enumerate(tuples)}
                    k = ext[key] = index[_reduce(m, prev[sr] + (nb[o],))]
                row.append(k)
            new_outs.append(tuple([ob[o] for o in outs[r]]))
            new_succs.append(row)
        outs, succs = new_outs, new_succs
        del prev, level, ext, index  # not needed while the caller refines
        yield tuples, outs, succs


def minimize(m: MealyMachine) -> ActionClassPartition:
    """Group states with identical induced word functions: the state words
    of length 1 under :func:`tuple_action_classes`.

    Initial classes come from the output rows; refinement by next-state
    class rows runs to a fixed point.  A distinguishing input for states
    in different classes can be obtained from :func:`distinguishing_word`.
    """
    _, outs, succs = next(_levels(m, 1))
    return ActionClassPartition(dict(zip(m.states.symbols, _refine(outs, succs))), m.states)


def tuple_action_classes(m: MealyMachine, length: int) -> dict[tuple[Symbol, ...], int]:
    """Action-equality classes of all state words of exactly ``length``,
    keyed by state tuple in ``itertools.product`` order and numbered in
    order of first occurrence.  Each key is a node of the
    :func:`node_budget`: :class:`BudgetExhausted` is raised before the
    q**length keys are built when they exceed it."""
    if length < 1:
        raise GarnormError("length must be at least 1")
    keys, budget = len(m.states) ** length, _NODE_BUDGET.get()
    if keys > budget:
        raise BudgetExhausted(f"the {keys} state tuples exceed the node budget of {budget}")
    *_, (reduced, outs, succs) = _levels(m, length)
    cls = dict(zip(reduced, _refine(outs, succs)))
    syms = m.states.symbols
    renumber: dict = {}
    return {
        tuple(syms[i] for i in t): renumber.setdefault(cls[_reduce(m, t)], len(renumber))
        for t in itertools.product(range(len(syms)), repeat=length)
    }


def _fixed_pairs(m: MealyMachine) -> tuple[tuple[int, ...], ...]:
    """At index b, the letters a whose pair (a, b) the table T of ``m``
    fixes, when ``m`` passes the gate of :func:`growth`; the empty tuple
    for every other machine.  Computed once per machine and kept in
    ``m._fixed``, written once without a lock as ``m._reps`` is."""
    fixed = m._fixed
    if fixed is None:
        fixed, g = (), len(m.alphabet)
        table = dual(m)._table
        if table is not None and table._incremental() and table._pad >= 0:
            pairs = table._pairs
            fixed = tuple(
                tuple(a for a in range(g) if pairs[a * g + b] == (a, b)) for b in range(g)
            )
        m._fixed = fixed
    return fixed


def growth(m: MealyMachine, max_len: int = 5) -> list[int]:
    """Entry k: the number of action-equality classes of state words of
    length exactly k+1.

    A machine that passes the gate below gets the number of normal words
    of length k+1, counted as the walks of k steps through the pairs its
    table fixes: O(k * g**2) integer work.  Every other machine refines
    its levels of reduced state tuples (see :func:`_levels`), and raises
    :class:`BudgetExhausted` before a level could outgrow the
    :func:`node_budget`.  A negative ``max_len`` is a :class:`GarnormError`.

    The gate reads only the machine's own pairs, so a machine built here
    and one read from a file take the same route.  Let T be the table
    whose pairs are those of ``dual(m)``, so that m is the dual of T's
    sweeping transducer, as ``build_mealy(T)`` is.  The machine passes
    when (a) its states are its letters, (b) T is idempotent and
    satisfies :func:`condition_home`, and (c) some letter 1 is an idle
    state, that is T sends (x, 1) to (1, x), and T fixes every (1, x):
    1 is T's padding letter.  At most one letter meets (c): for two, u and
    v, T would send (u, v) both to (v, u) and to itself.  Then m is the
    Mealy machine of a table of class (4,3) with a unit, and the classes
    of length k are the normal words of length k:

    - distinct normal words act differently: :func:`padding_normal_form`
      reads the unit-padded normal form of a state word back from its
      action on units, and a normal word is its own normal form;
    - equal elements act alike: the action is the monoid's own, so each
      state word acts as its normal form, which has the same length;
    - on a home table the normal words are exactly the words whose
      adjacent pairs are all fixed (see ``verify_normalisation``).

    Each clause is needed.  bicyclic has a unit but is not home: 3, 7, 14
    classes at lengths 1-3 against 3, 6, 10 normal words.  The zero table
    on {a, b} (every pair to a a) is home with no unit: one class at each
    length against 2, 1, 1 walks.
    """
    if max_len < 0:
        raise GarnormError(f"max_len must be at least 0, got {max_len}")
    fixed = _fixed_pairs(m)
    if not fixed:
        return [len(set(_refine(outs, succs))) for _, outs, succs in _levels(m, max_len)]
    counts, ends = [], [1] * len(fixed)  # ends[b]: normal words ending in b
    for _ in range(max_len):
        counts.append(sum(ends))
        ends = [sum(ends[a] for a in before) for before in fixed]
    return counts


# ---------------------------------------------------------------------------
# normal forms through the machine


def padding_normal_form(m: MealyMachine, unit: Symbol | str, u: Word, n: int) -> Word:
    """Recover the unit-padded normal form of the state word ``u`` from the
    machine alone: run ``u`` on n copies of the unit and reverse the output.

    For a machine built from a table with this unit whose breadth satisfies
    p <= 3, the result equals ``1**(n - |u|) + normalize(u)``.  In
    ``build_mealy(table)`` the unit state is idle iff the table sends
    (x, 1) to (1, x) for every letter x; then each run of a letter of ``u``
    stops once it carries the unit instead of reading all n letters.
    """
    if n < len(u):
        raise GarnormError(f"padding length {n} is shorter than the state word ({len(u)})")
    ids = _run_word_ids(m, u, (m.alphabet[unit].id,) * n)
    return _word_from_ids(m.alphabet, reversed(ids))


def thurston_normalize(t: MealyMachine, w: Word) -> Word:
    """Normalise by iterated sweeps of the sweeping transducer.

    One sweep starts in state w[0], feeds w[1:], and replaces the word by
    the outputs followed by the arrival state; sweeps repeat until one
    changes nothing, and the word must then be normal.  Raises
    :class:`NotNormalising` when the sweeps stop at a word that is not
    normal or cycle, and :class:`BudgetExhausted` when they run past the
    :func:`node_budget`, which each sweep costs one node of.

    When the pairs of ``t`` form a home table (idempotent and satisfying
    :func:`condition_home`), the normal form N(w) is computed by letter
    insertion, as ``normalize`` computes it, counting the padding letter
    of those pairs instead of sweeping it; the letter is read off the
    pairs, so a machine with no designated unit, read from a file, counts
    it too.  Machines whose pairs form neither a home table nor one of
    class (3,4) (below) sweep.  On a home table the sweeps give the same
    word:

    - Lemma: if the sweep of P (|P| >= 2) writes O and carries c, then
      N(P) = N(O) c.  For |P| = 2 this is idempotence.  For P = P' p, where
      the sweep of P' writes O' and carries c', the sweep of P writes O' o
      and carries c, with (o, c) the image of (c', p).  By induction
      N(P') = N(O') c', a normal word; inserting p into it first rewrites
      (c', p) to (o, c), then inserts o into N(O'), so N(P) = N(O' o) c.
    - Theorem: after k < |w| sweeps the word is P S with |S| = k and
      N(w) = N(P) S.  The next sweep runs through P, writing O and
      carrying c with N(P) = N(O) c; as N(O) c S is normal, (c, s1) is
      fixed and the carry passes through S unchanged, so the word becomes
      O (c S), which keeps the invariant.  So after at most |w| - 1 sweeps
      the word is N(w), and the next sweep changes nothing.

    The argument uses only what ``normalize`` relies on: insertion is exact
    on home tables.  The bound is tight: on bs10, a a a a a b needs 5.

    When the pairs form a table of class (3,4) that is not home (idempotent,
    finite breadth, d <= 3 and p <= 4, as bicyclic), N(w) is computed by
    left insertion, as ``normalize`` computes it.  Such a table is the
    restriction of a quadratic normalisation, the mirror image of one of
    class (4,3), so every word reaches exactly one normal word, N(w) (see
    ``verify_normalisation``).  A sweep applies the table at positions 1,
    2, ..., so whenever the sweeps stop at a normal word, that word is
    N(w).  That they always stop at a normal word on these tables is
    tested, not proved: the mirror of the theorem above is about
    right-to-left sweeps.  The tests compare left insertion with the
    sweeps on every word of up to 6 letters over class (3,4) tables, and
    on bicyclic up to 8 letters.
    """
    table = t._table
    if table is None:
        raise GarnormError("sweeping requires a machine whose states are its letters")
    ids = t.alphabet.ids(w)
    if not ids:
        raise GarnormError("cannot normalise the empty word")
    pairs, g = t._pairs, len(t.alphabet)
    insert = table._inserter()
    if insert is not None:
        return _word_from_ids(t.alphabet, insert(pairs, g, ids, table._pad))
    return _word_from_ids(t.alphabet, _sweep_to_normal(t.alphabet, pairs, ids))


# ---------------------------------------------------------------------------
# iterated runs


def numeration_iterate(
    m: MealyMachine, start: Symbol | str, w: Word, steps: int
) -> IterationResult:
    """Iterate runs, always restarting from ``start``: collect the arrival
    state of each run and feed the output back in.  Reports where the
    working word first recurs (cycle onset and period), if it does."""
    if steps < 1:
        raise GarnormError("steps must be at least 1")
    q = m.states[start].id
    ids = m.alphabet.ids(w)

    words = [_word_from_ids(m.alphabet, ids)]
    collected = []
    seen = {ids: 0}
    cycle_start = period = None
    for k in range(1, steps + 1):
        ids, final = _run_ids(m, q, ids)
        collected.append(final)
        words.append(_word_from_ids(m.alphabet, ids))
        if cycle_start is None:
            if ids in seen:
                cycle_start = seen[ids]
                period = k - seen[ids]
            else:
                seen[ids] = k
    return IterationResult(
        collected=_word_from_ids(m.states, collected),
        words=tuple(words),
        cycle_start=cycle_start,
        period=period,
    )
