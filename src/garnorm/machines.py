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

Machines are immutable; all operations are pure, and every memo table is
per-call, so concurrent readers are safe.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import (
    Alphabet,
    GarnormError,
    LetterNotInAlphabet,
    NormTable,
    SweepBudgetExhausted,
    Symbol,
    Word,
    _is_normal_ids,
    _sweep,
    _word_from_ids,
)


class MealyMachine:
    """A finite transducer with one output letter and one next state per
    (state, letter) pair.

    ``next_table[q][i]`` and ``out_table[q][i]`` are indexed by state id
    and letter id; both are total.
    """

    __slots__ = ("states", "alphabet", "_next", "_out", "_sweep_pairs")

    def __init__(
        self,
        states: Alphabet,
        alphabet: Alphabet,
        next_table: Iterable[Iterable[int]],
        out_table: Iterable[Iterable[int]],
    ):
        self.states = states
        self.alphabet = alphabet
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
        self._next = nxt
        self._out = out
        # When the states are the letters, (state x, letter y) -> (output,
        # next state) is a pair table in the flat encoding of NormTable, and
        # a run from w[0] over w[1:] is one sweep of it.
        self._sweep_pairs = (
            tuple(pair for o, n in zip(out, nxt) for pair in zip(o, n))
            if states == alphabet
            else None
        )

    def state(self, name: str | Symbol) -> Symbol:
        if isinstance(name, Symbol):
            name = name.name
        try:
            return self.states[name]
        except GarnormError:
            raise LetterNotInAlphabet(f"unknown state {name!r}") from None

    def letter(self, name: str | Symbol) -> Symbol:
        if isinstance(name, Symbol):
            name = name.name
        try:
            return self.alphabet[name]
        except GarnormError:
            raise LetterNotInAlphabet(f"unknown letter {name!r}") from None

    def next_state(self, q: Symbol | str, i: Symbol | str) -> Symbol:
        return self.states.symbols[self._next[self.state(q).id][self.letter(i).id]]

    def output(self, q: Symbol | str, i: Symbol | str) -> Symbol:
        return self.alphabet.symbols[self._out[self.state(q).id][self.letter(i).id]]

    def transitions(self):
        """All transitions (state, letter, next, output) in table order."""
        for q in self.states:
            for i in self.alphabet:
                yield (
                    q,
                    i,
                    self.states.symbols[self._next[q.id][i.id]],
                    self.alphabet.symbols[self._out[q.id][i.id]],
                )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MealyMachine)
            and self.states == other.states
            and self.alphabet == other.alphabet
            and self._next == other._next
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.states, self.alphabet, self._next, self._out))

    def __repr__(self) -> str:
        return (
            f"MealyMachine(states={list(self.states.names())!r}, "
            f"alphabet={list(self.alphabet.names())!r})"
        )


@dataclass(frozen=True)
class ActionClassPartition:
    """States grouped by their induced word functions (Nerode-stable)."""

    classes: dict

    @property
    def num_classes(self) -> int:
        return len(set(self.classes.values()))

    def class_of(self, state: Symbol) -> int:
        return self.classes[state]


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


def build_mealy(table: NormTable) -> MealyMachine:
    """The transducer whose state is the right factor: from state q on
    input i, look up (i, q); emit the rightmost letter of the image and
    move to the leftmost."""
    table.require_idempotent()
    al = table.alphabet
    g = len(al)
    pairs = table._pairs
    nxt = [[0] * g for _ in range(g)]
    out = [[0] * g for _ in range(g)]
    for q in range(g):
        for i in range(g):
            c, d = pairs[i * g + q]
            nxt[q][i] = c
            out[q][i] = d
    return MealyMachine(al, al, nxt, out)


def build_thurston(table: NormTable) -> MealyMachine:
    """The sweeping transducer: from state x on input y, look up (x, y);
    emit the leftmost letter of the image and carry the rightmost."""
    table.require_idempotent()
    al = table.alphabet
    g = len(al)
    pairs = table._pairs
    nxt = [[0] * g for _ in range(g)]
    out = [[0] * g for _ in range(g)]
    for x in range(g):
        for y in range(g):
            c, d = pairs[x * g + y]
            nxt[x][y] = d
            out[x][y] = c
    return MealyMachine(al, al, nxt, out)


def dual(m: MealyMachine) -> MealyMachine:
    """Exchange states and letters: transition x --i|j--> y becomes
    i --x|y--> j.  An involution."""
    q, s = len(m.states), len(m.alphabet)
    nxt = [[m._out[x][i] for x in range(q)] for i in range(s)]
    out = [[m._next[x][i] for x in range(q)] for i in range(s)]
    return MealyMachine(m.alphabet, m.states, nxt, out)


# ---------------------------------------------------------------------------
# running


def _run_ids(m: MealyMachine, q: int, ids: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    nxt, out = m._next, m._out
    res = []
    for i in ids:
        res.append(out[q][i])
        q = nxt[q][i]
    return tuple(res), q


def run(m: MealyMachine, x: Symbol | str, w: Word) -> tuple[Word, Symbol]:
    """Feed ``w`` from state ``x``; the output word and the arrival state.
    The empty word maps to itself."""
    res, final = _run_ids(m, m.state(x).id, m.alphabet.ids(w))
    return _word_from_ids(m.alphabet, res), m.states.symbols[final]


def _run_word_ids(m: MealyMachine, u: Word, ids: tuple[int, ...]) -> tuple[int, ...]:
    if len(u) == 0:
        raise GarnormError("the state word must be non-empty")
    for q in m.states.ids(u):
        ids, _ = _run_ids(m, q, ids)
    return ids


def run_word(m: MealyMachine, u: Word, w: Word) -> Word:
    """Composite production function of the state word ``u``; the first
    letter of ``u`` acts first."""
    return _word_from_ids(m.alphabet, _run_word_ids(m, u, m.alphabet.ids(w)))


# ---------------------------------------------------------------------------
# deciding action equality


def _thread(m: MealyMachine, tup: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
    """One letter through a tuple of states: the letter enters the first
    state, each output feeds the next state.  Returns (final output,
    successor tuple)."""
    nxt, out = m._next, m._out
    res = []
    for q in tup:
        res.append(nxt[q][j])
        j = out[q][j]
    return j, tuple(res)


def distinguishing_word(m: MealyMachine, u: Word, v: Word) -> Word | None:
    """A shortest input on which the actions of ``u`` and ``v`` differ,
    or None when they agree on all words.

    Breadth-first bisimulation over pairs of state tuples: a pair is
    consistent iff every letter produces equal threaded outputs and a
    consistent successor pair.  The reachable pair set is finite, so the
    search terminates.
    """
    su = m.states.ids(u)
    sv = m.states.ids(v)
    if not su or not sv:
        raise GarnormError("state words must be non-empty")
    start = (su, sv)
    seen = {start}
    parent: dict = {}
    queue = deque([start])
    s = len(m.alphabet)
    while queue:
        cur = queue.popleft()
        a, b = cur
        for j in range(s):
            oa, na = _thread(m, a, j)
            ob, nb = _thread(m, b, j)
            if oa != ob:
                letters = [j]
                p = cur
                while p != start:
                    p, jj = parent[p]
                    letters.append(jj)
                letters.reverse()
                return _word_from_ids(m.alphabet, letters)
            child = (na, nb)
            if child not in seen:
                seen.add(child)
                parent[child] = (cur, j)
                queue.append(child)
    return None


def action_equal(m: MealyMachine, u: Word, v: Word) -> bool:
    """True iff the production functions of ``u`` and ``v`` agree on all
    words."""
    return distinguishing_word(m, u, v) is None


def _refine(initial_keys: list, next_rows: list) -> list[int]:
    """Partition refinement: start from ``initial_keys``, refine by the
    class rows of ``next_rows`` until stable.  Class ids are assigned in
    first-occurrence order, so the result is deterministic."""

    def assign(keys):
        ids: dict = {}
        out = []
        for k in keys:
            if k not in ids:
                ids[k] = len(ids)
            out.append(ids[k])
        return out

    cls = assign(initial_keys)
    while True:
        new = assign(
            [(cls[x], tuple(cls[t] for t in next_rows[x])) for x in range(len(cls))]
        )
        if new == cls:
            return cls
        cls = new


def _action_class_ids(m: MealyMachine, length: int) -> list[int]:
    """Action-equality class ids of the state words of exactly ``length``,
    listed in ``itertools.product`` order and numbered in order of first
    occurrence.

    The tuples of states form a product machine (letters thread through);
    partition refinement on it decides all action equalities at once, the
    same fixed point :func:`action_equal` computes pair by pair.
    """
    q, s = len(m.states), len(m.alphabet)
    tuples = list(itertools.product(range(q), repeat=length))
    index = {t: k for k, t in enumerate(tuples)}
    out_rows = []
    next_rows = []
    for t in tuples:
        orow = []
        nrow = []
        for j in range(s):
            o, nt = _thread(m, t, j)
            orow.append(o)
            nrow.append(index[nt])
        out_rows.append(tuple(orow))
        next_rows.append(nrow)
    return _refine(out_rows, next_rows)


def minimize(m: MealyMachine) -> ActionClassPartition:
    """Group states with identical induced word functions: the state words
    of length 1 under :func:`tuple_action_classes`.

    Initial classes come from the output rows; refinement by next-state
    class rows runs to a fixed point.  A distinguishing input for states
    in different classes can be obtained from :func:`distinguishing_word`.
    """
    return ActionClassPartition(dict(zip(m.states.symbols, _action_class_ids(m, 1))))


def tuple_action_classes(m: MealyMachine, length: int) -> dict[tuple[Symbol, ...], int]:
    """Action-equality classes of all state words of exactly ``length``,
    keyed by state tuple."""
    if length < 1:
        raise GarnormError("length must be at least 1")
    tuples = itertools.product(m.states.symbols, repeat=length)
    return dict(zip(tuples, _action_class_ids(m, length)))


def growth(m: MealyMachine, max_len: int = 5) -> list[int]:
    """Entry k: the number of action-equality classes of state words of
    length exactly k+1."""
    return [len(set(_action_class_ids(m, k))) for k in range(1, max_len + 1)]


# ---------------------------------------------------------------------------
# normal forms through the machine


def padding_normal_form(m: MealyMachine, unit: Symbol | str, u: Word, n: int) -> Word:
    """Recover the unit-padded normal form of the state word ``u`` from the
    machine alone: run ``u`` on n copies of the unit and reverse the output.

    For a machine built from a table with this unit whose breadth satisfies
    p <= 3, the result equals ``1**(n - |u|) + normalize(u)``.
    """
    if n < len(u):
        raise GarnormError(f"padding length {n} is shorter than the state word ({len(u)})")
    ids = _run_word_ids(m, u, (m.letter(unit).id,) * n)
    return _word_from_ids(m.alphabet, reversed(ids))


def thurston_normalize(t: MealyMachine, w: Word, max_sweeps: int | None = None) -> Word:
    """Normalise by iterated sweeps of the sweeping transducer.

    One sweep starts in state w[0], feeds w[1:], and replaces the word by
    the outputs followed by the arrival state; sweeps repeat until every
    adjacent pair is fixed, which is when a sweep changes nothing.  The
    default sweep budget is |w|**2.
    """
    pairs = t._sweep_pairs
    if pairs is None:
        raise GarnormError("sweeping requires a machine whose states are its letters")
    if len(w) == 0:
        raise GarnormError("cannot normalise the empty word")
    ids = list(t.alphabet.ids(w))
    budget = len(ids) ** 2 if max_sweeps is None else max_sweeps
    g = len(t.alphabet)
    for _ in range(budget):
        if not _sweep(pairs, g, ids):
            break
    else:
        if not _is_normal_ids(pairs, g, ids):
            raise SweepBudgetExhausted(
                f"word '{_word_from_ids(t.alphabet, ids)}' not normal after {budget} sweeps"
            )
    return _word_from_ids(t.alphabet, ids)


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
    q = m.state(start).id
    ids = m.alphabet.ids(w)
    state_syms = m.states.symbols

    words = [_word_from_ids(m.alphabet, ids)]
    collected = []
    seen = {ids: 0}
    cycle_start = period = None
    for k in range(1, steps + 1):
        ids, final = _run_ids(m, q, ids)
        collected.append(state_syms[final])
        words.append(_word_from_ids(m.alphabet, ids))
        if cycle_start is None:
            if ids in seen:
                cycle_start = seen[ids]
                period = k - seen[ids]
            else:
                seen[ids] = k
    return IterationResult(
        collected=Word(collected),
        words=tuple(words),
        cycle_start=cycle_start,
        period=period,
    )
