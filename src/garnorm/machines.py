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


def _resolve_letters(m: MealyMachine, w: Word) -> tuple[int, ...]:
    by_name = m.alphabet._by_name
    try:
        return tuple(by_name[s.name].id for s in w)
    except KeyError as exc:
        raise LetterNotInAlphabet(f"letter {exc.args[0]!r} not in alphabet") from None


def _resolve_states(m: MealyMachine, u: Word) -> tuple[int, ...]:
    by_name = m.states._by_name
    try:
        return tuple(by_name[s.name].id for s in u)
    except KeyError as exc:
        raise LetterNotInAlphabet(f"unknown state {exc.args[0]!r}") from None


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
    q = m.state(x).id
    ids = _resolve_letters(m, w)
    res, final = _run_ids(m, q, ids)
    syms = m.alphabet.symbols
    return Word(syms[i] for i in res), m.states.symbols[final]


def run_word(m: MealyMachine, u: Word, w: Word) -> Word:
    """Composite production function of the state word ``u``; the first
    letter of ``u`` acts first."""
    if len(u) == 0:
        raise GarnormError("the state word must be non-empty")
    states = _resolve_states(m, u)
    ids = _resolve_letters(m, w)
    for q in states:
        ids, _ = _run_ids(m, q, ids)
    syms = m.alphabet.symbols
    return Word(syms[i] for i in ids)


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
    su = _resolve_states(m, u)
    sv = _resolve_states(m, v)
    if not su or not sv:
        raise GarnormError("state words must be non-empty")
    start = (su, sv)
    seen = {start}
    parent: dict = {}
    queue = deque([start])
    s = len(m.alphabet)
    syms = m.alphabet.symbols
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
                return Word(syms[i] for i in letters)
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


def minimize(m: MealyMachine) -> ActionClassPartition:
    """Group states with identical induced word functions.

    Initial classes come from the output rows; refinement by next-state
    class rows runs to a fixed point.  A distinguishing input for states
    in different classes can be obtained from :func:`distinguishing_word`.
    """
    q = len(m.states)
    cls = _refine([m._out[x] for x in range(q)], [m._next[x] for x in range(q)])
    return ActionClassPartition({m.states.symbols[x]: cls[x] for x in range(q)})


def tuple_action_classes(m: MealyMachine, length: int) -> dict[tuple[Symbol, ...], int]:
    """Action-equality classes of all state words of exactly ``length``.

    The tuples of states form a product machine (letters thread through);
    partition refinement on it decides all action equalities at once, the
    same fixed point :func:`action_equal` computes pair by pair.
    """
    if length < 1:
        raise GarnormError("length must be at least 1")
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
    cls = _refine(out_rows, next_rows)
    syms = m.states.symbols
    return {tuple(syms[x] for x in t): cls[k] for k, t in enumerate(tuples)}


def growth(m: MealyMachine, max_len: int = 5) -> list[int]:
    """Entry k: the number of action-equality classes of state words of
    length exactly k+1."""
    return [
        len(set(tuple_action_classes(m, k).values())) for k in range(1, max_len + 1)
    ]


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
    unit_sym = m.letter(unit)
    padded = Word([unit_sym] * n)
    return run_word(m, u, padded).reverse()


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
    ids = list(_resolve_letters(t, w))
    budget = len(ids) ** 2 if max_sweeps is None else max_sweeps
    g = len(t.alphabet)
    syms = t.alphabet.symbols
    for _ in range(budget):
        if not _sweep(pairs, g, ids):
            break
    else:
        if not _is_normal_ids(pairs, g, ids):
            raise SweepBudgetExhausted(
                f"word '{Word(syms[i] for i in ids)}' not normal after {budget} sweeps"
            )
    return Word(syms[i] for i in ids)


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
    ids = _resolve_letters(m, w)
    syms = m.alphabet.symbols
    state_syms = m.states.symbols

    words = [Word(syms[i] for i in ids)]
    collected = []
    seen = {ids: 0}
    cycle_start = period = None
    for k in range(1, steps + 1):
        ids, final = _run_ids(m, q, ids)
        collected.append(state_syms[final])
        words.append(Word(syms[i] for i in ids))
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
