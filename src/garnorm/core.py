"""Quadratic normalisation tables and their string-rewriting machinery.

A normalisation table is the two-letter restriction of a length-preserving
normal-form map on words over a finite alphabet: a total map sending each
ordered pair of letters to an ordered pair of letters.  Pairs the table does
not mention are fixed.  Words are read left to right as products.  A table
may designate a unit letter ``1``; the convention is that the unit migrates
to the *left* of normal words and acts as padding, so ``(x, 1)`` and
``(1, x)`` both map to ``(1, x)``.

Rewriting a word means applying the table to two adjacent letters.  A word
is normal when every adjacent pair is fixed.  ``breadth`` measures how many
alternating applications are needed to normalise three-letter words, and
``condition_home`` is the bounded-breadth predicate (d <= 4 and p <= 3)
under which the companion Mealy automaton of :mod:`garnorm.machines`
computes exactly.

``normalize`` computes a normal word of the same length by one of two
strategies.  Dehornoy and Guiraud ("Quadratic normalisation in monoids",
IJAC 2016) show that an idempotent table with N_121 = N_2121 on every
three-letter word, which is what ``condition_home`` checks, is the
restriction of a normalisation of class (4,3); for such a table N(w x) is
one right-to-left sweep of N(w) x, so normal forms are built by inserting
the letters one at a time.  On the mirror class (3,4), N(x w) is one
left-to-right sweep of x N(w), and the letters are inserted from last to
first.  The unit migrates left as padding, so the padding letters of a
normal word are its prefix: insertion in either direction keeps them as a
count and sweeps the rest, and an inserted padding letter, or one carried
(right insertion) or written (left insertion), joins the count at once
instead of walking across the word (see :func:`_insert_ids` and
:func:`_insert_left_ids`).  The padding letter is read off the pairs, so a
table or machine with no designated unit gets it too.  Every other table
is normalised by repeated left-to-right sweeps.  A sweep is one map on the
words of one length, so its iterates end at a normal word, at a fixpoint
that is not normal, or in a cycle; on the last two, and when the sweeps
spend the node budget, the one forward search of the rewrite graph
(:func:`_reachable`, which :func:`max_derivation_length` reads too) takes
over.  Both strategies, and the sweeping transducer of
:mod:`garnorm.machines`, share one encoding: a flat tuple of image pairs
indexed ``a * g + b`` for the pair (a, b) over g letters.

All values are immutable after construction and all operations are pure
functions of their inputs and of the calling thread's node budget (see
:func:`node_budget`), so concurrent read-only use is safe.  Three values are
computed on first use and written once: a table's breadth; its insertion
kernel, its one verdict, with its padding letter; and the letters of a word
built from ids.  Concurrent first uses compute equal values, so the
unlocked writes are harmless.
"""

from __future__ import annotations

import collections.abc
import contextlib
import contextvars
import graphlib
import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

DEFAULT_NODE_BUDGET = 100_000
_NODE_BUDGET = contextvars.ContextVar("node_budget", default=DEFAULT_NODE_BUDGET)


@contextlib.contextmanager
def node_budget(n: int) -> Iterator[int]:
    """Cap every exhaustive search that starts in the block at ``n`` nodes.
    Blocks nest; outside them, and in threads started inside them, the cap
    is ``DEFAULT_NODE_BUDGET``.  ``n`` must be a positive integer, not a
    bool."""
    if not (isinstance(n, int) and not isinstance(n, bool) and n > 0):
        raise GarnormError(f"node budget must be a positive integer, got {n!r}")
    token = _NODE_BUDGET.set(n)
    try:
        yield n
    finally:
        _NODE_BUDGET.reset(token)

#: Characters that may not appear in symbol names (they carry syntactic
#: meaning in the text formats), besides whitespace.
FORBIDDEN_NAME_CHARS = frozenset("#|->")


# ---------------------------------------------------------------------------
# errors


class GarnormError(Exception):
    """Base class for every error raised by this package."""


class AlphabetError(GarnormError):
    """Bad symbol name, duplicate name, or unknown symbol."""


class PositionOutOfRange(GarnormError):
    """A rewrite position does not fit the word."""


class NotIdempotent(GarnormError):
    """The table is not idempotent on pairs, so it is not the restriction
    of any normalisation; operations that presuppose one refuse to run."""


class NotNormalising(GarnormError):
    """No normal word was reachable from the input."""


class NotConfluent(GarnormError):
    """Two distinct normal words are reachable from one input."""

    def __init__(self, word: "Word", first: "Word", second: "Word"):
        super().__init__(
            f"word '{word}' reaches distinct normal words '{first}' and '{second}'"
        )
        self.word = word
        self.first = first
        self.second = second


class MissingUnit(GarnormError):
    """The operation needs a designated unit letter and the table has none."""


class UnitAlreadyPresent(GarnormError):
    """The table already designates a unit letter."""


class LetterNotInAlphabet(AlphabetError):
    """A name, or a symbol's name, that is not a letter of the alphabet."""


class BudgetExhausted(GarnormError):
    """A search hit its node budget before reaching an answer."""


class NotTerminating(BudgetExhausted):
    """A rewrite cycle was found, so derivation lengths are unbounded."""


class NormalWordBudgetExhausted(NotNormalising, BudgetExhausted):
    """The search for a reachable normal word hit its node budget without
    finding one, so whether one exists is unknown."""


class WindowPruned(BudgetExhausted):
    """The word-problem search found no path within its length window, but
    the window cut a move, so the words may still be equal."""


class UnknownName(GarnormError):
    """No gallery entry with this name."""


class AmbiguousMaximum(GarnormError):
    """The greedy choice of a table entry is not unique."""


class ParseError(GarnormError):
    """Malformed input text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# symbols, alphabets, words


@dataclass(frozen=True)
class Symbol:
    """An interned letter: a small index plus a display name.

    Two symbols of one alphabet are equal iff their ids are equal; names
    within one alphabet are pairwise distinct, so either determines the
    other.  ``alphabet`` is the :class:`Alphabet` that made the symbol, or
    None for a symbol made by hand; it takes no part in equality.
    """

    id: int
    name: str
    alphabet: Alphabet | None = field(default=None, init=False, compare=False, repr=False)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Symbol({self.id}, {self.name!r})"


def _check_name(name: str) -> None:
    if not name:
        raise AlphabetError("symbol names must be non-empty")
    if any(ch.isspace() for ch in name):
        raise AlphabetError(f"symbol name {name!r} contains whitespace")
    bad = set(name) & FORBIDDEN_NAME_CHARS
    if bad:
        raise AlphabetError(
            f"symbol name {name!r} contains forbidden character {sorted(bad)[0]!r}"
        )


class Alphabet:
    """An ordered set of distinct symbols.

    Symbols are created once, in order, and shared by every word over the
    alphabet.  Alphabets compare equal when their name sequences agree.
    """

    __slots__ = ("symbols", "_names", "_by_name")

    def __init__(self, names: Iterable[str]):
        symbols = []
        by_name: dict[str, Symbol] = {}
        for i, name in enumerate(names):
            _check_name(name)
            if name in by_name:
                raise AlphabetError(f"duplicate symbol name {name!r}")
            sym = Symbol(i, name)
            object.__setattr__(sym, "alphabet", self)
            symbols.append(sym)
            by_name[name] = sym
        self.symbols: tuple[Symbol, ...] = tuple(symbols)
        self._names = tuple(by_name)
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __contains__(self, item: str | Symbol) -> bool:
        return (item.name if isinstance(item, Symbol) else item) in self._by_name

    def __getitem__(self, item: str | Symbol) -> Symbol:
        """The letter with this name, or with this symbol's name."""
        name = item.name if isinstance(item, Symbol) else item
        try:
            return self._by_name[name]
        except KeyError:
            raise LetterNotInAlphabet(f"unknown symbol {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names())!r})"

    def names(self) -> tuple[str, ...]:
        return self._names

    def word_of(self, names: Iterable[str]) -> "Word":
        return _word_from_ids(self, [self[n].id for n in names])

    def word(self, text: str, compact: bool = False) -> "Word":
        """Parse a word from text.

        Words are space-separated symbol names.  As a convenience, a single
        unspaced token whose characters are all one-character symbol names
        is read letter by letter ("110" over the alphabet {0, 1}); passing
        ``compact=True`` forces that reading for every token.
        """
        tokens = text.split()
        by_name = self._by_name
        if not compact and len(tokens) == 1 and tokens[0] not in by_name:
            compact = all(ch in by_name for ch in tokens[0])
        if compact:
            tokens = [ch for tok in tokens for ch in tok]
        return self.word_of(tokens)

    def ids(self, w: Iterable[Symbol]) -> tuple[int, ...]:
        """The ids in this alphabet of the letters of ``w``, matched by name,
        so a word over any alphabet with these names is accepted.  A word
        over this very alphabet gives the id tuple it keeps."""
        if isinstance(w, Word) and w._alphabet is self:
            return w._ids
        by_name = self._by_name
        try:
            return tuple(by_name[s.name].id for s in w)
        except KeyError as exc:
            raise LetterNotInAlphabet(f"unknown symbol {exc.args[0]!r}") from None


class Word:
    """An immutable sequence of symbols.

    A word keeps its letter ids and, when one alphabet made all its
    letters, that alphabet, whose symbols give the letters on first use.
    Concatenation is ``+``, reversal is :meth:`reverse`, and slicing
    returns words.  Equality and hashing are structural.
    """

    __slots__ = ("_alphabet", "_ids", "letters")

    def __init__(self, letters: Iterable[Symbol] = ()):
        letters = tuple(letters)
        alphabet = letters[0].alphabet if letters else None
        ids = []
        for s in letters:
            if s.alphabet is not alphabet:
                alphabet = None
            ids.append(s.id)
        _set_alphabet(self, alphabet)
        _set_ids(self, tuple(ids))
        _set_letters(self, letters)

    def __getattr__(self, name):
        # reached only while the letters slot is empty
        if name != "letters":
            raise AttributeError(f"'Word' object has no attribute {name!r}")
        syms = self._alphabet.symbols
        letters = tuple([syms[i] for i in self._ids])
        _set_letters(self, letters)
        return letters

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __delattr__(self, name):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.letters)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self.letters[idx])
        return self.letters[idx]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word) or self._ids != other._ids:
            return False
        # over one alphabet, equal ids are equal letters
        same = self._alphabet is not None and self._alphabet is other._alphabet
        return same or self.letters == other.letters

    def __hash__(self) -> int:
        # equal words have equal letters, so equal ids
        return hash(self._ids)

    def __str__(self) -> str:
        return " ".join([s.name for s in self.letters])

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def reverse(self) -> "Word":
        return Word(reversed(self.letters))

    def ids(self) -> tuple[int, ...]:
        """The id tuple the word keeps, the ``id`` of each letter in the
        alphabet that made it, never matched by name.  To read a word in a
        given alphabet, use :meth:`Alphabet.ids`."""
        return self._ids

    def names(self) -> tuple[str, ...]:
        return tuple([s.name for s in self.letters])


_set_alphabet = Word._alphabet.__set__
_set_ids = Word._ids.__set__
_set_letters = Word.letters.__set__
_new_word = object.__new__


def _word_from_ids(alphabet: Alphabet, ids: Iterable[int]) -> Word:
    """The word over ``alphabet`` with these letter ids, as every word the
    package's functions return is made.  The slots are filled through their
    descriptors, as ``Word.__setattr__`` refuses every write."""
    w = _new_word(Word)
    _set_alphabet(w, alphabet)
    _set_ids(w, ids if type(ids) is tuple else tuple(ids))
    return w


# ---------------------------------------------------------------------------
# normalisation tables


@lru_cache(maxsize=None)
def _identity_pairs(g: int) -> tuple[tuple[int, int], ...]:
    """The identity pair table on ``g`` letters, (a, b) at index a * g + b.
    Tables take their images from it, so building one makes no pair."""
    return tuple((a, b) for a in range(g) for b in range(g))


class NormTable:
    """Two-letter restriction of a normalisation: alphabet, optional unit,
    and a total map on ordered pairs of letters (unlisted pairs are fixed).
    """

    __slots__ = ("alphabet", "unit", "_pairs", "_pad", "_insert", "_breadth")

    def __init__(
        self,
        alphabet: Alphabet,
        rules: Mapping | Iterable = (),
        unit: Symbol | str | None = None,
    ):
        if len(alphabet) == 0:
            raise AlphabetError("a normalisation table needs at least one letter")
        self.alphabet = alphabet
        self.unit = None if unit is None else alphabet[unit]

        g = len(alphabet)
        fixed = _identity_pairs(g)
        pairs = list(fixed)
        items = rules.items() if isinstance(rules, Mapping) else rules
        for (a, b), (c, d) in items:
            pairs[alphabet[a].id * g + alphabet[b].id] = fixed[alphabet[c].id * g + alphabet[d].id]
        # image of the pair (a, b) at index a * g + b
        self._pairs: tuple[tuple[int, int], ...] = tuple(pairs)
        self._pad: int | None = None  # see _inserter
        self._insert = None  # see _inserter
        self._breadth: Breadth | None = None  # see breadth

    @classmethod
    def _of_pairs(cls, alphabet: Alphabet, pairs, unit: Symbol | None = None) -> "NormTable":
        """The table on a flat pair table that is already total, with a
        unit given as a symbol of ``alphabet`` or None."""
        t = cls.__new__(cls)
        t.alphabet, t.unit, t._pairs = alphabet, unit, pairs
        t._pad, t._insert, t._breadth = None, None, None
        return t

    def _index(self, a: Symbol | str, b: Symbol | str) -> int:
        al = self.alphabet
        return al[a].id * len(al) + al[b].id

    def entry(self, a: Symbol | str, b: Symbol | str) -> tuple[Symbol, Symbol]:
        c, d = self._pairs[self._index(a, b)]
        syms = self.alphabet.symbols
        return syms[c], syms[d]

    def is_fixed(self, a: Symbol | str, b: Symbol | str) -> bool:
        k = self._index(a, b)
        return self._pairs[k] == divmod(k, len(self.alphabet))

    def rules(self) -> tuple[tuple[tuple[Symbol, Symbol], tuple[Symbol, Symbol]], ...]:
        """The non-fixed entries, sorted by source pair."""
        syms = self.alphabet.symbols
        out = []
        for k, (c, d) in enumerate(self._pairs):
            a, b = divmod(k, len(syms))
            if (c, d) != (a, b):
                out.append(((syms[a], syms[b]), (syms[c], syms[d])))
        return tuple(out)

    def idempotence_failures(
        self,
    ) -> list[tuple[tuple[Symbol, Symbol], tuple[Symbol, Symbol], tuple[Symbol, Symbol]]]:
        """Pairs whose image is not fixed: (pair, image, image of image)."""
        syms = self.alphabet.symbols
        g = len(syms)
        fails = []
        for k, once in enumerate(self._pairs):
            twice = self._pairs[once[0] * g + once[1]]
            if twice != once:
                a, b = divmod(k, g)
                fails.append(
                    (
                        (syms[a], syms[b]),
                        (syms[once[0]], syms[once[1]]),
                        (syms[twice[0]], syms[twice[1]]),
                    )
                )
        return fails

    def require_idempotent(self) -> None:
        fails = self.idempotence_failures()
        if fails:
            (a, b), (c, d), (e, f) = fails[0]
            raise NotIdempotent(
                f"table is not idempotent on pairs: ({a} {b}) -> ({c} {d}) -> ({e} {f})"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormTable)
            and self.alphabet == other.alphabet
            and self._pairs == other._pairs
            and (self.unit.name if self.unit else None)
            == (other.unit.name if other.unit else None)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self._pairs))

    def _incremental(self) -> bool:
        """Whether the table is home: idempotent and satisfying
        :func:`condition_home`, so of class (4,3), which is when it inserts
        on the right."""
        return self._inserter() is _insert_ids

    def _inserter(self):
        """The table's one verdict, the insertion kernel exact on it, or
        None: right insertion (:func:`_insert_ids`) on class (4,3), tables
        of both classes included, and left insertion (:func:`_insert_left_ids`)
        on the other tables of class (3,4), finite breadth with d <= 3 and
        p <= 4.  Both take the pairs, the letter count, the word's ids and
        ``_pad``, the padding letter, which is None until the first call
        runs :func:`breadth`, which the table keeps, and caches the kernel
        in ``_insert``."""
        if self._pad is None:
            insert = None
            if not self.idempotence_failures():
                b = breadth(self)
                if not home_failures(b):
                    insert = _insert_ids
                elif b.finite and b.d <= 3 and b.p <= 4:
                    insert = _insert_left_ids
            self._insert = insert
            self._pad = _padding_letter(self._pairs, len(self.alphabet))
        return self._insert

    def __repr__(self) -> str:
        unit = f", unit={self.unit.name!r}" if self.unit else ""
        return f"NormTable({list(self.alphabet.names())!r}, {len(self.rules())} rules{unit})"


# ---------------------------------------------------------------------------
# rewriting


def _is_normal_ids(pairs, g: int, ids: Sequence[int]) -> bool:
    for i in range(len(ids) - 1):
        a, b = ids[i], ids[i + 1]
        c, d = pairs[a * g + b]
        if c != a or d != b:
            return False
    return True


def _sweep(pairs, g: int, a: int, w: Sequence[int]) -> list[int]:
    """Carry the letter ``a`` through ``w``: at each letter b the table
    sends (a, b) to (c, d), c is written and d carried on.  Returns the
    written letters, then the last carried one: one left-to-right sweep of
    the word a w.  On a Mealy machine's pair table this is the run from
    state ``a`` over ``w``, which machines compute with a loop that stops
    at an idle state; on its dual's pairs it threads the letter ``a``
    through the tuple of states ``w``, writing the successor tuple and
    carrying the output.  A normal word sweeps to itself, but so may a
    word that is not normal (a carried letter can be put back further
    on)."""
    res = []
    for b in w:
        c, a = pairs[a * g + b]
        res.append(c)
    res.append(a)
    return res


def _padding_letter(pairs, g: int) -> int:
    """The padding letter of a pair table: the letter u with (x, u) -> (u, x)
    and (u, x) fixed for every letter x, or -1 when there is none.  At most
    one letter qualifies: for two, u and v, (u, v) would go both to (v, u)
    and to itself."""
    for u in range(g):
        if all(pairs[x * g + u] == (u, x) == pairs[u * g + x] for x in range(g)):
            return u
    return -1


def _insert_ids(pairs, g: int, ids: Sequence[int], pad: int = -1) -> tuple[int, ...]:
    """Normal form by letter insertion, exact for class (4,3) tables only.

    Each new letter x turns the normal word N(w) x into N(w x) by one
    right-to-left sweep; the sweep stops at the first position whose letter
    the carried letter leaves unchanged, since the normal prefix to its left
    would be fixed too.

    The word N(w) is kept as k copies of the padding letter ``pad`` (see
    :func:`_padding_letter`; -1 when the table has none) followed by the
    rest z, and the sweeps run through z alone.  N(w) is normal, and a pair
    (x, pad) with x != pad is not fixed, so the padding letters of N(w)
    form its prefix: the k copies, then any at the front of z.  A padding
    letter that would be carried left meets only pairs (x, pad) -> (pad, x)
    until it reaches that prefix, whose pairs (pad, x) are fixed, so it
    ends in the prefix, and counting it is the sweep of the whole word:

    - an inserted padding letter does not enter z: ``k += 1``;
    - a carried padding letter at slot i leaves z: slot i goes and k grows
      by one;
    - a step that writes the padding letter into slot i + 1 leaves it in z,
      since the sweep only moves left; N(w x) is normal, so it sits at the
      front of z, where later sweeps stop as they would at the k copies.
    """
    k, z = 0, []
    for x in ids:
        if x == pad:
            k += 1
            continue
        i = len(z)
        z.append(x)
        while i:
            i -= 1
            a = z[i]
            c, z[i + 1] = pairs[a * g + x]
            if c == a:
                break
            if c == pad:
                del z[i]
                k += 1
                break
            z[i] = x = c
    return (pad,) * k + tuple(z)


def _insert_left_ids(pairs, g: int, ids: Sequence[int], pad: int = -1) -> tuple[int, ...]:
    """Normal form by left insertion, exact for class (3,4) tables.

    The mirror of a table sends (a, b) to the reverse of the image of
    (b, a).  It normalises the reversed words, exchanges the positions 1 and
    2 of a three-letter word, and so exchanges the coordinates d and p of
    :func:`breadth`: the mirror of a class (3,4) table is of class (4,3).
    There N(v y) is one right-to-left sweep of y through N(v) (see
    :func:`_insert_ids`); read backwards, N(x w) is one left-to-right sweep
    of x through N(w).  So the letters are inserted from last to first, and
    each is carried right as :func:`_sweep` carries it: at each letter b the
    pair (x, b) goes to (c, d), c is written and d carried on.  The sweep
    stops at the first b that comes out unchanged, d = b, since the normal
    suffix to its right would be fixed too.

    The word N(w) is kept as k copies of the padding letter ``pad`` (see
    :func:`_padding_letter`; -1 when the table has none) followed by the
    rest z, which is stored reversed, so that a letter enters at its front
    by an append.  The padding letters of a normal word form its prefix,
    since a pair (x, pad) with x != pad is not fixed.  So:

    - an inserted padding letter stops at once, as (pad, x) is fixed:
      ``k += 1``;
    - any other letter x crosses the k copies unchanged, as each
      (x, pad) -> (pad, x) writes a padding letter and carries x, and is
      swept through z alone;
    - the padding letters a sweep writes into z sit at its front, as
      N(x w) is normal, and join the count.
    """
    k, z = 0, []
    for x in reversed(ids):
        if x == pad:
            k += 1
            continue
        i = len(z)
        z.append(x)
        while i:
            i -= 1
            b = z[i]
            z[i + 1], d = pairs[x * g + b]
            if d == b:
                break
            z[i] = x = d
        while z and z[-1] == pad:
            z.pop()
            k += 1
    z.reverse()
    return (pad,) * k + tuple(z)


def _reachable(pairs, g: int, ids: tuple[int, ...]):
    """The one forward search of the rewrite graph: yield each word that
    rewrite steps reach from ``ids``, ``ids`` included, breadth first, with
    the list of its successors (one per position whose pair the table
    moves).  No word past the :func:`node_budget` is queued; the words
    queued are all yielded, and then :class:`BudgetExhausted` is raised if
    the budget cut the search short."""
    budget = _NODE_BUDGET.get()
    seen, queue = {ids: ids}, deque([ids])  # one tuple per word, however often reached
    budget_hit = False
    while queue:
        w = queue.popleft()
        succ = []
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            c, d = pairs[a * g + b]
            if c != a or d != b:
                v = w[:i] + (c, d) + w[i + 2 :]
                known = seen.get(v)
                if known is not None:
                    v = known
                elif len(seen) < budget:
                    seen[v] = v
                    queue.append(v)
                else:
                    budget_hit = True
                succ.append(v)
        yield w, succ
    if budget_hit:
        raise BudgetExhausted(f"derivation search exceeded the node budget of {budget}")


def _sweep_to_normal(alphabet: Alphabet, pairs, ids: Sequence[int]) -> tuple[int, ...]:
    """Sweep the word left to right until a sweep gives it back, and return
    it if it is normal.  A sweep is one map on the g**n words of length n,
    so its iterates end at a fixpoint or in a cycle, and a normal word is a
    fixpoint.  Raises :class:`NotNormalising` on a fixpoint that is not
    normal and on a cycle, which Brent's method (BIT 1980) finds in O(1)
    memory: each word is compared with the one kept at the last power of
    two.  Each sweep costs one node of the :func:`node_budget`, and
    :class:`BudgetExhausted` is raised when they are spent."""
    g, budget = len(alphabet), _NODE_BUDGET.get()
    w = kept = list(ids)
    power = 1
    for spent in range(1, budget + 1):
        swept = _sweep(pairs, g, w[0], w[1:])
        if swept == w:
            if _is_normal_ids(pairs, g, w):
                return tuple(w)
            raise NotNormalising(f"sweeps of '{_word_from_ids(alphabet, ids)}' stop at "
                                 f"'{_word_from_ids(alphabet, w)}', which is not normal")
        if swept == kept:
            raise NotNormalising(f"sweeps of '{_word_from_ids(alphabet, ids)}' cycle "
                                 f"without reaching a normal word")
        if spent == power:
            kept, power = swept, 2 * power
        w = swept
    raise BudgetExhausted(
        f"sweeps of '{_word_from_ids(alphabet, ids)}' exceeded the node budget of {budget}"
    )


def _sweep_normalize_ids(table: NormTable, ids: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form by repeated sweeps; when they stop short of one, the
    breadth-first search of :func:`_reachable` looks for two distinct
    normal words.  Valid for every table.  A search that the node budget
    cuts short raises :class:`BudgetExhausted`, naming the normal word it
    found if any, or :class:`NormalWordBudgetExhausted` when it found
    none."""
    al, pairs, g = table.alphabet, table._pairs, len(table.alphabet)
    try:
        return _sweep_to_normal(al, pairs, ids)
    except (NotNormalising, BudgetExhausted):
        pass
    word, budget = _word_from_ids(al, ids), _NODE_BUDGET.get()
    first: tuple[int, ...] | None = None
    try:
        for w, succ in _reachable(pairs, g, ids):
            if not succ:
                if first is not None:
                    raise NotConfluent(word, _word_from_ids(al, first), _word_from_ids(al, w))
                first = w
    except BudgetExhausted:
        if first is None:
            raise NormalWordBudgetExhausted(
                f"no normal word reachable from '{word}' within {budget} nodes"
            ) from None
        # a second normal word may lie past the budget
        raise BudgetExhausted(
            f"the search from '{word}' found the normal word '{_word_from_ids(al, first)}' "
            f"but stopped at the node budget of {budget} before ruling out another"
        ) from None
    if first is None:
        raise NotNormalising(f"no normal word is reachable from '{word}'")
    return first


def _normalize_ids(table: NormTable, ids: tuple[int, ...]) -> tuple[int, ...]:
    if len(ids) <= 1:
        return ids
    insert = table._inserter()
    if insert is None:
        return _sweep_normalize_ids(table, ids)
    return insert(table._pairs, len(table.alphabet), ids, table._pad)


def nbar_apply(table: NormTable, w: Word, i: int) -> Word:
    """Apply the table to the letters at positions i and i+1 (1-based)."""
    return apply_sequence(table, w, (i,))


def apply_sequence(table: NormTable, w: Word, positions: Iterable[int]) -> Word:
    """Left-to-right composition: the first listed position is applied first."""
    ids = table.alphabet.ids(w)
    n = len(ids)
    pairs, g = table._pairs, len(table.alphabet)
    for i in positions:
        if not 1 <= i <= n - 1:
            raise PositionOutOfRange(f"position {i} out of range for a word of length {n}")
        c, d = pairs[ids[i - 1] * g + ids[i]]
        ids = ids[: i - 1] + (c, d) + ids[i + 1 :]
    return _word_from_ids(table.alphabet, ids)


def is_normal(table: NormTable, w: Word) -> bool:
    """True iff every adjacent pair of the word is fixed by the table."""
    return _is_normal_ids(table._pairs, len(table.alphabet), table.alphabet.ids(w))


def normalize(table: NormTable, w: Word) -> Word:
    """A normal word of the same length reachable from ``w``.

    Strategy: when the table satisfies :func:`condition_home`, it is the
    restriction of a normalisation of class (4,3) (Dehornoy and Guiraud,
    "Quadratic normalisation in monoids", IJAC 2016), and the normal form
    is built by inserting the letters one at a time: each new letter is
    swept right to left through the normal prefix, stopping at the first
    position that keeps its letter.  An idempotent table with finite
    breadth, d <= 3 and p <= 4 is of the mirror class (3,4), where the
    letters are inserted from last to first, each swept left to right
    through the normal suffix (see :func:`_insert_left_ids`); tables of
    both classes insert on the right.  The table's padding letter, if it
    has one (a unit u with (x, u) -> (u, x) and (u, x) fixed), is never
    swept: the normal word's run of them is kept as a count.  These paths
    never raise.  The table's class is computed on its first normalisation,
    by the one run of :func:`breadth` behind :func:`condition_home`, and
    cached on the table.

    Every other table gets repeated left-to-right sweeps until one gives
    the word back, each costing one node of the :func:`node_budget`.  If
    that word is not normal, or the sweeps cycle or spend the budget, an
    exhaustive breadth-first search of the rewrite graph takes over, up to
    the same budget.  Raises :class:`NotNormalising` when no
    normal word is reachable, :class:`NormalWordBudgetExhausted` (a
    subclass of both it and :class:`BudgetExhausted`) when the search
    stopped at the budget before finding one, :class:`NotConfluent`
    when it finds two distinct ones, and a plain :class:`BudgetExhausted`,
    naming the word it found, when it found one but stopped at the budget
    before it could rule out a second.
    """
    ids = table.alphabet.ids(w)
    if not ids:
        raise GarnormError("cannot normalise the empty word")
    return _word_from_ids(table.alphabet, _normalize_ids(table, ids))


# ---------------------------------------------------------------------------
# table verification


@lru_cache(maxsize=16)
def _halves(g: int, n: int) -> tuple[int, tuple, tuple]:
    """The letter ids of every word code of length ``n`` over ``g`` letters,
    split in two: code c is ``highs[c // low] + lows[c % low]``."""
    low = g ** (n // 2)
    highs = tuple(itertools.product(range(g), repeat=n - n // 2))
    return low, highs, tuple(itertools.product(range(g), repeat=n // 2))


class Witnesses(collections.abc.Sequence):
    """The witnesses of one kind from :func:`verify_normalisation`, kept as
    word codes and decoded when read.

    ``runs`` holds, for each length n, the pair (n, codes): codes are the
    sorted codes of the words of length n (as in
    :func:`_rewrite_analysis`), or, for non-confluent words, (word, least
    normal word, next normal word) code triples.  An item read is a word
    over ``alphabet``, or a triple of words.  The sequence is read-only: it
    supports ``len``, truth, iteration and indexing (negative indices too;
    a slice gives a list), and compares equal to the list it decodes to.
    Two sequences over equal alphabets compare their codes.
    """

    __slots__ = ("alphabet", "_runs", "_len")

    def __init__(self, alphabet: Alphabet, runs: Iterable[tuple[int, list]] = ()):
        self.alphabet = alphabet
        self._runs = tuple((n, codes) for n, codes in runs if codes)
        self._len = sum(len(codes) for _, codes in self._runs)

    def _decoder(self, n: int):
        al, (low, highs, lows) = self.alphabet, _halves(len(self.alphabet), n)
        word = lambda code: _word_from_ids(al, highs[code // low] + lows[code % low])
        return lambda item: word(item) if type(item) is int else tuple(map(word, item))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        for n, codes in self._runs:
            yield from map(self._decoder(n), codes)

    def __getitem__(self, idx):
        picked = range(self._len)[idx]
        if isinstance(picked, range):
            return [self[i] for i in picked]
        for n, codes in self._runs:
            if picked < len(codes):
                return self._decoder(n)(codes[picked])
            picked -= len(codes)

    def __eq__(self, other) -> bool:
        if isinstance(other, Witnesses) and other.alphabet == self.alphabet:
            return self._runs == other._runs
        if isinstance(other, (list, Witnesses)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return Witnesses, (self.alphabet, self._runs)


@dataclass
class NormalisationReport:
    """Witness lists from :func:`verify_normalisation`; empty means the
    table behaved as a normalisation restriction at the checked scale, and
    at every length when the table has an insertion kernel (class (4,3) or
    (3,4), see :meth:`NormTable._inserter`).  A search reports its dead
    and non-confluent words as read-only :class:`Witnesses`, decoded when
    read, that compare equal to lists."""

    max_len: int
    idempotence_failures: list = field(default_factory=list)
    not_normalising: Sequence = field(default_factory=list)  # words with no reachable normal form
    not_confluent: Sequence = field(default_factory=list)  # (word, normal form 1, normal form 2)
    # Always empty: N(u N(w) v) = N(uwv) follows from unique normal forms
    # (see verify_normalisation).  Kept so the report keeps its shape.
    axiom_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.idempotence_failures
            or self.not_normalising
            or self.not_confluent
            or self.axiom_failures
        )


def _rewrite_analysis(table: NormTable, max_len: int):
    """Classify every word of length 2..max_len by its reachable normal
    words.

    Returns (confluence_failures, dead) as two :class:`Witnesses`: the
    words reaching two distinct normal forms, as (word, least normal form,
    next normal form), and the words reaching none, both in
    length-then-lexicographic order.  They keep word codes, so no word is
    made until a witness is read.  Works
    backwards from the normal words, so it is exact even when forward
    rewriting cycles.  A length-n word is coded as the integer
    sum(w[i] * g**(n-1-i)), so numeric order is lexicographic order and
    undoing a rewrite at position i adds (a*g + b - c*g - d) * g**(n-2-i)
    for a rule (a, b) -> (c, d).  Each word records the indices of at most
    two normal words in two flat lists of size g**n.

    The table is quadratic, so a rewrite step touches one pair: the moves
    undone in a word are those at its first pair followed by those undone
    in its suffix one letter shorter.  So the offsets of every length-n
    word form one list, ``offs``, built from the previous length's in
    C-level list operations: each pair's offsets, scaled by g**(n-2) and
    repeated over the g**(n-2) words that start with that pair, plus the
    suffix's entry, the previous list repeated g times.  A word with no
    offsets is labelled but never pushed.

    The report does not depend on the order in which predecessors are read:
    the walk from a normal word expands exactly the words that do not hold
    its label yet and held fewer than two labels before it began, so a
    word's labels are the least normal word reaching it and the next one.
    The words given a second label are collected as they get it and then
    sorted into code order.

    Each word is one node of the :func:`node_budget`: when the words of
    length 2..max_len outnumber it, :class:`BudgetExhausted` is raised
    before anything is allocated.
    """
    g, budget = len(table.alphabet), _NODE_BUDGET.get()
    words = 0
    for n in range(2, max_len + 1):
        words += g**n
        if words > budget:
            raise BudgetExhausted(
                f"the {g}-letter words of length 2 to {max_len} exceed the node budget of {budget}"
            )
    pairs = table._pairs
    # back[c*g + d]: the steps k - (c*g + d) of the pair codes k rewritten to (c, d)
    back: list[list[int]] = [[] for _ in range(g * g)]
    for k, (c, d) in enumerate(pairs):
        if c * g + d != k:
            back[c * g + d].append(k - c * g - d)
    follow = [[b for b in range(g) if pairs[a * g + b] == (a, b)] for a in range(g)]

    confl, dead = [], []
    normals = list(range(g))
    offs: list[tuple[int, ...]] = [()] * g
    for n in range(2, max_len + 1):
        normals = [w * g + b for w in normals for b in follow[w % g]]
        shift = g ** (n - 2)
        run = itertools.chain.from_iterable([tuple(d * shift for d in ds)] * shift for ds in back)
        offs = list(map(operator.add, run, offs * g))
        first = [-1] * g**n
        second = [-1] * g**n
        twice = []  # the words given a second label
        for j, nf in enumerate(normals):
            first[nf] = j
            stack = [nf]
            while stack:
                w = stack.pop()
                for d in offs[w]:
                    v = w + d
                    f = first[v]
                    if f < 0:
                        first[v] = j
                    elif f == j or second[v] >= 0:
                        continue
                    else:
                        second[v] = j
                        twice.append(v)
                    if offs[v]:
                        stack.append(v)
        if not twice and -1 not in first:
            continue
        # codes only: the witnesses are decoded when read
        twice.sort()
        confl.append((n, [(w, normals[first[w]], normals[second[w]]) for w in twice]))
        dead.append((n, list(itertools.compress(range(g**n), map((-1).__eq__, first)))))
    return Witnesses(table.alphabet, confl), Witnesses(table.alphabet, dead)


def verify_normalisation(table: NormTable, max_len: int = 5) -> NormalisationReport:
    """Check the normalisation axioms on words up to ``max_len``.

    Checks pair idempotence and that every word of length 2..max_len
    reaches exactly one normal word.  The remaining axiom, that normalising
    an inner factor first never changes the result (N(u N(w) v) = N(uwv)),
    needs no pass of its own: u N(w) v is reachable from uwv by rewriting
    inside w, so when uwv reaches exactly one normal word, u N(w) v reaches
    that same word.  ``axiom_failures`` is therefore always empty.

    A table with an insertion kernel, of class (4,3) or (3,4), gets the
    empty report without a search, and the report holds at every length,
    not only up to ``max_len``.  For class (4,3), the idempotent tables
    that pass :func:`condition_home`:

    - By Dehornoy and Guiraud ("Quadratic normalisation in monoids", IJAC
      2016), an idempotent table F with F_2121 = F_121 on every
      three-letter word is the restriction of a quadratic normalisation N
      of class (4,3).  ``condition_home`` finds the alternating sequences
      2121 and 121 both ending at the normal form of every three-letter
      word, so that equality holds.
    - A rewrite step replaces a factor ab with F(ab) = N(ab), and
      N(u N(ab) v) = N(u ab v), so it keeps N(w) unchanged.  N is
      quadratic, so the normal words are exactly those whose pairs are all
      fixed, and a normal word z has N(z) = z.  A normal word reachable
      from w is therefore N(w).
    - In class (4,3), N(w x) is one right-to-left sweep of F over N(w) x,
      as ``normalize`` uses, so by induction on the length N(w) is
      obtained from w by applying F at finitely many positions; dropping
      the applications that fix their pair leaves rewrite steps, so N(w)
      is reachable from w.
    - Therefore every word of every length reaches exactly one normal word.

    A table of class (3,4) has a mirror of class (4,3): the table sending
    (a, b) to the reverse of the image of (b, a), which exchanges the
    breadth coordinates d and p.  It rewrites the reverse of u to that of v
    when the table rewrites u to v, so reachability and normal words carry
    over, and every word reaches exactly one normal word here too.

    Every other table, outside both classes, is searched backwards from the
    normal words of each length, which are built from those one letter
    shorter by appending each letter that forms a fixed pair with the last
    one.  The predecessors of a word come from one offset table per length:
    the moves undone at its first pair, then those undone in its suffix,
    read from the table one length shorter (see :func:`_rewrite_analysis`).
    The witnesses do not depend on the order in which predecessors are
    read: each is a word with the least normal word reaching it and the
    next one.  Each word searched costs one node of the
    :func:`node_budget`; :class:`BudgetExhausted` is raised before the
    search when the words of length 2..max_len outnumber it.

    The witnesses of a search are :class:`Witnesses`, read-only sequences
    that decode a word only when it is read (``ok`` makes none) and compare
    equal to the lists they decode to; they cannot be appended to.
    """
    if max_len < 3:
        raise GarnormError("max_len must be at least 3")
    report = NormalisationReport(max_len=max_len)
    report.idempotence_failures = table.idempotence_failures()
    if table._inserter() is not None:
        return report

    report.not_confluent, report.not_normalising = _rewrite_analysis(table, max_len)
    return report


# ---------------------------------------------------------------------------
# breadth and the bounded-breadth condition


class _UnboundedType:
    """Sentinel for a breadth coordinate whose sequence misses its target."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = _UnboundedType()


@dataclass(frozen=True)
class Breadth:
    """Worst-case lengths of the alternating position sequences needed to
    normalise three-letter words: ``d`` alternates 2,1,2,... and ``p``
    alternates 1,2,1,...; each witness is the first triple attaining its value.
    """

    d: int | _UnboundedType
    p: int | _UnboundedType
    d_witness: Word
    p_witness: Word

    def as_pair(self) -> tuple:
        return (self.d, self.p)

    @property
    def finite(self) -> bool:
        return isinstance(self.d, int) and isinstance(self.p, int)


def _alternating_walk(
    pairs, fixed, g: int, triple: tuple[int, int, int], first: int, bound: int
) -> tuple[tuple[int, ...] | None, int]:
    """Walk from ``triple`` applying the 0-based positions ``first``, other,
    first, ..., where ``fixed[k]`` says whether the table fixes the pair of
    index k.  Returns the first normal word met (every later application
    fixes it) and the number of applications before it.  The word is None
    if there is none in ``bound`` = 2 * g**3 steps: a step depends only on
    the word and the parity of the step count, so the walk has repeated a
    (word, parity) state and cycles."""
    w, pos, count = triple, first, 0
    while not (fixed[w[0] * g + w[1]] and fixed[w[1] * g + w[2]]):
        if count == bound:
            return None, count
        c, d = pairs[w[pos] * g + w[pos + 1]]
        w = (c, d, w[2]) if pos == 0 else (w[0], c, d)
        pos, count = 1 - pos, count + 1
    return w, count


def breadth(table: NormTable) -> Breadth:
    """Maximal alternating-sequence lengths over all three-letter words.

    Requires a pair-idempotent table and raises nothing else.  The target
    of a triple is the normal word its 1,2,1,... walk reaches (repeated
    sweeps of the triple), or else the one its 2,1,2,... walk reaches.  A
    coordinate is its walk's step count when that walk reaches the target,
    and UNBOUNDED otherwise (decided exactly, see :func:`_alternating_walk`),
    with the offending triple as witness.  Once d is UNBOUNDED its walks
    stop; the 1,2,1,... walks go on while d needs their targets.

    When both coordinates are finite, every walk reaches its target, and
    |d - p| <= 1: after its first step, a walk of n steps goes on as the
    other walk from the word it reached, towards the same target, in n - 1
    steps.

    The table keeps its breadth: the first call, usually the one
    :meth:`NormTable._inserter` makes, computes it, and later calls return
    the kept value.
    """
    if table._breadth is not None:
        return table._breadth
    table.require_idempotent()
    g = len(table.alphabet)
    pairs = table._pairs
    fixed = [pairs[k] == divmod(k, g) for k in range(g * g)]
    bound = 2 * g**3

    # indexed by the position each walk applies first: 0 for p, 1 for d
    value: list = [0, 0]
    witness = [(0, 0, 0), (0, 0, 0)]
    for triple in itertools.product(range(g), repeat=3):
        target = None
        for first in (0, 1):
            if first and value[1] is UNBOUNDED:
                break
            normal, steps = _alternating_walk(pairs, fixed, g, triple, first, bound)
            target = target or normal
            if value[first] is UNBOUNDED:
                continue
            if normal is None or normal != target:
                value[first], witness[first] = UNBOUNDED, triple
            elif steps > value[first]:
                value[first], witness[first] = steps, triple
        if value[0] is UNBOUNDED and value[1] is UNBOUNDED:
            break

    (p_val, d_val), (p_wit, d_wit) = value, witness
    table._breadth = Breadth(
        d=d_val,
        p=p_val,
        d_witness=_word_from_ids(table.alphabet, d_wit),
        p_witness=_word_from_ids(table.alphabet, p_wit),
    )
    return table._breadth


def home_failures(b: Breadth) -> list[str]:
    """Why the breadth ``b`` breaks d <= 4 and p <= 3 (empty = holds)."""
    reasons = []
    for name, value, witness, bound in (("d", b.d, b.d_witness, 4), ("p", b.p, b.p_witness, 3)):
        if not isinstance(value, int):
            reasons.append(f"{name} unbounded (witness {witness})")
        elif value > bound:
            reasons.append(f"{name}={value} exceeds {bound}")
    return reasons


def condition_home(table: NormTable) -> bool:
    """True iff the breadth is finite with d <= 4 and p <= 3 (cached on the
    table).  Raises :class:`NotIdempotent` as :func:`breadth` does."""
    table.require_idempotent()
    return table._incremental()


# ---------------------------------------------------------------------------
# the unit letter


def unit_condition_failures(table: NormTable, max_len: int = 4) -> list[str]:
    """Witness descriptions of unit-condition violations (empty = holds).

    The unit must satisfy entries(x, 1) = entries(1, x) = (1, x) for every
    letter x, and normalising a word padded with the unit on either side
    must equal the unit-prefixed normal form, for words up to ``max_len``.

    On a table whose 2g unit entries hold, the unit is the padding letter
    (see :func:`_padding_letter`), and when the table is of class (4,3) or
    (3,4) the padded words need no check, because ``normalize`` inserts
    letters one at a time:

    - class (4,3), right insertion: in 1 w, each letter swept left through
      N(w) stops at the leading 1, since (1, x) is fixed, so
      N(1 w) = 1 N(w).  In w 1, the inserted 1 moves left past every letter
      x != 1, since (x, 1) -> (1, x), and stops at a 1; the units of the
      normal word N(w) form a prefix, since (x, 1) is not fixed, so again
      N(w 1) = 1 N(w).
    - class (3,4), left insertion, which counts the padding letter: in 1 w,
      the 1 is inserted last, straight into the count, so N(1 w) = 1 N(w).
      In w 1, the 1 is inserted first, into the count, and every later
      letter goes in front of the rest of the word, so N(w 1) = 1 N(w)
      again.

    Every other table normalises each padded word of length up to
    ``max_len`` + 1.
    """
    if table.unit is None:
        raise MissingUnit("the table has no designated unit letter")
    u = table.unit.id
    al = table.alphabet
    g = len(al)
    syms = al.symbols
    fails = []
    for x in range(g):
        want = (u, x)
        for key in ((x, u), (u, x)):
            got = table._pairs[key[0] * g + key[1]]
            if got != want:
                fails.append(
                    f"entries({syms[key[0]]} {syms[key[1]]}) = "
                    f"({syms[got[0]]} {syms[got[1]]}), expected ({syms[u]} {syms[x]})"
                )
    if not fails and table._inserter() is not None:
        return fails
    for n in range(1, max_len + 1):
        for ids in itertools.product(range(g), repeat=n):
            want = (u,) + _normalize_ids(table, ids)
            for padded in ((u,) + ids, ids + (u,)):
                got = _normalize_ids(table, padded)
                if got != want:
                    fails.append(
                        f"normalize({_word_from_ids(al, padded)}) = "
                        f"{_word_from_ids(al, got)}, expected {_word_from_ids(al, want)}"
                    )
    return fails


def check_unit_condition(table: NormTable, max_len: int = 4) -> bool:
    """True iff the designated unit behaves as left-migrating padding."""
    return not unit_condition_failures(table, max_len=max_len)


def adjoin_unit(table: NormTable, name: str = "1") -> NormTable:
    """Extend the table with a fresh unit letter acting as padding.

    The new letter absorbs nothing: entries(x, 1) = entries(1, x) = (1, x)
    for every old letter x, and old entries are unchanged.
    """
    if table.unit is not None:
        raise UnitAlreadyPresent(f"table already has unit {table.unit.name!r}")
    if name in table.alphabet:
        raise AlphabetError(
            f"cannot adjoin unit: a symbol named {name!r} already exists"
        )
    new_alpha = Alphabet(table.alphabet.names() + (name,))
    rules = []
    for (a, b), (c, d) in table.rules():
        rules.append(((a.name, b.name), (c.name, d.name)))
    for x in table.alphabet.names():
        rules.append(((x, name), (name, x)))
    return NormTable(new_alpha, rules, unit=name)


# ---------------------------------------------------------------------------
# derivation lengths


def max_derivation_length(table: NormTable, w: Word) -> int:
    """Length of the longest sequence of word-changing rewrites from ``w``.

    The graph of words reachable from ``w`` comes from the breadth-first
    search of :func:`_reachable`; applications that fix the word are not
    steps.  Lengths are then taken in topological order, each word after
    its successors.  Raises :class:`NotTerminating` when the searched graph
    has a cycle, and :class:`BudgetExhausted` when the :func:`node_budget`
    in force cuts the search short.
    """
    start = table.alphabet.ids(w)
    if len(start) < 2:
        return 0
    graph = dict(_reachable(table._pairs, len(table.alphabet), start))
    longest: dict[tuple[int, ...], int] = {}
    try:
        for t in graphlib.TopologicalSorter(graph).static_order():
            longest[t] = max((1 + longest[v] for v in graph[t]), default=0)
    except graphlib.CycleError as exc:
        raise NotTerminating(
            f"rewrite cycle through '{_word_from_ids(table.alphabet, exc.args[1][0])}': "
            "derivation lengths are unbounded"
        ) from None
    return longest[start]
