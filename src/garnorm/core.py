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
the letters one at a time.  Every other table is normalised by repeated
left-to-right sweeps, falling back to an exhaustive search of the rewrite
graph when the sweeps cycle.  Both strategies, and the sweeping transducer
of :mod:`garnorm.machines`, share one encoding: a flat tuple of image
pairs indexed ``a * g + b`` for the pair (a, b) over g letters.

All values are immutable after construction and all operations are pure
functions of their inputs, so concurrent read-only use is safe.  The one
cached value, whether a table satisfies ``condition_home``, is computed on
first use and written once; concurrent first uses compute the same value,
so the unlocked write is harmless.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

DEFAULT_NODE_BUDGET = 100_000

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


class LetterNotInAlphabet(GarnormError):
    """A word contains a letter outside the expected alphabet."""


class BudgetExhausted(GarnormError):
    """A search hit its node budget before reaching an answer."""


class NotTerminating(BudgetExhausted):
    """A rewrite cycle was found, so derivation lengths are unbounded."""


class SweepBudgetExhausted(BudgetExhausted):
    """Iterated sweeps did not reach a normal word within the sweep budget."""


class NormalWordBudgetExhausted(NotNormalising, BudgetExhausted):
    """The search for a reachable normal word hit its node budget without
    finding one, so whether one exists is unknown."""


class UnknownName(GarnormError):
    """No gallery entry with this name."""


class NoFactorisation(GarnormError):
    """A product admits no factorisation into two family elements."""


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
    other.
    """

    id: int
    name: str

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

    __slots__ = ("symbols", "_by_name")

    def __init__(self, names: Iterable[str]):
        symbols = []
        by_name: dict[str, Symbol] = {}
        for i, name in enumerate(names):
            _check_name(name)
            if name in by_name:
                raise AlphabetError(f"duplicate symbol name {name!r}")
            sym = Symbol(i, name)
            symbols.append(sym)
            by_name[name] = sym
        self.symbols: tuple[Symbol, ...] = tuple(symbols)
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __contains__(self, item) -> bool:
        if isinstance(item, Symbol):
            return 0 <= item.id < len(self.symbols) and self.symbols[item.id] == item
        return item in self._by_name

    def __getitem__(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlphabetError(f"unknown symbol {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names() == other.names()

    def __hash__(self) -> int:
        return hash(self.names())

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names())!r})"

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.symbols)

    def word_of(self, names: Iterable[str]) -> "Word":
        return Word(self[n] for n in names)

    def word(self, text: str, compact: bool = False) -> "Word":
        """Parse a word from text.

        Words are space-separated symbol names.  As a convenience, a single
        unspaced token whose characters are all one-character symbol names
        is read letter by letter ("110" over the alphabet {0, 1}); passing
        ``compact=True`` forces that reading for every token.
        """
        tokens = text.split()
        if compact:
            return Word(self[ch] for tok in tokens for ch in tok)
        if all(tok in self._by_name for tok in tokens):
            return self.word_of(tokens)
        if len(tokens) == 1 and all(ch in self._by_name for ch in tokens[0]):
            return Word(self[ch] for ch in tokens[0])
        bad = next(tok for tok in tokens if tok not in self._by_name)
        raise AlphabetError(f"unknown symbol {bad!r}")

    def ids(self, w: Iterable[Symbol]) -> tuple[int, ...]:
        """The ids in this alphabet of the letters of ``w``, matched by name,
        so a word over any alphabet with these names is accepted."""
        by_name = self._by_name
        try:
            return tuple(by_name[s.name].id for s in w)
        except KeyError as exc:
            raise LetterNotInAlphabet(f"letter {exc.args[0]!r} not in alphabet") from None


class Word:
    """An immutable sequence of symbols from one alphabet.

    Concatenation is ``+``, reversal is :meth:`reverse`, and slicing
    returns words.  Equality and hashing are structural.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Symbol] = ()):
        object.__setattr__(self, "letters", tuple(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.letters)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self.letters[idx])
        return self.letters[idx]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return " ".join(s.name for s in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def reverse(self) -> "Word":
        return Word(reversed(self.letters))

    def ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.letters)

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.letters)


# ---------------------------------------------------------------------------
# normalisation tables


class NormTable:
    """Two-letter restriction of a normalisation: alphabet, optional unit,
    and a total map on ordered pairs of letters (unlisted pairs are fixed).
    """

    __slots__ = ("alphabet", "unit", "_pairs", "_home")

    def __init__(
        self,
        alphabet: Alphabet,
        rules: Mapping | Iterable = (),
        unit: Symbol | str | None = None,
    ):
        if len(alphabet) == 0:
            raise AlphabetError("a normalisation table needs at least one letter")
        self.alphabet = alphabet
        if unit is not None and not isinstance(unit, Symbol):
            unit = alphabet[unit]
        if unit is not None and unit not in alphabet:
            raise AlphabetError(f"unit {unit.name!r} is not in the alphabet")
        self.unit = unit

        g = len(alphabet)
        pairs = [(a, b) for a in range(g) for b in range(g)]
        items = rules.items() if isinstance(rules, Mapping) else rules
        for (a, b), (c, d) in items:
            pairs[self._sym(a).id * g + self._sym(b).id] = (self._sym(c).id, self._sym(d).id)
        # image of the pair (a, b) at index a * g + b
        self._pairs: tuple[tuple[int, int], ...] = tuple(pairs)
        self._home: bool | None = None  # see _incremental

    def _sym(self, s) -> Symbol:
        if isinstance(s, Symbol):
            if s not in self.alphabet:
                raise AlphabetError(f"symbol {s!r} is not in the alphabet")
            return s
        return self.alphabet[s]

    def _index(self, a: Symbol | str, b: Symbol | str) -> int:
        return self._sym(a).id * len(self.alphabet) + self._sym(b).id

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
        """Whether ``normalize`` may insert letters one at a time: the table
        satisfies :func:`condition_home`.  Computed on first use and cached;
        a table whose breadth cannot be computed does not qualify."""
        if self._home is None:
            try:
                self._home = condition_home(self)
            except GarnormError:
                self._home = False
        return self._home

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


def _sweep(pairs, g: int, w: list[int]) -> bool:
    """Apply the table at positions 1..n-1 left to right, in place; each
    application sees the letter the previous one carried.  Returns whether
    any application moved a letter, which is false exactly when ``w`` was
    normal."""
    changed = False
    a = w[0]
    for i, b in enumerate(w[1:]):
        c, d = pairs[a * g + b]
        if c != a or d != b:
            changed = True
        w[i] = c
        a = d
    w[-1] = a
    return changed


def _insert_ids(pairs, g: int, ids: Sequence[int]) -> tuple[int, ...]:
    """Normal form by letter insertion, exact for class (4,3) tables only.

    Each new letter x turns the normal word N(w) x into N(w x) by one
    right-to-left sweep; the sweep stops at the first position whose letter
    the carried letter leaves unchanged, since the normal prefix to its left
    would be fixed too.
    """
    w = [ids[0]]
    for x in ids[1:]:
        i = len(w)
        w.append(x)
        while i:
            i -= 1
            a = w[i]
            c, w[i + 1] = pairs[a * g + x]
            if c == a:
                break
            w[i] = x = c
    return tuple(w)


def _successors(pairs, g: int, ids: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for i in range(len(ids) - 1):
        a, b = ids[i], ids[i + 1]
        c, d = pairs[a * g + b]
        if c != a or d != b:
            out.append(ids[:i] + (c, d) + ids[i + 2 :])
    return out


def _reachable_normals(
    table: NormTable, start: tuple[int, ...], node_budget: int
) -> tuple[list[tuple[int, ...]], bool]:
    """Breadth-first search of the rewrite graph; collects up to two
    distinct reachable normal words.  Returns (normals, budget_hit)."""
    pairs, g = table._pairs, len(table.alphabet)
    seen = {start}
    queue = deque([start])
    normals: list[tuple[int, ...]] = []
    budget_hit = False
    while queue:
        w = queue.popleft()
        succ = _successors(pairs, g, w)
        if not succ:
            normals.append(w)
            if len(normals) == 2:
                return normals, budget_hit
            continue
        for v in succ:
            if v not in seen:
                if len(seen) >= node_budget:
                    budget_hit = True
                    continue
                seen.add(v)
                queue.append(v)
    return normals, budget_hit


def _sweep_normalize_ids(
    table: NormTable, ids: tuple[int, ...], node_budget: int
) -> tuple[int, ...]:
    """Normal form by repeated sweeps, with an exhaustive fallback search
    when they cycle; valid for every table."""
    n = len(ids)
    pairs, g = table._pairs, len(table.alphabet)
    w = list(ids)
    seen = {ids}
    for _ in range(n * n + n):
        if not _sweep(pairs, g, w):
            return tuple(w)
        t = tuple(w)
        if t in seen:
            break
        seen.add(t)
    # Sweeps cycle: fall back to exhaustive search from the original word.
    normals, budget_hit = _reachable_normals(table, ids, node_budget)
    al = table.alphabet
    if len(normals) >= 2:
        raise NotConfluent(
            _word_from_ids(al, ids), _word_from_ids(al, normals[0]), _word_from_ids(al, normals[1])
        )
    if not normals:
        word = _word_from_ids(al, ids)
        if budget_hit:
            raise NormalWordBudgetExhausted(
                f"no normal word reachable from '{word}' within {node_budget} nodes"
            )
        raise NotNormalising(f"no normal word is reachable from '{word}'")
    return normals[0]


def _normalize_ids(
    table: NormTable, ids: tuple[int, ...], node_budget: int
) -> tuple[int, ...]:
    if len(ids) <= 1:
        return ids
    if table._incremental():
        return _insert_ids(table._pairs, len(table.alphabet), ids)
    return _sweep_normalize_ids(table, ids, node_budget)


def _word_from_ids(alphabet: Alphabet, ids: Iterable[int]) -> Word:
    syms = alphabet.symbols
    return Word(syms[i] for i in ids)


def nbar_apply(table: NormTable, w: Word, i: int) -> Word:
    """Apply the table to the letters at positions i and i+1 (1-based)."""
    ids = table.alphabet.ids(w)
    if not 1 <= i <= len(ids) - 1:
        raise PositionOutOfRange(f"position {i} out of range for a word of length {len(ids)}")
    c, d = table._pairs[ids[i - 1] * len(table.alphabet) + ids[i]]
    return _word_from_ids(table.alphabet, ids[: i - 1] + (c, d) + ids[i + 1 :])


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


def normalize(table: NormTable, w: Word, node_budget: int = DEFAULT_NODE_BUDGET) -> Word:
    """A normal word of the same length reachable from ``w``.

    Strategy: when the table satisfies :func:`condition_home`, it is the
    restriction of a normalisation of class (4,3) (Dehornoy and Guiraud,
    "Quadratic normalisation in monoids", IJAC 2016), and the normal form
    is built by inserting the letters one at a time: each new letter is
    swept right to left through the normal prefix, stopping at the first
    position that keeps its letter.  This path never raises.  Whether the
    table qualifies is computed on its first normalisation and cached on
    the table.

    Every other table gets repeated left-to-right sweeps until fixpoint,
    capped at |w|**2 + |w| sweeps; if the sweeps cycle, an exhaustive
    breadth-first search of the rewrite graph takes over (up to
    ``node_budget`` nodes).  Raises :class:`NotNormalising` when no normal
    word is reachable, :class:`NormalWordBudgetExhausted` (a subclass of
    both it and :class:`BudgetExhausted`) when the search stopped at the
    budget before finding one, and :class:`NotConfluent` when two distinct
    ones are.
    """
    if len(w) == 0:
        raise GarnormError("cannot normalise the empty word")
    ids = table.alphabet.ids(w)
    return _word_from_ids(table.alphabet, _normalize_ids(table, ids, node_budget))


# ---------------------------------------------------------------------------
# table verification


@dataclass
class NormalisationReport:
    """Witness lists from :func:`verify_normalisation`; empty means the
    table behaved as a normalisation restriction at the checked scale."""

    max_len: int
    idempotence_failures: list = field(default_factory=list)
    not_normalising: list = field(default_factory=list)  # words with no reachable normal form
    not_confluent: list = field(default_factory=list)  # (word, normal form 1, normal form 2)
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


def _rewrite_analysis(table: NormTable, n: int, normals: list[tuple[int, ...]]):
    """Classify every length-n word by its reachable normal words, given
    ``normals``, the normal words of length n in lexicographic order.

    Returns (confluence_failures, dead): the words reaching two distinct
    normal forms (with the first two found), and the words reaching none,
    both in lexicographic order.  Works backwards from the normal words, so
    it is exact even when forward rewriting cycles, and it visits only the
    words that reach some normal word; all g**n words are walked only when
    some word is dead, to list the dead ones.
    """
    g = len(table.alphabet)
    rev: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, image in enumerate(table._pairs):
        source = divmod(k, g)
        if image != source:
            rev.setdefault(image, []).append(source)

    nfsets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for nf in normals:
        nfsets[nf] = [nf]
        stack = [nf]
        while stack:
            w = stack.pop()
            for i in range(n - 1):
                key = (w[i], w[i + 1])
                if key not in rev:
                    continue
                for a, b in rev[key]:
                    v = w[:i] + (a, b) + w[i + 2 :]
                    s = nfsets.setdefault(v, [])
                    if nf in s or len(s) >= 2:
                        continue
                    s.append(nf)
                    stack.append(v)

    # every key holds at least one normal form, so the keys are the live words
    confl = sorted((w, s[0], s[1]) for w, s in nfsets.items() if len(s) == 2)
    dead = []
    if len(nfsets) < g**n:
        dead = [w for w in itertools.product(range(g), repeat=n) if w not in nfsets]
    return confl, dead


def verify_normalisation(table: NormTable, max_len: int = 5) -> NormalisationReport:
    """Exhaustively check the normalisation axioms on words up to ``max_len``.

    Checks pair idempotence and that every word of length 2..max_len
    reaches exactly one normal word.  The remaining axiom, that normalising
    an inner factor first never changes the result (N(u N(w) v) = N(uwv)),
    needs no pass of its own: u N(w) v is reachable from uwv by rewriting
    inside w, so when uwv reaches exactly one normal word, u N(w) v reaches
    that same word.  ``axiom_failures`` is therefore always empty.

    The normal words of each length are built from those one letter
    shorter, by appending each letter that forms a fixed pair with the
    last one.
    """
    if max_len < 3:
        raise GarnormError("max_len must be at least 3")
    report = NormalisationReport(max_len=max_len)
    report.idempotence_failures = table.idempotence_failures()

    g = len(table.alphabet)
    pairs = table._pairs
    word = lambda ids: _word_from_ids(table.alphabet, ids)

    normals = [(a,) for a in range(g)]
    for n in range(2, max_len + 1):
        normals = [
            w + (b,) for w in normals for b in range(g) if pairs[w[-1] * g + b] == (w[-1], b)
        ]
        confl, dead = _rewrite_analysis(table, n, normals)
        report.not_confluent.extend((word(w), word(x), word(y)) for w, x, y in confl)
        report.not_normalising.extend(word(w) for w in dead)
    return report


# ---------------------------------------------------------------------------
# breadth and the bounded-breadth condition


class _UnboundedType:
    """Sentinel for a breadth coordinate that exceeded the iteration cap."""

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
    alternates 1,2,1,...; each witness is a triple attaining its maximum.
    """

    d: int | _UnboundedType
    p: int | _UnboundedType
    d_witness: Word
    p_witness: Word
    warning: str | None = None

    def as_pair(self) -> tuple:
        return (self.d, self.p)

    @property
    def finite(self) -> bool:
        return isinstance(self.d, int) and isinstance(self.p, int)


def _alternating_count(
    pairs, g: int, triple: tuple[int, int, int], target: tuple[int, ...], first: int, cap: int
) -> int | None:
    """Least number of alternating applications turning ``triple`` into
    ``target``; ``first`` is the 0-based position applied first.  Every
    application counts, including ones that fix the word.  Returns None
    past ``cap``."""
    w = triple
    pos = first
    for count in range(cap + 1):
        if w == target:
            return count
        c, d = pairs[w[pos] * g + w[pos + 1]]
        if pos == 0:
            w = (c, d, w[2])
        else:
            w = (w[0], c, d)
        pos = 1 - pos
    return None


def breadth(table: NormTable, cap: int = 64) -> Breadth:
    """Maximal alternating-sequence lengths over all three-letter words.

    Requires a pair-idempotent table.  A coordinate whose sequence fails to
    reach the normal form within ``cap`` applications is reported as
    UNBOUNDED, with the offending triple as witness.  The normal forms come
    from repeated sweeps, never from letter insertion, because insertion is
    only enabled by this very measurement.
    """
    table.require_idempotent()
    g = len(table.alphabet)
    pairs = table._pairs

    d_val, d_wit = 0, (0, 0, 0)
    p_val, p_wit = 0, (0, 0, 0)
    for triple in itertools.product(range(g), repeat=3):
        target = _sweep_normalize_ids(table, triple, DEFAULT_NODE_BUDGET)
        if d_val is not UNBOUNDED:
            c = _alternating_count(pairs, g, triple, target, 1, cap)
            if c is None:
                d_val, d_wit = UNBOUNDED, triple
            elif c > d_val:
                d_val, d_wit = c, triple
        if p_val is not UNBOUNDED:
            c = _alternating_count(pairs, g, triple, target, 0, cap)
            if c is None:
                p_val, p_wit = UNBOUNDED, triple
            elif c > p_val:
                p_val, p_wit = c, triple

    warning = None
    if isinstance(d_val, int) and isinstance(p_val, int) and abs(d_val - p_val) > 1:
        warning = f"|d - p| = {abs(d_val - p_val)} > 1; genuine normalisations satisfy |d - p| <= 1"
    return Breadth(
        d=d_val,
        p=p_val,
        d_witness=_word_from_ids(table.alphabet, d_wit),
        p_witness=_word_from_ids(table.alphabet, p_wit),
        warning=warning,
    )


def condition_home(table: NormTable, cap: int = 64) -> bool:
    """True iff the breadth is finite with d <= 4 and p <= 3."""
    b = breadth(table, cap=cap)
    return b.finite and b.d <= 4 and b.p <= 3


# ---------------------------------------------------------------------------
# the unit letter


def unit_condition_failures(table: NormTable, max_len: int = 4) -> list[str]:
    """Witness descriptions of unit-condition violations (empty = holds).

    The unit must satisfy entries(x, 1) = entries(1, x) = (1, x) for every
    letter x, and normalising a word padded with the unit on either side
    must equal the unit-prefixed normal form, for words up to ``max_len``.

    On a table that passes :func:`condition_home` and whose 2g unit entries
    hold, the padded words need no check, because ``normalize`` inserts
    letters one at a time.  In 1 w, each letter swept left through N(w)
    stops at the leading 1, since (1, x) is fixed, so N(1 w) = 1 N(w).  In
    w 1, the inserted 1 moves left past every letter x != 1, since
    (x, 1) -> (1, x), and stops at a 1; the units of the normal word N(w)
    form a prefix, since (x, 1) is not fixed, so again N(w 1) = 1 N(w).
    Every other table normalises each padded word of length up to
    ``max_len`` + 1.
    """
    if table.unit is None:
        raise MissingUnit("the table has no designated unit letter")
    u = table.unit.id
    g = len(table.alphabet)
    syms = table.alphabet.symbols
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
    if not fails and table._incremental():
        return fails
    budget = DEFAULT_NODE_BUDGET
    for n in range(1, max_len + 1):
        for ids in itertools.product(range(g), repeat=n):
            nf = _normalize_ids(table, ids, budget)
            want = (u,) + nf
            left = _normalize_ids(table, (u,) + ids, budget)
            right = _normalize_ids(table, ids + (u,), budget)
            w = _word_from_ids(table.alphabet, ids)
            if left != want:
                fails.append(
                    f"normalize(1 {w}) = {_word_from_ids(table.alphabet, left)}, "
                    f"expected {_word_from_ids(table.alphabet, want)}"
                )
            if right != want:
                fails.append(
                    f"normalize({w} 1) = {_word_from_ids(table.alphabet, right)}, "
                    f"expected {_word_from_ids(table.alphabet, want)}"
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


def max_derivation_length(
    table: NormTable, w: Word, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Length of the longest sequence of word-changing rewrites from ``w``.

    Depth-first over the rewrite graph with memoisation; applications that
    fix the word are not steps.  Raises :class:`NotTerminating` when a
    rewrite cycle is found and :class:`BudgetExhausted` past the node
    budget.
    """
    start = table.alphabet.ids(w)
    if len(start) < 2:
        return 0
    pairs, g = table._pairs, len(table.alphabet)
    best_of: dict[tuple[int, ...], int] = {}
    on_stack: set[tuple[int, ...]] = set()
    # frame: [word, successor list, next successor index, best length so far]
    frames: list[list] = []

    def push(t):
        if len(best_of) + len(on_stack) >= node_budget:
            raise BudgetExhausted(
                f"derivation search exceeded the node budget of {node_budget}"
            )
        on_stack.add(t)
        frames.append([t, _successors(pairs, g, t), 0, 0])

    push(start)
    while frames:
        frame = frames[-1]
        t, succ, idx, best = frame
        if idx < len(succ):
            frame[2] += 1
            child = succ[idx]
            if child in best_of:
                if 1 + best_of[child] > frame[3]:
                    frame[3] = 1 + best_of[child]
            elif child in on_stack:
                raise NotTerminating(
                    f"rewrite cycle through '{_word_from_ids(table.alphabet, child)}': "
                    "derivation lengths are unbounded"
                )
            else:
                push(child)
        else:
            frames.pop()
            on_stack.discard(t)
            best_of[t] = best
            if frames and 1 + best > frames[-1][3]:
                frames[-1][3] = 1 + best
    return best_of[start]
