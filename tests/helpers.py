"""Independent oracles used to compute expected values.

Everything here deliberately avoids the library's own search strategies:
normal forms come from an exhaustive closure over *all* rewrite sequences,
arithmetic checks go through plain integer base conversion, and derivation
lengths are recomputed by value iteration over the whole word space and by
a depth-first search instead of the library's breadth-first one.
"""

from collections import deque
from functools import lru_cache
import itertools

from hypothesis import strategies as st

from garnorm import (
    UNBOUNDED,
    Alphabet,
    AmbiguousMaximum,
    Breadth,
    BudgetExhausted,
    GarnormError,
    MissingUnit,
    NormTable,
    NotNormalising,
    NotTerminating,
    Symbol,
    WindowPruned,
    Word,
    build_thurston,
    gallery,
)
from garnorm.core import (
    _NODE_BUDGET,
    _is_normal_ids,
    _sweep,
    _sweep_normalize_ids,
    _word_from_ids,
)
from garnorm.greedy import LENGTH_SLACK, FamilyClosureReport, _search_for, family_unit
from garnorm.machines import _levels, _refine


def brute_normal_forms(table: NormTable, w: Word) -> set[Word]:
    """All normal words reachable from w by any sequence of applications,
    found by exhaustive breadth-first closure (no strategy)."""
    entry = table.entry
    start = tuple(w)
    seen = {start}
    queue = deque([start])
    normals = set()
    while queue:
        cur = queue.popleft()
        moved = False
        for i in range(len(cur) - 1):
            c, d = entry(cur[i], cur[i + 1])
            if (c, d) != (cur[i], cur[i + 1]):
                moved = True
                nxt = cur[:i] + (c, d) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if not moved:
            normals.add(Word(cur))
    return normals


def brute_is_normal(table: NormTable, w: Word) -> bool:
    return all(
        table.entry(w[i], w[i + 1]) == (w[i], w[i + 1]) for i in range(len(w) - 1)
    )


def alternating_count(table: NormTable, triple: Word, first: int, cap: int = 64):
    """Least number of alternating applications (positions first, other,
    first, ... with first in {1, 2}) reaching the unique brute-force normal
    form; every application counts.  None if cap is exceeded."""
    normals = brute_normal_forms(table, triple)
    assert len(normals) == 1, "oracle needs a confluent table"
    target = next(iter(normals))
    cur = tuple(triple)
    pos = first
    for count in range(cap + 1):
        if Word(cur) == target:
            return count
        c, d = table.entry(cur[pos - 1], cur[pos])
        cur = cur[: pos - 1] + (c, d) + cur[pos + 1 :]
        pos = 3 - pos
    return None


def _breadth_of(table: NormTable, lengths) -> Breadth:
    """A Breadth from each triple's (d, p) walk lengths, None for a walk
    that misses its target: a coordinate is UNBOUNDED at the first triple
    with None, else the maximum at the first triple attaining it."""
    value, witness = [0, 0], [Word(table.alphabet.symbols[:1] * 3)] * 2
    for triple, counts in lengths:
        for k, c in enumerate(counts):
            if value[k] is UNBOUNDED:
                continue
            if c is None:
                value[k], witness[k] = UNBOUNDED, triple
            elif c > value[k]:
                value[k], witness[k] = c, triple
    return Breadth(value[0], value[1], witness[0], witness[1])


def mirror(table: NormTable) -> NormTable:
    """The mirror image of a table, without a unit: it sends (a, b) to the
    reverse of the image of (b, a), so it rewrites the reverse of a word
    as the table rewrites the word."""
    syms = table.alphabet.symbols
    rules = []
    for a, b in itertools.product(syms, repeat=2):
        c, d = table.entry(b, a)
        rules.append(((a, b), (d, c)))
    return NormTable(table.alphabet, rules)


def sweep_target_breadth(table: NormTable) -> Breadth:
    """Breadth with each triple's target taken from the whole-word
    normaliser: repeated sweeps, then an exhaustive search when they cycle
    (``core._sweep_normalize_ids``).  Each walk is counted to that target
    and is None after 2 g^3 steps without it.  Raises what the normaliser
    raises on a triple with no normal word, or with two reachable ones
    after the sweeps cycle."""
    table.require_idempotent()
    g = len(table.alphabet)
    pairs = table._pairs

    def count(triple, target, pos):
        w = triple
        for steps in range(2 * g**3 + 1):
            if w == target:
                return steps
            c, d = pairs[w[pos] * g + w[pos + 1]]
            w = (c, d, w[2]) if pos == 0 else (w[0], c, d)
            pos = 1 - pos
        return None

    lengths = []
    for triple in itertools.product(range(g), repeat=3):
        target = _sweep_normalize_ids(table, triple)
        counts = (count(triple, target, 1), count(triple, target, 0))
        lengths.append((_word_from_ids(table.alphabet, triple), counts))
    return _breadth_of(table, lengths)


def walk_rule_breadth(table: NormTable) -> Breadth:
    """Breadth by the rule that needs no normaliser: each alternating walk
    runs over words until it meets a normal word or repeats a (word, next
    position) state; a triple's target is the normal word of its 1,2,1,...
    walk, or else of its 2,1,2,... walk, and a walk counts only if it ends
    at that target."""

    def walk(triple: Word, pos: int):
        cur, seen = tuple(triple), set()
        while not brute_is_normal(table, Word(cur)):
            if (cur, pos) in seen:
                return None, None
            seen.add((cur, pos))
            c, d = table.entry(cur[pos - 1], cur[pos])
            cur = cur[: pos - 1] + (c, d) + cur[pos + 1 :]
            pos = 3 - pos
        return cur, len(seen)

    lengths = []
    for t in itertools.product(table.alphabet.symbols, repeat=3):
        d_walk, p_walk = walk(t, 2), walk(t, 1)
        target = p_walk[0] or d_walk[0]
        counts = tuple(n if nf is not None and nf == target else None for nf, n in (d_walk, p_walk))
        lengths.append((Word(t), counts))
    return _breadth_of(table, lengths)


class TupleWord(tuple):
    """The oracle of ``Word``: a plain tuple of symbols, with equality,
    hashing, length, iteration and indexing those of the tuple, and the
    other word operations spelt out on it."""

    def __getitem__(self, idx):
        got = tuple.__getitem__(self, idx)
        return TupleWord(got) if isinstance(idx, slice) else got

    def __add__(self, other):
        return TupleWord(tuple(self) + tuple(other))

    def __str__(self) -> str:
        return " ".join(s.name for s in self)

    def reverse(self):
        return TupleWord(self[::-1])

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self)

    def ids_in(self, alphabet) -> tuple[int, ...] | None:
        """The position of each letter's name in the name list of
        ``alphabet``, or None when a name is not there."""
        names = alphabet.names()
        if any(s.name not in names for s in self):
            return None
        return tuple(names.index(s.name) for s in self)


def all_words(alphabet, max_len: int, min_len: int = 1):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product(alphabet.symbols, repeat=n):
            yield Word(tup)


def word_to_int(w: Word, base: int) -> int:
    """Most significant digit first; digit names must be integers."""
    value = 0
    for s in w:
        value = value * base + int(s.name)
    return value


def int_to_digits_lsb(value: int, base: int, count: int) -> list[int]:
    digits = []
    for _ in range(count):
        value, r = divmod(value, base)
        digits.append(r)
    return digits


def bulk_longest_derivations(table: NormTable, n: int, round_cap: int):
    """Longest derivation length for every length-n word at once, by value
    iteration with numpy; returns the maximum, or None if the lengths did
    not stabilise within round_cap rounds (cycle or bound violation)."""
    import numpy as np

    g = len(table.alphabet)
    total = g**n
    repl = np.arange(g * g, dtype=np.int64)
    syms = table.alphabet.symbols
    for a in range(g):
        for b in range(g):
            c, d = table.entry(syms[a], syms[b])
            repl[a * g + b] = c.id * g + d.id

    packed = np.arange(total, dtype=np.int64)
    positions = []
    for i in range(n - 1):
        shift = g ** (n - 2 - i)
        pairidx = (packed // shift) % (g * g)
        delta = (repl[pairidx] - pairidx) * shift
        mask = delta != 0
        positions.append((np.nonzero(mask)[0], (packed + delta)[mask]))

    lengths = np.zeros(total, dtype=np.int32)
    for _ in range(round_cap):
        prev = lengths.copy()
        for sources, targets in positions:
            # each word has at most one rewrite per position, so the
            # source indices are unique and fancy assignment is safe
            lengths[sources] = np.maximum(lengths[sources], lengths[targets] + 1)
        if np.array_equal(lengths, prev):
            return int(lengths.max())
    return None


def dfs_longest_derivation(table: NormTable, w: Word) -> int:
    """Longest derivation from w by a depth-first search with an explicit
    frame stack, memoising each finished word; raises NotTerminating on
    meeting a word still on the stack (a rewrite cycle) and BudgetExhausted
    past the node budget in force, counting finished and open words."""
    pairs, g = table._pairs, len(table.alphabet)
    start = table.alphabet.ids(w)
    if len(start) < 2:
        return 0
    budget = _NODE_BUDGET.get()
    best_of: dict[tuple[int, ...], int] = {}
    on_stack: set[tuple[int, ...]] = set()
    # frame: [word, successor list, next successor index, best length so far]
    frames: list[list] = []

    def push(t):
        if len(best_of) + len(on_stack) >= budget:
            raise BudgetExhausted(f"derivation search exceeded the node budget of {budget}")
        on_stack.add(t)
        succ = []
        for i in range(len(t) - 1):
            c, d = pairs[t[i] * g + t[i + 1]]
            if (c, d) != (t[i], t[i + 1]):
                succ.append(t[:i] + (c, d) + t[i + 2 :])
        frames.append([t, succ, 0, 0])

    push(start)
    while frames:
        frame = frames[-1]
        t, succ, idx, best = frame
        if idx < len(succ):
            frame[2] += 1
            child = succ[idx]
            if child in best_of:
                frame[3] = max(frame[3], 1 + best_of[child])
            elif child in on_stack:
                raise NotTerminating(
                    f"rewrite cycle through '{_word_from_ids(table.alphabet, child)}'"
                )
            else:
                push(child)
        else:
            frames.pop()
            on_stack.discard(t)
            best_of[t] = best
            if frames:
                frames[-1][3] = max(frames[-1][3], 1 + best)
    return best_of[start]


def on_rewrite_cycle(table: NormTable, w: Word) -> bool:
    """True iff some non-empty sequence of word-changing rewrites leads
    from w back to w, by breadth-first closure over its successors."""
    start = tuple(w)
    queue = deque([start])
    seen = set()
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) - 1):
            c, d = table.entry(cur[i], cur[i + 1])
            if (c, d) != (cur[i], cur[i + 1]):
                nxt = cur[:i] + (c, d) + cur[i + 2 :]
                if nxt == start:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def positional_rewrite_analysis(table: NormTable, max_len: int):
    """The backward search over integer word codes as ``_rewrite_analysis``
    ran it before it read one offset table per length: every word popped
    scans its n - 1 positions, reading each pair code off the word code.

    Returns (confluence_failures, dead) as words, with the same witnesses
    and order; it reads no node budget.
    """
    g = len(table.alphabet)
    gg = g * g
    pairs = table._pairs
    # back[c*g + d]: the steps k - (c*g + d) of the pair codes k rewritten to (c, d)
    back: list[list[int]] = [[] for _ in range(gg)]
    for k, (c, d) in enumerate(pairs):
        if c * g + d != k:
            back[c * g + d].append(k - c * g - d)
    follow = [[b for b in range(g) if pairs[a * g + b] == (a, b)] for a in range(g)]
    al = table.alphabet

    confl, dead = [], []
    normals = list(range(g))
    for n in range(2, max_len + 1):
        normals = [w * g + b for w in normals for b in follow[w % g]]
        steps = []
        for i in range(n - 1):
            shift = g ** (n - 2 - i)
            steps.append((shift, [[d * shift for d in ds] for ds in back]))
        first = [-1] * g**n
        second = [-1] * g**n
        for j, nf in enumerate(normals):
            first[nf] = j
            stack = [nf]
            while stack:
                w = stack.pop()
                for shift, moves in steps:
                    for d in moves[w // shift % gg]:
                        v = w + d
                        f = first[v]
                        if f < 0:
                            first[v] = j
                        elif f == j or second[v] >= 0:
                            continue
                        else:
                            second[v] = j
                        stack.append(v)
        # a code is decoded as its high and its low half of letters
        low = g ** (n // 2)
        highs = list(itertools.product(range(g), repeat=n - n // 2))
        lows = list(itertools.product(range(g), repeat=n // 2))
        word = lambda code: _word_from_ids(al, highs[code // low] + lows[code % low])
        confl.extend(
            (word(w), word(normals[first[w]]), word(normals[s]))
            for w, s in enumerate(second)
            if s >= 0
        )
        dead.extend(word(w) for w, f in enumerate(first) if f < 0)
    return confl, dead


def dict_rewrite_analysis(table: NormTable, max_len: int):
    """Backward search from the normal words over words as tuples, with one
    dict entry per live word and the reverse-rule map rebuilt per length.

    Returns (confluence_failures, dead) as id tuples over lengths
    2..max_len: the words reaching two distinct normal forms (with the two
    found first, in lexicographic order) and the words reaching none.
    """
    g = len(table.alphabet)
    pairs = table._pairs
    confl_all, dead_all = [], []
    normals = [(a,) for a in range(g)]
    for n in range(2, max_len + 1):
        normals = [
            w + (b,) for w in normals for b in range(g) if pairs[w[-1] * g + b] == (w[-1], b)
        ]
        rev: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for k, image in enumerate(pairs):
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

        confl_all += sorted((w, s[0], s[1]) for w, s in nfsets.items() if len(s) == 2)
        if len(nfsets) < g**n:
            dead_all += [w for w in itertools.product(range(g), repeat=n) if w not in nfsets]
    return confl_all, dead_all


def transition_tables(m) -> tuple[list[list[int]], list[list[int]]]:
    """Next-state and output arrays of a machine, ``nxt[q][i]`` and
    ``out[q][i]``, read once through its public ``transitions`` listing."""
    nxt = [[0] * len(m.alphabet) for _ in m.states]
    out = [[0] * len(m.alphabet) for _ in m.states]
    for q, i, nq, o in m.transitions():
        nxt[q.id][i.id] = nq.id
        out[q.id][i.id] = o.id
    return nxt, out


def idle_flags(m) -> tuple[bool, ...]:
    """Per state id, whether the state writes every letter it reads and
    stays put, read through the public ``transitions`` listing."""
    idle = [True] * len(m.states)
    for q, i, nq, o in m.transitions():
        if nq != q or o != i:
            idle[q.id] = False
    return tuple(idle)


def sweep_run(m, q: int, ids) -> tuple[tuple[int, ...], int]:
    """The run of state id ``q`` over letter ids as one whole sweep of the
    machine's pair table (``core._sweep``), reading every letter even after
    an idle state: (output ids, arrival state id)."""
    res = _sweep(m._pairs, len(m.alphabet), q, ids)
    return tuple(res[:-1]), res[-1]


def sweep_run_word(m, qs, ids) -> tuple[tuple[int, ...], list[int]]:
    """The state ids ``qs`` run one after another by :func:`sweep_run`:
    (final output ids, arrival state id of each run)."""
    arrivals = []
    for q in qs:
        ids, final = sweep_run(m, q, ids)
        arrivals.append(final)
    return tuple(ids), arrivals


def sweep_thurston(t, w: Word, max_sweeps: int | None = None) -> Word:
    """``thurston_normalize`` by sweeps alone, on every machine.  Sweep
    until a sweep gives the word back, keeping every word seen, and return
    the word if it is normal; raise ``NotNormalising`` if it is not, or if
    a word comes back after a longer cycle.  With ``max_sweeps``, the
    oracle of the |w| - 1 bound, stop after that many sweeps and raise a
    plain ``BudgetExhausted`` if the word is not normal by then."""
    if t.states is not t.alphabet and t.states != t.alphabet:
        raise GarnormError("sweeping requires a machine whose states are its letters")
    if len(w) == 0:
        raise GarnormError("cannot normalise the empty word")
    ids = _swept_ids(t._pairs, t.alphabet, list(t.alphabet.ids(w)), max_sweeps)
    return _word_from_ids(t.alphabet, ids)


def _swept_ids(pairs, alphabet, ids: list[int], max_sweeps: int | None = None) -> list[int]:
    """The sweeps of :func:`sweep_thurston` on the letter ids ``ids``, a
    nonempty list over ``alphabet``, with its errors."""
    g, start = len(alphabet), ids
    seen = {tuple(ids)}
    error = NotNormalising
    for _ in itertools.count() if max_sweeps is None else range(max_sweeps):
        swept = _sweep(pairs, g, ids[0], ids[1:])
        if swept == ids:
            break
        if tuple(swept) in seen:
            raise NotNormalising(f"sweeps of '{_word_from_ids(alphabet, start)}' cycle")
        seen.add(tuple(swept))
        ids = swept
    else:
        error = BudgetExhausted  # max_sweeps ran out
    if not _is_normal_ids(pairs, g, ids):
        raise error(f"sweeps of '{_word_from_ids(alphabet, start)}' reach no normal word")
    return ids


@lru_cache(maxsize=None)
def swept_gallery_forms(name: str, max_len: int) -> bytes:
    """The letter ids of the normal forms that the sweeps of the sweeping
    transducer of gallery table ``name`` reach (:func:`sweep_thurston`)
    from every word of length 1 to ``max_len``, back to back in
    :func:`all_words` order.  Cached, so every test that checks a kernel
    against these sweeps sweeps each word once; the words are swept as id
    tuples, with no ``Word`` made for them."""
    th = build_thurston(gallery(name).table)
    g = len(th.alphabet)
    return b"".join(
        bytes(_swept_ids(th._pairs, th.alphabet, list(ids)))
        for n in range(1, max_len + 1)
        for ids in itertools.product(range(g), repeat=n)
    )


def changing_sweeps(t, ids) -> int:
    """How many sweeps of the machine's pair table change the letter ids
    ``ids`` before one changes nothing.  The sweeps must reach a word they
    fix, as they do on home tables."""
    pairs, g, ids, count = t._pairs, len(t.alphabet), list(ids), 0
    while (swept := _sweep(pairs, g, ids[0], ids[1:])) != ids:
        ids, count = swept, count + 1
    return count


#: The kinds of table ``draw_idempotent_pair_map`` draws.
PAIR_MAP_KINDS = ("padding", "failing unit", "no unit")


def draw_idempotent_pair_map(draw) -> tuple[str, NormTable]:
    """With a Hypothesis ``draw``, one of the ``PAIR_MAP_KINDS`` and a table
    of that kind on 2-5 letters.  Letter 1 gets the padding entries unless
    there is no unit; a failing unit loses one entry (x, 1) -> (1, x).  Up
    to a third of the other pairs are rewritten, each to a pair left fixed,
    so the map is idempotent."""
    g = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(PAIR_MAP_KINDS))
    unit = kind != "no unit"
    names = ("1",) * unit + tuple("abcde")[: g - unit]
    pairs = list(itertools.product(range(g), repeat=2))
    rules = {(x, 0): (0, x) for x in range(1, g)} if unit else {}
    if kind == "failing unit":
        del rules[(draw(st.integers(1, g - 1)), 0)]
    free = [p for p in pairs if p not in rules and not (unit and p[0] == 0)]
    moved = draw(st.lists(st.sampled_from(free), min_size=1, max_size=max(1, len(free) // 3),
                          unique=True))
    fixed = [p for p in pairs if p not in rules and p not in moved]
    rules.update((p, draw(st.sampled_from(fixed))) for p in moved)
    named = [((names[a], names[b]), (names[c], names[d])) for (a, b), (c, d) in rules.items()]
    return kind, NormTable(Alphabet(names), named, unit="1" if unit else None)


def carried_insertion(pairs, g: int, ids) -> tuple[int, ...]:
    """Letter insertion with every letter carried: each new letter is swept
    right to left through the whole normal word built so far, padding
    letters included, until a step leaves the letter to its left unchanged.
    The oracle of ``core._insert_ids``, which counts padding letters
    instead of carrying them."""
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


def _thread(tables, tup: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
    """Letter ``j`` through the states of ``tup`` in turn: (last output,
    next states)."""
    nxt, out = tables
    res = []
    for q in tup:
        res.append(nxt[q][j])
        j = out[q][j]
    return j, tuple(res)


def bfs_distinguishing_word(m, u: Word, v: Word) -> Word | None:
    """Breadth-first bisimulation over every reachable pair of raw state
    tuples, letters tried in order: the shortlex-least input on which the
    actions of ``u`` and ``v`` differ, or None when they agree."""
    tables = transition_tables(m)
    start = (m.states.ids(u), m.states.ids(v))
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for j in range(len(m.alphabet)):
            oa, na = _thread(tables, cur[0], j)
            ob, nb = _thread(tables, cur[1], j)
            if oa != ob:
                letters = [j]
                while parent[cur] is not None:
                    cur, jj = parent[cur]
                    letters.append(jj)
                return Word(m.alphabet.symbols[i] for i in reversed(letters))
            child = (na, nb)
            if child not in parent:
                parent[child] = (cur, j)
                queue.append(child)
    return None


def refined_growth(m, max_len: int) -> list[int]:
    """The number of action classes of state words of each length 1 ..
    ``max_len``, by partition refinement of the reduced state tuples of
    every length, whatever the machine."""
    return [len(set(_refine(outs, succs))) for _, outs, succs in _levels(m, max_len)]


def product_action_class_ids(m, length: int) -> list[int]:
    """Action classes of all q**length state tuples, in ``itertools.product``
    order and numbered by first occurrence: Moore refinement of the whole
    product machine, with no reduction of the tuples."""
    q, s = len(m.states), len(m.alphabet)
    tuples = list(itertools.product(range(q), repeat=length))
    index = {t: k for k, t in enumerate(tuples)}
    tables = transition_tables(m)
    rows = [[_thread(tables, t, j) for j in range(s)] for t in tuples]
    keys = [tuple(o for o, _ in row) for row in rows]
    succ = [[index[nt] for _, nt in row] for row in rows]
    cls: list[int] = []
    while True:
        ids: dict = {}
        new = [ids.setdefault(key, len(ids)) for key in keys]
        if new == cls:
            return cls
        cls = new
        keys = [(cls[x], tuple(cls[y] for y in succ[x])) for x in range(len(tuples))]


# ---------------------------------------------------------------------------
# the greedy layer, one product at a time: these share the library's
# word-problem closure and differ only in how products, table entries and
# divisibility verdicts are enumerated


def all_pairs_factorisations(search, e: tuple[int, ...], reps, maxlen: int):
    """Every index pair (c, d), in lexicographic order, whose product
    reps[c] reps[d] lies in the class of ``e`` within the window
    max(|e|, 2 * maxlen) + slack: all F**2 products tested one by one."""
    cls = search.class_of(e, max(len(e), 2 * maxlen) + LENGTH_SLACK)
    return [
        (c, d)
        for c in range(len(reps))
        for d in range(len(reps))
        if reps[c] + reps[d] in cls
    ]


def all_pairs_right_divisors(monoid, e: Word, family) -> set:
    family = tuple(family)
    reps = [monoid.atoms.ids(f.rep) for f in family]
    maxlen = max((len(r) for r in reps), default=0)
    pairs = all_pairs_factorisations(_search_for(monoid), monoid.atoms.ids(e), reps, maxlen)
    return {family[d] for _, d in pairs}


def pairwise_greedy_table(monoid, family, unit=None) -> NormTable:
    """The greedy table with every pair's candidates, maxima and left parts
    worked out afresh for that pair alone."""
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
    search = _search_for(monoid)
    reps = [monoid.atoms.ids(f.rep) for f in family]
    maxlen = max(len(r) for r in reps)

    def divides(i: int, j: int) -> bool:
        return search.divides(reps[i], reps[j])

    rules = []
    for xi, yi in itertools.product(range(len(family)), repeat=2):
        candidates = all_pairs_factorisations(search, reps[xi] + reps[yi], reps, maxlen)
        assert candidates, "(x, y) is a factorisation of its own product"
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
    alphabet = Alphabet(f.name.name for f in family)
    syms = alphabet.symbols
    table = NormTable(
        alphabet,
        [((syms[a], syms[b]), (syms[c], syms[d])) for (a, b), (c, d) in rules],
        unit=unit.name.name,
    )
    table.require_idempotent()
    return table


def unmemoised_family_closure(monoid, family) -> FamilyClosureReport:
    """The family closure check with no memo of its own: every
    right-divisibility question goes to the search each time it recurs,
    and the membership test and report loops are written out twice."""
    family = tuple(family)
    report = FamilyClosureReport()
    search = _search_for(monoid)
    reps = {f: monoid.atoms.ids(f.rep) for f in family}
    maxlen = max((len(r) for r in reps.values()), default=0)
    window = 2 * maxlen + LENGTH_SLACK
    atoms = monoid.atoms

    def in_family(ids) -> bool:
        return any(search.equal(r, ids) for r in reps.values())

    def cause(exc) -> str:
        return "window pruned" if isinstance(exc, WindowPruned) else "budget exhausted"

    reported: list = []
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
                if any(search.equal(q, p) for q in reported):
                    continue
                reported.append(p)
                report.missing_left_divisors.append((f, _word_from_ids(atoms, p)))
            except BudgetExhausted as exc:
                report.unknown.append(
                    f"left divisor '{_word_from_ids(atoms, p)}' of {f.name}: {cause(exc)}"
                )

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
            reported_m: list = []
            for m in common:
                # a proper right divisor is a witness: stop at the first
                if any(
                    m2 != m and search.right_divides(m2, m) and not search.equal(m2, m)
                    for m2 in common
                ):
                    continue
                if in_family(m):
                    continue
                if any(search.equal(q, m) for q in reported_m):
                    continue
                reported_m.append(m)
                report.missing_left_mcms.append((f, g, _word_from_ids(atoms, m)))
        except BudgetExhausted as exc:
            report.unknown.append(f"left-mcm of {f.name} and {g.name}: {cause(exc)}")
    return report
