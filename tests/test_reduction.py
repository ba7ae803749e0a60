"""State words reduced by the length-2 action classes, checked against the
unreduced oracles in ``helpers``: breadth-first bisimulation over raw state
tuples, and Moore refinement of the whole q**k product machine.

The machines are every gallery machine and its dual, the Mealy and
sweeping machines of every idempotent gallery table, and seeded random
machines; the answers (witness or None, class ids, counts) must be
identical, not merely equivalent.  ``growth`` counts normal words on the
machines that pass its gate, and is checked there against the refinement
it skips, ``helpers.refined_growth``.
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from garnorm import (
    Alphabet,
    BudgetExhausted,
    MealyMachine,
    Word,
    build_mealy,
    build_thurston,
    distinguishing_word,
    dual,
    gallery,
    gallery_machines,
    gallery_tables,
    growth,
    minimize,
    node_budget,
    thurston_normalize,
    tuple_action_classes,
)
from garnorm.core import NormTable, _insert_ids, _word_from_ids, condition_home
from garnorm.machines import _fixed_pairs
from garnorm.shell import emit_machine, parse_machine
from helpers import (
    bfs_distinguishing_word,
    product_action_class_ids,
    refined_growth,
    sweep_thurston,
    transition_tables,
)


def gallery_cases():
    cases = []
    for e in gallery_machines():
        cases += [(e.name, e.machine), (f"dual {e.name}", dual(e.machine))]
    for e in gallery_tables():
        if not e.table.idempotence_failures():
            cases += [(f"mealy {e.name}", build_mealy(e.table)),
                      (f"thurston {e.name}", build_thurston(e.table))]
    return cases


GALLERY = gallery_cases()
GALLERY_IDS = [name for name, _ in GALLERY]


def random_machine(rng: random.Random, max_states: int = 4, max_letters: int = 3) -> MealyMachine:
    q, s = rng.randint(1, max_states), rng.randint(1, max_letters)
    return MealyMachine(
        Alphabet([f"q{i}" for i in range(q)]),
        Alphabet([f"x{j}" for j in range(s)]),
        [[rng.randrange(q) for _ in range(s)] for _ in range(q)],
        [[rng.randrange(s) for _ in range(s)] for _ in range(q)],
    )


RANDOM = [random_machine(random.Random(f"machine:{k}")) for k in range(200)]


def state_word(m: MealyMachine, ids) -> Word:
    return Word(m.states.symbols[i] for i in ids)


def sample_pairs(m: MealyMachine, rng: random.Random, per_length: int, congruent: int):
    """Pairs of state words with the first of length 1-5: ``per_length``
    with a random partner of length 1-5, and ``congruent`` (fewer at
    length 5) whose partner swaps one adjacent pair for another member of
    its length-2 class under the product oracle, so the actions agree."""
    q = len(m.states)
    pair_cls = product_action_class_ids(m, 2)
    members: dict = {}
    for p, c in zip(itertools.product(range(q), repeat=2), pair_cls):
        members.setdefault(c, []).append(p)
    pairs = []
    for n in range(1, 6):
        for _ in range(per_length):
            u = tuple(rng.randrange(q) for _ in range(n))
            v = tuple(rng.randrange(q) for _ in range(rng.randint(1, 5)))
            pairs.append((u, v))
        for _ in range(0 if n == 1 else congruent if n < 5 else min(congruent, 1)):
            u = tuple(rng.randrange(q) for _ in range(n))
            i = rng.randrange(n - 1)
            swap = rng.choice(members[pair_cls[u[i] * q + u[i + 1]]])
            pairs.append((u, u[:i] + swap + u[i + 2:]))
    return [(state_word(m, u), state_word(m, v)) for u, v in pairs]


@pytest.mark.parametrize("name, m", GALLERY, ids=GALLERY_IDS)
def test_distinguishing_word_matches_bfs_oracle_on_gallery_machines(name, m):
    rng = random.Random(f"pairs:{name}")
    for u, v in sample_pairs(m, rng, per_length=6, congruent=2):
        assert distinguishing_word(m, u, v) == bfs_distinguishing_word(m, u, v), (u, v)


def test_distinguishing_word_matches_bfs_oracle_on_random_machines():
    found = {True: 0, False: 0}
    for k, m in enumerate(RANDOM):
        for u, v in sample_pairs(m, random.Random(f"pairs:{k}"), per_length=3, congruent=2):
            want = bfs_distinguishing_word(m, u, v)
            assert distinguishing_word(m, u, v) == want, (k, u, v)
            found[want is None] += 1
    assert min(found.values()) > 500  # both verdicts are well exercised


def assert_class_ids_match_product(m: MealyMachine):
    oracle = {k: product_action_class_ids(m, k) for k in range(1, 5)}
    assert list(minimize(m).classes.values()) == oracle[1]
    for k in range(1, 4):
        assert list(tuple_action_classes(m, k).values()) == oracle[k]
    assert growth(m, 4) == [len(set(oracle[k])) for k in range(1, 5)]


@pytest.mark.parametrize("name, m", GALLERY, ids=GALLERY_IDS)
def test_class_ids_match_product_oracle_on_gallery_machines(name, m):
    assert_class_ids_match_product(m)


def test_class_ids_match_product_oracle_on_random_machines():
    for m in RANDOM:
        assert_class_ids_match_product(m)


def test_growth_of_no_length_is_empty():
    assert growth(gallery("div3").machine, 0) == []


def test_refined_levels_are_refused_past_the_node_budget():
    """bs32's sweeping transducer fails the gate of growth and its 8 states
    reduce no pair, so level k has 8**k tuples: level 4 is built from 512
    tuples times 8 states, within a budget of 4096, and level 5 is refused."""
    m = build_thurston(gallery("bs32").table)
    with node_budget(4096):
        assert growth(m, 4) == [8, 64, 428, 2509]
        assert len(tuple_action_classes(m, 4)) == 4096
        with pytest.raises(BudgetExhausted, match="budget of 4096"):
            growth(m, 5)
        with pytest.raises(BudgetExhausted, match="budget of 4096"):
            tuple_action_classes(m, 5)


def test_cached_pair_classes_are_not_charged_to_the_node_budget():
    """The length-2 classes are kept on the machine, so a cold machine
    answers under a budget of 1 as a warm one would."""
    m = build_thurston(gallery("bs32").table)
    u, v = state_word(m, (0, 1, 2)), state_word(m, (2, 1, 0))
    with node_budget(1):
        got = distinguishing_word(m, u, v)
    assert got == bfs_distinguishing_word(m, u, v)


def test_tuple_classes_are_keyed_in_product_order():
    m = gallery("div3").machine
    keys = list(tuple_action_classes(m, 3))
    assert keys == list(itertools.product(m.states.symbols, repeat=3))


HOME = [e for e in gallery_tables() if condition_home(e.table)]


def walk_counts(t: NormTable, max_len: int) -> list[int]:
    """The walks of k - 1 steps through the pairs ``t`` fixes, for k = 1 ..
    ``max_len``: the sum of the entries of A**(k-1) for the 0/1 matrix A
    of fixed pairs."""
    g = len(t.alphabet)
    fixed = [[int(t._pairs[a * g + b] == (a, b)) for b in range(g)] for a in range(g)]
    walks, counts = [1] * g, []  # walks[b]: normal words ending in b
    for _ in range(max_len):
        counts.append(sum(walks))
        walks = [sum(walks[a] * fixed[a][b] for a in range(g)) for b in range(g)]
    return counts


@pytest.mark.parametrize("entry", HOME, ids=[e.name for e in HOME])
def test_growth_counts_normal_words_on_home_tables(entry):
    """On a home table with a unit, the action classes of state words of
    length k are the normal words of length k, and those are the walks of
    k - 1 steps through the fixed pairs."""
    t = entry.table
    max_len = 8 if len(t.alphabet) <= 6 else 4
    m = build_mealy(t)
    assert growth(m, max_len) == refined_growth(m, max_len) == walk_counts(t, max_len)


ZERO = NormTable(Alphabet(["a", "b"]), {("a", "b"): ("a", "a"), ("b", "a"): ("a", "a"),
                                        ("b", "b"): ("a", "a")})

GATE_CASES = [
    # a unit, but not home (p = 4): more classes than normal words
    ("mealy bicyclic", build_mealy(gallery("bicyclic").table), False, [3, 7, 14, 25]),
    # home, but no unit: fewer classes than walks
    ("mealy zero", build_mealy(ZERO), False, [1, 1, 1, 1]),
    # sweeping transducers, read as Mealy machines: plactic2's passes (the
    # table of its dual is home, with a unit), bs32's has no idle state
    ("thurston plactic2", build_thurston(gallery("plactic2").table), True,
     [4, 10, 20, 35, 56, 84]),
    ("thurston bs32", build_thurston(gallery("bs32").table), False, [8, 64, 428]),
]


@pytest.mark.parametrize("name, m, gated, want", GATE_CASES, ids=[c[0] for c in GATE_CASES])
def test_gate_is_a_property_of_the_machine(name, m, gated, want):
    assert bool(_fixed_pairs(m)) is gated
    assert growth(m, len(want)) == refined_growth(m, len(want)) == want


def test_gate_clauses_are_each_needed():
    """Walks through the fixed pairs miscount the classes on the machines
    the gate excludes for a missing clause."""
    assert walk_counts(gallery("bicyclic").table, 4) == [3, 6, 10, 15]
    assert walk_counts(ZERO, 4) == [2, 1, 1, 1]
    assert ZERO._incremental()


@st.composite
def idempotent_pair_maps(draw):
    """An idempotent pair map on 2-5 letters, with or without a unit 1 that
    sends (x, 1) to (1, x) and fixes (1, x): each other pair is fixed or
    sent to a fixed pair."""
    g = draw(st.integers(2, 5))
    with_unit = draw(st.booleans())
    names = ("1",) * with_unit + tuple("abcde")[: g - with_unit]
    free = [p for p in itertools.product(range(g), repeat=2) if not (with_unit and 0 in p)]
    rules = {(x, 0): (0, x) for x in range(1, g)} if with_unit else {}
    fixed = [p for p in free if draw(st.booleans())] or free[:1]
    fixed += [(0, x) for x in range(g)] if with_unit else []
    rules.update((p, draw(st.sampled_from(fixed))) for p in free if p not in fixed)
    named = [((names[a], names[b]), (names[c], names[d])) for (a, b), (c, d) in rules.items()]
    return NormTable(Alphabet(names), named)


def test_growth_matches_refinement_on_random_pair_maps(record_testsuite_property):
    """``growth`` of the Mealy machine of a random idempotent pair map
    against ``helpers.refined_growth``, to length 5 (4 on 5 letters).  The
    examples that pass the normal-word gate and those that fail it are
    counted; each count is recorded as a suite property and must be
    positive."""
    seen = {"gate_passed": 0, "gate_failed": 0}

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(idempotent_pair_maps())
    def check(t):
        m = build_mealy(t)
        k = 4 if len(t.alphabet) == 5 else 5
        assert growth(m, k) == refined_growth(m, k)
        seen["gate_passed" if _fixed_pairs(m) else "gate_failed"] += 1

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key


def test_home_gallery_tables():
    assert [e.name for e in HOME] == [
        "bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3"
    ]


@st.composite
def machines_and_pairs(draw):
    """A Mealy machine on 1-4 states and 1-3 letters, and two state words
    of length 1-5 over it."""
    q, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    nxt = [[draw(st.integers(0, q - 1)) for _ in range(s)] for _ in range(q)]
    out = [[draw(st.integers(0, s - 1)) for _ in range(s)] for _ in range(q)]
    m = MealyMachine(Alphabet([f"q{i}" for i in range(q)]), Alphabet([f"x{j}" for j in range(s)]),
                     nxt, out)
    word = st.lists(st.integers(0, q - 1), min_size=1, max_size=5)
    return m, state_word(m, draw(word)), state_word(m, draw(word))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(machines_and_pairs())
def test_reduction_matches_oracles_on_random_machines(case):
    m, u, v = case
    assert distinguishing_word(m, u, v) == bfs_distinguishing_word(m, u, v)
    assert growth(m, 3) == [len(set(product_action_class_ids(m, k))) for k in range(1, 4)]


def test_representatives_are_cached_outside_equality():
    t = gallery("plactic2").table
    m, fresh = build_mealy(t), build_mealy(t)
    assert m._reps is None
    assert m == fresh and hash(m) == hash(fresh)
    distinguishing_word(m, t.alphabet.word("a b"), t.alphabet.word("b a"))
    reps = m._reps
    assert len(reps) == len(m.states) ** 2
    assert fresh._reps is None
    assert m == fresh and hash(m) == hash(fresh)
    growth(m, 3)
    assert m._reps is reps  # written once, then reused
    # each pair's representative is the least pair of its class, so it is
    # its own representative
    assert all(reps[a * len(m.states) + b] == (a, b) for a, b in reps)


def test_gate_is_cached_outside_equality():
    t = gallery("malcev").table
    m, fresh = build_mealy(t), build_mealy(t)
    assert m._fixed is None
    want = growth(m, 5)
    fixed = m._fixed
    assert fixed and m._reps is None  # counted: no representatives needed
    assert fresh._fixed is None
    assert m == fresh and hash(m) == hash(fresh)
    assert growth(m, 5) == want
    assert m._fixed is fixed  # written once, then reused
    parsed = parse_machine(emit_machine(m))
    assert parsed == m and parsed._fixed is None
    assert growth(parsed, 5) == want
    assert parsed._fixed == fixed


def test_state_rows_are_cached_outside_equality():
    t = gallery("bs32").table
    m, fresh = build_mealy(t), build_mealy(t)
    assert m._rows is None
    want = minimize(m)
    rows = m._rows
    nxt, out = transition_tables(m)
    assert rows == (tuple(map(tuple, out)), tuple(map(tuple, nxt)))
    assert fresh._rows is None
    assert m == fresh and hash(m) == hash(fresh)
    assert minimize(m) == want
    tuple_action_classes(m, 2)
    assert m._rows is rows  # written once, then reused
    assert minimize(fresh) == want and fresh._rows == rows


def test_length_one_words_need_no_representatives():
    div3 = gallery("div3").machine
    m = MealyMachine(div3.states, div3.alphabet, *transition_tables(div3))
    assert distinguishing_word(m, m.states.word("0"), m.states.word("1")) is not None
    minimize(m)
    growth(m, 1)
    assert m._reps is None


def test_threads_racing_on_first_use_all_get_the_oracle_answers():
    """The representatives, the gate of ``growth``, the gate of
    ``thurston_normalize`` and the letters of a word built from ids are
    written without a lock: threads that race on fresh machines and words
    each compute the same values, so every answer holds."""
    t = gallery("braid3").table
    # the sweeper shares its table's verdict: a fresh table leaves it to the race
    m, sweeper = build_mealy(t), build_thurston(NormTable(t.alphabet, t.rules(), unit=t.unit))
    pairs = sample_pairs(m, random.Random("threads"), per_length=2, congruent=2)
    words = [Word(t.alphabet.symbols[k % 6] for k in range(n)) for n in range(1, 9)]
    fresh = [_word_from_ids(t.alphabet, [k * n % 6 for k in range(n)]) for n in range(1, 33)]
    want = ([bfs_distinguishing_word(m, u, v) for u, v in pairs], walk_counts(t, 4),
            [sweep_thurston(sweeper, w) for w in words],
            [tuple(t.alphabet.symbols[i] for i in w.ids()) for w in fresh])
    results = [None] * 8

    def work(i):
        results[i] = ([distinguishing_word(m, u, v) for u, v in pairs], growth(m, 4),
                      [thurston_normalize(sweeper, w) for w in words],
                      [w.letters for w in fresh])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * len(results)
    assert m._reps is not None and m._fixed and sweeper._table._insert is _insert_ids
    # the letters slot is filled: reading it through its descriptor computes nothing
    assert all(Word.letters.__get__(w) == letters for w, letters in zip(fresh, want[3]))
