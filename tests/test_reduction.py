"""State words reduced by the length-2 action classes, checked against the
unreduced oracles in ``helpers``: breadth-first bisimulation over raw state
tuples, and Moore refinement of the whole q**k product machine.

The machines are every gallery machine and its dual, the Mealy and
sweeping machines of every idempotent gallery table, and seeded random
machines; the answers (witness or None, class ids, counts) must be
identical, not merely equivalent.
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from garnorm import (
    Alphabet,
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
    tuple_action_classes,
)
from garnorm.core import condition_home
from helpers import bfs_distinguishing_word, product_action_class_ids, transition_tables


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


def test_tuple_classes_are_keyed_in_product_order():
    m = gallery("div3").machine
    keys = list(tuple_action_classes(m, 3))
    assert keys == list(itertools.product(m.states.symbols, repeat=3))


HOME = [e for e in gallery_tables() if condition_home(e.table)]


@pytest.mark.parametrize("entry", HOME, ids=[e.name for e in HOME])
def test_growth_counts_normal_words_on_home_tables(entry):
    """On a home table with a unit, the action classes of state words of
    length k are the normal words of length k, and those are the walks of
    k - 1 steps through the fixed pairs: the sum of the entries of A**(k-1)
    for the 0/1 matrix A of fixed pairs."""
    t = entry.table
    g = len(t.alphabet)
    fixed = [[int(t._pairs[a * g + b] == (a, b)) for b in range(g)] for a in range(g)]
    max_len = 8 if g <= 6 else 4
    walks, counts = [1] * g, []  # walks[b]: normal words ending in b
    for _ in range(max_len):
        counts.append(sum(walks))
        walks = [sum(walks[a] * fixed[a][b] for a in range(g)) for b in range(g)]
    assert growth(build_mealy(t), max_len) == counts


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


def test_length_one_words_need_no_representatives():
    div3 = gallery("div3").machine
    m = MealyMachine(div3.states, div3.alphabet, *transition_tables(div3))
    assert distinguishing_word(m, m.states.word("0"), m.states.word("1")) is not None
    minimize(m)
    growth(m, 1)
    assert m._reps is None


def test_threads_racing_on_first_use_all_get_the_oracle_answers():
    """The representatives are written without a lock: threads that race
    on a fresh machine each compute the same tuple, so every answer holds."""
    t = gallery("braid3").table
    m = build_mealy(t)
    pairs = sample_pairs(m, random.Random("threads"), per_length=2, congruent=2)
    want = [bfs_distinguishing_word(m, u, v) for u, v in pairs]
    results = [None] * 8

    def work(i):
        results[i] = [distinguishing_word(m, u, v) for u, v in pairs]

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
    assert m._reps is not None
