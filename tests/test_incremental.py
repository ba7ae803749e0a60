"""Letter insertion against repeated sweeps.

``normalize`` builds normal forms by inserting letters one at a time when
the table satisfies ``condition_home`` (class (4,3)), from the last letter
to the first when it is of class (3,4) instead, and by repeated sweeps
with an exhaustive fallback otherwise.  The sweep path is the oracle here:
on every qualifying table the two must agree on every word of length <= 6.
Tables outside both classes must keep the sweep path and its errors.
"""

import itertools
import random

import pytest

from garnorm import (
    Alphabet,
    BudgetExhausted,
    MealyMachine,
    NormTable,
    NotConfluent,
    NotIdempotent,
    NotNormalising,
    breadth,
    build_thurston,
    condition_home,
    gallery,
    node_budget,
    normalize,
    thurston_normalize,
)
from garnorm.core import _insert_ids, _insert_left_ids, _sweep_normalize_ids, _word_from_ids
from helpers import all_words, brute_normal_forms, swept_gallery_forms, sweep_thurston
from test_core import cycling_fork_table, fork_table, swap_table

HOME_GALLERY = ("bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3")


def assert_insertion_matches_sweeps(table: NormTable, max_len: int) -> None:
    g = len(table.alphabet)
    for n in range(1, max_len + 1):
        for ids in itertools.product(range(g), repeat=n):
            want = _sweep_normalize_ids(table, ids)
            assert _insert_ids(table._pairs, g, ids) == want, ids


def random_idempotent_table(rng: random.Random, g: int) -> NormTable:
    """Each pair is fixed with a probability drawn per table; every other
    pair maps to a fixed pair, so the table is idempotent by construction."""
    names = "abcd"[:g]
    pairs = list(itertools.product(range(g), repeat=2))
    p_fixed = rng.choice((0.5, 0.7))
    fixed = [p for p in pairs if rng.random() < p_fixed] or [pairs[0]]
    rules = []
    for a, b in pairs:
        if (a, b) not in fixed:
            c, d = rng.choice(fixed)
            rules.append(((names[a], names[b]), (names[c], names[d])))
    return NormTable(Alphabet(names), rules)


def random_padded_table(rng: random.Random, g: int) -> NormTable:
    """Letter 1 gets the padding entries, (x, 1) -> (1, x) with (1, x)
    fixed.  Each other pair is fixed with a probability drawn per table and
    otherwise maps to a fixed pair, so the table is idempotent."""
    names = "1abc"[:g]
    pairs = [(a, b) for a in range(1, g) for b in range(1, g)]
    p_fixed = rng.choice((0.5, 0.7))
    fixed = [p for p in pairs if rng.random() < p_fixed] or [pairs[0]]
    targets = fixed + [(0, x) for x in range(g)]
    rules = [((names[x], "1"), ("1", names[x])) for x in range(1, g)]
    for a, b in pairs:
        if (a, b) not in fixed:
            c, d = rng.choice(targets)
            rules.append(((names[a], names[b]), (names[c], names[d])))
    return NormTable(Alphabet(names), rules, unit="1")


@pytest.mark.parametrize("name", HOME_GALLERY)
def test_insertion_matches_sweeps_on_home_gallery_tables(name):
    # the sweeps criterion 14 checks normalize against, swept once
    table = gallery(name).table
    assert table._incremental()
    g, swept, at = len(table.alphabet), swept_gallery_forms(name, 6), 0
    for n in range(1, 7):
        for ids in itertools.product(range(g), repeat=n):
            assert bytes(_insert_ids(table._pairs, g, ids)) == swept[at : at + n], ids
            at += n


def test_insertion_matches_sweeps_on_random_home_tables():
    # Most random tables that pass the gate move at most one pair, so only
    # those moving two or more pairs to distinct images are kept.
    kept = {2: 0, 3: 0, 4: 0}
    for g in kept:
        for seed in range(1000 if g > 2 else 100):
            table = random_idempotent_table(random.Random(1000 * g + seed), g)
            images = {image for _, image in table.rules()}
            if len(images) >= 2 and table._incremental():
                assert_insertion_matches_sweeps(table, 6)
                kept[g] += 1
    assert kept == {2: 13, 3: 34, 4: 14}


def class_34_tables():
    """The tables of class (3,4) but not (4,3) among seeded random tables
    on 3 and 4 letters, with and without a padding letter."""
    for g in (3, 4):
        for seed in range(500):
            for make in (random_padded_table, random_idempotent_table):
                table = make(random.Random(1000 * g + seed), g)
                if table._inserter() is _insert_left_ids:
                    yield table


def test_left_insertion_matches_sweeps_on_class_34_tables(record_testsuite_property):
    """On every word of up to 6 letters, and 20 drawn words of up to 64,
    left insertion gives what the uncapped sweeps of ``helpers.sweep_thurston``
    give, which is a normal word, and ``normalize`` and
    ``thurston_normalize`` give it too.  The tables with and without a
    padding letter are counted; each count is recorded as a suite property
    and must be positive."""
    kinds = {"with_padding": 0, "without_padding": 0}
    rng = random.Random(34)
    for table in class_34_tables():
        g, pairs, pad, al = len(table.alphabet), table._pairs, table._pad, table.alphabet
        assert not condition_home(table)
        kinds["with_padding" if pad >= 0 else "without_padding"] += 1
        th = build_thurston(table)
        for n in range(1, 7):
            for ids in itertools.product(range(g), repeat=n):
                want = sweep_thurston(th, _word_from_ids(al, ids))
                assert _insert_left_ids(pairs, g, ids, pad) == want.ids(), ids
        for _ in range(20):
            w = _word_from_ids(al, [rng.randrange(g) for _ in range(rng.randint(1, 64))])
            want = sweep_thurston(th, w)
            assert normalize(table, w) == thurston_normalize(th, w) == want, w
    for key, count in kinds.items():
        record_testsuite_property(key, count)
        assert count > 0, key


def test_bicyclic_inserts_on_the_left():
    """bicyclic has breadth (3, 4): it fails condition_home and inserts
    from the last letter to the first, which needs no node budget, and
    agrees with the sweeps on every word of up to 8 letters."""
    bicyclic = gallery("bicyclic").table
    assert not condition_home(bicyclic)
    assert bicyclic._inserter() is _insert_left_ids
    with node_budget(1):
        assert str(normalize(bicyclic, bicyclic.alphabet.word("a a b"))) == "1 1 a"
    th = build_thurston(bicyclic)
    for w in all_words(bicyclic.alphabet, 8):
        want = sweep_thurston(th, w)
        assert normalize(bicyclic, w) == thurston_normalize(th, w) == want, w


def test_gate_is_lazy_and_outside_equality():
    source = gallery("malcev").table
    copy = NormTable(
        source.alphabet,
        [((a.name, b.name), (c.name, d.name)) for (a, b), (c, d) in source.rules()],
        unit=source.unit.name,
    )
    assert copy._pad is None
    normalize(copy, copy.alphabet.word("a b"))
    assert copy._insert is _insert_ids and copy._pad == copy.unit.id
    fresh = NormTable(copy.alphabet, copy.rules(), unit=copy.unit)
    assert fresh._pad is None
    assert copy == fresh and hash(copy) == hash(fresh)


def test_gate_false_outside_the_condition():
    bicyclic = gallery("bicyclic").table
    assert breadth(bicyclic).p == 4
    assert not bicyclic._incremental()
    # bicyclic inserts on the left, which reaches the unique normal form
    for w in all_words(bicyclic.alphabet, 5):
        assert {normalize(bicyclic, w)} == brute_normal_forms(bicyclic, w)

    fork = fork_table()
    assert not fork._incremental()
    w = fork.alphabet.word("a a a")
    assert str(normalize(fork, w)) == "b c a"

    cycling = cycling_fork_table()
    assert not cycling._incremental()
    with pytest.raises(NotIdempotent):
        breadth(cycling)
    with pytest.raises(NotConfluent):
        normalize(cycling, cycling.alphabet.word("b c a a"))

    swap = swap_table()
    assert not swap._incremental()
    with pytest.raises(NotIdempotent):
        breadth(swap)
    with pytest.raises(NotNormalising):
        normalize(swap, swap.alphabet.word("a b"))


def test_a_sweep_that_moves_only_right_letters_is_no_fixpoint():
    # (a a) -> (a b) -> (a a): not idempotent, and both rules keep the left
    # letter, so only the right letter shows that a sweep moved anything
    al = Alphabet(("a", "b"))
    t = NormTable(al, [(("a", "a"), ("a", "b")), (("a", "b"), ("a", "a"))])
    assert not t._incremental()
    with pytest.raises(NotNormalising):
        normalize(t, al.word("a a"))
    th = MealyMachine(al, al, [[1, 0], [0, 1]], [[0, 0], [1, 1]])
    with pytest.raises(NotNormalising) as swept:
        thurston_normalize(th, al.word("a a"))
    assert not isinstance(swept.value, BudgetExhausted)
