"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (run pytest
with -s to see them).  Expected values are exact; no tolerances apply
because every quantity here is discrete.
"""

import itertools
import random


from garnorm import (
    Word,
    action_equal,
    breadth,
    build_mealy,
    build_thurston,
    check_unit_condition,
    condition_home,
    dual,
    gallery,
    gallery_tables,
    growth,
    max_derivation_length,
    normalize,
    numeration_iterate,
    padding_normal_form,
    run,
    run_word,
)
from garnorm.machines import tuple_action_classes
from helpers import all_words, swept_gallery_forms, word_to_int

HOME_UNIT_NAMES = ("bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3")


def note(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS  {text}")


def test_criterion_01_bicyclic_breadth():
    table = gallery("bicyclic").table
    assert breadth(table).as_pair() == (3, 4)
    assert condition_home(table) is False
    note(1, "bicyclic breadth is (3, 4) and the bounded-breadth condition fails")


def test_criterion_02_breadths():
    assert breadth(gallery("plactic2").table).as_pair() == (3, 3)
    assert breadth(gallery("malcev").table).as_pair() == (3, 3)
    assert breadth(gallery("finite:Z/2").table).as_pair() == (3, 2)
    assert breadth(gallery("finite:Z/3").table).as_pair() == (3, 2)
    note(2, "plactic2 (3, 3), malcev (3, 3), Z/2 and Z/3 (3, 2)")


def test_criterion_03_bicyclic_action():
    table = gallery("bicyclic").table
    m = build_mealy(table)
    u = table.alphabet.word("a b")
    for x in ("a", "b"):
        for rest in ("", " 1", " a b", " b b a"):
            w = table.alphabet.word(x + rest)
            assert run_word(m, u, w)[0].name == "1"
    assert not action_equal(m, u, table.alphabet.word("1 1"))
    note(3, "the bicyclic pair a b maps every first letter to 1 yet differs from 1 1")


def test_criterion_04_div3_arithmetic():
    m = gallery("div3").machine
    cases = 0
    for u in all_words(m.alphabet, 12):
        out, final = run(m, "0", u)
        assert word_to_int(u, 2) == 3 * word_to_int(out, 2) + int(final.name)
        cases += 1
    assert cases == 2**13 - 2  # 8190
    note(4, f"division identity checked on all {cases} binary words up to length 12")


def test_criterion_05_duality():
    div3 = gallery("div3").machine
    mul2 = gallery("mul2").machine
    assert dual(div3) == mul2
    machines = [div3, mul2] + [build_mealy(e.table) for e in gallery_tables()]
    for m in machines:
        assert dual(dual(m)) == m
    note(5, "dual(div3) = mul2 exactly and dual is an involution on every machine")


def test_criterion_06_numeration():
    mul2 = gallery("mul2").machine
    r = numeration_iterate(mul2, "0", mul2.alphabet.word("12"), 6)
    assert r.collected.names() == ("1", "1", "0", "0", "0", "1")
    assert r.words[6] == r.words[0]
    assert r.cycle_start == 0 and r.period == 6
    note(6, "iterating mul2 on 12 collects 110001 and returns to 12 with period 6")


def test_criterion_07_freeness():
    div3 = gallery("div3").machine
    mul2 = gallery("mul2").machine
    assert growth(div3, 5) == [3, 9, 27, 81, 243]  # sums to 363: all distinct
    assert growth(mul2, 5) == [2, 4, 8, 16, 32]  # sums to 62: all distinct
    # spot-check the bulk partition against pairwise bisimulation
    rng = random.Random(0)
    for m, q in ((div3, 3), (mul2, 2)):
        tuples = list(itertools.product(m.states.symbols, repeat=4))
        for _ in range(30):
            u, v = rng.sample(tuples, 2)
            assert not action_equal(m, Word(u), Word(v))
    note(7, "all 363 div3 and 62 mul2 state words of length <= 5 act distinctly")


def test_criterion_08_isomorphism_at_bounded_scale():
    for entry in gallery_tables():
        table = entry.table
        assert dual(build_mealy(table)) == build_thurston(table)
    rng = random.Random(1)
    for name in HOME_UNIT_NAMES:
        table = gallery(name).table
        assert condition_home(table) and check_unit_condition(table)
        m = build_mealy(table)
        for k in range(1, 5):
            classes = tuple_action_classes(m, k)
            by_action: dict = {}
            by_nf: dict = {}
            for tup in itertools.product(table.alphabet.symbols, repeat=k):
                by_action.setdefault(classes[tup], set()).add(tup)
                by_nf.setdefault(normalize(table, Word(tup)), set()).add(tup)
            assert {frozenset(v) for v in by_action.values()} == {
                frozenset(v) for v in by_nf.values()
            }, (name, k)
            # sampled pairwise cross-check of the partition
            tuples = list(itertools.product(table.alphabet.symbols, repeat=k))
            for _ in range(10):
                u, v = rng.choice(tuples), rng.choice(tuples)
                assert action_equal(m, Word(u), Word(v)) == (
                    normalize(table, Word(u)) == normalize(table, Word(v))
                )
    note(8, "dual(mealy) = thurston everywhere; actions of equal-length words "
            "coincide exactly when normal forms do (lengths <= 4)")


def test_criterion_09_padding_recovery():
    for name in HOME_UNIT_NAMES:
        table = gallery(name).table
        m = build_mealy(table)
        unit = table.unit
        for u in all_words(table.alphabet, 4):
            nf = normalize(table, u)
            for n in range(len(u), 7):
                got = padding_normal_form(m, unit, u, n)
                assert got == Word([unit] * (n - len(u))) + nf, (name, u, n)
    note(9, "reversed runs over unit padding recover padded normal forms "
            "(|u| <= 4, n <= 6)")


def test_criterion_10_bs10_machine():
    table = gallery("bs10").table
    al = table.alphabet
    assert table.entry("a", "b") == (al["1"], al["a"])
    m = build_mealy(table)
    expected = [
        ("b", "a", "1", "a"),
        ("a", "b", "b", "a"),
        ("a", "1", "1", "a"),
        ("b", "1", "1", "b"),
        ("1", "1", "1", "1"),
        ("1", "a", "1", "a"),
        ("1", "b", "1", "b"),
    ]
    for state, letter, nxt, out in expected:
        assert m.next_state(state, letter).name == nxt
        assert m.output(state, letter).name == out
    note(10, "the greedy table for ab=a pins entry (a,b) -> (1,a) and its machine")


def test_criterion_11_greedy_condition():
    braid3 = gallery("braid3").table
    bs32 = gallery("bs32").table
    assert condition_home(braid3)
    assert condition_home(bs32)
    m = build_mealy(braid3)
    assert action_equal(m, braid3.alphabet.word("a b a"), braid3.alphabet.word("b a b"))
    note(11, "greedy tables for the braid and Baumslag-Solitar monoids satisfy "
             "the bounded-breadth condition; aba and bab act equally")


def test_criterion_12_derivation_bounds():
    plactic2 = gallery("plactic2").table
    for p in range(1, 7):
        bound = p * (p - 1) // 2
        for w in all_words(plactic2.alphabet, p, min_len=p):
            assert max_derivation_length(plactic2, w) <= bound
    bicyclic = gallery("bicyclic").table
    for p in range(1, 7):
        bound = 2**p - p - 1
        for w in all_words(bicyclic.alphabet, p, min_len=p):
            assert max_derivation_length(bicyclic, w) <= bound
    note(12, "derivation lengths respect p(p-1)/2 for plactic2 and 2^p - p - 1 "
             "for bicyclic (p <= 6, exhaustive)")


def test_criterion_13_malcev_witness():
    table = gallery("malcev").table
    m = build_mealy(table)
    assert not action_equal(m, table.alphabet.word("a d'"), table.alphabet.word("c b'"))
    note(13, "the underivable fourth relation a d' = c b' indeed fails as an action")


def test_criterion_14_thurston_equals_normalize():
    # against the transducer's own sweeps, not the insertion kernel that
    # thurston_normalize shares with normalize
    words = 0
    for entry in gallery_tables():
        table, al = entry.table, entry.table.alphabet
        swept, at = swept_gallery_forms(entry.name, 6), 0
        for w in all_words(al, 6):
            assert bytes(al.ids(normalize(table, w))) == swept[at : at + len(w)], w
            at += len(w)
            words += 1
    note(14, f"normalize and the sweeps of the sweeping transducer agree on all {words} "
             "words of length <= 6 over every table")
