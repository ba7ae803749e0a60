import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from garnorm import (
    Alphabet,
    BudgetExhausted,
    GarnormError,
    LetterNotInAlphabet,
    MealyMachine,
    NotNormalising,
    Word,
    action_equal,
    build_mealy,
    build_thurston,
    distinguishing_word,
    dual,
    gallery,
    gallery_tables,
    growth,
    minimize,
    node_budget,
    normalize,
    numeration_iterate,
    padding_normal_form,
    run,
    run_word,
    thurston_normalize,
    tuple_action_classes,
)
from garnorm import core
from garnorm.core import NotIdempotent, NormTable
from helpers import (
    all_words,
    changing_sweeps,
    idle_flags,
    int_to_digits_lsb,
    sweep_run,
    sweep_run_word,
    sweep_thurston,
    word_to_int,
)
from test_reduction import idempotent_pair_maps

bicyclic = gallery("bicyclic").table
plactic2 = gallery("plactic2").table
bs10 = gallery("bs10").table
div3 = gallery("div3").machine
mul2 = gallery("mul2").machine

HOME_UNIT_TABLES = [
    gallery(n).table
    for n in ("bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3")
]


def identity_machine():
    # every state acts as the identity on words
    states = Alphabet(("s", "t"))
    alphabet = Alphabet(("x", "y"))
    return MealyMachine(states, alphabet, [[0, 0], [1, 1]], [[0, 1], [0, 1]])


# ---------------------------------------------------------------------------
# construction


def test_machine_validates_tables():
    states = Alphabet(("s",))
    alphabet = Alphabet(("x", "y"))
    with pytest.raises(GarnormError):
        MealyMachine(states, alphabet, [[0]], [[0, 1]])  # next row too short
    with pytest.raises(GarnormError):
        MealyMachine(states, alphabet, [[0, 1]], [[0, 1]])  # next out of range
    with pytest.raises(GarnormError):
        MealyMachine(states, alphabet, [[0, 0]], [[0, 2]])  # output out of range


def test_machine_rejects_a_wrong_row_count():
    states = Alphabet(("s", "t"))
    alphabet = Alphabet(("x",))
    with pytest.raises(GarnormError, match="one row per state"):
        MealyMachine(states, alphabet, [[0]], [[0], [0]])
    with pytest.raises(GarnormError, match="one row per state"):
        MealyMachine(states, alphabet, [[0], [1]], [[0], [0], [0]])


def test_build_mealy_bicyclic_pinned_transition():
    m = build_mealy(bicyclic)
    assert m.output("b", "a").name == "1"
    assert m.next_state("b", "a").name == "1"


def test_build_mealy_unit_state_is_identity():
    for table in HOME_UNIT_TABLES + [bicyclic]:
        m = build_mealy(table)
        for x in table.alphabet:
            assert m.output("1", x).name == x.name
            assert m.next_state("1", x).name == "1"


def test_build_mealy_requires_idempotence():
    t = NormTable(
        Alphabet(("a", "b")), [(("a", "b"), ("b", "a")), (("b", "a"), ("a", "b"))]
    )
    with pytest.raises(NotIdempotent):
        build_mealy(t)


def test_build_thurston_pinned_transitions():
    th = build_thurston(bicyclic)
    assert th.output("a", "b").name == "1"
    assert th.next_state("a", "b").name == "1"
    # a fixed pair passes through unchanged
    assert th.output("b", "a").name == "b"
    assert th.next_state("b", "a").name == "a"
    thp = build_thurston(plactic2)
    assert thp.output("b", "a").name == "1"
    assert thp.next_state("b", "a").name == "ba"


# ---------------------------------------------------------------------------
# duality


def test_dual_of_div3_is_mul2():
    assert dual(div3) == mul2
    assert dual(mul2) == div3


def test_dual_is_an_involution():
    machines = [div3, mul2] + [build_mealy(e.table) for e in gallery_tables()]
    for m in machines:
        assert dual(dual(m)) == m
        # the dual is built once and knows its own dual
        assert dual(m) is dual(m) and dual(dual(m)) is m


def test_dual_of_mealy_is_thurston():
    for entry in gallery_tables():
        assert dual(build_mealy(entry.table)) == build_thurston(entry.table)


# ---------------------------------------------------------------------------
# running


def test_run_div3_divides_by_three():
    out, final = run(div3, "0", div3.alphabet.word("110"))
    assert str(out) == "0 1 0" and final.name == "0"  # 6 = 3*2 + 0


def test_run_empty_word():
    out, final = run(div3, "2", Word())
    assert len(out) == 0 and final.name == "2"


def test_run_mul2():
    out, final = run(mul2, "0", mul2.alphabet.word("12"))
    assert str(out) == "2 1" and final.name == "1"


def test_run_rejects_foreign_letters():
    with pytest.raises(LetterNotInAlphabet):
        run(div3, "0", mul2.alphabet.word("2"))
    with pytest.raises(LetterNotInAlphabet):
        run(div3, "7", div3.alphabet.word("0"))


def test_run_preserves_length_and_prefixes():
    for w in all_words(div3.alphabet, 6):
        for x in div3.states:
            out, _ = run(div3, x, w)
            assert len(out) == len(w)
            for k in range(len(w)):
                prefix_out, _ = run(div3, x, w[:k])
                assert prefix_out == out[:k]


def test_run_word_composes_left_first():
    u = div3.states.word("0 0")
    w = div3.alphabet.word("1001")  # 9
    assert str(run_word(div3, u, w)) == "0 0 0 1"  # 9 div 9 = 1


def test_run_word_bicyclic_first_letter():
    m = build_mealy(bicyclic)
    u = bicyclic.alphabet.word("a b")
    for x in ("a", "b"):
        for rest in ("", " a", " b b", " 1 a"):
            w = bicyclic.alphabet.word(f"{x}{rest}")
            assert run_word(m, u, w)[0].name == "1"


def test_run_word_identity_states():
    m = build_mealy(bicyclic)
    u = bicyclic.alphabet.word("1 1 1")
    for w in all_words(bicyclic.alphabet, 3):
        assert run_word(m, u, w) == w


def test_run_word_rejects_empty_state_word():
    with pytest.raises(GarnormError):
        run_word(div3, Word(), div3.alphabet.word("0"))


def test_distinguishing_word_rejects_an_empty_state_word():
    for u, v in ((Word(), div3.states.word("0")), (div3.states.word("1"), Word())):
        with pytest.raises(GarnormError, match="state words must be non-empty"):
            distinguishing_word(div3, u, v)


def test_tuple_action_classes_rejects_length_zero():
    with pytest.raises(GarnormError, match="length must be at least 1"):
        tuple_action_classes(div3, 0)


# ---------------------------------------------------------------------------
# action equality


def test_action_equal_bicyclic_counterexample():
    m = build_mealy(bicyclic)
    u = bicyclic.alphabet.word("a b")
    v = bicyclic.alphabet.word("1 1")
    assert not action_equal(m, u, v)
    w = distinguishing_word(m, u, v)
    assert len(w) == 1  # a one-letter input already separates them
    assert run_word(m, u, w) != run_word(m, v, w)


def test_bicyclic_relation_not_respected_by_actions():
    # a b and 1 1 name the same monoid element (that is what the table
    # says), yet their actions differ: the machine semigroup is a proper
    # quotient when the breadth is too large
    from garnorm import normalize

    m = build_mealy(bicyclic)
    u = bicyclic.alphabet.word("a b")
    v = bicyclic.alphabet.word("1 1")
    assert normalize(bicyclic, u) == v
    assert not action_equal(m, u, v)


def test_action_equal_reflexive():
    m = build_mealy(plactic2)
    u = plactic2.alphabet.word("ba b")
    assert action_equal(m, u, u)


def test_action_equal_plactic_relation():
    m = build_mealy(plactic2)
    assert action_equal(m, plactic2.alphabet.word("a b a"), plactic2.alphabet.word("b a a"))


def test_action_equal_is_an_equivalence():
    m = build_mealy(bs10)
    words = list(all_words(bs10.alphabet, 2))
    for u, v in itertools.product(words, repeat=2):
        if action_equal(m, u, v):
            assert action_equal(m, v, u)
    for u, v, w in itertools.product(words, repeat=3):
        if action_equal(m, u, v) and action_equal(m, v, w):
            assert action_equal(m, u, w)


def test_action_equal_is_a_congruence():
    m = build_mealy(bs10)
    words = list(all_words(bs10.alphabet, 2))
    letters = [Word((x,)) for x in bs10.alphabet]
    for u, v in itertools.product(words, repeat=2):
        if action_equal(m, u, v):
            for w in letters:
                assert action_equal(m, u + w, v + w)
                assert action_equal(m, w + u, w + v)


def test_distinguishing_word_is_valid_and_shortest():
    t = gallery("braid3").table
    m = build_mealy(t)
    u = t.alphabet.word("a b")
    v = t.alphabet.word("b a")
    w = distinguishing_word(m, u, v)
    assert w is not None
    assert run_word(m, u, w) != run_word(m, v, w)
    # no strictly shorter word separates them
    for shorter in all_words(t.alphabet, len(w) - 1):
        assert run_word(m, u, shorter) == run_word(m, v, shorter)


# ---------------------------------------------------------------------------
# minimisation and growth


def test_minimize_div3_three_singletons():
    part = minimize(div3)
    assert part.num_classes == 3


def test_minimize_identity_machine_one_class():
    assert minimize(identity_machine()).num_classes == 1


def test_minimize_bicyclic_three_singletons():
    assert minimize(build_mealy(bicyclic)).num_classes == 3


def test_minimize_matches_length_one_action_classes():
    machines = [div3, mul2, identity_machine()] + [
        build_mealy(e.table) for e in gallery_tables()
    ]
    for m in machines:
        part = minimize(m)
        for x, y in itertools.product(m.states, repeat=2):
            same = part.class_of(x) == part.class_of(y)
            assert same == action_equal(m, Word((x,)), Word((y,)))


def test_tuple_action_classes_match_pairwise_action_equal():
    for m in (div3, build_mealy(plactic2)):
        classes = tuple_action_classes(m, 2)
        pairs = list(itertools.product(m.states, repeat=2))
        for s, t in itertools.product(pairs, repeat=2):
            same = classes[s] == classes[t]
            assert same == action_equal(m, Word(s), Word(t))


def test_growth_free_semigroups():
    assert growth(div3, 5) == [3, 9, 27, 81, 243]
    assert growth(mul2, 5) == [2, 4, 8, 16, 32]


def test_growth_identity_machine():
    assert growth(identity_machine(), 4) == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# padding recovery


def test_padding_bicyclic_pair():
    m = build_mealy(bicyclic)
    u = bicyclic.alphabet.word("a b")
    assert str(padding_normal_form(m, "1", u, 3)) == "1 1 1"


def test_padding_bs10_pair():
    m = build_mealy(bs10)
    u = bs10.alphabet.word("a b")
    assert str(padding_normal_form(m, "1", u, 3)) == "1 1 a"


def test_padding_single_unit_state():
    m = build_mealy(bicyclic)
    assert str(padding_normal_form(m, "1", bicyclic.alphabet.word("1"), 1)) == "1"


def test_padding_length_checked():
    m = build_mealy(bicyclic)
    with pytest.raises(GarnormError):
        padding_normal_form(m, "1", bicyclic.alphabet.word("a b"), 1)


def test_padding_recovers_normal_forms_on_bounded_breadth_tables():
    for table in HOME_UNIT_TABLES:
        m = build_mealy(table)
        unit = table.unit
        for u in all_words(table.alphabet, 3):
            nf = normalize(table, u)
            for n in range(len(u), 6):
                got = padding_normal_form(m, unit, u, n)
                assert got == Word([unit] * (n - len(u))) + nf


def test_padding_needs_small_p():
    # the bicyclic table has p = 4, and the recovery genuinely fails there:
    # the run schedule only performs the alternating applications up to
    # length three per column
    m = build_mealy(bicyclic)
    u = bicyclic.alphabet.word("a a b")
    got = padding_normal_form(m, "1", u, 3)
    assert str(got) == "1 a 1"
    assert got != normalize(bicyclic, u)


def test_padding_equals_normalize_on_long_words():
    # at |u| <= 4 a run over the padding barely goes idle before the end;
    # here most of each run is the copy an idle unit state skips
    rng = random.Random("padding-long-words")
    for table in HOME_UNIT_TABLES:
        m, unit = build_mealy(table), table.unit
        for _ in range(6):
            u = Word(rng.choices(table.alphabet.symbols, k=rng.randint(16, 64)))
            nf = normalize(table, u)
            for pad in (0, 1, 5):
                got = padding_normal_form(m, unit, u, len(u) + pad)
                assert got == Word([unit] * pad) + nf


bicyclic_mealy = build_mealy(bicyclic)


@st.composite
def machines_with_idle_states(draw):
    """A machine on 1-4 states and 1-4 letters, drawn apart, with 0, 1 or
    2 states planted idle (state 0 is named 1, the others q1, q2, ...), or
    the Mealy machine of the bicyclic table; then a state word of length
    1-5, an input word and a padding length up to 40, and a padding
    letter."""
    if draw(st.integers(0, 5)) == 0:
        m = bicyclic_mealy
    else:
        q, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        nxt = [draw(st.lists(st.integers(0, q - 1), min_size=s, max_size=s)) for _ in range(q)]
        out = [draw(st.lists(st.integers(0, s - 1), min_size=s, max_size=s)) for _ in range(q)]
        for x in draw(st.lists(st.integers(0, q - 1), max_size=2, unique=True)):
            nxt[x], out[x] = [x] * s, list(range(s))
        states = Alphabet(["1"] + [f"q{x}" for x in range(1, q)])
        m = MealyMachine(states, Alphabet([f"x{i}" for i in range(s)]), nxt, out)
    q, s = len(m.states), len(m.alphabet)
    u = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5))
    w = draw(st.lists(st.integers(0, s - 1), max_size=40))
    n = draw(st.integers(len(u), 40))
    return m, tuple(u), tuple(w), n, draw(st.integers(0, s - 1))


def test_runs_equal_whole_sweeps(record_testsuite_property):
    """Runs that stop at an idle state give what whole sweeps give:
    ``run``, ``run_word``, ``numeration_iterate`` and ``padding_normal_form``
    against ``helpers.sweep_run``.  The examples where a run of ``u`` over
    ``w`` arrives at an idle state named 1, or at one named otherwise, are
    counted, as are the machines with no idle state and the bicyclic
    examples; each count is recorded as a suite property and must be
    positive."""
    seen = {"no_idle": 0, "stop_at_1": 0, "stop_elsewhere": 0, "bicyclic": 0}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(machines_with_idle_states())
    def check(case):
        m, u, w, n, unit = case
        idle = idle_flags(m)
        assert m._idle == idle
        word = lambda al, ids: Word(al.symbols[i] for i in ids)
        uw, ww = word(m.states, u), word(m.alphabet, w)

        out, final = sweep_run(m, u[0], w)
        assert run(m, uw[0], ww) == (word(m.alphabet, out), m.states.symbols[final])
        want, arrivals = sweep_run_word(m, u, w)
        assert run_word(m, uw, ww) == word(m.alphabet, want)
        padded, _ = sweep_run_word(m, u, (unit,) * n)
        got = padding_normal_form(m, m.alphabet.symbols[unit], uw, n)
        assert got == word(m.alphabet, padded[::-1])

        ids, collected, words = w, [], [ww]
        for _ in range(3):
            ids, final = sweep_run(m, u[0], ids)
            collected.append(m.states.symbols[final])
            words.append(word(m.alphabet, ids))
        r = numeration_iterate(m, uw[0], ww, 3)
        assert (r.collected, r.words) == (Word(collected), tuple(words))

        if m is bicyclic_mealy:
            seen["bicyclic"] += 1
        if not any(idle):
            seen["no_idle"] += 1
        if len(w) > 1:
            for q in arrivals:
                if idle[q]:
                    named_1 = m.states.symbols[q].name == "1"
                    seen["stop_at_1" if named_1 else "stop_elsewhere"] += 1
                    break

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key


# ---------------------------------------------------------------------------
# sweeping normalisation


def test_thurston_plactic_single_sweep():
    th = build_thurston(plactic2)
    w = plactic2.alphabet.word("b a a")
    # one manual sweep already lands on the normal form
    out, final = run(th, w[0], w[1:])
    swept = out + Word((final,))
    assert str(swept) == "1 a ba"
    assert thurston_normalize(th, w) == swept


def test_thurston_normal_word_unchanged():
    th = build_thurston(plactic2)
    w = plactic2.alphabet.word("1 a ba")
    assert thurston_normalize(th, w) == w


def test_thurston_bicyclic():
    th = build_thurston(bicyclic)
    w = bicyclic.alphabet.word("a a b")
    assert thurston_normalize(th, w) == bicyclic.alphabet.word("1 1 a")


def test_thurston_requires_square_machine():
    with pytest.raises(GarnormError):
        thurston_normalize(div3, div3.alphabet.word("0"))


def test_thurston_rejects_the_empty_word():
    th = build_thurston(bicyclic)
    with pytest.raises(GarnormError, match="cannot normalise the empty word"):
        thurston_normalize(th, Word())


def test_a_table_and_its_sweepers_compute_breadth_once(monkeypatch):
    # build_thurston keeps its table, so the table and every sweeping
    # transducer built from it share one home verdict and padding letter;
    # build_mealy is the dual of such a transducer and the gate of growth
    # reads its dual, so its machines share them too
    calls = []
    real = core.breadth

    def counting(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(core, "breadth", counting)
    source = gallery("braid3").table
    fresh = NormTable(source.alphabet, source.rules(), unit=source.unit)
    w = fresh.alphabet.word(" ".join(fresh.alphabet.names() * 3))
    want = normalize(fresh, w)
    assert [thurston_normalize(build_thurston(fresh), w) for _ in range(2)] == [want, want]
    assert [growth(build_mealy(fresh), 3) for _ in range(2)] == [[6, 19, 48]] * 2
    assert calls == [fresh]


def test_bicyclic_growth_is_refined_not_counted():
    # bicyclic is of class (3,4), not home: its Mealy machine fails the gate
    # of growth, whose classes outnumber its 3, 6, 10, ... normal words
    bicyclic = gallery("bicyclic").table
    assert growth(build_mealy(bicyclic), 5) == [3, 7, 14, 25, 42]


def test_thurston_matches_normalize_to_length_four():
    for entry in gallery_tables():
        table = entry.table
        th = build_thurston(table)
        for w in all_words(table.alphabet, 4):
            assert thurston_normalize(th, w) == normalize(table, w)
            assert sweep_thurston(th, w) == normalize(table, w)


def test_at_most_length_minus_one_sweeps_change_a_word_on_home_tables():
    """On every home gallery table, at most |w| - 1 sweeps change a word of
    length <= 5.  The bound is reached at every length >= 2 except on the
    finite groups, where one sweep carries the product to the end."""
    for name in ("bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3"):
        th = build_thurston(gallery(name).table)
        g = len(th.alphabet)
        worst = [max(changing_sweeps(th, w) for w in itertools.product(range(g), repeat=n))
                 for n in range(1, 6)]
        assert worst == ([0, 1, 1, 1, 1] if name.startswith("finite:") else [0, 1, 2, 3, 4]), name


def test_thurston_budget_boundary_on_a_word_that_needs_every_sweep():
    th = build_thurston(bs10)
    w = bs10.alphabet.word("a a a a a b")
    assert changing_sweeps(th, bs10.alphabet.ids(w)) == len(w) - 1
    with pytest.raises(BudgetExhausted):
        sweep_thurston(th, w, max_sweeps=4)
    want = bs10.alphabet.word("1 a a a a a")
    assert normalize(bs10, w) == want
    assert sweep_thurston(th, w, max_sweeps=5) == want
    assert thurston_normalize(th, w) == want


def x0_x1_machine():
    # not idempotent: (x0 x1) -> (x2 x0) -> (x1 x1)
    al = Alphabet(("x0", "x1", "x2"))
    pairs = [(0, 0), (2, 0), (1, 0), (1, 0), (2, 2), (1, 2), (1, 1), (1, 0), (2, 1)]
    nxt = [[pairs[3 * q + i][1] for i in range(3)] for q in range(3)]
    out = [[pairs[3 * q + i][0] for i in range(3)] for q in range(3)]
    return MealyMachine(al, al, nxt, out)


def test_thurston_sweeps_past_the_square_of_the_length():
    # x0 x1 sweeps to x2 x1 after 4 = |w|**2 sweeps and to the normal word
    # x1 x0 after 5
    th = x0_x1_machine()
    w = th.alphabet.word("x0 x1")
    assert changing_sweeps(th, th.alphabet.ids(w)) == 5
    with pytest.raises(BudgetExhausted):
        sweep_thurston(th, w, max_sweeps=4)
    assert thurston_normalize(th, w) == th.alphabet.word("x1 x0")
    assert sweep_thurston(th, w) == th.alphabet.word("x1 x0")


def test_thurston_sweeps_are_charged_to_the_node_budget():
    # 5 sweeps change x0 x1 and a 6th gives it back
    th = x0_x1_machine()
    w = th.alphabet.word("x0 x1")
    for budget in (1, 5):
        with pytest.raises(BudgetExhausted) as cut, node_budget(budget):
            thurston_normalize(th, w)
        assert not isinstance(cut.value, NotNormalising)
    with node_budget(6):
        assert thurston_normalize(th, w) == th.alphabet.word("x1 x0")


@st.composite
def pair_maps_and_words(draw):
    """An idempotent pair map on 2-5 letters and a word of 1-30 letters
    over it."""
    t = draw(idempotent_pair_maps())
    ids = draw(st.lists(st.integers(0, len(t.alphabet) - 1), min_size=1, max_size=30))
    return t, Word(t.alphabet.symbols[i] for i in ids)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the class of the error it raises."""
    try:
        return f(*args)
    except GarnormError as exc:
        return type(exc)


def test_thurston_matches_sweeps_on_random_pair_maps(record_testsuite_property):
    """``thurston_normalize`` returns what ``helpers.sweep_thurston``
    returns, or raises the same exception class; on a home table, where it
    inserts, |w| - 1 sweeps already give its answer.  The examples it
    answers by insertion and by sweeps on a table that is not home are
    counted; each count is recorded as a suite property and must be
    positive."""
    seen = {"inserted": 0, "swept_not_home": 0}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pair_maps_and_words())
    def check(case):
        t, w = case
        th = build_thurston(t)
        got = outcome(thurston_normalize, th, w)
        assert got == outcome(sweep_thurston, th, w)
        if t._incremental():
            assert got == sweep_thurston(th, w, len(w) - 1)
            seen["inserted"] += 1
        else:
            seen["swept_not_home"] += 1

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key


@st.composite
def arbitrary_machines_and_words(draw):
    """A machine whose states are its 3-4 letters, with an arbitrary pair
    table, and 1-30 words of 2-5 letters over it."""
    g = draw(st.integers(3, 4))
    al = Alphabet(f"x{i}" for i in range(g))
    letter = st.integers(0, g - 1)
    nxt, out = (draw(st.lists(st.lists(letter, min_size=g, max_size=g), min_size=g, max_size=g))
                for _ in range(2))
    words = draw(st.lists(st.lists(letter, min_size=2, max_size=5), min_size=1, max_size=30))
    return MealyMachine(al, al, nxt, out), [Word(al.symbols[i] for i in ids) for ids in words]


def test_thurston_matches_uncapped_sweeps_on_arbitrary_pair_maps(record_testsuite_property):
    """On machines with arbitrary pair tables, which are seldom
    idempotent, ``thurston_normalize`` returns what the uncapped
    ``helpers.sweep_thurston`` returns, or raises the same exception class.
    The words that more than |w|**2 sweeps change before they are normal
    are counted; the count is recorded as the suite property
    ``past_square`` and must be positive."""
    past_square = 0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(arbitrary_machines_and_words())
    def check(case):
        nonlocal past_square
        th, words = case
        for w in words:
            got = outcome(thurston_normalize, th, w)
            assert got == outcome(sweep_thurston, th, w)
            if isinstance(got, Word):
                past_square += changing_sweeps(th, th.alphabet.ids(w)) > len(w) ** 2

    check()
    record_testsuite_property("past_square", past_square)
    assert past_square > 0


# ---------------------------------------------------------------------------
# iterated runs


def test_numeration_mul2_period_six():
    r = numeration_iterate(mul2, "0", mul2.alphabet.word("12"), 6)
    assert str(r.collected) == "1 1 0 0 0 1"
    assert r.words[6] == r.words[0]
    assert r.cycle_start == 0 and r.period == 6


def test_numeration_identity_machine():
    m = identity_machine()
    w = m.alphabet.word("x y x")
    r = numeration_iterate(m, "s", w, 4)
    assert r.collected.names() == ("s",) * 4
    assert all(x == w for x in r.words)
    assert r.cycle_start == 0 and r.period == 1


def test_numeration_div3_emits_base3_digits():
    # iterating the division by three reads off base-3 digits, least
    # significant first
    for value, text in ((6, "110"), (25, "11001"), (7, "111")):
        w = div3.alphabet.word(text)
        steps = 6
        r = numeration_iterate(div3, "0", w, steps)
        digits = [int(s.name) for s in r.collected]
        assert digits == int_to_digits_lsb(value, 3, steps)
        assert word_to_int(w, 2) == value


def test_numeration_validates_steps():
    with pytest.raises(GarnormError):
        numeration_iterate(div3, "0", div3.alphabet.word("1"), 0)
