
import itertools
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from garnorm import (
    Alphabet,
    AlphabetError,
    BudgetExhausted,
    GarnormError,
    LetterNotInAlphabet,
    MissingUnit,
    NormTable,
    NormalWordBudgetExhausted,
    NotConfluent,
    NotIdempotent,
    NotNormalising,
    NotTerminating,
    PositionOutOfRange,
    Symbol,
    UNBOUNDED,
    UnitAlreadyPresent,
    Word,
    adjoin_unit,
    apply_sequence,
    breadth,
    check_unit_condition,
    condition_home,
    gallery,
    is_normal,
    max_derivation_length,
    nbar_apply,
    node_budget,
    normalize,
    unit_condition_failures,
    verify_normalisation,
)
from garnorm import core
from garnorm.core import DEFAULT_NODE_BUDGET, _insert_left_ids, _word_from_ids
from helpers import (
    TupleWord,
    all_words,
    alternating_count,
    brute_is_normal,
    brute_normal_forms,
    bulk_longest_derivations,
    dfs_longest_derivation,
    mirror,
    on_rewrite_cycle,
    sweep_target_breadth,
    walk_rule_breadth,
)

bicyclic = gallery("bicyclic").table
plactic2 = gallery("plactic2").table
malcev = gallery("malcev").table
z2 = gallery("finite:Z/2").table
z3 = gallery("finite:Z/3").table


def swap_table():
    # entries form a 2-cycle: not idempotent, not normalising
    al = Alphabet(("a", "b"))
    return NormTable(al, [(("a", "b"), ("b", "a")), (("b", "a"), ("a", "b"))])


def fork_table():
    # idempotent but not confluent: aaa reaches both (b c a) and (a b c)
    al = Alphabet(("a", "b", "c"))
    return NormTable(al, [(("a", "a"), ("b", "c"))])


def cycling_fork_table():
    # sweeps cycle on (b c a a) while two normal words are reachable, so
    # normalising falls back to the graph search and reports both
    al = Alphabet(("a", "b", "c"))
    return NormTable(
        al,
        [
            (("a", "a"), ("a", "b")),
            (("b", "a"), ("c", "b")),
            (("b", "c"), ("a", "c")),
            (("c", "a"), ("b", "c")),
        ],
    )


def stuck_table():
    # idempotent, but the alternating 2,1,2,... schedule never reaches the
    # normal word a b a that the 1,2,1,... schedule reaches from aaa (it
    # stops at abb instead)
    al = Alphabet(("a", "b"))
    return NormTable(al, [(("a", "a"), ("a", "b"))])


def nonormal_table():
    # idempotent, but b a is the only fixed pair, so no triple is normal
    al = Alphabet(("a", "b"))
    return NormTable(al, [((x, y), ("b", "a")) for x, y in ("aa", "ab", "bb")])


# ---------------------------------------------------------------------------
# symbols, alphabets, words


def test_symbol_name_validation():
    for bad in ("", "a b", "x#", "p|q", "a-b", "x>y"):
        with pytest.raises(AlphabetError):
            Alphabet((bad,))
    Alphabet(("a'", "ba", "g2", "Δ"))  # these are all fine


def test_alphabet_rejects_duplicates():
    with pytest.raises(AlphabetError):
        Alphabet(("a", "b", "a"))


def test_alphabet_lookup():
    al = Alphabet(("x", "y"))
    assert al["x"].id == 0 and al["y"].id == 1
    assert "x" in al and "z" not in al
    with pytest.raises(AlphabetError):
        al["z"]


def test_alphabet_keeps_its_names():
    # names() hands out one kept tuple, and equality and hashing read it
    al = Alphabet(("x", "y"))
    assert al.names() == ("x", "y") and al.names() is al.names()
    assert al == Alphabet(["x", "y"]) and hash(al) == hash(Alphabet(iter("xy")))
    assert al != Alphabet(("y", "x"))


def test_word_basics():
    al = Alphabet(("a", "b"))
    u = al.word("a b")
    v = al.word("b")
    assert len(u) == 2 and len(v) == 1
    assert str(u + v) == "a b b"
    # concatenation is associative
    assert (u + v) + u == u + (v + u)
    # reversal is an involution
    assert u.reverse().reverse() == u
    assert str(u.reverse()) == "b a"
    assert u[0].name == "a"
    assert u[0:1] == al.word("a")
    assert hash(al.word("a b")) == hash(u)


def test_word_parsing_compact_fallback():
    al = Alphabet(("0", "1"))
    assert al.word("110").names() == ("1", "1", "0")
    assert al.word("1 1 0").names() == ("1", "1", "0")
    with pytest.raises(AlphabetError):
        al.word("1 2")


def test_word_parsing_prefers_exact_names():
    al = Alphabet(("1", "a", "b", "ba"))
    assert al.word("ba").names() == ("ba",)
    assert al.word("ba", compact=True).names() == ("b", "a")
    assert al.word("b a").names() == ("b", "a")


def test_words_are_immutable():
    al = bicyclic.alphabet
    built = Word(al.symbols[i] for i in (0, 1))
    for w in (built, _word_from_ids(al, (0, 1)), normalize(bicyclic, al.word("a b"))):
        ids = w.ids()
        for _ in range(2):  # id-built words: before and after the letters are read
            for slot in Word.__slots__:
                with pytest.raises(AttributeError):
                    setattr(w, slot, ())
                with pytest.raises(AttributeError):
                    delattr(w, slot)
            assert w.ids() == ids and tuple(w) == tuple(al.symbols[i] for i in ids)


#: How a word of the property below is built from the ids of its letters:
#: the symbols of its own alphabet, the ids alone (as every library answer
#: is built), a second alphabet with the same names, the names reversed,
#: and symbols made by hand.
WORD_ROUTES = ("own", "ids", "twin", "reversed", "hand")


@st.composite
def routed_word_pairs(draw):
    """Two words over one list of names, each built by a drawn route, with
    their oracles; and the alphabets ``Alphabet.ids`` is checked in."""
    names = draw(st.lists(st.sampled_from(("a", "b", "c", "1", "ba")),
                          min_size=1, max_size=4, unique=True))
    own, twin, rev = Alphabet(names), Alphabet(names), Alphabet(names[::-1])
    g = len(names)

    def routed():
        route = draw(st.sampled_from(WORD_ROUTES))
        ids = draw(st.lists(st.integers(0, g - 1), max_size=6))
        if route == "ids":
            return route, _word_from_ids(own, ids), TupleWord(own.symbols[i] for i in ids)
        if route == "hand":
            letters = TupleWord(Symbol(i, names[i]) for i in ids)
        elif route == "reversed":
            letters = TupleWord(rev.symbols[g - 1 - i] for i in ids)
        else:
            letters = TupleWord((own if route == "own" else twin).symbols[i] for i in ids)
        return route, Word(letters), letters

    probes = [own, twin, rev, Alphabet(names + ["z"]), Alphabet(names[1:] + ["z"])]
    return routed(), routed(), probes


def test_words_match_the_tuple_oracle_on_every_route(record_testsuite_property):
    """Words built five ways, each against a plain tuple of its symbols:
    equality and hashing, length, ``str``, iteration, indexing, slices,
    ``+``, ``reverse`` and ``names`` agree, and ``Alphabet.ids`` matches by
    name, raising ``LetterNotInAlphabet`` exactly where a name is missing.
    Each route's count, and the count of equal non-empty pairs, is recorded
    as a suite property and must be positive."""
    seen = dict.fromkeys(WORD_ROUTES + ("equal_nonempty",), 0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(routed_word_pairs())
    def check(case):
        (ru, u, ou), (rv, v, ov), probes = case
        seen[ru] += 1
        seen[rv] += 1
        assert (u == v) == (ou == ov) and (u != v) == (ou != ov)
        if u == v:
            assert hash(u) == hash(v)
            seen["equal_nonempty"] += len(u) > 0
        for w, o in ((u, ou), (v, ov), (u + v, ou + ov), (u.reverse(), ou.reverse())):
            assert len(w) == len(o) and str(w) == str(o) and w.names() == o.names()
            assert tuple(w) == o and all(w[i] == o[i] for i in range(-len(o), len(o)))
            for i in range(len(o) + 1):
                for j in range(i, len(o) + 1):
                    assert tuple(w[i:j]) == o[i:j] and (w[i:j] == v) == (o[i:j] == ov)
            for al in probes:
                want = o.ids_in(al)
                if want is None:
                    with pytest.raises(LetterNotInAlphabet):
                        al.ids(w)
                else:
                    assert al.ids(w) == want

    check()
    for route, count in seen.items():
        record_testsuite_property(f"word_{route}", count)
        assert count > 0, route


# ---------------------------------------------------------------------------
# table construction


def test_table_totality_and_fixed_default():
    assert bicyclic.entry("b", "a") == (bicyclic.alphabet["b"], bicyclic.alphabet["a"])
    assert bicyclic.is_fixed("b", "a")
    assert not bicyclic.is_fixed("a", "b")


def test_table_needs_a_letter():
    with pytest.raises(AlphabetError):
        NormTable(Alphabet(()))


def test_table_unit_membership_checked():
    with pytest.raises(AlphabetError):
        NormTable(Alphabet(("a",)), unit="1")


def test_idempotence_failures_witness():
    fails = swap_table().idempotence_failures()
    assert fails
    (a, b), (c, d), _ = fails[0]
    assert (a.name, b.name) == ("a", "b") and (c.name, d.name) == ("b", "a")
    with pytest.raises(NotIdempotent):
        swap_table().require_idempotent()


# ---------------------------------------------------------------------------
# single applications


def test_nbar_apply_bicyclic():
    w = bicyclic.alphabet.word("a a b")
    assert nbar_apply(bicyclic, w, 2) == bicyclic.alphabet.word("a 1 1")


def test_nbar_apply_fixed_pair_is_identity():
    w = bicyclic.alphabet.word("b a a")
    assert nbar_apply(bicyclic, w, 1) == w


def test_nbar_apply_plactic():
    w = plactic2.alphabet.word("b a a")
    assert nbar_apply(plactic2, w, 1) == plactic2.alphabet.word("1 ba a")


def test_nbar_apply_position_checked():
    w = bicyclic.alphabet.word("a b")
    for i in (0, 2, 5):
        with pytest.raises(PositionOutOfRange):
            nbar_apply(bicyclic, w, i)


def test_apply_sequence_bicyclic():
    # oracle: 2 gives a 1 1, then 1 gives 1 a 1, then 2 gives 1 1 a
    w = bicyclic.alphabet.word("a a b")
    assert apply_sequence(bicyclic, w, [2, 1, 2]) == bicyclic.alphabet.word("1 1 a")


def test_apply_sequence_empty_is_identity():
    w = plactic2.alphabet.word("ba b a")
    assert apply_sequence(plactic2, w, []) == w


def test_apply_sequence_z2():
    w = z2.alphabet.word("g g g")
    assert apply_sequence(z2, w, [1, 2]) == z2.alphabet.word("1 1 g")


def test_apply_sequence_single_matches_nbar_apply():
    for w in all_words(bicyclic.alphabet, 3, min_len=2):
        for i in range(1, len(w)):
            assert apply_sequence(bicyclic, w, [i]) == nbar_apply(bicyclic, w, i)


def test_apply_sequence_rejects_bad_position():
    with pytest.raises(PositionOutOfRange):
        apply_sequence(bicyclic, bicyclic.alphabet.word("a b"), [1, 2])


# ---------------------------------------------------------------------------
# normality and normalisation


def test_is_normal_examples():
    assert is_normal(bicyclic, bicyclic.alphabet.word("1 1 a"))
    assert is_normal(bicyclic, bicyclic.alphabet.word("b"))
    assert not is_normal(bicyclic, bicyclic.alphabet.word("a b"))


def test_normalize_bicyclic_matches_brute_force():
    w = bicyclic.alphabet.word("a a b")
    assert brute_normal_forms(bicyclic, w) == {bicyclic.alphabet.word("1 1 a")}
    assert normalize(bicyclic, w) == bicyclic.alphabet.word("1 1 a")


def test_normalize_fixed_point():
    w = plactic2.alphabet.word("1 a ba")
    assert normalize(plactic2, w) == w


def test_normalize_plactic_relation():
    expected = plactic2.alphabet.word("1 a ba")
    for text in ("a b a", "b a a"):
        w = plactic2.alphabet.word(text)
        assert brute_normal_forms(plactic2, w) == {expected}
        assert normalize(plactic2, w) == expected


@pytest.mark.parametrize("table", [bicyclic, plactic2, z2, gallery("bs10").table])
def test_normalize_agrees_with_exhaustive_search(table):
    for w in all_words(table.alphabet, 4):
        assert brute_normal_forms(table, w) == {normalize(table, w)}


@pytest.mark.parametrize("table", [bicyclic, plactic2, malcev])
def test_normalize_invariants(table):
    for w in all_words(table.alphabet, 3):
        nf = normalize(table, w)
        assert len(nf) == len(w)
        assert is_normal(table, nf)
        assert normalize(table, nf) == nf


def test_normalize_inner_factor_first():
    # N(u N(w) v) = N(uwv) over short words
    for table in (bicyclic, plactic2):
        for s in all_words(table.alphabet, 4, min_len=2):
            n = len(s)
            for i in range(n - 1):
                for j in range(i + 2, n + 1):
                    lhs = normalize(table, s[:i] + normalize(table, s[i:j]) + s[j:])
                    assert lhs == normalize(table, s)


def test_normalize_rejects_empty():
    with pytest.raises(GarnormError):
        normalize(bicyclic, Word())


def test_normalize_not_normalising():
    t = swap_table()
    with pytest.raises(NotNormalising):
        normalize(t, t.alphabet.word("a b"))


def test_normalize_not_normalising_is_a_budget_error_only_when_cut_short():
    t = swap_table()
    w = t.alphabet.word("a b")
    with pytest.raises(NotNormalising) as complete:
        normalize(t, w)
    assert not isinstance(complete.value, BudgetExhausted)
    with pytest.raises(NormalWordBudgetExhausted) as cut, node_budget(1):
        normalize(t, w)
    assert isinstance(cut.value, NotNormalising)
    assert isinstance(cut.value, BudgetExhausted)


def test_a_normal_word_found_by_a_search_cut_short_is_no_answer():
    # a a a a sweeps to no normal word; the search finds a b c a first and
    # a c a c only past 6 nodes, so a smaller budget must not pass a b c a
    # off as the normal form, nor claim that no normal word was reached
    al = Alphabet(("a", "b", "c"))
    pairs = ((1, 2), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2), (2, 0), (2, 2), (0, 0))
    t = NormTable._of_pairs(al, pairs)
    w = al.word("a a a a")
    for budget in (3, 6):
        with pytest.raises(BudgetExhausted) as cut, node_budget(budget):
            normalize(t, w)
        assert type(cut.value) is BudgetExhausted
        assert "'a b c a'" in str(cut.value)
    for budget in (8, DEFAULT_NODE_BUDGET):
        with pytest.raises(NotConfluent) as fork, node_budget(budget):
            normalize(t, w)
        assert {str(fork.value.first), str(fork.value.second)} == {"a b c a", "a c a c"}


def test_normalize_sweeps_pick_one_branch_of_a_fork():
    # the sweep strategy converges here without seeing the second normal
    # form; the fork is verify_normalisation's to report
    t = fork_table()
    w = t.alphabet.word("a a a")
    assert len(brute_normal_forms(t, w)) == 2
    assert normalize(t, w) in brute_normal_forms(t, w)


def test_normalize_not_confluent():
    t = cycling_fork_table()
    w = t.alphabet.word("b c a a")
    normals = brute_normal_forms(t, w)
    assert {str(n) for n in normals} >= {"a c c b", "a c c c"}
    with pytest.raises(NotConfluent) as err:
        normalize(t, w)
    assert {str(err.value.first), str(err.value.second)} <= {str(n) for n in normals}


def test_normalize_deterministic():
    w = malcev.alphabet.word("a' d 1 b")
    assert normalize(malcev, w) == normalize(malcev, w)


# ---------------------------------------------------------------------------
# verify_normalisation


def test_verify_bicyclic_clean():
    assert verify_normalisation(bicyclic, 5).ok


def test_verify_plactic_clean():
    assert verify_normalisation(plactic2, 5).ok


def test_verify_idempotence_witness():
    report = verify_normalisation(swap_table(), 3)
    assert not report.ok
    pairs = {(a.name, b.name) for (a, b), _, _ in report.idempotence_failures}
    assert ("a", "b") in pairs


def test_verify_fork_reports_confluence_failures():
    t = fork_table()
    report = verify_normalisation(t, 3)
    words = {str(w) for w, _, _ in report.not_confluent}
    assert "a a a" in words
    # cross-check the analysis against the exhaustive oracle
    for w in all_words(t.alphabet, 3):
        normals = brute_normal_forms(t, w)
        if len(normals) >= 2:
            assert str(w) in words


def test_verify_rejects_tiny_max_len():
    with pytest.raises(GarnormError):
        verify_normalisation(bicyclic, 2)


# ---------------------------------------------------------------------------
# breadth and the bounded-breadth condition


def test_breadth_known_values():
    assert breadth(z2).as_pair() == (3, 2)
    assert breadth(z3).as_pair() == (3, 2)
    assert breadth(bicyclic).as_pair() == (3, 4)
    assert breadth(plactic2).as_pair() == (3, 3)
    assert breadth(malcev).as_pair() == (3, 3)


def test_breadth_witnesses_attained():
    for table in (bicyclic, plactic2, z2):
        b = breadth(table)
        assert alternating_count(table, b.d_witness, 2) == b.d
        assert alternating_count(table, b.p_witness, 1) == b.p
        for triple in all_words(table.alphabet, 3, min_len=3):
            assert alternating_count(table, triple, 2) <= b.d
            assert alternating_count(table, triple, 1) <= b.p


def test_breadth_malcev_without_padding_letter():
    # without the unit no rewrite can create a new redex (images start
    # with c or c', which begin no redex, and end with d, d' or b, which
    # end none), so two alternating applications always suffice
    names = ("a", "b", "c", "d", "a'", "b'", "c'", "d'")
    t = NormTable(
        Alphabet(names),
        [
            (("a", "b"), ("c", "d")),
            (("a'", "b'"), ("c'", "d'")),
            (("a'", "d"), ("c'", "b")),
        ],
    )
    assert breadth(t).as_pair() == (2, 2)
    # the padding letter is what pushes the gallery table to (3, 3)
    assert breadth(malcev).as_pair() == (3, 3)


def test_breadth_degenerate_single_letter():
    assert breadth(gallery("finite:Z/1").table).as_pair() == (0, 0)


def test_breadth_requires_idempotence():
    with pytest.raises(NotIdempotent):
        breadth(swap_table())


def test_breadth_unbounded_coordinate():
    b = breadth(stuck_table())
    assert b.d is UNBOUNDED
    assert str(b.d_witness) == "a a a"
    assert b.p == 2
    assert not b.finite


def test_breadth_without_a_normal_triple():
    t = nonormal_table()
    b = breadth(t)
    assert (b.d, b.p) == (UNBOUNDED, UNBOUNDED)
    assert str(b.d_witness) == str(b.p_witness) == "a a a"
    assert not condition_home(t)
    assert not t._incremental()
    assert len(verify_normalisation(t, 3).not_normalising) == 8


def test_breadth_targets_the_p_walk_after_p_is_unbounded():
    # p is unbounded from a a a on, where its walk cycles; from a b b the
    # 1,2,1,... walk reaches a c b and the 2,1,2,... walk a c a, so d is
    # unbounded there, although the d walk alone would stop at a normal word
    rules = ("aaca", "abac", "baca", "bbca", "bcac", "ccca")
    t = NormTable(Alphabet("abc"), [((r[0], r[1]), (r[2], r[3])) for r in rules])
    b = breadth(t)
    assert (b.d, b.p) == (UNBOUNDED, UNBOUNDED)
    assert (str(b.d_witness), str(b.p_witness)) == ("a b b", "a a a")
    assert b == walk_rule_breadth(t)


@st.composite
def idempotent_pair_maps(draw):
    """A pair map on 2-4 letters that rewrites at most a third of the pairs,
    each to a pair it fixes, so it is idempotent."""
    g = draw(st.integers(2, 4))
    al = Alphabet("abcd"[:g])
    pairs = list(itertools.product(al.names(), repeat=2))
    rewritten = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=g * g // 3, unique=True))
    fixed = [p for p in pairs if p not in rewritten]
    return NormTable(al, [(p, draw(st.sampled_from(fixed))) for p in rewritten])


def test_breadth_equals_alternating_oracle(record_testsuite_property):
    """On tables whose three-letter words normalise uniquely, each breadth
    coordinate is the maximum of the oracle's walks bounded by their 2 g^3
    (word, parity) states, or UNBOUNDED if one never ends, and the oracle's
    default cap of 64 gives the same maxima.  The longest finite walk seen
    is recorded as the suite property ``longest_finite_walk``."""
    longest = []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(idempotent_pair_maps())
    def check(table):
        assume(verify_normalisation(table, 3).ok)
        triples = [Word(t) for t in itertools.product(table.alphabet.symbols, repeat=3)]

        def maxima(cap):
            counts = [[alternating_count(table, t, first, cap=cap) for t in triples]
                      for first in (2, 1)]  # d applies position 2 first, p position 1
            longest.extend(c for cs in counts for c in cs if c is not None)
            return tuple(UNBOUNDED if None in cs else max(cs) for cs in counts)

        exact = maxima(2 * len(table.alphabet) ** 3)
        assert breadth(table).as_pair() == exact == maxima(64)

    check()
    assert longest
    record_testsuite_property("longest_finite_walk", max(longest))


def test_breadth_equals_sweep_target_oracle(record_testsuite_property):
    """Where the sweep-target oracle returns, breadth equals it, witnesses
    included.  Where it raises (a triple with no reachable
    normal word, or two), breadth follows the walk rule: the target is the
    normal word of the p walk, else of the d walk.  walk_rule_breadth checks
    that rule on every example.  The number of examples on each side is
    recorded as the suite properties ``oracle_returned`` and
    ``oracle_raised``."""
    sides = {"returned": 0, "raised": 0}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(idempotent_pair_maps())
    def check(table):
        got = breadth(table)
        assert got == walk_rule_breadth(table)
        try:
            want = sweep_target_breadth(table)
        except (NotNormalising, NotConfluent):
            sides["raised"] += 1
        else:
            sides["returned"] += 1
            assert got == want

    check()
    assert sides["returned"] and sides["raised"]
    for side, n in sides.items():
        record_testsuite_property(f"oracle_{side}", n)


def test_mirror_exchanges_breadth_and_classes(record_testsuite_property):
    """The mirror of a table (``helpers.mirror``) exchanges the two walks of
    each reversed triple.  So a table has finite breadth iff its mirror
    does, the mirror's breadth is then (p, d), and the table is of class
    (3,4) iff its mirror is home: it inserts on the left iff its mirror is
    home and it is not.  With one coordinate unbounded the exchange can
    fail, as a triple's target is the normal word of its 1,2,1,... walk
    first: ``stuck_table`` and its mirror both have breadth (Unbounded, 2).
    Each drawn table and its mirror are checked, so that mirrors of home
    tables make left-inserting ones common.  The finite and the
    left-inserting tables are counted; each count is recorded as a suite
    property and must be positive."""
    seen = {"finite": 0, "inserts_left": 0}
    assert breadth(stuck_table()).as_pair() == (UNBOUNDED, 2)
    assert breadth(mirror(stuck_table())).as_pair() == (UNBOUNDED, 2)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(idempotent_pair_maps())
    def check(drawn):
        assert mirror(mirror(drawn)).rules() == drawn.rules()
        for table in (drawn, mirror(drawn)):
            b, m = breadth(table), mirror(table)
            mb = breadth(m)
            assert mb.finite == b.finite
            if b.finite:
                assert mb.as_pair() == (b.p, b.d)
                seen["finite"] += 1
            assert condition_home(m) == (b.finite and b.d <= 3 and b.p <= 4)
            inserts_left = table._inserter() is _insert_left_ids
            assert inserts_left == (m._incremental() and not table._incremental())
            seen["inserts_left"] += inserts_left

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key


def test_finite_breadth_coordinates_differ_by_at_most_one(record_testsuite_property):
    """After its first step each walk goes on as the other walk from the
    word it reached, towards the same target, so |d - p| <= 1 whenever both
    are finite.  Both gaps, 0 and 1, must occur; their counts are recorded
    as the suite properties ``gap_0`` and ``gap_1``."""
    gaps = {0: 0, 1: 0}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(idempotent_pair_maps())
    def check(table):
        b = breadth(table)
        if b.finite:
            assert abs(b.d - b.p) <= 1
            gaps[abs(b.d - b.p)] += 1

    check()
    for gap, count in gaps.items():
        record_testsuite_property(f"gap_{gap}", count)
        assert count > 0, gap


def test_gallery_breadth_gap_within_one():
    for entry in (
        gallery("bicyclic"),
        gallery("plactic2"),
        gallery("malcev"),
        gallery("bs10"),
        gallery("bs32"),
        gallery("braid3"),
        gallery("finite:Z/2"),
        gallery("finite:Z/3"),
    ):
        b = breadth(entry.table)
        assert b.finite and abs(b.d - b.p) <= 1


def test_condition_home():
    assert condition_home(plactic2)
    assert condition_home(malcev)
    assert not condition_home(bicyclic)


def test_condition_home_computes_breadth_once_per_table(monkeypatch):
    calls = []
    real = core.breadth

    def counting(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(core, "breadth", counting)
    for entry in (gallery("plactic2"), gallery("bicyclic")):
        fresh = NormTable(entry.table.alphabet, entry.table.rules(), unit=entry.table.unit)
        verdicts = {condition_home(fresh) for _ in range(5)}
        assert verdicts == {entry.expectations["condition_home"]}
        assert calls == [fresh]
        # normalize and verify_normalisation read the same cached verdict
        normalize(fresh, fresh.alphabet.word(" ".join(fresh.alphabet.names())))
        verify_normalisation(fresh, 3)
        assert calls == [fresh]
        calls.clear()
    with pytest.raises(NotIdempotent):
        condition_home(swap_table())
    assert calls == []


# ---------------------------------------------------------------------------
# unit handling


def test_unit_condition_bicyclic():
    assert check_unit_condition(bicyclic)


def test_unit_condition_skips_padded_words_on_class_34_tables(monkeypatch):
    # bicyclic's unit entries hold and it inserts on the left, counting the
    # unit, so N(1 w) = N(w 1) = 1 N(w) holds without normalising a word
    calls = []
    monkeypatch.setattr(core, "_normalize_ids", lambda *args: calls.append(args))
    fresh = NormTable(bicyclic.alphabet, bicyclic.rules(), unit=bicyclic.unit)
    assert unit_condition_failures(fresh) == [] and calls == []


def test_unit_condition_bs10():
    assert check_unit_condition(gallery("bs10").table)


def test_unit_condition_violation():
    # entries(a, 1) = (a, 1) breaks the left-migration identity
    t = NormTable(Alphabet(("1", "a")), [], unit="1")
    assert not check_unit_condition(t)
    assert unit_condition_failures(t)


def test_unit_condition_failures_name_the_padded_word():
    # the padded word is shown with the unit's own name, here e
    t = NormTable(Alphabet(("e", "a")), [], unit="e")
    fails = unit_condition_failures(t, max_len=1)
    assert "normalize(a e) = a e, expected e a" in fails
    assert all("1" not in f for f in fails)


def test_unit_condition_requires_unit():
    t = NormTable(Alphabet(("a", "b")))
    with pytest.raises(MissingUnit):
        check_unit_condition(t)


def test_adjoin_unit_free_table():
    free = NormTable(Alphabet(("a", "b")))
    t = adjoin_unit(free)
    assert t.alphabet.names() == ("a", "b", "1")
    assert t.entry("a", "1") == (t.alphabet["1"], t.alphabet["a"])
    assert t.entry("1", "a") == (t.alphabet["1"], t.alphabet["a"])
    assert t.entry("a", "b") == (t.alphabet["a"], t.alphabet["b"])
    assert check_unit_condition(t)
    assert verify_normalisation(t, 4).ok


def test_adjoin_unit_preserves_old_entries():
    core_rules = NormTable(
        Alphabet(("a", "b", "ba")),
        [(("ba", "a"), ("a", "ba")), (("ba", "b"), ("b", "ba"))],
    )
    t = adjoin_unit(core_rules)
    assert t.entry("ba", "a") == (t.alphabet["a"], t.alphabet["ba"])
    assert check_unit_condition(t)
    assert verify_normalisation(t, 4).ok


def test_adjoin_unit_refuses_twice():
    with pytest.raises(UnitAlreadyPresent):
        adjoin_unit(bicyclic)


def test_adjoin_unit_name_clash():
    t = NormTable(Alphabet(("1", "a")))  # "1" exists but is not the unit
    with pytest.raises(AlphabetError):
        adjoin_unit(t)


# ---------------------------------------------------------------------------
# derivation lengths


def test_derivation_length_normal_word_is_zero():
    assert max_derivation_length(bicyclic, bicyclic.alphabet.word("1 1 a")) == 0


def test_derivation_length_plactic_quadratic_bound():
    for w in all_words(plactic2.alphabet, 5, min_len=5):
        assert max_derivation_length(plactic2, w) <= 10


def test_derivation_length_bicyclic_exponential_bound():
    for w in all_words(bicyclic.alphabet, 5, min_len=5):
        assert max_derivation_length(bicyclic, w) <= 2**5 - 5 - 1


def test_derivation_length_detects_cycles():
    t = swap_table()
    with pytest.raises(NotTerminating):
        max_derivation_length(t, t.alphabet.word("a b"))
    with pytest.raises(BudgetExhausted):
        max_derivation_length(t, t.alphabet.word("a b"))  # same error class


def test_derivation_length_budget():
    with pytest.raises(BudgetExhausted):
        with node_budget(2):
            max_derivation_length(bicyclic, bicyclic.alphabet.word("a a a b b"))


def test_node_budget_nests_and_is_restored():
    w = bicyclic.alphabet.word("a a a b b")
    with node_budget(2):
        with node_budget(DEFAULT_NODE_BUDGET):
            assert max_derivation_length(bicyclic, w) > 0
        with pytest.raises(BudgetExhausted):
            max_derivation_length(bicyclic, w)
    assert max_derivation_length(bicyclic, w) > 0


def test_node_budget_is_per_thread():
    w = bicyclic.alphabet.word("a a a b b")
    out = []
    with node_budget(2):
        worker = threading.Thread(target=lambda: out.append(max_derivation_length(bicyclic, w)))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert out == [max_derivation_length(bicyclic, w)]


@pytest.mark.parametrize("n", (0, -1, 2.5, "10", True))
def test_node_budget_must_be_a_positive_integer(n):
    with pytest.raises(GarnormError):
        with node_budget(n):
            pass


def test_derivation_op_agrees_with_value_iteration():
    # independent oracle: longest derivations for all words of one length
    for table, n, cap in ((plactic2, 4, 8), (bicyclic, 5, 29)):
        expected = max(
            max_derivation_length(table, w) for w in all_words(table.alphabet, n, min_len=n)
        )
        assert bulk_longest_derivations(table, n, cap) == expected


@st.composite
def pair_maps_and_words(draw):
    """A pair map on 2-3 letters, idempotent or not, and a word of 3-5
    letters over it."""
    g = draw(st.integers(2, 3))
    al = Alphabet("abc"[:g])
    pairs = list(itertools.product(al.names(), repeat=2))
    moved = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=g * g, unique=True))
    table = NormTable(al, [(p, draw(st.sampled_from(pairs))) for p in moved])
    return table, al.word_of(draw(st.lists(st.sampled_from(al.names()), min_size=3, max_size=5)))


def test_derivation_length_matches_depth_first_oracle(record_testsuite_property):
    """At the default budget the breadth-first search with lengths in
    topological order returns the depth-first oracle's value, or raises
    NotTerminating where the oracle does, naming a word on a rewrite cycle.
    The examples on each side are recorded as the suite properties
    ``derivation_finite`` and ``derivation_cycles``."""
    sides = {"finite": 0, "cycles": 0}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pair_maps_and_words())
    def check(drawn):
        table, w = drawn
        try:
            want = dfs_longest_derivation(table, w)
        except NotTerminating:
            with pytest.raises(NotTerminating) as info:
                max_derivation_length(table, w)
            named = str(info.value).split("'")[1]
            assert on_rewrite_cycle(table, table.alphabet.word(named))
            sides["cycles"] += 1
        else:
            assert max_derivation_length(table, w) == want
            sides["finite"] += 1

    check()
    assert all(sides.values())
    for side, count in sides.items():
        record_testsuite_property(f"derivation_{side}", count)


def test_derivation_cycle_past_the_budget_is_a_plain_budget_error():
    # baa reaches six words, among them the cycle aaa -> aba -> aaa; the
    # depth-first oracle meets the cycle after three words, while the
    # breadth-first search outgrows a budget of four before any lengths are
    # taken
    al = Alphabet(("a", "b"))
    t = NormTable(al, [(("a", "a"), ("a", "b")), (("b", "a"), ("a", "a"))])
    w = al.word("b a a")
    with node_budget(4):
        with pytest.raises(BudgetExhausted) as info:
            max_derivation_length(t, w)
        assert type(info.value) is BudgetExhausted
        with pytest.raises(NotTerminating):
            dfs_longest_derivation(t, w)
    with pytest.raises(NotTerminating, match="rewrite cycle through '(a a a|a b a)'"):
        max_derivation_length(t, w)


def test_gallery_derivation_bounds_to_length_seven():
    # quadratic bound for breadth (3, 3); exponential for (3, 4) and (4, 3)
    quadratic = ("plactic2", "malcev", "braid3", "bs10")
    exponential = ("bicyclic", "bs32")
    for name in quadratic:
        table = gallery(name).table
        assert breadth(table).as_pair() == (3, 3)
        for n in range(2, 8):
            bound = n * (n - 1) // 2
            got = bulk_longest_derivations(table, n, bound + 2)
            assert got is not None and got <= bound, (name, n, got)
    for name in exponential:
        table = gallery(name).table
        assert breadth(table).as_pair() in ((3, 4), (4, 3))
        for n in range(2, 8):
            bound = 2**n - n - 1
            got = bulk_longest_derivations(table, n, bound + 2)
            assert got is not None and got <= bound, (name, n, got)


def test_brute_is_normal_matches_is_normal():
    for w in all_words(plactic2.alphabet, 3):
        assert brute_is_normal(plactic2, w) == is_normal(plactic2, w)
