
import pytest

from garnorm import (
    Alphabet,
    AlphabetError,
    BudgetExhausted,
    GarnormError,
    MissingUnit,
    NormTable,
    NormalWordBudgetExhausted,
    NotConfluent,
    NotIdempotent,
    NotNormalising,
    NotTerminating,
    PositionOutOfRange,
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
    normalize,
    unit_condition_failures,
    verify_normalisation,
)
from helpers import (
    all_words,
    alternating_count,
    brute_is_normal,
    brute_normal_forms,
    bulk_longest_derivations,
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
    # sweep normal form of aaa (abb instead of aba)
    al = Alphabet(("a", "b"))
    return NormTable(al, [(("a", "a"), ("a", "b"))])


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
    w = bicyclic.alphabet.word("a b")
    with pytest.raises(AttributeError):
        w.letters = ()


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
    with pytest.raises(NormalWordBudgetExhausted) as cut:
        normalize(t, w, node_budget=1)
    assert isinstance(cut.value, NotNormalising)
    assert isinstance(cut.value, BudgetExhausted)


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
    b = breadth(stuck_table(), cap=16)
    assert b.d is UNBOUNDED
    assert str(b.d_witness) == "a a a"
    assert b.p == 2
    assert not b.finite


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
        assert b.warning is None


def test_condition_home():
    assert condition_home(plactic2)
    assert condition_home(malcev)
    assert not condition_home(bicyclic)


# ---------------------------------------------------------------------------
# unit handling


def test_unit_condition_bicyclic():
    assert check_unit_condition(bicyclic)


def test_unit_condition_bs10():
    assert check_unit_condition(gallery("bs10").table)


def test_unit_condition_violation():
    # entries(a, 1) = (a, 1) breaks the left-migration identity
    t = NormTable(Alphabet(("1", "a")), [], unit="1")
    assert not check_unit_condition(t)
    assert unit_condition_failures(t)


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
        max_derivation_length(bicyclic, bicyclic.alphabet.word("a a a b b"), node_budget=2)


def test_derivation_op_agrees_with_value_iteration():
    # independent oracle: longest derivations for all words of one length
    for table, n, cap in ((plactic2, 4, 8), (bicyclic, 5, 29)):
        expected = max(
            max_derivation_length(table, w) for w in all_words(table.alphabet, n, min_len=n)
        )
        assert bulk_longest_derivations(table, n, cap) == expected


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
