"""The class (4,3) and (3,4) certificates and the dense backward search.

``verify_normalisation`` returns the empty report without a search on
tables with an insertion kernel: the idempotent tables that pass
``condition_home``, and those of class (3,4), whose mirror passes it.  It
runs the backward search ``_rewrite_analysis`` on integer word codes for
every other table.  The search must find nothing on the certified tables,
and it must equal the two searches it replaced, kept in ``helpers`` as
oracles, witnesses and order included: the dict-based search, and the scan
of every position of every word over the same integer codes.  On the same
random tables, ``normalize`` must agree with the exhaustive closure
``helpers.brute_normal_forms``.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from garnorm import (
    Alphabet,
    BudgetExhausted,
    NormTable,
    NotConfluent,
    NotNormalising,
    gallery,
    gallery_tables,
    node_budget,
    normalize,
    verify_normalisation,
)
from garnorm import core
from garnorm.core import NormalisationReport, _rewrite_analysis, _word_from_ids
from helpers import brute_normal_forms, dict_rewrite_analysis, positional_rewrite_analysis
from garnorm.shell import parse_table
from test_incremental import class_34_tables, random_idempotent_table
from test_verify import SEARCHED_TABLE, random_free_table

#: Gallery tables searched to length 5 instead of 6: 8 and 9 letters.
LARGE = ("bs32", "malcev")


def test_backward_search_finds_nothing_on_gallery_tables():
    for entry in gallery_tables():
        max_len = 5 if entry.name in LARGE else 6
        assert _rewrite_analysis(entry.table, max_len) == ([], []), entry.name


def test_backward_search_finds_nothing_on_random_home_tables():
    home = []
    for seed in itertools.count():
        rng = random.Random(seed)
        table = random_idempotent_table(rng, rng.choice((2, 3, 4)))
        if table._incremental():
            home.append(table)
            if len(home) == 50:
                break
    assert len({len(t.alphabet) for t in home}) == 3
    for table in home:
        assert _rewrite_analysis(table, 5) == ([], [])


def test_backward_search_finds_nothing_on_class_34_tables():
    """The class (3,4) certificate against the search it skips: the seeded
    class (3,4) tables of ``test_incremental`` to length 5, bicyclic to 9."""
    tables = [(t, 5) for t in class_34_tables()] + [(gallery("bicyclic").table, 9)]
    assert len(tables) > 50
    for table, max_len in tables:
        assert verify_normalisation(table, max_len) == NormalisationReport(max_len=max_len)
        assert _rewrite_analysis(table, max_len) == ([], [])


def test_class_34_tables_are_never_searched(monkeypatch):
    calls = []
    real = core._rewrite_analysis
    monkeypatch.setattr(core, "_rewrite_analysis", lambda t, n: calls.append(t) or real(t, n))
    for table in [gallery("bicyclic").table, *class_34_tables()]:
        assert verify_normalisation(table, 5).ok
    assert calls == []
    # a table outside both classes is searched through the same name
    searched = parse_table(SEARCHED_TABLE)
    assert verify_normalisation(searched, 5).ok
    assert calls == [searched]


def dict_oracle_words(table: NormTable, max_len: int):
    """``helpers.dict_rewrite_analysis`` with its id tuples made words."""
    word = lambda ids: _word_from_ids(table.alphabet, ids)
    confl, dead = dict_rewrite_analysis(table, max_len)
    return [(word(w), word(x), word(y)) for w, x, y in confl], [word(w) for w in dead]


def test_dense_search_matches_dict_oracle():
    seen = {"dead": 0, "not_confluent": 0}
    for seed in range(240):
        rng = random.Random(seed)
        g = 2 + seed % 3
        make = random_idempotent_table if seed % 2 else random_free_table
        table = make(rng, g)
        got = _rewrite_analysis(table, 5)
        assert got == dict_oracle_words(table, 5), seed
        seen["not_confluent"] += bool(got[0])
        seen["dead"] += bool(got[1])
    assert all(seen.values()), seen


@st.composite
def pair_maps(draw, max_letters: int = 4):
    """A pair map on 2-``max_letters`` letters, at most 5, idempotent or
    not, with or without a unit 1 that sends (x, 1) to (1, x) and fixes
    (1, x)."""
    g = draw(st.integers(2, max_letters))
    with_unit = draw(st.booleans())
    idempotent = draw(st.booleans())
    names = ("1",) * with_unit + tuple("abcde")[: g - with_unit]
    pairs = list(itertools.product(range(g), repeat=2))
    free = [p for p in pairs if not (with_unit and 0 in p)]
    rules = {(x, 0): (0, x) for x in range(1, g)} if with_unit else {}
    if idempotent:
        fixed = [p for p in free if draw(st.booleans())] or free[:1]
        fixed += [(0, x) for x in range(g)] if with_unit else []
        rules.update((p, draw(st.sampled_from(fixed))) for p in free if p not in fixed)
    else:
        rules.update((p, draw(st.sampled_from(pairs))) for p in free)
    named = [((names[a], names[b]), (names[c], names[d])) for (a, b), (c, d) in rules.items()]
    return NormTable(Alphabet(names), named, unit="1" if with_unit else None)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair_maps(max_letters=5))
def test_verify_normalisation_matches_dict_oracle(table):
    confl, dead = dict_oracle_words(table, 4)
    want = NormalisationReport(
        max_len=4,
        idempotence_failures=table.idempotence_failures(),
        not_normalising=dead,
        not_confluent=confl,
    )
    assert verify_normalisation(table, 4) == want


def test_offset_search_matches_positional_oracle():
    """The search that reads one offset table per length against the scan
    of every position it replaced, ``helpers.positional_rewrite_analysis``,
    with ``==`` on the reports, witnesses and order included, on pair maps
    of 2-5 letters at ``max_len`` 3-6.  ``verify_normalisation`` gives the
    same report, empty on the tables it certifies without a search.  Every
    letter count and length, and both kinds of failure, must be drawn."""
    seen = {"letters": set(), "max_len": set(), "not_confluent": 0, "dead": 0}

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(pair_maps(max_letters=5), st.integers(3, 6))
    def check(table, max_len):
        confl, dead = positional_rewrite_analysis(table, max_len)
        assert _rewrite_analysis(table, max_len) == (confl, dead)
        assert verify_normalisation(table, max_len) == NormalisationReport(
            max_len=max_len,
            idempotence_failures=table.idempotence_failures(),
            not_normalising=dead,
            not_confluent=confl,
        )
        seen["letters"].add(len(table.alphabet))
        seen["max_len"].add(max_len)
        seen["not_confluent"] += bool(confl)
        seen["dead"] += bool(dead)

    check()
    assert seen["letters"] == {2, 3, 4, 5} and seen["max_len"] == {3, 4, 5, 6}, seen
    assert seen["not_confluent"] and seen["dead"], seen


def test_offset_search_on_a_dead_free_table_and_one_letter():
    # (a, a) is the only fixed pair and no pair rewrites to it, so a^n is
    # the one normal word of each length and every other word is dead
    names = "abc"
    cycle = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    rules = [
        ((names[a], names[b]), (names[c], names[d]))
        for (a, b), (c, d) in zip(cycle, cycle[1:] + cycle[:1])
    ]
    dead_table = NormTable(Alphabet(names), rules)
    confl, dead = _rewrite_analysis(dead_table, 7)
    assert (confl, dead) == positional_rewrite_analysis(dead_table, 7)
    assert confl == [] and len(dead) == sum(3**n - 1 for n in range(2, 8))
    assert all(set(w.names()) != {"a"} for w in dead)
    # on one letter the only pair is fixed and every word is normal
    one = NormTable(Alphabet("a"))
    assert _rewrite_analysis(one, 9) == positional_rewrite_analysis(one, 9) == ([], [])


#: A 5-letter table outside both insertion classes: ``SEARCHED_TABLE`` with
#: two more letters, c and d, and the rule d c -> c d.
SEARCHED_FIVE = SEARCHED_TABLE.replace("alphabet 1 a b", "alphabet 1 a b c d") + (
    "rule c 1 -> 1 c\nrule d 1 -> 1 d\nrule d c -> c d\n"
)


def test_backward_search_budget_edge_on_five_letters():
    # 5^2 + ... + 5^7 = 97 650 words: a budget of exactly that runs the
    # search, one less refuses it before the 5^7-entry label lists exist
    table = parse_table(SEARCHED_FIVE)
    assert table._inserter() is None and len(table.alphabet) == 5
    words = sum(5**n for n in range(2, 8))
    with node_budget(words):
        assert verify_normalisation(table, 7).ok
    tracemalloc.start()
    try:
        refused = pytest.raises(BudgetExhausted, match=f"budget of {words - 1}$")
        with node_budget(words - 1), refused:
            verify_normalisation(table, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5**7 * 8, peak


def test_normalize_matches_brute_force_on_random_tables(record_testsuite_property):
    """On random tables that are not home, so that ``normalize`` sweeps and
    may fall back to its search, each outcome matches
    ``helpers.brute_normal_forms``: a returned word is one of the reachable
    normal words, ``NotNormalising`` that the budget did not cut means there
    is none, and ``NotConfluent`` means there are two or more, on every
    word of 2-3 letters.  Each outcome is counted; the counts are recorded
    as suite properties and must be positive."""
    seen = {"normalised": 0, "not_normalising": 0, "not_confluent": 0}

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(pair_maps(max_letters=5))
    def check(table):
        assume(not table._incremental())
        g = len(table.alphabet)
        for ids in itertools.chain(*(itertools.product(range(g), repeat=n) for n in (2, 3))):
            w = _word_from_ids(table.alphabet, ids)
            normals = brute_normal_forms(table, w)
            try:
                got = normalize(table, w)
            except NotConfluent:
                assert len(normals) >= 2, w
                seen["not_confluent"] += 1
            except NotNormalising as exc:
                assert not isinstance(exc, BudgetExhausted) and not normals, w
                seen["not_normalising"] += 1
            else:
                assert got in normals, w
                seen["normalised"] += 1

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key
