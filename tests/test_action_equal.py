"""Action equality by normal forms on gated machines, against the search.

On a machine that passes the gate of ``growth``, ``action_equal`` reads the
answer off two insertion runs of the machine's home table, with the
leading padding letters stripped; ``distinguishing_word``, whose
breadth-first search finds the least witness, is the oracle.  Every other
machine still asks that search.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from garnorm import (
    Alphabet,
    GarnormError,
    LetterNotInAlphabet,
    Word,
    action_equal,
    build_mealy,
    distinguishing_word,
    gallery,
    normalize,
)
from garnorm import machines
from garnorm.core import _word_from_ids
from garnorm.machines import _fixed_pairs
from helpers import draw_idempotent_pair_map

BRAID3 = build_mealy(gallery("braid3").table)


@st.composite
def home_tables_and_pairs(draw):
    """A home table drawn by ``helpers.draw_idempotent_pair_map``, and 1-8
    pairs of state words of 1-6 letters, the unit letter among them.  Each
    pair is drawn apart, its first word against the normal form of itself,
    or against itself with unit letters slotted in, so lengths mix and
    some pairs agree."""
    _, table = draw_idempotent_pair_map(draw)
    assume(table._incremental())
    g = len(table.alphabet)
    word = st.lists(st.integers(0, g - 1), min_size=1, max_size=6).map(tuple)
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        u = draw(word)
        how = draw(st.sampled_from(("apart", "normal form", "units")))
        if how == "apart":
            v = draw(word)
        elif how == "normal form":
            v = normalize(table, _word_from_ids(table.alphabet, u)).ids()
        else:
            v = list(u)
            for _ in range(draw(st.integers(0, 6 - len(u)))):
                v.insert(draw(st.integers(0, len(v))), 0)
            v = tuple(v)
        pairs.append((u, v))
    return table, pairs


def test_action_equal_matches_the_search_on_random_home_tables(record_testsuite_property):
    """Home tables only, so the gate rests on the padding letter: the
    padding kind passes it, unless a rewritten pair spoils the letter, and
    the failing-unit and no-unit kinds fall back to the search.  Both
    branches, equal and unequal answers, and pairs of mixed lengths are
    counted; each count is recorded as a suite property and must be
    positive."""
    seen = dict.fromkeys(("gated", "fallback", "equal", "unequal", "mixed lengths"), 0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(home_tables_and_pairs())
    def check(case):
        table, pairs = case
        m = build_mealy(table)
        seen["gated" if _fixed_pairs(m) else "fallback"] += 1
        for u, v in pairs:
            su, sv = _word_from_ids(m.states, u), _word_from_ids(m.states, v)
            equal = action_equal(m, su, sv)
            assert equal == (distinguishing_word(m, su, sv) is None), (u, v)
            seen["equal" if equal else "unequal"] += 1
            seen["mixed lengths"] += len(u) != len(v)

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key


@pytest.mark.parametrize("u, v", [("1 a b a", "b a b"), ("1 1 1", "1"), ("a", "1 a")])
def test_braid3_words_of_mixed_lengths_act_alike(u, v):
    assert _fixed_pairs(BRAID3)
    assert action_equal(BRAID3, BRAID3.states.word(u), BRAID3.states.word(v))


def test_braid3_relations_on_the_gated_path():
    word = BRAID3.states.word
    assert action_equal(BRAID3, word("a b a"), word("b a b"))
    assert not action_equal(BRAID3, word("a b"), word("b a"))
    assert not action_equal(BRAID3, word("1 a"), word("1 b"))


def test_bs32_reads_the_right_insertion_normal_form():
    # b2 b a normalises to 1 b ab3 by right insertion; inserting its
    # letters from the left stops at b 1 ab3, which is not normal
    m = build_mealy(gallery("bs32").table)
    u, v = m.states.word("b2 b a"), m.states.word("b ab3")
    assert distinguishing_word(m, u, v) is None
    assert action_equal(m, u, v)


def test_gated_path_keeps_the_checks_in_order():
    word, foreign = BRAID3.states.word, Alphabet(["1", "y", "z"]).word
    with pytest.raises(GarnormError, match="state words must be non-empty"):
        action_equal(BRAID3, Word(), word("a"))
    with pytest.raises(GarnormError, match="state words must be non-empty"):
        action_equal(BRAID3, word("1"), Word())
    # each word is read before either is found empty, u first
    with pytest.raises(LetterNotInAlphabet, match="'z'"):
        action_equal(BRAID3, Word(), foreign("z"))
    with pytest.raises(LetterNotInAlphabet, match="'y'"):
        action_equal(BRAID3, foreign("1 y"), foreign("z"))


def test_only_machines_outside_the_gate_search(monkeypatch):
    class Searched(Exception):
        pass

    def search(*args):
        raise Searched

    monkeypatch.setattr(machines, "distinguishing_word", search)
    word = BRAID3.states.word
    assert action_equal(BRAID3, word("1 a b a"), word("b a b"))
    assert not action_equal(BRAID3, word("a b"), word("b a"))
    bicyclic = build_mealy(gallery("bicyclic").table)
    div3 = gallery("div3").machine
    for m, u, v in ((bicyclic, "a b", "1 1"), (div3, "0", "1")):
        assert not _fixed_pairs(m)
        with pytest.raises(Searched):
            action_equal(m, m.states.word(u), m.states.word(v))
