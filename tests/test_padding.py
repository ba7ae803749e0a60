"""Letter insertion that counts the padding letter, against carrying it.

``core._insert_ids`` keeps the normal word as a count of padding letters
followed by the padding-free rest, and sweeps only the rest;
``helpers.carried_insertion`` carries every letter across the whole word.
On home tables (idempotent, satisfying ``condition_home``) the two must
agree on every word, whether the table has a padding letter, a designated
unit that fails the padding entries, or no unit at all.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from garnorm import (
    MealyMachine,
    NormTable,
    build_thurston,
    gallery,
    gallery_tables,
    normalize,
    thurston_normalize,
)
from garnorm.core import _insert_ids, _padding_letter
from helpers import (
    PAIR_MAP_KINDS as KINDS,
    carried_insertion,
    draw_idempotent_pair_map,
    transition_tables,
)


def padding_letters(table: NormTable) -> list[int]:
    """Every letter u with (x, u) -> (u, x) and (u, x) fixed for all x."""
    g, pairs = len(table.alphabet), table._pairs
    return [
        u for u in range(g)
        if all(pairs[x * g + u] == (u, x) and pairs[u * g + x] == (u, x) for x in range(g))
    ]


def assert_counting_matches_carrying(table: NormTable, words) -> None:
    g, pairs, pad = len(table.alphabet), table._pairs, table._pad
    for ids in words:
        assert _insert_ids(pairs, g, ids, pad) == carried_insertion(pairs, g, ids), ids


def words_up_to(g: int, max_len: int):
    for n in range(1, max_len + 1):
        yield from itertools.product(range(g), repeat=n)


@st.composite
def home_tables_and_words(draw):
    """A pair map of one of the three ``KINDS`` (see
    ``helpers.draw_idempotent_pair_map``), and 1-20 words of 1-64 letters
    over it."""
    kind, table = draw_idempotent_pair_map(draw)
    letter = st.integers(0, len(table.alphabet) - 1)
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=64).map(tuple),
                          min_size=1, max_size=20))
    return kind, table, words


def test_counted_padding_matches_carried_insertion_on_random_home_tables(
    record_testsuite_property,
):
    """Every word up to length 6 and the drawn words of up to 64 letters.
    The home tables of each kind, and those whose padding letter some pair
    rewrites into (1, 1), so that one step both writes and carries it, are
    counted; each count is recorded as a suite property and must be
    positive."""
    seen = dict.fromkeys(KINDS + ("counted", "written and carried"), 0)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(home_tables_and_words())
    def check(case):
        kind, table, words = case
        assume(table._incremental())
        assert padding_letters(table) == ([table._pad] if table._pad >= 0 else [])
        assert_counting_matches_carrying(table, words_up_to(len(table.alphabet), 6))
        assert_counting_matches_carrying(table, words)
        seen[kind] += 1
        pad, g = table._pad, len(table.alphabet)
        if pad >= 0:
            seen["counted"] += 1
            seen["written and carried"] += any(
                (c, d) == (pad, pad) != divmod(k, g) for k, (c, d) in enumerate(table._pairs)
            )

    check()
    for key, count in seen.items():
        record_testsuite_property(key, count)
        assert count > 0, key


def test_counted_padding_matches_carried_insertion_on_gallery_home_tables():
    """Exhaustively to length 7 on 2-4 letters, 6 on 6 and 5 on 8-9."""
    checked = []
    for entry in gallery_tables():
        table = entry.table
        if not table._incremental():
            continue
        g = len(table.alphabet)
        assert table._pad == table.alphabet[table.unit].id == padding_letters(table)[0]
        max_len = 7 if g <= 4 else 6 if g <= 6 else 5
        assert_counting_matches_carrying(table, words_up_to(g, max_len))
        checked.append(entry.name)
    assert checked == ["bs10", "bs32", "plactic2", "malcev", "braid3", "finite:Z/2", "finite:Z/3"]


def test_a_step_that_writes_and_carries_the_unit():
    # g4 g4 -> 1 1 in Z/8: inserting g4 into g4 writes the unit into the
    # new slot and carries it; the carried one goes to the count and the
    # written one stays at the front of the rest
    z8 = gallery("finite:Z/8").table
    assert z8.entry("g4", "g4") == (z8.unit, z8.unit)
    th = build_thurston(z8)
    for text, want in (("g4 g4", "1 1"), ("g g3 g4", "1 1 1"), ("g4 g4 g5", "1 1 g5"),
                       ("1 g4 g2 g2", "1 1 1 1")):
        w = z8.alphabet.word(text)
        assert normalize(z8, w) == z8.alphabet.word(want), text
        assert thurston_normalize(th, w) == z8.alphabet.word(want), text
        ids = z8.alphabet.ids(w)
        assert _insert_ids(z8._pairs, 8, ids, z8._pad) == carried_insertion(z8._pairs, 8, ids)


def test_the_padding_letter_comes_from_the_pairs():
    # a machine read back from its transition tables has no designated
    # unit, yet counts the same padding letter as the table it came from
    bs10 = gallery("bs10").table
    th = build_thurston(bs10)
    copy = MealyMachine(th.states, th.alphabet, *transition_tables(th))
    assert copy._table._pad is None
    w = bs10.alphabet.word("a a a a a b a b b 1 a")
    assert thurston_normalize(copy, w) == normalize(bs10, w)
    assert copy._table._insert is _insert_ids and copy._table._pad == bs10.alphabet["1"].id
    bare = NormTable._of_pairs(bs10.alphabet, bs10._pairs)
    assert bare.unit is None and bare._incremental() and bare._pad == 0
    # the identity table on two letters has no padding letter; sending
    # (1, 0) to (0, 1) makes 0 one
    assert _padding_letter(((0, 0), (0, 1), (1, 0), (1, 1)), 2) == -1
    assert _padding_letter(((0, 0), (0, 1), (0, 1), (1, 1)), 2) == 0
