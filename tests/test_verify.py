"""Whole-table verdicts against the slow paths they replace.

``verify_normalisation`` searches backwards from the normal words only and
runs no N(u N(w) v) = N(uwv) pass, which unique normal forms imply;
``unit_condition_failures`` skips the padded-word loop on class (4,3) and
(3,4) tables whose unit entries hold, where letter insertion implies it.  The
oracles are the brute-force closure of ``helpers``, the N(u N(w) v) walk
and the full padded-word loop, both as they used to run in the library.
"""

import itertools
import random

import pytest

from garnorm import (
    Alphabet,
    BudgetExhausted,
    GarnormError,
    NormTable,
    Word,
    breadth,
    gallery,
    gallery_tables,
    node_budget,
    normalize,
    unit_condition_failures,
    verify_normalisation,
)
from garnorm.shell import parse_table
from helpers import all_words, brute_normal_forms
from test_core import cycling_fork_table, fork_table, swap_table
from test_incremental import random_idempotent_table


def random_free_table(rng: random.Random, g: int) -> NormTable:
    """Pairs map to arbitrary pairs, with at least one rewrite cycle."""
    names = "abcd"[:g]
    pairs = list(itertools.product(range(g), repeat=2))
    rules = {p: rng.choice(pairs) for p in pairs if rng.random() < 0.4}
    p, q = rng.sample(pairs, 2)
    rules[p], rules[q] = q, p
    named = [((names[a], names[b]), (names[c], names[d])) for (a, b), (c, d) in rules.items()]
    return NormTable(Alphabet(names), named)


def random_tables():
    """A seeded mix of idempotent and free pair maps on 2 and 3 letters."""
    tables = [swap_table(), fork_table(), cycling_fork_table()]
    for g in (2, 3):
        for seed in range(15):
            rng = random.Random(100 * g + seed)
            tables.append(random_idempotent_table(rng, g))
            tables.append(random_free_table(rng, g))
    return tables


def brute_normals(table: NormTable, max_len: int) -> dict[Word, set[Word]]:
    """Every word of length <= max_len -> its brute-force normal forms, in
    length-then-lexicographic order."""
    return {w: brute_normal_forms(table, w) for w in all_words(table.alphabet, max_len)}


def inner_factor_failures(normals: dict[Word, set[Word]]) -> list:
    """The N(u N(w) v) = N(uwv) walk over every word with a unique normal
    form, as ``verify_normalisation`` used to run it."""
    nf = {w: next(iter(s)) for w, s in normals.items() if len(s) == 1}
    fails = []
    for s, ns in nf.items():
        n = len(s)
        for i in range(n - 1):
            for j in range(i + 2, n + 1):
                nw = nf.get(s[i:j])
                if nw is None:
                    continue
                nl = nf.get(s[:i] + nw + s[j:])
                if nl is not None and nl != ns:
                    fails.append((s[:i], s[i:j], s[j:], nl, ns))
    return fails


def test_verify_normalisation_matches_brute_force():
    seen = {"dead": 0, "not_confluent": 0, "ok": 0}
    for table in random_tables():
        report = verify_normalisation(table, 4)
        normals = brute_normals(table, 4)
        longer = [w for w in normals if len(w) >= 2]
        assert report.not_normalising == [w for w in longer if not normals[w]]
        assert [w for w, _, _ in report.not_confluent] == [
            w for w in longer if len(normals[w]) >= 2
        ]
        for w, x, y in report.not_confluent:
            assert x != y and {x, y} <= normals[w]
        assert report.axiom_failures == []
        assert inner_factor_failures(normals) == []
        seen["dead"] += bool(report.not_normalising)
        seen["not_confluent"] += bool(report.not_confluent)
        seen["ok"] += report.ok
    assert all(seen.values()), seen


@pytest.mark.parametrize("entry", gallery_tables(), ids=lambda e: e.name)
def test_inner_factor_walk_finds_nothing_on_gallery_tables(entry):
    assert inner_factor_failures(brute_normals(entry.table, 4)) == []
    assert verify_normalisation(entry.table, 4).axiom_failures == []


#: A table outside both insertion classes: breadth (5, 4), so it is
#: neither home (d <= 4, p <= 3) nor of class (3,4) (d <= 3, p <= 4), and
#: ``verify_normalisation`` searches it.  Every word reaches one normal word.
SEARCHED_TABLE = """\
alphabet 1 a b
unit 1
rule a 1 -> 1 a
rule b 1 -> 1 b
rule b a -> a b
rule b b -> 1 1
"""


def test_backward_search_is_refused_when_its_words_outnumber_the_budget():
    # the searched table has 9 + 27 + 81 = 117 words of length 2-4 on its 3
    # letters, one node each
    table = parse_table(SEARCHED_TABLE)
    assert breadth(table).as_pair() == (5, 4) and table._inserter() is None
    with node_budget(117):
        assert verify_normalisation(table, 4).ok
    for max_len, budget in ((4, 116), (5, 116), (10**6, 1)):
        with node_budget(budget), pytest.raises(BudgetExhausted, match=f"budget of {budget}$"):
            verify_normalisation(table, max_len)
    # the reports of malcev (class (4,3)) and bicyclic (class (3,4)) need no
    # search, so no budget refuses them
    with node_budget(1):
        assert verify_normalisation(gallery("malcev").table, 40).ok
        assert verify_normalisation(gallery("bicyclic").table, 40).ok


def unit_loop_failures(table: NormTable, max_len: int) -> list[str]:
    """The unit condition as ``unit_condition_failures`` checked it on every
    table: the 2g unit entries, then every word padded on either side."""
    u = table.unit
    one = Word([u])
    fails = []
    for x in table.alphabet:
        for a, b in ((x, u), (u, x)):
            c, d = table.entry(a, b)
            if (c, d) != (u, x):
                fails.append(f"entries({a} {b}) = ({c} {d}), expected ({u} {x})")
    for w in all_words(table.alphabet, max_len):
        want = one + normalize(table, w)
        left = normalize(table, one + w)
        right = normalize(table, w + one)
        if left != want:
            fails.append(f"normalize(1 {w}) = {left}, expected {want}")
        if right != want:
            fails.append(f"normalize({w} 1) = {right}, expected {want}")
    return fails


def random_unit_table(rng: random.Random, g: int, idempotent: bool, broken: bool) -> NormTable:
    """A unit 1 with correct entries plus random rules on the other pairs;
    idempotent rules map to pairs left fixed, which include (1, x).  A
    broken table then overwrites one or two unit entries, each with a
    random pair or with itself."""
    names = ("1",) + tuple("abc"[: g - 1])
    pairs = list(itertools.product(range(g), repeat=2))
    rules = {(x, 0): (0, x) for x in range(1, g)}
    free = [p for p in pairs if 0 not in p]
    if idempotent:
        fixed = [p for p in free if rng.random() < 0.6] + [(0, x) for x in range(g)]
        for p in free:
            if p not in fixed:
                rules[p] = rng.choice(fixed)
    else:
        rules.update((p, rng.choice(pairs)) for p in free if rng.random() < 0.4)
    if broken:
        for _ in range(rng.randint(1, 2)):
            x = rng.randrange(g)
            key = rng.choice(((x, 0), (0, x)))
            rules[key] = rng.choice((key, rng.choice(pairs)))
    named = [((names[a], names[b]), (names[c], names[d])) for (a, b), (c, d) in rules.items()]
    return NormTable(Alphabet(names), named, unit="1")


def outcome(f, *args):
    try:
        return f(*args)
    except GarnormError as exc:
        return type(exc), str(exc)


def test_unit_condition_failures_matches_the_word_loop():
    seen = {}
    for seed in range(240):
        rng = random.Random(seed)
        g = rng.choice((2, 3, 4))
        table = random_unit_table(rng, g, rng.random() < 0.7, rng.random() < 0.5)
        max_len = rng.choice((2, 3, 4))
        want = outcome(unit_loop_failures, table, max_len)
        assert outcome(unit_condition_failures, table, max_len) == want, seed
        u = table.unit
        bad_entries = any(
            table.entry(x, u) != (u, x) or table.entry(u, x) != (u, x) for x in table.alphabet
        )
        kind = (table._incremental(), bad_entries)
        seen[kind] = seen.get(kind, 0) + 1
    # home and non-home tables, each with and without failing unit entries
    assert len(seen) == 4, seen


@pytest.mark.parametrize("entry", gallery_tables(), ids=lambda e: e.name)
def test_unit_condition_failures_matches_the_word_loop_on_gallery_tables(entry):
    if entry.table.unit is not None:
        assert unit_condition_failures(entry.table) == unit_loop_failures(entry.table, 4)
