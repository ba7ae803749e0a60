"""A machine is its pair table: properties that hold whatever the table's
encoding, checked on random machines and random idempotent tables.

The dual is an involution, the machine file format round-trips, a run is
a letter-by-letter walk of the public transitions, the Mealy machine of a
table is the dual of its sweeping transducer, and sweeping a word with
that transducer gives the table's own normal form.  A sweep that gives a
word back unchanged has not always normalised it.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from garnorm import (
    Alphabet,
    BudgetExhausted,
    GarnormError,
    NormTable,
    NotNormalising,
    Word,
    build_mealy,
    build_thurston,
    dual,
    normalize,
    run,
    thurston_normalize,
)
from garnorm.shell import emit_machine, parse_machine
from test_certificate import pair_maps
from test_reduction import machines_and_pairs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(machines_and_pairs(), st.lists(st.integers(0, 2), max_size=6))
def test_machine_encoding_properties(case, letters):
    m, u, _ = case
    assert dual(dual(m)) == m
    assert parse_machine(emit_machine(m)) == m
    step = {(q, i): (nq, o) for q, i, nq, o in m.transitions()}
    w = Word(m.alphabet.symbols[j % len(m.alphabet)] for j in letters)
    q, out = u[0], []
    for i in w:
        q, o = step[q, i]
        out.append(o)
    assert run(m, u[0], w) == (Word(out), q)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair_maps(), st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_table_encoding_properties(table, letters):
    assume(not table.idempotence_failures())
    thurston = build_thurston(table)
    assert build_mealy(table) == dual(thurston)
    w = Word(table.alphabet.symbols[j % len(table.alphabet)] for j in letters)
    try:
        swept = thurston_normalize(thurston, w)
    except GarnormError:
        return
    assert normalize(table, w) == swept


def test_a_sweep_that_gives_the_word_back_need_not_normalise():
    # idempotent: (a b) -> (a x) carries x, then (x e) -> (b e) puts b back,
    # so every sweep of a b e returns a b e while a b is not fixed
    al = Alphabet(("a", "b", "e", "x"))
    t = NormTable(al, [(("a", "b"), ("a", "x")), (("x", "e"), ("b", "e"))])
    w = al.word("a b e")
    with pytest.raises(NotNormalising) as swept:
        thurston_normalize(build_thurston(t), w)
    assert not isinstance(swept.value, BudgetExhausted)
    with pytest.raises(NotNormalising):
        normalize(t, w)
