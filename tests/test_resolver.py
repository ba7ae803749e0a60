"""Every entry point that takes a word, a letter, a state or a unit matches
letters by name: a word or a symbol taken from another Alphabet object with
the same names (here in another order, so the letter ids differ) gives the
same answer as the native one, and a name outside the expected alphabet
raises LetterNotInAlphabet, an AlphabetError."""

import pytest

from garnorm import (
    Alphabet,
    AlphabetError,
    FamilyElement,
    LetterNotInAlphabet,
    NormTable,
    Word,
    bounded_equal,
    build_mealy,
    build_thurston,
    check_family_closure,
    distinguishing_word,
    gallery,
    greedy_table,
    is_normal,
    minimize,
    nbar_apply,
    normalize,
    numeration_iterate,
    padding_normal_form,
    right_divisors,
    run,
    run_word,
    thurston_normalize,
)

plactic2 = gallery("plactic2").table
mealy = build_mealy(plactic2)
sweeper = build_thurston(plactic2)
div3 = gallery("div3").machine
mul2 = gallery("mul2").machine
bs10 = gallery("bs10").presentation[0]


def over(alphabet: Alphabet, text: str, extra: tuple = ()):
    """``text`` as a word over a fresh alphabet: the names of ``alphabet``
    reversed, plus ``extra``."""
    return Alphabet(tuple(reversed(alphabet.names())) + extra).word(text)


def bs10_family(w):
    """The family {1, a, ba} of bs10, its representatives built by ``w``."""
    names = Alphabet(("1", "a", "ba"))
    reps = (Word(), w(bs10.atoms, "a"), w(bs10.atoms, "b a"))
    return tuple(FamilyElement(name, rep) for name, rep in zip(names, reps))


def closure_by_names(report):
    """A closure report with family elements as names and words as text."""
    return (
        [(f.name.name, str(p)) for f, p in report.missing_left_divisors],
        [(f.name.name, g.name.name, str(m)) for f, g, m in report.missing_left_mcms],
        report.unknown,
    )


def cases():
    """(name, call taking a word-builder) pairs; the builder maps
    (alphabet, text) to a word and each call uses it for every word."""
    table_al = plactic2.alphabet
    div3_word, div3_states = div3.alphabet.word("1 1 0"), div3.states.word("2 1")
    mealy_states, bs10_word = mealy.states.word("b a a"), bs10.atoms.word("a b")
    return [
        ("normalize", lambda w: normalize(plactic2, w(table_al, "b a ba a"))),
        ("is_normal", lambda w: is_normal(plactic2, w(table_al, "1 ba a"))),
        ("nbar_apply", lambda w: nbar_apply(plactic2, w(table_al, "a b a"), 2)),
        ("thurston_normalize", lambda w: thurston_normalize(sweeper, w(table_al, "b a ba a"))),
        ("run", lambda w: run(div3, "1", w(div3.alphabet, "1 0 1"))),
        ("run_word states", lambda w: run_word(div3, w(div3.states, "2 1"), div3_word)),
        ("run_word letters", lambda w: run_word(div3, div3_states, w(div3.alphabet, "1 1 0"))),
        ("distinguishing_word left",
         lambda w: distinguishing_word(mealy, w(mealy.states, "a b a"), mealy_states)),
        ("distinguishing_word right",
         lambda w: distinguishing_word(div3, div3_states, w(div3.states, "2"))),
        ("padding_normal_form",
         lambda w: padding_normal_form(mealy, "1", w(mealy.states, "b a ba"), 5)),
        ("bounded_equal left", lambda w: bounded_equal(bs10, w(bs10.atoms, "a b b"), bs10_word)),
        ("bounded_equal right", lambda w: bounded_equal(bs10, bs10_word, w(bs10.atoms, "a"))),
        ("greedy_table", lambda w: greedy_table(bs10, bs10_family(w))),
        ("right_divisors", lambda w: sorted(
            f.name.name for f in right_divisors(bs10, bs10.atoms.word("b a"), bs10_family(w)))),
        ("check_family_closure",
         lambda w: closure_by_names(check_family_closure(bs10, bs10_family(w)))),
    ]


@pytest.mark.parametrize("name, call", cases(), ids=[c[0] for c in cases()])
def test_foreign_alphabet_with_same_names_is_accepted(name, call):
    native = call(lambda alphabet, text: alphabet.word(text))
    assert call(over) == native


@pytest.mark.parametrize("name, call", cases(), ids=[c[0] for c in cases()])
def test_unknown_name_raises_letter_not_in_alphabet(name, call):
    def with_stranger(alphabet, text):
        return over(alphabet, text + " zz", ("zz",))

    with pytest.raises(LetterNotInAlphabet, match="^unknown symbol 'zz'$"):
        call(with_stranger)


def reordered(alphabet: Alphabet, name: str):
    """The symbol named ``name`` over a fresh alphabet, as in :func:`over`."""
    return over(alphabet, name)[0]


def single_cases():
    """(name, call taking a letter-resolver) pairs; the resolver maps
    (alphabet, name) to what the call passes as a letter, state or unit."""
    al = plactic2.alphabet
    rules = plactic2.rules()
    mealy_word, mul2_word = mealy.states.word("b a ba"), mul2.alphabet.word("12")

    family = gallery("bs10").presentation[1]
    family_names = Alphabet(f.name.name for f in family)

    def table_and_unit(s):
        table = NormTable(al, rules, unit=s(al, "1"))
        return table, table.unit

    return [
        ("NormTable.entry", lambda s: plactic2.entry(s(al, "b"), s(al, "a"))),
        ("NormTable.is_fixed", lambda s: (plactic2.is_fixed(s(al, "b"), s(al, "a")),
                                          plactic2.is_fixed(s(al, "a"), s(al, "b")))),
        ("NormTable rules",
         lambda s: NormTable(al, {(s(al, a.name), s(al, b.name)): (s(al, c.name), s(al, d.name))
                                  for (a, b), (c, d) in rules}, unit="1")),
        ("NormTable unit", table_and_unit),
        ("MealyMachine.next_state", lambda s: div3.next_state(s(div3.states, "1"),
                                                              s(div3.alphabet, "0"))),
        ("MealyMachine.output", lambda s: div3.output(s(div3.states, "1"),
                                                      s(div3.alphabet, "0"))),
        ("run state", lambda s: run(div3, s(div3.states, "1"), div3.alphabet.word("1 0 1"))),
        ("numeration_iterate start",
         lambda s: numeration_iterate(mul2, s(mul2.states, "0"), mul2_word, 6)),
        ("padding_normal_form unit",
         lambda s: padding_normal_form(mealy, s(mealy.alphabet, "1"), mealy_word, 5)),
        ("ActionClassPartition.class_of",
         lambda s: [minimize(div3).class_of(s(div3.states, x)) for x in "02"]),
        ("greedy_table unit", lambda s: greedy_table(bs10, family, s(family_names, "1"))),
    ]


SINGLE_IDS = [c[0] for c in single_cases()]


@pytest.mark.parametrize("name, call", single_cases(), ids=SINGLE_IDS)
def test_foreign_symbol_with_same_name_is_accepted(name, call):
    native = call(lambda alphabet, letter: alphabet[letter])
    assert call(reordered) == native
    assert call(lambda alphabet, letter: letter) == native


@pytest.mark.parametrize("stranger", ["zz", Alphabet(["zz"])["zz"]], ids=["name", "symbol"])
@pytest.mark.parametrize("name, call", single_cases(), ids=SINGLE_IDS)
def test_unknown_single_name_raises_letter_not_in_alphabet(name, call, stranger):
    with pytest.raises(LetterNotInAlphabet, match="^unknown symbol 'zz'$") as info:
        call(lambda alphabet, letter: stranger)
    assert isinstance(info.value, AlphabetError)


def test_alphabet_matches_symbols_by_name():
    al = plactic2.alphabet
    foreign = reordered(al, "ba")
    assert foreign != al["ba"] and foreign in al and al[foreign] is al["ba"]
    assert Alphabet(["zz"])["zz"] not in al and "zz" not in al
