"""Every word-taking entry point matches letters by name: a word built over
another Alphabet object with the same names (here in another order, so
the letter ids differ) gives the same answer as the native word, and a
name outside the expected alphabet raises LetterNotInAlphabet."""

import pytest

from garnorm import (
    Alphabet,
    LetterNotInAlphabet,
    bounded_equal,
    build_mealy,
    build_thurston,
    distinguishing_word,
    gallery,
    is_normal,
    nbar_apply,
    normalize,
    padding_normal_form,
    run,
    run_word,
    thurston_normalize,
)

plactic2 = gallery("plactic2").table
mealy = build_mealy(plactic2)
sweeper = build_thurston(plactic2)
div3 = gallery("div3").machine
bs10 = gallery("bs10").presentation[0]


def over(alphabet: Alphabet, text: str, extra: tuple = ()):
    """``text`` as a word over a fresh alphabet: the names of ``alphabet``
    reversed, plus ``extra``."""
    return Alphabet(tuple(reversed(alphabet.names())) + extra).word(text)


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
    ]


@pytest.mark.parametrize("name, call", cases(), ids=[c[0] for c in cases()])
def test_foreign_alphabet_with_same_names_is_accepted(name, call):
    native = call(lambda alphabet, text: alphabet.word(text))
    assert call(over) == native


@pytest.mark.parametrize("name, call", cases(), ids=[c[0] for c in cases()])
def test_unknown_name_raises_letter_not_in_alphabet(name, call):
    def with_stranger(alphabet, text):
        return over(alphabet, text + " zz", ("zz",))

    with pytest.raises(LetterNotInAlphabet):
        call(with_stranger)
