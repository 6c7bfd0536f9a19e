"""Expression grammar and the canonical printer round trip."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_element
from weyl1 import H, ONE, X, Y, ZERO, WeylElement, parse, print_element, rat
from weyl1.parsing import MAX_EXPONENT, MAX_NESTING, ParseError


def test_commutator_bracket():
    assert print_element(parse("[Y,X]")) == "1"
    assert parse("[X,Y]") == -ONE
    assert parse("[[Y,X],X]") == ZERO


def test_relation_forced_products():
    assert print_element(parse("X*Y")) == "-1 + Y*X"
    assert parse("H") == Y * X
    assert parse("H^2 - Y^2*X^2") == -H  # y^2x^2 = h(h+1)


def test_precedence_and_associativity():
    assert parse("Y+X^2*X") == Y + X**3
    assert parse("X*Y*X") == (X * Y) * X
    assert parse("2*X+3*X") == 5 * X
    assert parse("(X+Y)^2") == (X + Y) ** 2
    assert parse("X - Y - Y") == X - 2 * Y


def test_rationals_and_unary_minus():
    assert parse("3/4*X") == rat(3, 4) * X
    assert parse("-X") == -X
    assert parse("-1 + Y*X") == H - 1
    assert parse("0") == ZERO
    assert parse("2/4") == rat(1, 2) * ONE
    # a +/- chain is one signed sum, its leading minus the first sign
    assert parse("-X^2") == -(X**2)
    assert parse("-X + Y - H") == -X + Y - H
    assert parse("-2/3*X^2 + Y - 1/2") == -rat(2, 3) * X**2 + Y - rat(1, 2)
    assert parse("X - X") == ZERO and parse("-0") == ZERO
    assert parse("-(X - Y) - (-1)") == Y - X + 1
    assert parse("[X, -Y + X] - (-X^2)") == X**2 + 1


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("X Y")
    with pytest.raises(ParseError):
        parse("2X")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse("X + ?")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("X +")
    with pytest.raises(ParseError):
        parse("(X")
    with pytest.raises(ParseError):
        parse("[X Y]")
    with pytest.raises(ParseError):
        parse("1/0")


DIGITS = sys.get_int_max_str_digits()  # 4 300 unless the environment sets it


@pytest.mark.parametrize(
    "text,pos,message",
    [("1" * 5000, 0, f"numeral of 5000 digits exceeds the limit {DIGITS}"),
     ("X - 2/" + "1" * 5000, 6, f"numeral of 5000 digits exceeds the limit {DIGITS}"),
     ("X^" + "1" * 5000, 2, f"exponent of 5000 digits exceeds the limit {MAX_EXPONENT}")],
    ids=["numeral", "denominator", "exponent"],
)
def test_a_numeral_longer_than_int_converts_is_a_parse_error(text, pos, message):
    # int() refuses the digit run with a plain ValueError
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos
    assert str(err.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize("text,pos", [("X^²", 2), ("X^３", 2), ("٢*Y", 0), ("1٣*X", 1)])
def test_a_non_ascii_digit_is_an_unexpected_character(text, pos):
    # str.isdigit() and int() accept these; element documents do not
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos
    assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"


@pytest.mark.parametrize(
    "text,pos",
    [("X\u3000+\x1cY", 1), ("X +\x1cY", 3), ("X\xa0+ Y", 1), ("X\x0b+ Y", 1),
     ("X\f", 1), ("\u2028X", 0), ("X\x85", 1)],
)
def test_a_non_ascii_blank_is_an_unexpected_character(text, pos):
    # str.isspace() accepts these; only space, tab, CR and LF separate tokens
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos
    assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"


def test_ascii_blanks_separate_tokens():
    assert parse(" X\t+\r\nY \n") == X + Y
    assert parse("\t1 /\r2 * [ Y ,\nX ]") == parse("1/2*[Y,X]")


def test_exponent_guard():
    with pytest.raises(ParseError):
        parse(f"X^{MAX_EXPONENT + 1}")
    assert parse("X^0") == ONE


def test_nesting_guard():
    # the limit itself parses, in both bracket kinds, one more level does not
    assert parse("(" * MAX_NESTING + "X" + ")" * MAX_NESTING) == X
    assert parse("[X," * (MAX_NESTING - 1) + "[Y,X]" + "]" * (MAX_NESTING - 1)).is_zero()
    with pytest.raises(ParseError, match="nesting"):
        parse("(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1))
    with pytest.raises(ParseError, match="nesting"):
        parse("[X," * (MAX_NESTING + 1) + "Y" + "]" * (MAX_NESTING + 1))


@pytest.mark.parametrize("text", ["(X+Y)^4096 +", "(X+Y)^4096)"])
def test_the_whole_text_parses_before_anything_is_evaluated(monkeypatch, text):
    calls = []

    def counted(name):
        original = getattr(WeylElement, name)

        def method(a, b):
            calls.append(name)
            return original(a, b)
        return method

    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(WeylElement, name, counted(name))
    with pytest.raises(ParseError):
        parse(text)
    assert calls == []
    assert parse("(X+Y)^2") == (X + Y) ** 2 and calls  # the counters do count


def test_long_chains_evaluate():
    assert parse(" - ".join(["X"] * 3001)) == -2999 * X
    assert parse("*".join(["X"] * 3000)) == X**3000


def test_print_examples():
    assert print_element(ZERO) == "0"
    assert print_element(H) == "Y*X"
    assert print_element(-X + rat(1, 2) * ONE) == "1/2 - X"
    assert print_element(rat(-3, 4) * Y**2) == "-3/4*Y^2"


def test_roundtrip_random_elements():
    rng = random.Random(113)
    for _ in range(120):
        a = random_element(rng, max_degree=8, max_terms=6, max_num=1000, max_den=1000)
        assert parse(print_element(a)) == a



_COEFFS = st.builds(
    Fraction, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30)
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)), _COEFFS, max_size=8))
def test_print_then_parse_is_the_identity(terms):
    a = WeylElement(terms)
    assert parse(print_element(a)) == a


_SMALL = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _COEFFS, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_SMALL, _SMALL, _SMALL)
def test_signed_sums_of_printed_elements(ta, tb, tc):
    a, b, c = WeylElement(ta), WeylElement(tb), WeylElement(tc)
    fa, fb, fc = map(print_element, (a, b, c))
    assert parse(f"-({fa}) + ({fb}) - ({fc})") == -a + b - c
    assert parse(f"{fa} - ({fb})") == a - b
