"""Expression parser for the command-line polynomial grammar."""

import pytest

from groupdet import ParseError, bivariate_yz, parse_poly, univariate


def test_basic_sum():
    assert parse_poly("x^5+x^4-1") == {(5, 0, 0): 1, (4, 0, 0): 1,
                                       (0, 0, 0): -1}


def test_mixed_term_with_star():
    assert parse_poly("y^2*z - 3") == {(0, 2, 1): 1, (0, 0, 0): -3}


def test_juxtaposition_multiplies():
    assert parse_poly("2xy") == {(1, 1, 0): 2}
    assert parse_poly("2 x y") == {(1, 1, 0): 2}
    assert parse_poly("x x") == {(2, 0, 0): 1}


def test_negative_exponents():
    assert parse_poly("x^-2") == {(-2, 0, 0): 1}
    assert parse_poly("3y^-1z^2") == {(0, -1, 2): 3}


def test_leading_sign_and_cancellation():
    assert parse_poly("-x + 2") == {(1, 0, 0): -1, (0, 0, 0): 2}
    assert parse_poly("+x") == {(1, 0, 0): 1}
    assert parse_poly("x - x") == {}
    assert parse_poly("x + x") == {(1, 0, 0): 2}


def test_integer_products():
    assert parse_poly("2*3x") == {(1, 0, 0): 6}
    assert parse_poly("0x + 5") == {(0, 0, 0): 5}


def test_whitespace_insensitive():
    assert parse_poly(" x ^ 2 -  1 ") == parse_poly("x^2-1")


@pytest.mark.parametrize("text,needle", [
    ("x + q", "'q'"),
    ("x^", "exponent"),
    ("", "expected a term"),
    ("x +", "expected a term"),
    ("x * +", "factor"),
    ("^2", "expected a term"),
])
def test_errors_name_the_token(text, needle):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert needle in str(exc.value)


def test_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x^2 + w")
    assert "position 6" in str(exc.value)


def test_univariate_projection():
    assert univariate(parse_poly("x^2 - 2x + 7"), "x") == {2: 1, 1: -2, 0: 7}
    assert univariate(parse_poly("y^-1 + 4"), "y") == {-1: 1, 0: 4}
    with pytest.raises(ParseError) as exc:
        univariate(parse_poly("x + y"), "x")
    assert "'y'" in str(exc.value)


def test_bivariate_projection():
    assert bivariate_yz(parse_poly("y z + 3z^2 - 1")) == \
        {(1, 1): 1, (0, 2): 3, (0, 0): -1}
    with pytest.raises(ParseError):
        bivariate_yz(parse_poly("x + y"))


def test_constants_project_everywhere():
    assert univariate(parse_poly("7"), "x") == {0: 7}
    assert bivariate_yz(parse_poly("7")) == {(0, 0): 7}
