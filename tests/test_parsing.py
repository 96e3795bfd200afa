import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laytrop as lt

sc = lt.scalar


def test_parse_poly_examples():
    f = lt.parse_poly("x^2 + 2:1*x + 3:1")
    assert f == lt.poly({2: lt.ONE, 1: sc(2, 1), 0: sc(3, 1)})
    c = lt.parse_poly("5:inf")
    assert c == lt.poly({0: lt.LayeredScalar(F(5), lt.INF)})
    with pytest.raises(lt.ParseError):
        lt.parse_poly("x^2 ++ 3")


def test_parse_scalar_forms():
    assert lt.parse_scalar("5:2") == sc(5, 2)
    assert lt.parse_scalar("3/2:inf") == lt.LayeredScalar(F(3, 2), lt.INF)
    assert lt.parse_scalar("-3:1/2") == sc(-3, F(1, 2))
    with pytest.raises(lt.ParseError):
        lt.parse_scalar("5")
    with pytest.raises(lt.ParseError):
        lt.parse_scalar("5:2 junk")


@pytest.mark.parametrize("text", ["1/0:1", "1:3/00", "-2/0:inf"])
def test_zero_denominator_is_a_parse_error(text):
    with pytest.raises(lt.ParseError, match="zero denominator"):
        lt.parse_scalar(text)


def test_literal_length_is_bounded():
    longest = "9" * lt.parsing.MAX_LITERAL_DIGITS
    assert lt.parse_scalar(f"{longest}:1/{longest}") == sc(int(longest), F(1, int(longest)))
    too_long = [
        (lt.parse_scalar, f"{longest}9:1"),
        (lt.parse_scalar, f"1:1/{longest}9"),
        (lt.parse_poly, f"x{longest}9"),
    ]
    for parse, text in too_long:
        with pytest.raises(lt.ParseError, match="longer than"):
            parse(text)


def test_variable_index_is_bounded():
    top = lt.parsing.MAX_VARIABLES
    assert lt.parse_poly(f"x{top} + 0:1").arity == top
    for text in (f"x{top + 1}", f"x1 + 0:1*x{top + 1}^2", "x3000000"):
        with pytest.raises(lt.ParseError, match="variable index"):
            lt.parse_poly(text)


def test_format_scalar():
    assert lt.format_scalar(sc(16, 2)) == "16:2"
    assert lt.format_scalar(lt.LayeredScalar(F(3, 2), lt.INF)) == "3/2:inf"
    assert lt.format_scalar(sc(-3, F(1, 2))) == "-3:1/2"


def test_parse_multivariate():
    f = lt.parse_poly("x1*x2 + 1:3*x1 + 1:1*x2 + 0:1")
    assert isinstance(f, lt.MultiPoly)
    assert f.arity == 2
    assert dict(f.terms())[(F(1), F(1))] == lt.ONE
    g = lt.parse_poly("x1^1/2 + 2:1")
    assert dict(g.terms())[(F(1, 2),)] == lt.ONE
    h = lt.parse_poly("x2^-1")
    assert h.arity == 2
    assert dict(h.terms())[(F(0), F(-1))] == lt.ONE
    with pytest.raises(lt.ParseError):
        lt.parse_poly("x + x1")
    assert lt.to_multipoly(f, 2) is f  # a MultiPoly is returned as it is


def test_parse_merges_duplicate_exponents():
    f = lt.parse_poly("2:1*x + 2:1*x", lt.NAT)
    assert f == lt.poly({1: sc(2, 2)})


def test_parse_star_and_power_optional():
    assert lt.parse_poly("2:1x") == lt.parse_poly("2:1*x^1")
    assert lt.parse_poly("x*x") == lt.parse_poly("x^2")


def test_format_poly_univar():
    f = lt.poly({2: lt.ONE, 1: sc(2, 1), 0: sc(3, 1)})
    assert lt.format_poly(f) == "x^2 + 2:1*x + 3:1"
    assert lt.format_poly(lt.zero_poly()) == "0"
    assert lt.format_poly(lt.poly({0: sc(-3, F(1, 2))})) == "-3:1/2"


def test_format_poly_multivar_round_trip():
    text = "x1*x2 + 1:3*x1 + 1:1*x2 + 0:1"
    f = lt.parse_poly(text)
    assert lt.parse_poly(lt.format_poly(f)) == f


@st.composite
def scalars(draw):
    num = draw(st.integers(-10**6, 10**6))
    den = draw(st.integers(1, 10**3))
    layer = draw(
        st.one_of(
            st.just(lt.INF),
            st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 100)),
        )
    )
    return lt.LayeredScalar(F(num, den), layer)


@given(scalars())
@settings(max_examples=300, deadline=None)
def test_scalar_round_trip(x):
    assert lt.parse_scalar(lt.format_scalar(x)) == x


@given(st.dictionaries(st.integers(0, 9), scalars(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_poly_round_trip(coeffs):
    f = lt.poly(coeffs)
    assert lt.parse_poly(lt.format_poly(f)) == f


def test_multipoly_round_trip_random():
    rng = random.Random(13)
    for _ in range(200):
        arity = rng.randint(1, 3)
        monos = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(
                F(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(arity)
            )
            monos[exps] = lt.LayeredScalar(
                F(rng.randint(-50, 50), rng.randint(1, 6)),
                F(rng.randint(1, 9), rng.randint(1, 3)),
            )
        f = lt.multipoly(arity, monos)
        back = lt.parse_poly(lt.format_poly(f))
        if isinstance(back, lt.LayeredPoly):
            # arity-1 polys with integer exponents re-parse as univariate
            back = lt.to_multipoly(back, arity)
        if back.arity < arity:
            back = lt.multipoly(
                arity,
                {e + (F(0),) * (arity - back.arity): c for e, c in back.terms()},
            )
        assert back == f
