import random
import sys
from fractions import Fraction as F

import pytest

import laytrop as lt
from conftest import ALL_SORTS, outcome, rand_layer

T4 = lt.truncated(4)


def test_layer_add_examples():
    assert lt.layer_add(2, 3, lt.NAT) == 5
    assert lt.layer_add(3, 3, T4) == 4  # capped at the truncation bound
    assert lt.layer_add(1, 1, lt.UNIT) == 1
    assert lt.layer_add(1, 1, lt.SUPER) == lt.INF


def test_layer_mul_examples():
    assert lt.layer_mul(F(1, 2), 4, lt.POSQ) == 2
    assert lt.layer_mul(1, lt.INF, lt.SUPER) == lt.INF
    assert lt.layer_mul(0, 7, lt.RAT) == 0
    assert lt.layer_mul(3, 2, T4) == 4


def test_layer_div_per_sort():
    assert lt.layer_div(1, 1, lt.UNIT) == 1
    assert lt.layer_div(lt.INF, 1, lt.SUPER) == lt.INF  # dividing by 1 keeps the layer
    assert lt.layer_div(1, 1, lt.SUPER) == 1
    for k in (1, lt.INF):
        with pytest.raises(lt.NonInvertibleLayer):
            lt.layer_div(k, lt.INF, lt.SUPER)
    with pytest.raises(lt.LayerNotDivisible):
        lt.layer_div(2, 1, T4)  # capping destroys cancellation
    assert lt.layer_div(6, 3, lt.NAT) == 2
    with pytest.raises(lt.LayerNotDivisible):
        lt.layer_div(3, 2, lt.NAT)
    assert lt.layer_div(3, 2, lt.POSQ) == F(3, 2)
    assert lt.layer_div(-3, 2, lt.RAT) == F(-3, 2)
    assert lt.layer_div(3, F(-1, 2), lt.RAT) == -6
    with pytest.raises(lt.InvalidLayer):
        lt.layer_div(2, 1, lt.UNIT)  # inputs are checked before dividing


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_layer_div_zero_dividend_and_divisor(sort):
    """x * l = 0 with l != 0 forces x = 0 in every sort; 0 divides nothing."""
    divisors = [l for l in (F(1), F(2), F(3), F(1, 2), F(-1), lt.INF) if lt.layer_valid(l, sort)]
    for l in divisors:
        x = lt.layer_div(0, l, sort)
        assert x == 0 and lt.layer_mul(x, l, sort) == 0
        with pytest.raises(lt.NonInvertibleLayer):
            lt.layer_div(l, 0, sort)
    with pytest.raises(lt.NonInvertibleLayer):
        lt.layer_div(0, 0, sort)


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_layer_div_returns_a_member(sort):
    """A quotient passes the sort's layer check, so the kernels that divide
    (the inverse lead of a primary decomposition) need not check it again."""
    layers = (0, 1, 2, F(1), F(2), F(3), F(1, 2), F(-1), F(-3, 2), lt.INF)
    valid = [l for l in layers if l == 0 or lt.layer_valid(l, sort)]
    quotients = 0
    for k in valid:
        for l in valid:
            try:
                x = lt.layer_div(k, l, sort)
            except (lt.NonInvertibleLayer, lt.LayerNotDivisible):
                continue
            quotients += 1
            assert lt.sorts.require_layer(x, sort) == x, (k, l)
    assert quotients >= 2 or sort.kind == "trunc"


def test_layer_cmp():
    assert lt.layer_cmp(2, 3) == -1
    assert lt.layer_cmp(lt.INF, 5) == 1
    assert lt.layer_cmp(1, 1) == 0


def test_invalid_layers_rejected():
    with pytest.raises(lt.InvalidLayer):
        lt.layer_add(F(1, 2), 1, lt.NAT)
    with pytest.raises(lt.InvalidLayer):
        lt.layer_mul(5, 1, T4)
    with pytest.raises(lt.InvalidLayer):
        lt.layer_add(2, 1, lt.SUPER)
    with pytest.raises(lt.InvalidLayer):
        lt.layer_add(-1, 1, lt.POSQ)


def test_zero_layer_is_formally_tolerated():
    # inessential full-form coefficients carry layer 0 under every sort
    assert lt.layer_add(0, 3, lt.NAT) == 3
    assert lt.layer_mul(0, 3, lt.NAT) == 0
    assert lt.layer_mul(0, 1, lt.UNIT) == 0
    assert lt.layer_add(0, lt.INF, lt.SUPER) == lt.INF
    assert lt.layer_mul(0, lt.INF, lt.SUPER) == lt.layer_mul(lt.INF, 0, lt.SUPER) == 0


def test_is_ghost_sort():
    assert lt.is_ghost_sort(3, 1, lt.NAT)
    assert lt.is_ghost_sort(lt.INF, lt.INF, lt.SUPER)  # self-ghost
    assert not lt.is_ghost_sort(1, 1, lt.NAT)
    assert lt.is_ghost_sort(1, 1, lt.UNIT)  # 1 is infinite under unit
    assert lt.is_ghost_sort(4, 4, T4)  # the cap is infinite


@pytest.mark.parametrize("sort", ALL_SORTS + [T4, lt.truncated(1)], ids=str)
def test_infinite_layer_per_sort(sort):
    """l + p = l for all positive p: 1 under unit, INF under super, the cap."""
    expected = {"unit": [1], "super": [lt.INF], "trunc": [sort.q]}.get(sort.kind, [])
    candidates = [0, 1, 2, 3, 4, F(1, 2), -1, lt.INF]
    assert [l for l in candidates if lt.infinite_layer(l, sort)] == expected


def test_truncate_layer():
    assert lt.truncate_layer(5, 2) == 2
    assert lt.truncate_layer(1, 2) == 1
    assert lt.truncate_layer(lt.INF, 3) == 3


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_layer_semiring_laws(sort):
    rng = random.Random(1234)
    for _ in range(300):
        k, l, m = (rand_layer(rng, sort) for _ in range(3))
        assert lt.layer_add(k, l, sort) == lt.layer_add(l, k, sort)
        assert lt.layer_mul(k, l, sort) == lt.layer_mul(l, k, sort)
        assert lt.layer_add(lt.layer_add(k, l, sort), m, sort) == lt.layer_add(
            k, lt.layer_add(l, m, sort), sort
        )
        assert lt.layer_mul(lt.layer_mul(k, l, sort), m, sort) == lt.layer_mul(
            k, lt.layer_mul(l, m, sort), sort
        )
        assert lt.layer_mul(k, lt.layer_add(l, m, sort), sort) == lt.layer_add(
            lt.layer_mul(k, l, sort), lt.layer_mul(k, m, sort), sort
        )


def test_truncation_is_a_homomorphism():
    rng = random.Random(99)
    q = 4
    tr = lt.truncated(q)
    for _ in range(500):
        k, l = F(rng.randint(1, 12)), F(rng.randint(1, 12))
        tk, tl = lt.truncate_layer(k, q), lt.truncate_layer(l, q)
        assert lt.truncate_layer(k + l, q) == lt.layer_add(tk, tl, tr)
        assert lt.truncate_layer(k * l, q) == lt.layer_mul(tk, tl, tr)


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ, lt.truncated(3)])
def test_monotonicity(sort):
    rng = random.Random(7)
    for _ in range(300):
        k, l, m = (rand_layer(rng, sort) for _ in range(3))
        if lt.layer_cmp(k, l) > 0:
            k, l = l, k
        assert lt.layer_cmp(lt.layer_add(k, m, sort), lt.layer_add(l, m, sort)) <= 0
        assert lt.layer_cmp(lt.layer_mul(k, m, sort), lt.layer_mul(l, m, sort)) <= 0


def test_nmul_ndiv_roundtrip():
    """Every n-fold sum has an n-fold quotient, the cap included."""
    rng = random.Random(3)
    for sort in [lt.NAT, lt.POSQ, lt.RAT, lt.truncated(4), lt.truncated(1), lt.UNIT, lt.SUPER]:
        for _ in range(200):
            l = rand_layer(rng, sort)
            n = rng.randint(1, 5)
            product = lt.layer_nmul(n, l, sort)
            half = lt.layer_ndiv(n, product, sort)
            assert lt.layer_nmul(n, half, sort) == product
    assert lt.layer_ndiv(3, 4, T4) == 4  # 3 * 4 collapses to 4
    assert lt.layer_ndiv(2, 4, T4) == 2  # l / n first, where it is a layer
    with pytest.raises(lt.LayerNotDivisible):
        lt.layer_ndiv(3, F(1), lt.NAT)
    with pytest.raises(lt.LayerNotDivisible):
        lt.layer_ndiv(3, 2, T4)
    with pytest.raises(lt.LayerNotDivisible):
        lt.layer_ndiv(2, 1, lt.SUPER)
    for op in (lt.layer_nmul, lt.layer_ndiv):
        with pytest.raises(lt.InvalidLayer):
            op(0, 1, lt.NAT)


def _stepwise_pow(l, n, sort):
    out = F(1)
    for _ in range(n):
        out = lt.layer_mul(out, l, sort)
    return out


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_layer_pow_int_matches_stepwise_product(sort):
    layers = [F(0), F(1), F(2), F(3), F(4), F(1, 2), F(-3, 2), lt.INF]  # caps: 1, 3, INF
    for l in layers:
        for n in range(13):
            want = outcome(_stepwise_pow, l, n, sort)
            assert outcome(lt.layer_pow_int, l, n, sort) == want
            assert outcome(lt.layer_pow_int, l, F(n), sort) == want  # an integral Fraction too
        assert lt.layer_pow_int(l, 0, sort) == 1  # the empty product, valid layer or not


def test_layer_pow_int_under_a_long_truncation():
    """The exponent clamp from the bit lengths of q and l must leave the
    power equal to the exact power, capped at q."""
    q = 3**80  # 127 bits
    sort = lt.truncated(q)
    rng = random.Random(8)
    layers = [F(0), F(1), F(2), F(3), F(q - 1), F(q)] + [F(rng.randint(2, 2**40)) for _ in range(10)]
    for l in layers:
        for n in range(0, 140, 3):
            assert lt.layer_pow_int(l, n, sort) == min(l**n, q)
    assert lt.layer_pow_int(2, 10**18, sort) == q


def test_layer_pow_int_is_bounded():
    for sort in (lt.UNIT, lt.SUPER, T4):  # clamped exponent: constant time
        assert lt.layer_pow_int(1, 10**18, sort) == 1
    assert lt.layer_pow_int(3, 10**18, T4) == 4
    assert lt.layer_pow_int(lt.INF, 10**18, lt.SUPER) == lt.INF
    assert lt.layer_pow_int(-1, 10**18 + 1, lt.RAT) == -1
    bits = lt.sorts.MAX_LAYER_BITS
    assert lt.layer_pow_int(2, bits - 1, lt.NAT) == 2 ** (bits - 1)
    for l, n in [(2, bits), (2, 10**18), (F(1, 3), 10**18), (3, 10**18)]:
        with pytest.raises(lt.OutOfRange):
            lt.layer_pow_int(l, n, lt.POSQ)
    # 3**n has bit length floor(n log2 3) + 1: the largest n that fits is accepted
    n = next(n for n in range(bits, 0, -1) if (3**n).bit_length() <= bits)
    assert lt.layer_pow_int(3, n, lt.NAT) == 3**n
    with pytest.raises(lt.OutOfRange):
        lt.layer_pow_int(3, n + 1, lt.NAT)
    with pytest.raises(lt.OutOfRange):
        lt.ls_pow(lt.scalar(0, 2), -(10**18), lt.POSQ)


POW_SORTS = [lt.UNIT, lt.SUPER, lt.truncated(1), lt.truncated(3), T4, lt.NAT, lt.POSQ, lt.RAT]


@pytest.mark.parametrize("sort", POW_SORTS, ids=str)
def test_sort_pow_with_negative_and_fractional_exponents(sort):
    """The exact power, uncollapsed, when it is 0 or a member; else InvalidLayer."""
    sympy = pytest.importorskip("sympy")

    def exact(l, n):
        if l is lt.INF:  # the infinite layer has no inverse
            return lt.INF if n > 0 else None
        out = sympy.Rational(l.numerator, l.denominator) ** sympy.Rational(n.numerator, n.denominator)
        return F(int(out.p), int(out.q)) if out.is_Rational else None

    layers = [F(0), F(1), F(2), F(4), F(8), F(9), F(1, 4), F(4, 9), F(-1), F(-8), lt.INF]
    exponents = [F(-3), F(-2), F(-1), F(1, 2), F(-1, 2), F(3, 2), F(2, 3), F(1, 3), F(-3, 2)]
    for l in layers:
        for n in exponents:
            want = exact(l, n)
            if want is not None and (want == 0 or lt.layer_valid(want, sort)):
                assert sort.pow(l, n) == want, (l, n)
            else:
                with pytest.raises(lt.InvalidLayer):
                    sort.pow(l, n)
            if n.denominator == 1:  # an integral exponent as an int takes the same path
                assert outcome(sort.pow, l, int(n)) == outcome(sort.pow, l, n)


def test_format_refuses_numbers_too_long_to_print():
    assert lt.format_layer(F(10**100, 3)) == f"{10**100}/3"
    assert (lt.format_value(3), lt.format_value(0.5)) == ("3", "1/2")  # an int and a float are converted
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    with pytest.raises(lt.OutOfRange):
        lt.format_layer(F(10) ** limit)


def test_parse_format_sort():
    for text in ["unit", "super", "trunc:5", "nat", "posq", "q"]:
        assert str(lt.parse_sort(text)) == text
    for text in ["bogus", "trunc:1_0", "trunc: 4", "trunc:+4", "trunc:\u0664", "trunc:", "trunc:0"]:
        with pytest.raises(lt.InvalidLayer):
            lt.parse_sort(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # a bound with more digits than int() converts
        with pytest.raises(lt.InvalidLayer):
            lt.parse_sort("trunc:" + "9" * (limit + 1))
