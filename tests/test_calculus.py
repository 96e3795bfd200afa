import random
from fractions import Fraction as F

import pytest

import laytrop as lt
from conftest import linear_product, rand_poly

sc = lt.scalar
P = lt.parse_poly


def test_derivative_examples():
    assert lt.derivative(P("x^2 + 3:1*x + 5:1"), lt.NAT) == lt.poly(
        {1: sc(0, 2), 0: sc(3, 1)}
    )
    assert lt.derivative(P("5:1"), lt.NAT) == lt.zero_poly()
    f = lt.p_mul(P("x + 2:1"), P("x + 1:1"), lt.NAT)
    der = lt.derivative(f, lt.NAT)
    assert der == lt.poly({1: sc(0, 2), 0: sc(2, 1)})
    # and it factors as (<x>^2 + 2): check by evaluation-free expansion
    assert der == lt.poly({1: lt.LayeredScalar(F(0), F(2)), 0: sc(2, 1)})


def test_derivative_normalizes_to_essential_form():
    # the inessential middle monomial must not leak into the derivative
    f = P("x^2 + 1:1*x + 3:1")
    assert lt.derivative(f, lt.NAT) == lt.derivative(P("x^2 + 3:1"), lt.NAT)


def test_antiderivative():
    assert lt.antiderivative(lt.poly({1: sc(3, 2)}), lt.POSQ) == lt.poly({2: sc(3, 1)})
    with pytest.raises(lt.LayerNotDivisible):
        lt.antiderivative(lt.poly({2: sc(3, 1)}), lt.NAT)
    rng = random.Random(3)
    for _ in range(100):
        exp = rng.randint(0, 5)
        mono = lt.poly({exp: lt.LayeredScalar(F(rng.randint(-9, 9)), F(rng.randint(1, 9), rng.randint(1, 9)))})
        assert lt.derivative(lt.antiderivative(mono, lt.POSQ), lt.POSQ) == mono


def test_discriminant_examples():
    f = lt.p_mul(P("x + 2:1"), P("x + 1:1"), lt.POSQ)
    assert lt.discriminant(f, lt.POSQ).layer == 3
    assert lt.discriminant(P("x + 7:1"), lt.NAT) == lt.ONE  # constant-g branch
    double = lt.p_pow(P("x + 2:1"), 2, lt.POSQ)
    assert lt.discriminant(double, lt.POSQ).layer != 3


def test_is_separable():
    assert lt.is_separable(P("x^2 + 2:1*x + 3:1"), lt.POSQ)
    cubic = linear_product((1, 5, 11), lt.POSQ)
    assert lt.discriminant(cubic, lt.POSQ).layer == lt.separable_sort(3) == 15
    assert lt.is_separable(cubic, lt.POSQ)
    assert not lt.is_separable(lt.p_pow(P("x + 2:1"), 2, lt.POSQ), lt.POSQ)
    assert not lt.is_separable(P("x^2"), lt.POSQ)  # BOTTOM: a repeated root at -inf
    assert lt.is_separable(P("x^2 + 0:1*x"), lt.POSQ)
    with pytest.raises(lt.PreconditionViolated):
        lt.is_separable(P("x^2 + 2:1*x + 3:1"), lt.NAT)
    with pytest.raises(lt.PreconditionViolated):
        lt.is_separable(P("x + 2:1"), lt.POSQ)
    with pytest.raises(lt.PreconditionViolated):
        lt.is_separable(P("x^2 + 2:2*x + 3:1"), lt.POSQ)


def test_separable_sort_constants():
    # frozen from direct resultant evaluation; root-independence is the
    # substance and is asserted separately below
    assert [lt.separable_sort(m) for m in range(2, 6)] == [3, 15, 105, 945]


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ, lt.truncated(3)])
def test_formal_derivative_sum_rule(sort):
    rng = random.Random(7)
    for _ in range(150):
        f = rand_poly(rng, sort, max_deg=4)
        g = rand_poly(rng, sort, max_deg=4)
        assert lt.formal_derivative(lt.p_add(f, g, sort), sort) == lt.p_add(
            lt.formal_derivative(f, sort), lt.formal_derivative(g, sort), sort
        )


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ, lt.truncated(3)])
def test_formal_derivative_product_rule(sort):
    rng = random.Random(11)
    for _ in range(150):
        f = rand_poly(rng, sort, max_deg=4)
        g = rand_poly(rng, sort, max_deg=4)
        lhs = lt.formal_derivative(lt.p_mul(f, g, sort), sort)
        rhs = lt.p_add(
            lt.p_mul(lt.formal_derivative(f, sort), g, sort),
            lt.p_mul(f, lt.formal_derivative(g, sort), sort),
            sort,
        )
        assert lhs == rhs


def test_derivative_of_separable_product_form():
    # derivative of prod (x + a_k) equals prod over k >= 2 of
    # (<x>^{k/(k-1)} + a_k) with the roots in ascending order
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(2, 5)
        roots = sorted(rng.sample(range(-40, 40), m))
        f = linear_product(roots, lt.POSQ)
        expect = lt.monomial(0, lt.ONE)
        for k in range(2, m + 1):
            factor = lt.poly(
                {1: lt.LayeredScalar(F(0), F(k, k - 1)), 0: sc(roots[k - 1], 1)}
            )
            expect = lt.p_mul(expect, factor, lt.POSQ)
        assert lt.derivative(f, lt.POSQ) == expect


def test_derivative_of_separable_is_separable():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(2, 5)
        f = linear_product(sorted(rng.sample(range(-40, 40), m)), lt.POSQ)
        factors = lt.separable_factor(lt.derivative(f, lt.POSQ), lt.POSQ)
        assert len(factors) == m - 1


def test_discriminant_layer_is_root_independent():
    rng = random.Random(19)
    for m in range(2, 6):
        layers = set()
        for _ in range(15):
            f = linear_product(sorted(rng.sample(range(1, 200), m)), lt.POSQ)
            layers.add(lt.discriminant(f, lt.POSQ).layer)
        assert layers == {lt.separable_sort(m)}


def test_discriminant_layers_pinned_to_degree_seven():
    # (2m - 1)!! for m = 6, 7, from three seeded separable polynomials each
    assert [lt.separable_sort(m) for m in (6, 7)] == [10395, 135135]
    rng = random.Random(23)
    for m, want in ((6, 10395), (7, 135135)):
        for _ in range(3):
            f = linear_product(sorted(rng.sample(range(1, 200), m)), lt.POSQ)
            assert lt.discriminant(f, lt.POSQ).layer == want
