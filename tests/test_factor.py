import math
import random
from fractions import Fraction as F

import pytest

import laytrop as lt
from conftest import ALL_SORTS, linear_product, outcome, probe_points, rand_poly, rand_primary
from laytrop import factor

sc = lt.scalar
P = lt.parse_poly


def test_is_primary():
    assert lt.is_primary(P("x^2 + 2:1*x + 4:1")) == 2
    assert lt.is_primary(P("x^2 + 2:1*x + 3:1")) is None
    assert lt.is_primary(lt.poly({1: lt.ONE, 0: sc(F(7, 2), 3)})) == F(7, 2)
    assert lt.is_primary(P("x^2 + 4:1")) == 2
    assert lt.is_primary(P("x^2 + 2:1*x")) is None  # divisible by x
    with pytest.raises(lt.NotMonic):
        lt.is_primary(P("5:1*x + 3:1"))


def test_primary_decomposition_two_linear():
    d = lt.primary_decomposition(P("x^2 + 2:1*x + 3:1"), lt.POSQ)
    assert d.unit == lt.ONE
    assert [(pf.root_value, pf.degree) for pf in d.factors] == [(2, 1), (1, 1)]
    assert d.factors[0].poly == P("x + 2:1")
    assert d.factors[1].poly == P("x + 1:1")
    assert d.product(lt.POSQ) == lt.full_form(P("x^2 + 2:1*x + 3:1"))


def test_primary_decomposition_fractional_layer():
    # <b>^2 middle, <ab>^1 constant with a=1 < b=3 splits with layer 1/2
    f = lt.poly({2: lt.ONE, 1: sc(3, 2), 0: sc(4, 1)})
    d = lt.primary_decomposition(f, lt.POSQ)
    assert [pf.root_value for pf in d.factors] == [3, 1]
    assert d.factors[0].poly == lt.poly({1: lt.ONE, 0: sc(3, 2)})
    assert d.factors[1].poly == lt.poly({1: lt.ONE, 0: sc(1, F(1, 2))})


def test_primary_decomposition_primary_input():
    f = P("x^2 + 2:1*x + 4:1")
    d = lt.primary_decomposition(f, lt.POSQ)
    assert d.unit == lt.ONE
    assert len(d.factors) == 1
    assert d.factors[0].root_value == 2
    assert d.factors[0].degree == 2
    assert d.factors[0].poly == lt.full_form(f)


def test_primary_decomposition_lambda_power_and_unit():
    f = lt.poly({3: sc(1, 2), 2: sc(3, 2), 1: sc(4, 2)})
    d = lt.primary_decomposition(f, lt.POSQ)
    assert d.lambda_power == 1
    assert d.unit == sc(1, 2)
    assert d.product(lt.POSQ) == lt.full_form(f)


def test_primary_decomposition_promotes_naturals():
    f = lt.poly({2: lt.ONE, 1: sc(3, 2), 0: sc(4, 1)})
    d = lt.primary_decomposition(f, lt.NAT)
    assert d.promoted_sort
    assert d.factors[1].poly.coeffs[0].layer == F(1, 2)
    d2 = lt.primary_decomposition(P("x^2 + 2:1*x + 3:1"), lt.NAT)
    assert not d2.promoted_sort


def test_separable_factor():
    fs = lt.separable_factor(P("x^2 + 2:1*x + 3:1"), lt.NAT)
    assert fs == [P("x + 2:1"), P("x + 1:1")]
    fs = lt.separable_factor(
        lt.poly({2: lt.ONE, 1: sc(2, 3), 0: sc(3, 6)}), lt.POSQ
    )
    assert fs == [lt.poly({1: lt.ONE, 0: sc(2, 3)}), lt.poly({1: lt.ONE, 0: sc(1, 2)})]
    with pytest.raises(lt.NotSeparable):
        lt.separable_factor(lt.p_pow(P("x + 2:1"), 2, lt.NAT), lt.NAT)
    with pytest.raises(lt.NotSeparable):
        lt.separable_factor(lt.zero_poly(), lt.NAT)


def test_separable_factor_reexpands():
    rng = random.Random(3)
    for _ in range(100):
        roots = sorted(rng.sample(range(-30, 30), rng.randint(2, 5)))
        f = linear_product(roots, lt.POSQ)
        factors = lt.separable_factor(f, lt.POSQ)
        assert [g.coeffs[0].value for g in factors] == sorted(roots, reverse=True)
        back = lt.monomial(0, lt.ONE)
        for g in factors:
            back = lt.p_mul(back, g, lt.POSQ)
        assert back == f


def test_psi_a():
    assert lt.psi_a(lt.poly({2: lt.ONE, 1: sc(2, 3), 0: sc(4, 5)})) == [5, 3, 1]
    assert lt.psi_a(lt.poly({1: lt.ONE, 0: sc(2, 7)})) == [7, 1]
    assert lt.psi_a(P("x^2 + 4:5")) == [5, 0, 1]
    with pytest.raises(lt.NotPrimary):
        lt.psi_a(P("x^2 + 2:1*x + 3:1"))


def test_psi_a_refuses_an_infinite_layer():
    """A primary polynomial with an ``inf`` layer has no classical image."""
    f = lt.poly({2: lt.ONE, 1: sc(2, 3), 0: lt.LayeredScalar(F(4), lt.INF)})
    assert lt.is_primary(f) is not None
    with pytest.raises(lt.NotPrimary, match="psi_a needs finite layers"):
        lt.psi_a(f)


def test_psi_a_multiplicative():
    rng = random.Random(9)
    for _ in range(120):
        root = F(rng.randint(-5, 5))
        f = rand_primary(rng, lt.POSQ, root)
        g = rand_primary(rng, lt.POSQ, root)
        pf, pg = lt.psi_a(f), lt.psi_a(g)
        classical = [F(0)] * (len(pf) + len(pg) - 1)
        for i, a in enumerate(pf):
            for j, b in enumerate(pg):
                classical[i + j] += a * b
        assert lt.psi_a(lt.p_mul(f, g, lt.POSQ)) == classical


def test_linear_multiplicity():
    double = lt.poly({2: lt.ONE, 1: sc(2, 2), 0: sc(4, 1)})  # (x + <2>^1)^2
    assert lt.linear_multiplicity(double, 1) == 2
    prim = lt.poly({2: lt.ONE, 1: sc(2, 3), 0: sc(4, 5)})  # psi = 5 + 3x + x^2
    assert lt.linear_multiplicity(prim, 1) == 0
    assert lt.linear_multiplicity(lt.poly({1: lt.ONE, 0: sc(2, 7)}), 7) == 1


def test_linear_multiplicity_matches_sympy():
    """linear_multiplicity (psi_a, then synthetic division) against the
    root multiplicities of psi_a(f) that sympy's factorization over Q finds,
    on seeded primaries built from repeated linear factors (x + <a>^l)."""
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    rng = random.Random(17)
    layers = [F(1), F(2), F(3), F(1, 2), F(5, 3)]
    repeated = 0
    for _ in range(120):
        root = F(rng.randint(-4, 4), rng.randint(1, 2))
        f = lt.poly({0: lt.ONE})
        for l in rng.choices(layers, k=rng.randint(0, 4)):
            f = lt.p_mul(f, lt.poly({1: lt.ONE, 0: lt.LayeredScalar(root, l)}), lt.POSQ)
        if f.degree == 0 or rng.random() < 0.4:
            f = lt.p_mul(f, rand_primary(rng, lt.POSQ, root), lt.POSQ)
        psi = lt.psi_a(f)
        classical = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(psi)], X)
        want = {}
        for factor, mult in classical.factor_list()[1]:
            if factor.degree() == 1:
                a1, a0 = factor.all_coeffs()
                want[F(int(sympy.numer(-a0 / a1)), int(sympy.denom(-a0 / a1)))] = mult
        for l in layers + [F(7)]:
            assert lt.linear_multiplicity(f, l) == want.get(-l, 0), (f, l)
        repeated += max(want.values(), default=0) >= 2
    assert repeated >= 20


def test_linear_divides_via_zero_layer():
    double = lt.poly({2: lt.ONE, 1: sc(2, 2), 0: sc(4, 1)})
    assert lt.linear_divides_via_zero_layer(double, 1, lt.RAT)
    assert not lt.linear_divides_via_zero_layer(double, 3, lt.RAT)
    with pytest.raises(lt.PreconditionViolated):
        lt.linear_divides_via_zero_layer(double, 1, lt.POSQ)
    # agreement with the classical multiplicity probe
    rng = random.Random(15)
    for _ in range(100):
        f = rand_primary(rng, lt.RAT, F(rng.randint(-4, 4)))
        l = F(rng.randint(1, 5))
        assert lt.linear_divides_via_zero_layer(f, l, lt.RAT) == (
            lt.linear_multiplicity(f, l) >= 1
        )


def test_linear_probes_read_their_layer_as_a_rational_layer():
    """l is read as a layer of the rational sort, after the primary checks:
    inf, floats, text and None raise InvalidLayer, and ints equal Fractions."""
    double = lt.poly({2: lt.ONE, 1: sc(2, 2), 0: sc(4, 1)})  # (x + <2>^1)^2
    not_primary = P("x^2 + 3:1*x + 4:1")
    for bad in (lt.INF, 1.5, 1.0, "x", "1", None):
        with pytest.raises(lt.InvalidLayer):
            lt.linear_multiplicity(double, bad)
        with pytest.raises(lt.InvalidLayer):
            lt.linear_divides_via_zero_layer(double, bad, lt.RAT)
        # the polynomial and the sort are refused first
        with pytest.raises(lt.NotPrimary):
            lt.linear_multiplicity(not_primary, bad)
        with pytest.raises(lt.NotPrimary):
            lt.linear_divides_via_zero_layer(not_primary, bad, lt.RAT)
        with pytest.raises(lt.PreconditionViolated):
            lt.linear_divides_via_zero_layer(double, bad, lt.POSQ)
    for l, want in ((1, 2), (F(1), 2), (3, 0), (F(-1, 2), 0), (0, 0)):
        assert lt.linear_multiplicity(double, l) == want
        assert lt.linear_divides_via_zero_layer(double, l, lt.RAT) == (want >= 1)


def test_eval_sort_examples():
    f = P("x^2 + 2:1*x + 4:1")
    d = lt.primary_decomposition(f, lt.POSQ)
    assert lt.eval_sort(d, sc(2, 1), lt.POSQ) == 3
    sq = lt.p_pow(P("x + 2:1"), 2, lt.POSQ)
    d2 = lt.primary_decomposition(sq, lt.POSQ)
    assert lt.eval_sort(d2, sc(2, 1), lt.POSQ) == 4  # (2*l)^m with l=1, m=2
    d3 = lt.primary_decomposition(P("x^2 + 2:1*x + 3:1"), lt.POSQ)
    assert lt.eval_sort(d3, sc(9, 1), lt.POSQ) == 1  # tangible above all roots


def test_eval_sort_places_points_whose_values_are_not_fractions():
    """b is placed against the root 3/2 of x^2 + 1:1*x + 3:2 as comparing its
    value with the root places it: above it k**2 = 4, below it the constant
    term's layer 2.  At the root a float value raises AttributeError, as
    ``p_eval`` reads a value as an int or ``Fraction``."""
    d = lt.primary_decomposition(P("x^2 + 1:1*x + 3:2"), lt.POSQ)
    assert [(pf.root_value, pf.degree) for pf in d.factors] == [(F(3, 2), 2)]
    cases = [(2.5, 4), (-7.0, 2), (math.inf, 4), (-math.inf, 2), (math.nan, 4), (1, 2), (2, 4),
             (1.4999999999999998, 2), (1.5000000000000002, 4)]
    for v, want in cases:
        got = lt.eval_sort(d, lt.LayeredScalar(v, F(2)), lt.POSQ)
        assert got == want and type(got) is F, (v, got)
    assert lt.eval_sort(d, lt.LayeredScalar(F(3, 2), F(2)), lt.POSQ) == 1 * 2**2 + 2  # every term ties
    with pytest.raises(AttributeError):
        lt.eval_sort(d, lt.LayeredScalar(1.5, F(2)), lt.POSQ)


def test_reconstruction_and_eval_sort_on_probe_grid():
    """Under posq, q and nat, the product of the factors is the full form,
    and eval_sort gives the layer of p_eval on it, around the roots and
    exactly at each root at layers 0, 1 and one more of the sort, where
    every term of the crossed factor ties.  A promoted nat decomposition
    is evaluated under posq, the sort it was computed in."""
    for sort, other in ((lt.POSQ, F(1, 2)), (lt.RAT, F(-3, 2)), (lt.NAT, F(3))):
        rng = random.Random(21)
        decomposed = at_roots = 0
        for _ in range(80):
            f = rand_poly(rng, sort, max_deg=6)
            d = outcome(lt.primary_decomposition, f, sort)
            if isinstance(d, type):  # under q a layer 0 at a corner has no inverse
                assert sort == lt.RAT and d is lt.NonInvertibleLayer
                continue
            decomposed += 1
            work = lt.POSQ if d.promoted_sort else sort
            full = lt.full_form(f)
            prod = d.product(work)
            assert prod == full
            at_root = [lt.LayeredScalar(pf.root_value, l) for pf in d.factors for l in (F(0), F(1), other)]
            at_roots += len(at_root)
            # the probe layer 1/2 is no nat layer: there the probe takes the other layer
            around = [b if lt.layer_valid(b.layer, work) else b._replace(layer=other)
                      for b in probe_points(d, count=25)]
            for b in around + at_root:
                expected = lt.p_eval(full, b, work)
                assert lt.p_eval(prod, b, work) == expected
                assert lt.eval_sort(d, b, work) == expected.layer, (sort, f, b)
        assert decomposed >= 60 and at_roots >= 300, sort


def test_root_data_stable_under_quasi_essential_relayering():
    # bumping the layer of an on-hull non-vertex coefficient keeps the
    # full form's value data, hence the root multiset
    rng = random.Random(33)
    for _ in range(60):
        f = rand_poly(rng, lt.POSQ, max_deg=5)
        d = lt.primary_decomposition(f, lt.POSQ)
        full = lt.full_form(f)
        vertices = {e for e, _ in lt.essential_form(f).terms()}
        bumped = dict(full.coeffs)
        changed = False
        for e, c in full.terms():
            if e not in vertices and c.layer != 0:
                bumped[e] = lt.LayeredScalar(c.value, c.layer + 1)
                changed = True
        if not changed:
            continue
        d2 = lt.primary_decomposition(lt.poly(bumped), lt.POSQ)
        assert [(pf.root_value, pf.degree) for pf in d.factors] == [
            (pf.root_value, pf.degree) for pf in d2.factors
        ]


def test_separable_iff_all_factors_linear_distinct():
    rng = random.Random(39)
    for _ in range(120):
        f = rand_poly(rng, lt.POSQ, max_deg=5, monic=True)
        d = lt.primary_decomposition(f, lt.POSQ)
        if d.lambda_power:
            continue
        separable = all(pf.degree == 1 for pf in d.factors)
        try:
            factors = lt.separable_factor(f, lt.POSQ)
            assert separable
            assert len(factors) == f.degree
        except lt.NotSeparable:
            assert not separable


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_decomposition_with_zero_layers_passes_its_check(sort):
    """Layer-0 coefficients divide to layer 0; the reconstruction never fails."""
    rng = random.Random(1300 + ALL_SORTS.index(sort))
    valid = [l for l in (F(1), F(2), F(3), F(1, 2), F(-1), lt.INF) if lt.layer_valid(l, sort)]
    decomposed = 0
    for _ in range(150):
        deg = rng.randint(1, 4)
        f = lt.poly(
            {e: lt.LayeredScalar(F(rng.randint(-3, 3), rng.choice((1, 2))),
                                 F(0) if e < deg and rng.random() < 0.4 else rng.choice(valid))
             for e in range(deg + 1) if e in (0, deg) or rng.random() < 0.7}
        )
        try:
            lt.primary_decomposition(f, sort)  # an AssertionError fails the test
        except lt.LaytropError:
            continue
        decomposed += 1
    assert decomposed >= (0 if sort.kind == "trunc" else 50)


def test_decomposition_needs_divisible_layers():
    f = lt.poly({2: lt.ONE, 1: sc(3, lt.INF), 0: sc(4, 1)})
    with pytest.raises(lt.LayerNotDivisible):
        lt.primary_decomposition(f, lt.truncated(3))


def test_decomposition_builds_one_full_form(monkeypatch):
    """The slopes, the factors' slices and the reconstruction check share
    one full form, and no polynomial is built besides it and the factors."""
    built, made = [], []
    full_form = factor.full_form
    layered_poly = factor.LayeredPoly
    monkeypatch.setattr(factor, "full_form", lambda f: built.append(f) or full_form(f))
    monkeypatch.setattr(factor, "LayeredPoly", lambda *a, **k: made.append(a) or layered_poly(*a, **k))
    # divisible by x, with a gap at x^2 and x^4 and a term below the hull at x^3
    f = lt.poly({6: sc(1, 2), 5: sc(3, 2), 3: sc(-20, 1), 1: sc(4, 2)})
    assert lt.hull_vertices(f) == {1, 5, 6}
    for sort in (lt.POSQ, lt.NAT, lt.RAT):
        built.clear()
        made.clear()
        d = lt.primary_decomposition(f, sort)
        assert built == [f]
        assert len(made) == len(d.factors) == 2
        assert d.product(lt.POSQ if sort == lt.NAT else sort) == full_form(f)


def test_factor_values_are_fractions():
    """Int values in, ``Fraction`` factor values out, whatever the lead's value."""
    for lead in (0, 1, -2):
        f = lt.poly({3: lt.LayeredScalar(lead, F(2)), 2: lt.LayeredScalar(lead + 3, F(4)),
                     1: lt.LayeredScalar(lead + 5, F(1)), 0: lt.LayeredScalar(lead + 6, F(2))})
        for sort in (lt.POSQ, lt.NAT, lt.RAT):
            d = lt.primary_decomposition(f, sort)
            assert len(d.factors) >= 2
            values = [c.value for pf in d.factors for c in pf.poly.coeffs.values()]
            assert all(type(v) is F for v in values), values


@pytest.mark.parametrize("top", [2, 20000], ids=["narrow", "wider-than-a-full-form"])
def test_a_bad_layer_below_the_hull_is_refused_first(top):
    """Layer 2 under unit and -1 under posq and nat sit below the hull, which the
    full form drops; they are refused before the full form is built, so before
    a span past MAX_FULL_FORM_TERMS raises OutOfRange."""
    for sort, bad in ((lt.UNIT, F(2)), (lt.POSQ, F(-1)), (lt.NAT, F(-1))):
        f = lt.poly({top: sc(0, 1), 1: sc(-10**6, bad), 0: sc(4, 1)})
        assert lt.hull_vertices(f) == {0, top}
        with pytest.raises(lt.InvalidLayer):
            lt.primary_decomposition(f, sort)
        good = lt.poly({top: sc(0, 1), 1: sc(-10**6, 1), 0: sc(4, 1)})
        if top > lt.polys.MAX_FULL_FORM_TERMS:
            with pytest.raises(lt.OutOfRange):
                lt.primary_decomposition(good, sort)
        else:
            lt.primary_decomposition(good, sort)


@pytest.mark.parametrize("sort", [lt.POSQ, lt.NAT, lt.RAT, lt.SUPER], ids=str)
def test_a_layer_zero_hull_corner_is_not_invertible(sort):
    """A slice is divided by its top layer, a hull corner's: layer 0, and
    inf under super, have no inverse, and the refusal is layer_div's own."""
    lead_zero = lt.poly({2: sc(0, 0), 1: sc(2, 1), 0: sc(3, 1)})
    corner_zero = lt.poly({2: sc(0, 1), 1: sc(2, 0), 0: sc(3, 1)})  # the corner of x^2 + 2*x + 3
    corner_inf = lt.poly({2: sc(0, 1), 1: sc(2, lt.INF), 0: sc(3, 1)})
    assert lt.hull_vertices(corner_zero) == lt.hull_vertices(corner_inf) == {0, 1, 2}
    cases = [(lead_zero, "layer 0 is not invertible"), (corner_zero, "layer 0 is not invertible")]
    if sort == lt.SUPER:
        cases.append((corner_inf, "layer inf is not invertible under super"))
    for f, message in cases:
        with pytest.raises(lt.NonInvertibleLayer) as raised:
            lt.primary_decomposition(f, sort)
        assert str(raised.value) == message


def test_int_layers_are_divided_as_fractions():
    """Layers given as ints are checked into Fractions before each slice is
    divided by its top layer, so no quotient of two ints becomes a float,
    and the layer 0 of a gap stays a Fraction."""
    layers = {3: 2, 2: 4, 0: 6}  # the full form fills exponent 1 with layer 0
    f = lt.poly({e: lt.LayeredScalar(F(v), layers[e]) for e, v in ((3, 0), (2, 3), (0, 5))})
    g = lt.poly({e: lt.LayeredScalar(c.value, F(c.layer)) for e, c in f.coeffs.items()})
    for sort in (lt.POSQ, lt.RAT):
        got = lt.primary_decomposition(f, sort)
        assert got == lt.primary_decomposition(g, sort)
        assert [c.layer for pf in got.factors for c in pf.poly.coeffs.values()] == [2, 1, F(3, 2), 0, 1]
        assert [type(c.layer) for pf in got.factors for c in pf.poly.coeffs.values()] == [F] * 5
