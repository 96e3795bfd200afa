import random
import tracemalloc
from fractions import Fraction as F

import pytest
from conftest import ALL_SORTS, outcome, rand_layer
from test_kernels import oracle_monomial

import laytrop as lt

sc = lt.scalar
P = lt.parse_poly
LINE = P("x1 + x2 + 0:1")  # generic tangible tropical line


def pt(*pairs):
    return tuple(lt.LayeredScalar(F(v), F(l)) for v, l in pairs)


def test_mp_eval():
    assert lt.mp_eval(LINE, pt((0, 1), (0, 1)), lt.NAT) == sc(0, 3)
    mono = lt.multipoly(2, {(2, 1): sc(1, 2)})
    assert lt.mp_eval(mono, pt((3, 1), (4, 2)), lt.NAT) == sc(11, 4)
    curve = P("x1*x2 + 1:3*x1 + 1:1*x2 + 0:1")
    assert lt.mp_eval(curve, pt((1, 1), (1, 1)), lt.NAT) == sc(2, 5)  # k + 2
    with pytest.raises(lt.ArityMismatch):
        lt.mp_eval(LINE, pt((0, 1)), lt.NAT)
    with pytest.raises(lt.ArityMismatch):
        lt.multipoly(2, [((1,), lt.ONE)])


def test_constant_monomials_are_checked():
    """A constant's layer is checked though nothing multiplies it."""
    f = P("x1 + 0:5")
    assert lt.mp_eval(f, pt((-1, 1)), lt.NAT) == sc(0, 5)
    with pytest.raises(lt.InvalidLayer):
        lt.mp_eval(f, pt((-1, 1)), lt.UNIT)
    with pytest.raises(lt.InvalidLayer):
        list(lt.grid_scan(f, [(-2, -1, 1)], [1], lt.UNIT))


def test_coordinate_layer_is_checked_before_the_coefficient_layer():
    """A monomial's power is taken before its coefficient multiplies in."""
    f = lt.multipoly(1, {(1,): sc(0, F(1, 2))})
    with pytest.raises(lt.InvalidLayer, match="layer 5/3 is not valid"):
        lt.mp_eval(f, pt((0, F(5, 3))), lt.NAT)
    with pytest.raises(lt.InvalidLayer, match="layer 5/3 is not valid"):
        list(lt.grid_scan(f, [(0, 1, 1)], [F(5, 3)], lt.NAT))


def test_unread_coordinate_layer_is_not_checked():
    """No monomial reads x2, so its layer outside the sort is accepted."""
    f = lt.multipoly(2, {(1, 0): sc(0, 2), (0, 0): sc(1, 1)})
    assert lt.mp_eval(f, pt((3, 1), (0, F(5, 3))), lt.NAT) == sc(3, 2)
    rows = list(lt.grid_scan(f, [(0, 1, 1), (0, 0, 1)], [1, F(5, 3)], lt.NAT))
    assert [(row.value, row.theta) for row in rows] == [(1, 1), (1, 3)]


def test_constant_monomial_layer_is_a_fraction():
    """mp_eval gives a constant's layer in the universal encoding, as p_eval does."""
    coeffs = {(0,): lt.LayeredScalar(F(0), 5), (1,): lt.ONE}
    x = sc(-1, 1)
    got = lt.mp_eval(lt.multipoly(1, coeffs), (x,), lt.NAT)
    want = lt.p_eval(lt.poly({0: coeffs[(0,)], 1: lt.ONE}), x, lt.NAT)
    assert got == want == sc(0, 5)
    assert type(got.layer) is type(want.layer) is F


def test_theta():
    assert lt.theta(LINE, pt((0, 1), (0, 1)), lt.NAT) == 3
    assert lt.theta(LINE, pt((5, 1), (0, 1)), lt.NAT) == 1
    mono = lt.multipoly(2, {(2, 1): sc(1, 2)})
    assert lt.theta(mono, pt((3, 2), (4, 3)), lt.NAT) == 2 * 4 * 3


def test_rational_exponents():
    half = lt.multipoly(1, {(F(1, 2),): lt.ONE})
    assert lt.mp_eval(half, (sc(4, 4),), lt.POSQ) == sc(2, 2)
    with pytest.raises(lt.InvalidLayer):
        lt.mp_eval(half, (sc(4, 2),), lt.POSQ)  # sqrt(2) leaves the sort


def test_corner_support():
    assert lt.corner_support(LINE, pt((0, 1), (0, 1)), lt.NAT) == {
        (1, 0),
        (0, 1),
        (0, 0),
    }
    assert lt.corner_support(LINE, pt((5, 1), (0, 1)), lt.NAT) == {(1, 0)}
    assert lt.corner_support(LINE, pt((0, 1), (-3, 1)), lt.NAT) == {(1, 0), (0, 0)}


def test_corner_support_ignores_zero_layer_monomials():
    f = lt.multipoly(1, {(1,): lt.ONE, (0,): lt.LayeredScalar(F(0), F(0))})
    assert lt.corner_support(f, (sc(0, 1),), lt.RAT) == {(1,)}


def test_is_corner_root():
    assert lt.is_corner_root(LINE, pt((0, 1), (0, 1)), lt.NAT)
    assert not lt.is_corner_root(LINE, pt((5, 1), (0, 1)), lt.NAT)
    assert lt.is_corner_root(LINE, pt((0, 1), (-3, 1)), lt.NAT)


def test_is_ell_root():
    corner = pt((0, 1), (0, 1))
    assert lt.is_ell_root(LINE, corner, 1, lt.NAT)  # layer 3 > 1
    assert not lt.is_ell_root(LINE, pt((5, 1), (0, 1)), 1, lt.NAT)
    assert not lt.is_ell_root(LINE, corner, 3, lt.NAT)  # 3 is not 3-ghost
    assert not lt.is_ell_root(lt.multipoly(2, {}), corner, 1, lt.NAT)
    # l is checked as a layer of the sort: a Fraction reads as the int, a half and a str are refused
    assert lt.is_ell_root(LINE, corner, F(2), lt.NAT) and not lt.is_ell_root(LINE, corner, F(3), lt.NAT)
    for l in (F(1, 2), "1"):
        with pytest.raises(lt.InvalidLayer):
            lt.is_ell_root(LINE, corner, l, lt.NAT)


def test_component_index():
    assert lt.component_index(LINE, pt((5, 1), (0, 1)), lt.NAT) == (1, 0)
    assert lt.component_index(LINE, pt((0, 1), (0, 1)), lt.NAT) is None
    # nu-tie with unequal layers: the sum differs from both monomials
    f = lt.multipoly(1, {(1,): lt.ONE, (0,): sc(0, 2)})
    assert lt.component_index(f, (sc(0, 1),), lt.NAT) is None


def test_grid_scan_figure_pattern():
    rows = list(lt.grid_scan(LINE, [(-1, 1, 1), (-1, 1, 1)], [1, 1], lt.NAT))
    got = {row.point: row.theta for row in rows}
    assert got[(F(0), F(0))] == 3
    assert got[(F(1), F(1))] == 2
    assert got[(F(0), F(-1))] == 2
    assert got[(F(-1), F(0))] == 2
    assert got[(F(1), F(0))] == 1
    assert got[(F(-1), F(-1))] == 1
    # rows are in lexicographic point order
    assert [row.point for row in rows] == sorted(row.point for row in rows)


def test_grid_scan_single_and_empty():
    rows = list(lt.grid_scan(LINE, [(0, 0, 1), (0, 0, 1)], [1, 1], lt.NAT))
    assert len(rows) == 1
    assert rows[0].csupp == 3 and rows[0].component is None
    assert list(lt.grid_scan(LINE, [(1, 0, 1), (0, 0, 1)], [1, 1], lt.NAT)) == []


def test_corner_locus_on_grid():
    Fs = [LINE, P("x1 + x2 + -2:1")]
    locus = list(lt.corner_locus_on_grid(Fs, [(-2, 2, 1), (-2, 2, 1)], [1, 1], lt.NAT))
    assert locus == [(F(a), F(a)) for a in range(0, 3)]
    line_only = list(lt.corner_locus_on_grid([LINE], [(-1, 1, 1), (-1, 1, 1)], [1, 1], lt.NAT))
    assert (F(0), F(0)) in line_only
    assert (F(1), F(1)) in line_only
    assert (F(1), F(0)) not in line_only
    full = list(lt.corner_locus_on_grid([], [(0, 1, 1)], [1], lt.NAT))
    assert full == [(F(0),), (F(1),)]


def test_theta_min():
    Fs = [LINE, P("x1 + x2 + -2:1")]
    p = pt((0, 1), (0, 1))
    assert lt.theta_min(Fs, p, lt.NAT) == min(
        lt.theta(Fs[0], p, lt.NAT), lt.theta(Fs[1], p, lt.NAT)
    )
    # under super two tied layer-1 terms give inf, which is no minimum against layer 1
    ghost, one, x = P("x1 + 0:1"), P("x1"), pt((0, 1))
    assert lt.theta(ghost, x, lt.SUPER) == lt.INF
    assert lt.theta_min([ghost, one], x, lt.SUPER) == 1
    assert lt.theta_min([one, ghost], x, lt.SUPER) == 1
    # equal layers give that layer, in the universal encoding
    x1, x2 = (lt.multipoly(2, {e: lt.ONE}) for e in ((1, 0), (0, 1)))
    equal = lt.theta_min([x1, x2], pt((0, 2), (1, 2)), lt.NAT)
    assert equal == 2 and type(equal) is F
    assert lt.theta_min([Fs[1]], p, lt.NAT) == lt.theta(Fs[1], p, lt.NAT)
    with pytest.raises(lt.PreconditionViolated):
        lt.theta_min([], p, lt.NAT)
    # every generator's layer is computed, so a later invalid one still raises
    with pytest.raises(lt.InvalidLayer):
        lt.theta_min([LINE, P("x1 + x2 + 0:5")], p, lt.UNIT)


def test_point_scales_one_value_per_exponent_vector():
    """A point is the zero-dimensional lattice: its forms hold the value of
    each merged exponent vector at the point, times the scale, and no step."""
    # (1, 0) is repeated: its values 1 + 1/2 and 4 + 1/2 merge to the larger
    f = lt.multipoly(2, [((1, 0), sc(1, 2)), ((0, 1), sc(0, 2)), ((1, 0), sc(4, 1))])
    assert len(f.terms()) == 3
    point = pt((F(1, 2), 1), (4, 1))
    assert lt.mp_eval(f, point, lt.NAT) == sc(F(9, 2), 1)
    affine = lt.multivar._Affine(f, point, (), lt.NAT)
    assert affine.exps == [(0, 1), (1, 0)]
    assert [(F(a, affine.scale), b) for a, b in affine.forms] == [(F(4), ()), (F(9, 2), ())]
    assert affine.layers == [2, 1]  # the larger value keeps its own layer


def _rand_multipoly(rng, arity=2, terms=4):
    monos = {}
    for _ in range(terms):
        exps = tuple(F(rng.randint(0, 3)) for _ in range(arity))
        monos[exps] = lt.LayeredScalar(
            F(rng.randint(-10, 10)), F(rng.randint(1, 3))
        )
    return lt.multipoly(arity, monos)


def test_nu_compatibility_of_components():
    rng = random.Random(3)
    for _ in range(100):
        f = _rand_multipoly(rng)
        a = pt((rng.randint(-3, 3), rng.randint(1, 3)), (rng.randint(-3, 3), rng.randint(1, 3)))
        b = tuple(lt.LayeredScalar(x.value, x.layer) for x in a)
        assert lt.component_index(f, a, lt.NAT) == lt.component_index(f, b, lt.NAT)


def test_component_of_product_is_sum_of_components():
    rng = random.Random(5)
    for _ in range(150):
        f = _rand_multipoly(rng)
        g = _rand_multipoly(rng)
        p = pt(
            (rng.randint(-3, 3), rng.randint(1, 3)),
            (rng.randint(-3, 3), rng.randint(1, 3)),
        )
        ci_f = lt.component_index(f, p, lt.NAT)
        ci_g = lt.component_index(g, p, lt.NAT)
        if ci_f is None or ci_g is None:
            continue
        fg = lt.mp_mul(f, g, lt.NAT)
        assert lt.component_index(fg, p, lt.NAT) == tuple(
            a + b for a, b in zip(ci_f, ci_g)
        )


def test_theta_of_product_is_layer_product():
    rng = random.Random(7)
    for _ in range(100):
        f = _rand_multipoly(rng)
        g = _rand_multipoly(rng)
        p = pt(
            (rng.randint(-3, 3), rng.randint(1, 3)),
            (rng.randint(-3, 3), rng.randint(1, 3)),
        )
        assert lt.theta(lt.mp_mul(f, g, lt.NAT), p, lt.NAT) == lt.layer_mul(
            lt.theta(f, p, lt.NAT), lt.theta(g, p, lt.NAT), lt.NAT
        )


def test_corner_support_of_product():
    rng = random.Random(11)
    for _ in range(80):
        f = _rand_multipoly(rng, terms=3)
        g = _rand_multipoly(rng, terms=3)
        p = pt(
            (rng.randint(-2, 2), rng.randint(1, 2)),
            (rng.randint(-2, 2), rng.randint(1, 2)),
        )
        sf = lt.corner_support(f, p, lt.NAT)
        sg = lt.corner_support(g, p, lt.NAT)
        sfg = lt.corner_support(lt.mp_mul(f, g, lt.NAT), p, lt.NAT)
        for ef in sf:
            for eg in sg:
                assert tuple(a + b for a, b in zip(ef, eg)) in sfg


def test_laurent_and_rational_exponent_evaluation():
    inv = lt.parse_poly("x1^-1")
    assert lt.mp_eval(inv, (sc(3, 1),), lt.NAT) == sc(-3, 1)
    assert lt.mp_eval(inv, (sc(3, 2),), lt.POSQ) == sc(-3, F(1, 2))
    mixed = lt.parse_poly("x1^3/2*x2^-1 + 0:1")
    value = lt.mp_eval(mixed, (sc(2, 4), sc(1, 1)), lt.POSQ)
    assert value == sc(2, 8)


# -- the affine raster against the pointwise definition ---------------------------

# Coordinate layers per sort: members of the sort, plus layer 0 and a
# negative layer under q.  Some powers leave the sort and raise: layer 2
# under unit, sqrt(2) under posq, inverses under nat and trunc:3, and
# rational or negative powers of layer 0, a negative layer or INF.
COORD_LAYERS = {
    "unit": [1, 1, 2],
    "super": [1, lt.INF],
    "trunc:3": [1, 2, 3],
    "nat": [1, 2, 4],
    "posq": [1, 4, F(1, 4), 2],
    "q": [1, 4, F(1, 4), 0, -1],
}
EXPONENTS = [0, 0, 1, 2, 3, -1, -2, F(1, 2), F(3, 2), F(-1, 2)]


def _coeff_layer(rng, sort):
    if str(sort) == "super" and rng.random() < 0.3:
        return lt.INF
    if str(sort) == "q" and rng.random() < 0.3:
        return F(rng.choice((0, -1, -2)))
    return rand_layer(rng, sort)


def _rand_raster_poly(rng, sort, arity, denominators=(1, 2)):
    return lt.multipoly(
        arity,
        {
            tuple(F(rng.choice(EXPONENTS)) for _ in range(arity)): lt.LayeredScalar(
                F(rng.randint(-4, 4), rng.choice(denominators)), _coeff_layer(rng, sort)
            )
            for _ in range(rng.randint(1, 5))
        },
    )


def _outcome(call, *args):
    """The rows of call(*args) as a list, or the class of what it raises."""
    return outcome(lambda: list(call(*args)))


def _pointwise_rows(F_, region, layers, sort):
    """grid_scan by its definition: at every lattice point, the ls_sum of
    the monomial values (a composition sharing no fold with the raster),
    checked against mp_eval, corner_support and component_index."""
    rows = []
    for values in _lattice(region):
        point = tuple(lt.LayeredScalar(v, lt.as_layer(l)) for v, l in zip(values, layers))
        monos = [(e, oracle_monomial(e, c, point, sort)) for e, c in F_.terms()]
        total = lt.ls_sum((m for _, m in monos), sort)
        if total is lt.BOTTOM:
            raise lt.PreconditionViolated("empty polynomial")
        assert lt.mp_eval(F_, point, sort) == total
        csupp = lt.corner_support(F_, point, sort)
        assert csupp == {e for e, m in monos if m.value == total.value and m.layer > 0}
        component = lt.component_index(F_, point, sort)
        hits = [e for e, m in monos if m == total]
        assert component == (hits[0] if len(hits) == 1 else None)
        rows.append((values, total.value, total.layer, len(csupp), component))
    return rows


def _pointwise_locus(Fs, region, layers, sort):
    out = []
    for values in _lattice(region):
        point = tuple(lt.LayeredScalar(v, lt.as_layer(l)) for v, l in zip(values, layers))
        if all(lt.is_corner_root(F_, point, sort) for F_ in Fs):
            out.append(values)
    return out


def _lattice(region):
    points = [()]
    for lo, hi, step in region:
        axis = []
        x = F(lo)
        while x <= hi:
            axis.append(x)
            x += F(step)
        points = [p + (x,) for p in points for x in axis]
    return points


def _raster_matches_pointwise(Fs, region, layers, sort):
    """Both rasters against the pointwise definition; True when it raises."""
    expected = _outcome(_pointwise_rows, Fs[0], region, layers, sort)
    got = _outcome(lt.grid_scan, Fs[0], region, layers, sort)
    if isinstance(got, list):
        got = [tuple(row) for row in got]
    assert got == expected
    assert _outcome(lt.corner_locus_on_grid, Fs, region, layers, sort) == _outcome(
        _pointwise_locus, Fs, region, layers, sort
    )
    return not isinstance(expected, list)


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_raster_matches_pointwise_definition(sort):
    rng = random.Random(f"raster-{sort}")
    compared = raised = 0
    for _ in range(60):
        arity = rng.choice((1, 2, 2))
        region = [(rng.randint(-2, 0), rng.randint(0, 2), F(1, rng.choice((1, 2)))) for _ in range(arity)]
        layers = [rng.choice(COORD_LAYERS[str(sort)]) for _ in range(arity)]
        Fs = [_rand_raster_poly(rng, sort, arity) for _ in range(rng.choice((1, 2)))]
        raised += _raster_matches_pointwise(Fs, region, layers, sort)
        compared += 1
    assert 0 < raised < compared


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_raster_matches_pointwise_definition_over_a_common_denominator(sort):
    """Steps 1/3, 2/7 and 5/6 in arity 3, origins off the step lattice and
    coefficient denominators up to 12: the raster's integer fold scales
    its forms by a common denominator in the hundreds or more, and must
    still tie exactly where the rational values tie."""
    rng = random.Random(f"raster-lcm-{sort}")
    compared = raised = 0
    for _ in range(40):
        steps = [F(1, 3), F(2, 7), F(5, 6)]
        rng.shuffle(steps)
        region = []
        for step in steps:
            lo = rng.randint(-3, 1) * step + rng.choice((F(1, 5), F(1, 4), F(1, 11)))
            assert (lo / step).denominator != 1
            region.append((lo, lo + rng.randint(0, 2) * step, step))
        layers = [rng.choice(COORD_LAYERS[str(sort)]) for _ in range(3)]
        Fs = [_rand_raster_poly(rng, sort, 3, range(1, 13)) for _ in range(rng.choice((1, 2)))]
        raised += _raster_matches_pointwise(Fs, region, layers, sort)
        compared += 1
    assert 0 < raised < compared


def test_repeated_exponent_vectors_merge():
    """Terms with one exponent vector answer as the one term whose
    coefficient is their layered sum, in every query and both rasters."""
    a = sc(0, 1)
    x = (a,)
    twice = lt.multipoly(1, [((1,), a), ((1,), a)])
    merged = lt.multipoly(1, {(1,): sc(0, 2)})
    for f in (twice, merged):
        assert lt.mp_eval(f, x, lt.NAT) == sc(0, 2)
        assert lt.corner_support(f, x, lt.NAT) == {(1,)}
        assert lt.component_index(f, x, lt.NAT) == (1,)
    region = [(-1, 1, F(1, 2))]
    assert list(lt.grid_scan(twice, region, [1], lt.NAT)) == list(lt.grid_scan(merged, region, [1], lt.NAT))
    # the parser merges repeated terms itself
    listed = lt.multipoly(2, [((1, 0), a), ((0, 1), a), ((1, 0), a)])
    parsed = P("x1 + x2 + x1")
    assert parsed == lt.multipoly(2, {(1, 0): sc(0, 2), (0, 1): a})
    p = pt((1, 1), (0, 1))
    assert lt.component_index(listed, p, lt.NAT) == lt.component_index(parsed, p, lt.NAT) == (1, 0)
    # under q, layers 1 and -1 merge to layer 0, which leaves the corner support
    opposite = lt.multipoly(1, [((1,), a), ((1,), sc(0, -1)), ((0,), a)])
    zeroed = lt.multipoly(1, {(1,): sc(0, 0), (0,): a})
    for f in (opposite, zeroed):
        assert lt.mp_eval(f, x, lt.RAT) == sc(0, 1)
        assert lt.corner_support(f, x, lt.RAT) == {(0,)}
        assert lt.component_index(f, x, lt.RAT) == (0,)
        assert list(lt.corner_locus_on_grid([f], [(-1, 1, 1)], [1], lt.RAT)) == []
    assert list(lt.grid_scan(opposite, region, [1], lt.RAT)) == list(lt.grid_scan(zeroed, region, [1], lt.RAT))


def test_raster_truncation_caps_stepwise():
    # layer 2 cubed under trunc:3 caps at every step: 2, 3, 3
    f = lt.multipoly(2, {(F(3), F(0)): lt.ONE, (F(0), F(1)): sc(1, 2)})
    rows = list(lt.grid_scan(f, [(0, 1, 1), (0, 1, 1)], [2, 1], lt.truncated(3)))
    assert [(row.value, row.theta, row.csupp) for row in rows] == [
        (1, 2, 1),
        (2, 2, 1),
        (3, 3, 1),
        (3, 3, 1),
    ]
    assert rows == [
        lt.GridRow(*row) for row in _pointwise_rows(f, [(0, 1, 1), (0, 1, 1)], [2, 1], lt.truncated(3))
    ]


def test_raster_super_and_q_layers():
    f = lt.multipoly(1, {(F(1),): sc(0, lt.INF), (F(0),): lt.ONE})
    rows = list(lt.grid_scan(f, [(-1, 1, 1)], [1], lt.SUPER))
    assert [(row.theta, row.csupp, row.component) for row in rows] == [
        (1, 1, (0,)),
        (lt.INF, 2, (1,)),  # INF + 1 = INF is the layer of the x1 monomial
        (lt.INF, 1, (1,)),
    ]
    # under q a layer-0 monomial adds nothing and a negative one is no corner
    g = lt.multipoly(1, {(F(1),): sc(0, 0), (F(-1),): sc(0, -2), (F(0),): lt.ONE})
    rows = list(lt.grid_scan(g, [(0, 0, 1)], [1], lt.RAT))
    assert [(row.theta, row.csupp, row.component) for row in rows] == [(-1, 1, None)]
    assert list(lt.corner_locus_on_grid([g], [(0, 0, 1)], [1], lt.RAT)) == []


def test_raster_empty_polynomial():
    empty = lt.multipoly(2, {})
    assert list(lt.grid_scan(empty, [(1, 0, 1), (0, 1, 1)], [1, 1], lt.NAT)) == []
    with pytest.raises(lt.PreconditionViolated):
        list(lt.grid_scan(empty, [(0, 1, 1), (0, 1, 1)], [1, 1], lt.NAT))
    assert list(lt.corner_locus_on_grid([empty], [(0, 1, 1), (0, 1, 1)], [1, 1], lt.NAT)) == []


def test_corner_locus_checks_arity():
    with pytest.raises(lt.ArityMismatch):
        lt.corner_locus_on_grid([LINE], [(0, 1, 1), (0, 1, 1)], [1, 1, 1], lt.NAT)
    with pytest.raises(lt.ArityMismatch):
        lt.corner_locus_on_grid([LINE, P("x1 + 0:1")], [(0, 1, 1), (0, 1, 1)], [1, 1], lt.NAT)


def test_corner_locus_without_generators_checks_arity():
    """With no generator to compare against, the region and the layer
    vector must still agree in length."""
    with pytest.raises(lt.ArityMismatch):
        lt.corner_locus_on_grid([], [(0, 1, 1), (0, 1, 1)], [1], lt.NAT)
    with pytest.raises(lt.ArityMismatch):
        lt.corner_locus_on_grid([], [(0, 1, 1)], [1, 1], lt.NAT)
    assert list(lt.corner_locus_on_grid([], [(0, 1, 1), (0, 0, 1)], [1, 1], lt.NAT)) == [
        (F(0), F(0)),
        (F(1), F(0)),
    ]


def test_grid_point_limit(monkeypatch):
    huge = [(0, 10**6 - 1, 1), (0, 10**6 - 1, 1)]  # 10^12 points
    tracemalloc.start()
    try:
        with pytest.raises(lt.OutOfRange):
            lt.grid_scan(LINE, huge, [1, 1], lt.NAT)
        with pytest.raises(lt.OutOfRange):
            lt.corner_locus_on_grid([LINE], huge, [1, 1], lt.NAT)
        with pytest.raises(lt.OutOfRange):
            lt.grid_scan(P("x1 + 0:1"), [(0, 10**12, 1)], [1], lt.NAT)
        wide_next_to_empty = [(0, 10**12, 1), (1, 0, 1)]  # 0 points, but one axis of 10^12
        with pytest.raises(lt.OutOfRange):
            lt.grid_scan(LINE, wide_next_to_empty, [1, 1], lt.NAT)
        with pytest.raises(lt.OutOfRange):
            lt.corner_locus_on_grid([LINE], wide_next_to_empty, [1, 1], lt.NAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    monkeypatch.setattr(lt.multivar, "MAX_GRID_POINTS", 4)
    assert len(list(lt.grid_scan(LINE, [(0, 1, 1), (0, 1, 1)], [1, 1], lt.NAT))) == 4
    with pytest.raises(lt.OutOfRange):
        lt.grid_scan(LINE, [(0, 1, 1), (0, 2, 1)], [1, 1], lt.NAT)


def test_grid_steps_must_be_positive():
    """A zero or negative step, on the first axis or a later one, is refused
    when a raster is called, before any row."""
    for region in ([(0, 1, 0), (0, 1, 1)], [(0, 1, -1), (0, 1, 1)], [(0, 1, 1), (0, 1, 0)],
                   [(0, 1, 1), (1, 0, F(-1, 2))]):
        with pytest.raises(lt.PreconditionViolated, match="^grid steps must be positive$"):
            lt.grid_scan(LINE, region, [1, 1], lt.NAT)
        with pytest.raises(lt.PreconditionViolated, match="^grid steps must be positive$"):
            lt.corner_locus_on_grid([LINE], region, [1, 1], lt.NAT)


def test_corner_locus_fixes_layers_at_first_reach():
    """A generator's layers are checked the first time a point reaches it:
    the generators are tried in order, and the first without a corner root
    ends the test at that point."""
    bad = P("x1 + x2 + 0:5")  # layer 5 is invalid under unit
    no_corner = [(1, 2, 1), (-2, -1, 1)]  # LINE has no corner root here
    assert list(lt.corner_locus_on_grid([LINE, bad], no_corner, [1, 1], lt.UNIT)) == []
    locus = lt.corner_locus_on_grid([LINE, bad], [(-1, 1, 1), (-1, 1, 1)], [1, 1], lt.UNIT)
    with pytest.raises(lt.InvalidLayer):
        list(locus)
    with pytest.raises(lt.InvalidLayer):
        list(lt.corner_locus_on_grid([bad, LINE], no_corner, [1, 1], lt.UNIT))


def test_grid_scan_streams_its_rows():
    """Consuming a streamed raster keeps no rows: on 61x61 points the peak
    is about 25 KB, against about 740 KB for the list of rows.  The facts
    kept per tie set stay as few as the tie sets: the 8-monomial
    polynomial meets 22 of them, not the 3721 points, and peaks at about
    25 KB."""
    region = [(-30, 30, 1), (-30, 30, 1)]
    eight = lt.multipoly(2, {
        (e1, e2): sc(c, l)
        for e1, e2, c, l in [(0, 0, 0, 1), (1, 0, 2, 2), (0, 1, -1, 1), (2, 0, -5, 3),
                             (1, 1, 1, 1), (0, 2, -4, 2), (3, 1, -20, 1), (1, 3, -18, 3)]
    })
    for f in (LINE, eight):
        peaks = []
        for consume in (lambda rows: sum(1 for _ in rows), list):
            tracemalloc.start()
            try:
                consume(lt.grid_scan(f, region, [1, 1], lt.NAT))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        streamed, listed = peaks
        assert streamed < 100_000 < listed


# -- the two shortcuts of a lattice walk: a step along the last axis, and the
# facts of a tie set computed once; each against the pointwise definition ----


def test_locus_generator_skipped_at_some_points():
    """The second generator is folded only where the first has a corner
    root, so its previous fold need not be the lattice predecessor: its
    values are then evaluated in full, not stepped."""
    one = lt.ONE
    region = [(-2, 2, 1), (-2, 2, 1)]
    # on the diagonal: the previous fold at (k-1, k-1) is one step back on
    # the last axis, but in another row
    diagonal = P("x1 + x2")
    edge = lt.multipoly(2, {(1, 0): one, (0, 0): one})  # a corner root where x1 = 0
    assert not lt.is_corner_root(diagonal, pt((0, 1), (1, 1)), lt.NAT)
    for Fs, want in (([diagonal, edge], [(F(0), F(0))]), ([diagonal, LINE], [(F(k), F(k)) for k in range(3)])):
        assert list(lt.corner_locus_on_grid(Fs, region, [1, 1], lt.NAT)) == want
        assert want == _pointwise_locus(Fs, region, [1, 1], lt.NAT)
    # in one row: (x2 + 0)(x2 + 2) has corner roots at x2 = 0 and x2 = 2, so
    # the second generator's previous fold is two steps back
    roots = lt.multipoly(2, {(0, 2): one, (0, 1): sc(2, 1), (0, 0): sc(2, 1)})
    at_two = lt.multipoly(2, {(0, 1): one, (0, 0): sc(2, 1)})
    region = [(0, 0, 1), (-1, 3, 1)]
    assert list(lt.corner_locus_on_grid([roots, at_two], region, [1, 1], lt.NAT)) == [(F(0), F(2))]
    assert _pointwise_locus([roots, at_two], region, [1, 1], lt.NAT) == [(F(0), F(2))]


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_raster_last_axis_of_one_point(sort):
    """Every point starts a row, so no fold steps."""
    rng = random.Random(f"one-point-axis-{sort}")
    raised = 0
    for arity in (1, 2, 3) * 5:
        region = [(rng.randint(-2, 0), 2, F(1, 2)) for _ in range(arity - 1)] + [(1, 1, 1)]
        layers = [rng.choice(COORD_LAYERS[str(sort)]) for _ in range(arity)]
        Fs = [_rand_raster_poly(rng, sort, arity) for _ in range(2)]
        raised += _raster_matches_pointwise(Fs, region, layers, sort)
    assert raised < 15


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_raster_arity_zero_one_and_three(sort):
    """A constant at arity 0, whose one point starts its one row, and
    random rasters of arity 1 and 3."""
    rng = random.Random(f"arity-{sort}")
    constant = lt.multipoly(0, {(): sc(2, 1)})
    assert [tuple(row) for row in lt.grid_scan(constant, [], [], sort)] == _pointwise_rows(constant, [], [], sort)
    assert list(lt.corner_locus_on_grid([], [], [], sort)) == [()]
    assert list(lt.corner_locus_on_grid([constant], [], [], sort)) == []
    raised = 0
    for arity in (1, 3) * 15:
        region = [(rng.randint(-2, 0), rng.randint(0, 2), F(1, rng.choice((1, 2, 3)))) for _ in range(arity)]
        layers = [rng.choice(COORD_LAYERS[str(sort)]) for _ in range(arity)]
        Fs = [_rand_raster_poly(rng, sort, arity) for _ in range(rng.choice((1, 2)))]
        raised += _raster_matches_pointwise(Fs, region, layers, sort)
    assert raised < 30


def test_tie_set_recurs_at_different_values():
    """x1 and 0:2*x2 tie on the whole diagonal, at value k and with the layer
    sum 3 each time; the facts of that tie set, found at its first point,
    serve every later one."""
    f = P("x1 + 0:2*x2 + -5:1")
    region = [(-2, 2, 1), (-2, 2, 1)]
    rows = list(lt.grid_scan(f, region, [1, 1], lt.NAT))
    assert rows == [lt.GridRow(*row) for row in _pointwise_rows(f, region, [1, 1], lt.NAT)]
    diagonal = [row for row in rows if row.point[0] == row.point[1]]
    assert [row.value for row in diagonal] == [F(k) for k in range(-2, 3)]
    assert {(row.theta, row.csupp, row.component) for row in diagonal} == {(3, 2, None)}
    # a single tie recurs too, at the values of x1 where x1 > x2
    above = [row for row in rows if row.point[0] > row.point[1]]
    assert {(row.theta, row.csupp, row.component) for row in above} == {(1, 1, (1, 0))}
    assert len({row.value for row in above}) == 4


# -- rational grids: the integer set-up of the axes and of the forms ----------

# exponents 1/2, -1/2, 3/2 and 1/3 on coordinate layers whose powers by
# them are layers where the sort allows it: square roots of 4 and 1/4, cube
# roots of 8 and 1/8, any root of 1 and of INF (whose negative powers raise,
# as do negative powers of 4 under nat)
ROOT_EXPONENTS = {
    1: [0, 1, -1, F(1, 2), F(-1, 2), F(3, 2), F(1, 3)],
    4: [0, 1, 2, -1, F(1, 2), F(-1, 2), F(3, 2)],
    8: [0, 1, 2, F(1, 3)],
    lt.INF: [0, 1, F(1, 2), F(3, 2), F(1, 3), F(-1, 2)],
}
ROOT_EXPONENTS[F(1, 4)], ROOT_EXPONENTS[F(1, 8)] = ROOT_EXPONENTS[4], ROOT_EXPONENTS[8]
ROOT_LAYERS = {
    "unit": [1],
    "super": [1, lt.INF],
    "trunc:3": [1],
    "nat": [1, 4, 8],
    "posq": [1, 4, 8, F(1, 4)],
    "q": [1, 4, 8, F(1, 8)],
}


def _rational_region(rng, arity):
    """Axes whose lo, hi and step have unlike denominators, hi off the
    lattice; the first is lo = -7/3 with step 2/5."""
    region = []
    for j in range(arity):
        lo, step = F(-7, 3), F(2, 5)
        if j:
            lo, step = rng.choice((F(-5, 4), F(1, 6), F(-1))), rng.choice((F(1, 3), F(3, 4), F(2, 7)))
        hi = lo + rng.randint(0, 3) * step + rng.choice((F(1, 7), step / 2))
        region.append((lo, hi, step))
    return region


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_raster_matches_pointwise_definition_on_rational_grids(sort):
    """Both rasters against the pointwise definition on rational grids,
    with fractional exponents and coefficient denominators 1 to 5."""
    rng = random.Random(f"rational-grid-{sort}")
    compared = raised = 0
    for _ in range(40):
        arity = rng.choice((1, 2, 2, 3))
        region = _rational_region(rng, arity)
        layers = [rng.choice(ROOT_LAYERS[str(sort)]) for _ in range(arity)]
        Fs = [
            lt.multipoly(arity, {
                tuple(F(rng.choice(ROOT_EXPONENTS[l])) for l in layers):
                    lt.LayeredScalar(F(rng.randint(-6, 6), rng.randint(1, 5)), _coeff_layer(rng, sort))
                for _ in range(rng.randint(1, 5))
            })
            for _ in range(rng.choice((1, 2)))
        ]
        raised += _raster_matches_pointwise(Fs, region, layers, sort)
        compared += 1
    assert raised < compared // 2


def test_raster_coordinates_are_fractions_on_the_lattice():
    """Every coordinate is a Fraction equal to lo + k * step, whatever the
    types and denominators of lo, hi and step."""
    region = [(F(-7, 3), F(1, 2), F(2, 5)), (-1, F(1, 2), 1), ("1/6", F(7, 5), F(3, 4))]
    want = [
        (F(-7, 3) + i * F(2, 5), F(-1 + j), F(1, 6) + k * F(3, 4))
        for i in range(8) for j in range(2) for k in range(2)
    ]
    f = lt.multipoly(3, {(1, 0, 0): lt.ONE, (0, F(1, 2), 0): sc(0, 1), (0, 0, F(-1, 3)): sc(F(1, 5), 1)})
    rows = list(lt.grid_scan(f, region, [1, 1, 1], lt.NAT))
    assert [row.point for row in rows] == want
    assert {type(x) for row in rows for x in row.point} == {type(row.value) for row in rows} == {F}
    assert [tuple(row) for row in rows] == _pointwise_rows(f, region, [1, 1, 1], lt.NAT)
    locus = list(lt.corner_locus_on_grid([], region, [1, 1, 1], lt.NAT))
    assert locus == want and {type(x) for point in locus for x in point} == {F}


def test_each_coordinate_power_is_taken_once(monkeypatch):
    """Monomials that share an exponent on an axis take that coordinate
    power once per raster, once per generator, and once per point query."""
    calls = []
    layer_pow_int = lt.sorts.layer_pow_int

    def spy(l, n, sort):
        calls.append((l, n))
        return layer_pow_int(l, n, sort)

    monkeypatch.setattr(lt.sorts, "layer_pow_int", spy)
    # x1^2 in three terms, x2^(1/2) in two: four distinct (axis, exponent) pairs
    f = lt.multipoly(2, {
        (2, 0): lt.ONE, (2, F(1, 2)): sc(1, 1), (2, 1): sc(-1, 2), (1, F(1, 2)): sc(0, 1), (0, 0): sc(-3, 1),
    })
    pairs = [(2, 2), (4, F(1, 2)), (4, 1), (2, 1)]
    region, layers = [(-1, 1, 1), (0, 2, F(1, 2))], [2, 4]
    rows = list(lt.grid_scan(f, region, layers, lt.NAT))
    assert sorted(calls) == sorted(pairs)
    calls.clear()
    list(lt.corner_locus_on_grid([f, f], region, layers, lt.NAT))
    assert sorted(calls) == sorted(pairs * 2)
    calls.clear()
    row = next(row for row in rows if row.point == (0, 1))
    assert lt.mp_eval(f, pt((0, 2), (1, 4)), lt.NAT) == lt.LayeredScalar(row.value, row.theta)
    assert sorted(calls) == sorted(pairs)
    monkeypatch.undo()
    assert [tuple(row) for row in rows] == _pointwise_rows(f, region, layers, lt.NAT)


def test_invalid_power_raises_at_the_first_row():
    """A power that leaves the sort raises at the first row, not at the
    call, and the terms are checked in their order: a refused power of an
    earlier term raises before a later term's invalid coefficient layer."""
    region = [(0, 1, 1), (F(-1, 3), 1, F(1, 3))]
    # sqrt of layer 2 leaves nat; (0, 1/2) sorts before (1, 1/2), whose layer 5/3 is invalid
    root_first = lt.multipoly(2, {(0, F(1, 2)): lt.ONE, (1, F(1, 2)): sc(0, F(5, 3))})
    rows = lt.grid_scan(root_first, region, [1, 2], lt.NAT)
    with pytest.raises(lt.InvalidLayer, match="no exact 2-th root"):
        next(rows)
    # (0, 1/3) sorts before (0, 1/2): now the invalid coefficient comes first
    layer_first = lt.multipoly(2, {(0, F(1, 3)): sc(0, F(5, 3)), (0, F(1, 2)): lt.ONE})
    with pytest.raises(lt.InvalidLayer, match="layer 5/3 is not valid"):
        next(lt.grid_scan(layer_first, region, [1, 8], lt.NAT))
    # in the corner locus, a generator's refused power raises at the first row that reaches it
    assert list(lt.corner_locus_on_grid([LINE, root_first], [(1, 2, 1), (-2, -1, 1)], [1, 2], lt.NAT)) == []
    locus = lt.corner_locus_on_grid([LINE, root_first], [(-1, 1, 1), (-1, 1, 1)], [1, 2], lt.NAT)
    with pytest.raises(lt.InvalidLayer, match="no exact 2-th root"):
        list(locus)
