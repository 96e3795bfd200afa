import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laytrop as lt
from conftest import ALL_SORTS, outcome, rand_layer, rand_poly, rand_scalar, rand_value, tied_value
from test_kernels import oracle_p_eval

sc = lt.scalar
P = lt.parse_poly


def test_p_add():
    f = P("x + 2:1")
    assert lt.p_add(f, f, lt.NAT) == lt.poly({1: sc(0, 2), 0: sc(2, 2)})
    assert lt.p_add(f, lt.zero_poly(), lt.NAT) == f
    assert lt.p_add(P("x"), P("3:1"), lt.NAT) == P("x + 3:1")


def test_p_mul():
    # brute-force convolution: the middle terms <1>+<2> collapse to <2>
    got = lt.p_mul(P("x + 1:1"), P("x + 2:1"), lt.NAT)
    assert got == P("x^2 + 2:1*x + 3:1")
    sq = lt.p_mul(P("x + 2:1"), P("x + 2:1"), lt.NAT)
    assert sq == lt.poly({2: lt.ONE, 1: sc(2, 2), 0: sc(4, 1)})
    f = P("x^3 + 5:2*x + 7:1")
    assert lt.p_mul(lt.monomial(0, lt.ONE), f, lt.NAT) == f


def test_a_polynomial_is_unequal_to_other_types():
    f = lt.poly({0: lt.ONE})
    for other in (lt.ONE, 0, {0: lt.ONE}, None):
        assert f.__eq__(other) is NotImplemented
        assert not f == other and f != other
    assert f == lt.poly({0: lt.ONE}) and not f != lt.poly({0: lt.ONE})


def test_poly_drops_bottom_and_refuses_other_exponents():
    f = lt.poly({0: lt.BOTTOM, 1: lt.ONE})
    assert f.coeffs == {1: lt.ONE} and f == lt.monomial(1, lt.ONE)
    zero = lt.poly({0: lt.BOTTOM})  # every coefficient dropped: the zero polynomial
    assert zero.is_zero and repr(zero) == "LayeredPoly(0)"
    for attr, message in (("degree", "no degree"), ("min_exp", "no minimal exponent")):
        with pytest.raises(ValueError, match=message):
            getattr(zero, attr)
    for exp in (-1, F(1, 2), 1.0, "1"):
        with pytest.raises(ValueError) as raised:
            lt.poly({exp: lt.ONE})
        assert str(raised.value) == f"exponent must be a non-negative integer, got {exp!r}"


def test_p_pow_refuses_a_negative_power():
    f = P("x + 2:1")
    assert lt.p_pow(f, 0, lt.NAT) == lt.monomial(0, lt.ONE)
    with pytest.raises(lt.OutOfRange):
        lt.p_pow(f, -1, lt.NAT)


def test_p_eval():
    sq = lt.p_pow(P("x + 2:1"), 2, lt.NAT)
    assert lt.p_eval(sq, sc(2, 1), lt.NAT) == sc(4, 4)  # layer 2^m, m = 2
    f = P("x^2 + 2:1*x + 4:1")
    assert lt.p_eval(f, sc(2, 1), lt.NAT) == sc(4, 3)
    assert lt.p_eval(P("x + 2:1"), sc(5, 1), lt.NAT) == sc(5, 1)
    assert lt.p_eval(lt.zero_poly(), sc(5, 1), lt.NAT) is lt.BOTTOM
    # the values 1/12, -1/6, 5/6 and x = 1/4 fold over the common denominator 12
    g = lt.poly({0: sc(F(1, 12), 1), 1: sc(F(-1, 6), 2), 2: sc(F(5, 6), 1)})
    assert lt.p_eval(g, sc(F(1, 4), 1), lt.NAT) == sc(F(4, 3), 1)
    assert lt.p_eval(g, sc(F(-1, 4), 1), lt.NAT) == sc(F(1, 3), 1)


def test_essential_form():
    assert lt.essential_form(P("x^2 + 1:1*x + 3:1")) == P("x^2 + 3:1")
    f = P("x^2 + 2:1*x + 3:1")
    assert lt.essential_form(f) == f
    g = lt.poly({2: lt.ONE, 1: lt.LayeredScalar(F(3, 2), F(0)), 0: sc(3, 1)})
    assert lt.essential_form(g) == P("x^2 + 3:1")
    # a 0-layer *vertex* changes the function and must survive
    h = lt.poly({1: lt.ONE, 0: lt.LayeredScalar(F(1), F(0))})
    assert lt.essential_form(h) == h


def test_full_form():
    full = lt.full_form(P("x^2 + 3:1"))
    assert full == lt.poly(
        {2: lt.ONE, 1: lt.LayeredScalar(F(3, 2), F(0)), 0: sc(3, 1)}
    )
    f = lt.full_form(P("x^2 + 2:1*x + 3:1"))
    assert lt.full_form(f) == f
    assert lt.full_form(P("x^3 + 6:1")) == lt.poly(
        {
            3: lt.ONE,
            2: lt.LayeredScalar(F(2), F(0)),
            1: lt.LayeredScalar(F(4), F(0)),
            0: sc(6, 1),
        }
    )


def test_full_form_span_is_bounded(monkeypatch):
    monkeypatch.setattr(lt.polys, "MAX_FULL_FORM_TERMS", 4)
    assert len(lt.full_form(P("x^6 + 1:1*x^2")).coeffs) == 5  # span 4
    with pytest.raises(lt.OutOfRange, match="exceeds"):
        lt.full_form(P("x^7 + 1:1*x^2"))  # span 5


def test_form_flags():
    f = P("x^2 + 2:1*x + 3:1")
    assert f.form is None
    assert lt.essential_form(f).form == "essential"
    assert lt.full_form(f).form == "full"
    with pytest.raises(lt.NotFullForm):
        lt.slopes(f)


def test_full_tag_with_a_gap_is_refused():
    """A hand-tagged full form missing an exponent raised a bare KeyError."""
    gapped = lt.poly({0: sc(0, 1), 3: sc(5, 1), 4: lt.ONE}, form="full")
    for reader in (lt.slopes, lt.homogeneous_parts):
        with pytest.raises(lt.NotFullForm, match="gap"):
            reader(gapped)
    shifted = lt.poly({2: sc(1, 1), 3: lt.ONE}, form="full")  # no gap above x^2
    assert lt.slopes(shifted) == [(F(1), (0, 1))]
    assert lt.slopes(lt.poly({}, form="full")) == []


def test_slopes():
    assert lt.slopes(lt.full_form(P("x^2 + 2:1*x + 3:1"))) == [
        (F(2), (0, 1)),
        (F(1), (1, 2)),
    ]
    assert lt.slopes(lt.full_form(P("x + 5:1"))) == [(F(5), (0, 1))]
    sq = lt.p_pow(P("x + 2:1"), 2, lt.NAT)
    assert lt.slopes(lt.full_form(sq)) == [(F(2), (0, 2))]
    assert lt.slopes(lt.full_form(P("7:2"))) == []


def test_slopes_match_worked_quartic():
    # degree-4 polynomial with a slope-2 run over the top three
    # coefficients and a slope-1 run over the bottom three
    f = lt.poly(
        {4: lt.ONE, 3: sc(2, 3), 2: sc(4, 2), 1: sc(5, 5), 0: sc(6, 1)}
    )
    full = lt.full_form(f)
    assert full == f
    assert lt.slopes(full) == [(F(2), (0, 2)), (F(1), (2, 4))]
    top, bottom = lt.homogeneous_parts(full)
    assert top == lt.poly({4: lt.ONE, 3: sc(2, 3), 2: sc(4, 2)})
    assert bottom == lt.poly({2: sc(4, 2), 1: sc(5, 5), 0: sc(6, 1)})


def test_homogeneous_parts():
    full = lt.full_form(P("x^2 + 2:1*x + 3:1"))
    parts = lt.homogeneous_parts(full)
    assert parts == [P("x^2 + 2:1*x"), P("2:1*x + 3:1")]
    single = lt.full_form(P("x + 5:1"))
    assert lt.homogeneous_parts(single) == [single]
    assert lt.homogeneous_parts(lt.full_form(P("4:1"))) == []


def test_corner_roots():
    assert lt.corner_roots(P("x^2 + 2:1*x + 3:1")) == [(F(2), 1), (F(1), 1)]
    assert lt.corner_roots(P("x^3 + 6:1")) == [(F(2), 3)]


def _probe_grid(f):
    exps = sorted(f.coeffs)
    values = sorted({c.value for c in f.coeffs.values()})
    probes = set()
    spread = [v for v in values] + [values[0] - 5, values[-1] + 5]
    for v in spread:
        probes.add(F(v))
        probes.add(F(v) + F(1, 3))
        probes.add(F(v) - F(1, 2))
    return sorted(probes)


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ, lt.truncated(3)])
def test_function_equality_of_forms(sort):
    rng = random.Random(5)
    for _ in range(60):
        f = rand_poly(rng, sort, max_deg=5)
        ess = lt.essential_form(f)
        full = lt.full_form(f)
        for v in _probe_grid(f):
            for layer in (F(1), F(2)):
                x = lt.LayeredScalar(v, layer)
                expected = lt.p_eval(f, x, sort)
                assert lt.p_eval(ess, x, sort) == expected
                assert lt.p_eval(full, x, sort) == expected


def test_essential_values_are_concave():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(rng, lt.POSQ, max_deg=6)
        ess = lt.essential_form(f)
        exps = sorted(ess.coeffs)
        values = [ess.coeffs[e].value for e in exps]
        for (e0, v0), (e1, v1), (e2, v2) in zip(
            zip(exps, values), zip(exps[1:], values[1:]), zip(exps[2:], values[2:])
        ):
            # middle point on or above the chord, exactly over Q
            assert (v1 - v0) * (e2 - e0) >= (v2 - v0) * (e1 - e0)


def test_full_form_slopes_weakly_decrease_from_top():
    rng = random.Random(13)
    for _ in range(100):
        f = rand_poly(rng, lt.NAT, max_deg=6)
        runs = lt.slopes(lt.full_form(f))
        slope_seq = [s for s, _ in runs]
        assert slope_seq == sorted(slope_seq, reverse=True)
        assert len(set(slope_seq)) == len(slope_seq)


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ])
def test_eval_is_a_homomorphism(sort):
    """On the usual draw, and on tie-heavy values, where f * g, f + g and
    the evaluations add the layers of tied terms."""
    ties = 0
    for value in (rand_value, tied_value):
        rng = random.Random(19)
        for _ in range(150):
            f = rand_poly(rng, sort, max_deg=3, value=value)
            g = rand_poly(rng, sort, max_deg=3, value=value)
            x = rand_scalar(rng, sort, value)
            fg = lt.p_mul(f, g, sort)
            assert lt.p_eval(fg, x, sort) == lt.ls_mul(
                lt.p_eval(f, x, sort), lt.p_eval(g, x, sort), sort
            )
            assert lt.p_eval(lt.p_add(f, g, sort), x, sort) == lt.ls_add(
                lt.p_eval(f, x, sort), lt.p_eval(g, x, sort), sort
            )
            ties += value is tied_value and tied_terms(fg, x) > 1
    assert ties >= 40


def tied_terms(f, x):
    """How many terms of f reach the maximal value at x."""
    values = [c.value + e * x.value for e, c in f.coeffs.items()]
    return values.count(max(values))


def test_eval_nu_compatibility():
    rng = random.Random(23)
    for _ in range(200):
        f = rand_poly(rng, lt.NAT, max_deg=4)
        v = F(rng.randint(-20, 20), rng.randint(1, 5))
        x = lt.LayeredScalar(v, F(rng.randint(1, 4)))
        y = lt.LayeredScalar(v, F(rng.randint(1, 4)))
        assert lt.p_eval(f, x, lt.NAT).value == lt.p_eval(f, y, lt.NAT).value


# -- the integer folds against Fraction oracles ------------------------------


def _status_oracle(f):
    """exponent -> "vertex", "edge" or "below" against the chords of f.

    A point strictly below a chord between points on either side is below
    the upper concave envelope; one on such a chord but below none is on
    an edge; one strictly above every such chord is a corner.
    """
    pts = [(F(e), F(c.value)) for e, c in sorted(f.coeffs.items())]
    status = {}
    for i, (x, y) in enumerate(pts):
        sides = [
            (y - y0) * (x1 - x0) - (y1 - y0) * (x - x0)  # sign of y against the chord
            for x0, y0 in pts[:i]
            for x1, y1 in pts[i + 1:]
        ]
        status[int(x)] = "below" if any(d < 0 for d in sides) else "edge" if 0 in sides else "vertex"
    return status


def _full_oracle(ess):
    """The full form of the essential terms ``ess``, interpolated on Fractions."""
    exps = sorted(ess)
    if exps and exps[-1] - exps[0] > lt.polys.MAX_FULL_FORM_TERMS:
        raise lt.OutOfRange("span")
    out = dict(ess)
    for lo, hi in zip(exps, exps[1:]):
        v_lo, v_hi = F(ess[lo].value), F(ess[hi].value)
        for e in range(lo + 1, hi):
            out[e] = lt.LayeredScalar(v_lo + (v_hi - v_lo) * (e - lo) / (hi - lo), F(0))
    return lt.poly(out, form="full")


def _keeps(status, c):
    return status == "vertex" or (status == "edge" and c.layer != 0)


_BAD_LAYERS = [F(5), F(-1), F(1, 2), F(0), lt.INF]


@st.composite
def _fold_case(draw):
    """A sort, a polynomial and a point: values with denominators 1 to 12
    (ints at times), mostly valid layers with layer 0 and now and then one
    outside the sort, now and then sparse exponents of about 20000, and
    half of the time a point where two monomials tie."""
    sort = draw(st.sampled_from(ALL_SORTS))
    rng = draw(st.randoms(use_true_random=False))

    def value():
        if rng.random() < 0.15:
            return rng.randint(-6, 6)
        return F(rng.randint(-40, 40), rng.randint(1, 12))

    def layer():
        k = rng.random()
        if k < 0.1:
            return F(0)
        if k < 0.15:
            return rng.choice(_BAD_LAYERS)
        return rand_layer(rng, sort)

    shape = rng.random()
    if shape < 0.15:
        exps = {0}  # a constant
    elif shape < 0.3:
        exps = set(rng.sample([b + d for b in (0, 20000) for d in range(4)], rng.randint(1, 5)))
    else:
        exps = set(rng.sample(range(9), rng.randint(0, 7)))
    f = lt.poly({e: lt.LayeredScalar(value(), layer()) for e in exps})
    at = value()
    if len(exps) >= 2 and rng.random() < 0.5:  # where two monomials tie
        (d, c), (e, b) = rng.sample(sorted(f.coeffs.items()), 2)
        at = F(c.value - b.value) / (e - d)
    return sort, f, lt.LayeredScalar(at, layer())


@given(_fold_case())
def test_integer_folds_match_fraction_oracles(case):
    """p_eval and the hull fold ints over one common denominator; the
    oracles fold Fractions, p_eval's through the scalar operations."""
    sort, f, x = case
    assert outcome(lt.p_eval, f, x, sort) == outcome(oracle_p_eval, f, x, sort)
    status = _status_oracle(f)
    assert lt.hull_vertices(f) == {e for e, st_ in status.items() if st_ == "vertex"}
    kept = {e: c for e, c in f.coeffs.items() if _keeps(status[e], c)}
    ess = lt.essential_form(f)
    assert ess == lt.poly(kept) and ess.form == "essential"
    full = outcome(lt.full_form, f)
    assert full == outcome(_full_oracle, kept)
    if isinstance(full, lt.LayeredPoly):
        assert full.form == "full"


# -- the readers of the coefficient hull against _status_oracle ---------------


def _runs_oracle(full):
    """(slope, (start, end)) per pair of consecutive corners of a full form.

    The corners are those of ``_status_oracle``; positions count down from
    the top exponent.  Every unit step inside a run drops by its slope, so
    the run is one edge and its length the root's multiplicity.
    """
    status = _status_oracle(full)
    corners = sorted((e for e, st_ in status.items() if st_ == "vertex"), reverse=True)
    runs = []
    for hi, lo in zip(corners, corners[1:]):
        slope = F(full.coeffs[lo].value - full.coeffs[hi].value) / (hi - lo)
        for e in range(lo, hi):
            assert status[e] in ("vertex", "edge")
            assert full.coeffs[e].value - full.coeffs[e + 1].value == slope
        runs.append((slope, (corners[0] - hi, corners[0] - lo)))
    return runs


def _separable_oracle(f, sort):
    """The linear factors x + <v(e-1) - v(e)>^{l(e-1)/l(e)}, top first, when
    every exponent from 0 to the degree is a corner of a monic f."""
    if f.is_zero:
        raise lt.NotSeparable("the zero polynomial has no linear factorization")
    if f.coeffs[f.degree].value != 0:
        raise lt.NotMonic("separable_factor needs a monic polynomial")
    if f.min_exp != 0:
        raise lt.NotSeparable("divisible by the variable; no linear factorization over R")
    status = _status_oracle(f)
    if sorted(e for e, st_ in status.items() if st_ == "vertex") != list(range(f.degree + 1)):
        raise lt.NotSeparable("slope runs longer than 1: repeated corner root")
    work = lt.POSQ if sort == lt.NAT else sort
    out = []
    for e in range(f.degree, 0, -1):
        hi, lo = f.coeffs[e], f.coeffs[e - 1]
        k = lt.sorts.layer_div(lo.layer, hi.layer, work)
        out.append(lt.poly({1: lt.ONE, 0: lt.LayeredScalar(lo.value - hi.value, k)}))
    return out


def _primary_oracle(f):
    """The common root of a primary f, else None, by the line test: a monic
    f of degree t >= 1 with a constant term is primary when every
    coefficient value is (t - e) * a, a being the constant term's value
    over t."""
    if f.is_zero:
        return None
    t = f.degree
    if f.coeffs[t].value != 0:
        raise lt.NotMonic("is_primary needs a monic polynomial (leading value 0)")
    if t == 0 or f.min_exp != 0:
        return None
    a = F(f.coeffs[0].value) / t
    return a if all(c.value == (t - e) * a for e, c in f.coeffs.items()) else None


def _raised(fn, *args):
    """The result, or the class and message of the refusal."""
    try:
        return fn(*args)
    except lt.LaytropError as err:
        return type(err), str(err)


@st.composite
def _hull_case(draw):
    """A sort and a polynomial around a concave chain of roots.

    The roots come from a pool of at most three values, so they repeat
    (multiple corner roots, with edge terms inside their runs, of layer 0
    at times); a term may be left out or put below the chain.  Some
    polynomials keep every term on a strictly concave chain of a monic
    lead (separable), some are a lone power of x, and some are divided by
    a power of x.
    """
    sort = draw(st.sampled_from(ALL_SORTS))
    rng = draw(st.randoms(use_true_random=False))
    layers = st.sampled_from(["zero", "bad", "valid", "valid", "valid"])

    def layer():
        kind = draw(layers)
        if kind == "zero":
            return F(0)
        return rng.choice(_BAD_LAYERS) if kind == "bad" else rand_layer(rng, sort)

    degree = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(["chain", "chain", "separable", "power"]))
    fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 3))
    if shape == "separable":
        roots = draw(st.lists(st.integers(-30, 30), min_size=degree, max_size=degree, unique=True))
        value = F(0)
    else:
        pool = draw(st.lists(fractions, min_size=1, max_size=3))
        roots = draw(st.lists(st.sampled_from(pool), min_size=degree, max_size=degree))
        value = draw(st.sampled_from([F(0), draw(fractions)]))
    coeffs = {degree: lt.LayeredScalar(value, rand_layer(rng, sort) if shape == "separable" else layer())}
    for e, root in zip(range(degree - 1, -1, -1), sorted(roots, reverse=True)):
        value += root
        term = "on" if shape == "separable" else draw(st.sampled_from(["on", "on", "on", "out", "below"]))
        if term == "below":
            coeffs[e] = lt.LayeredScalar(value - draw(st.integers(1, 6)) / F(2), layer())
        elif term == "on" or e == 0:
            coeffs[e] = lt.LayeredScalar(value, rand_layer(rng, sort) if shape == "separable" else layer())
    if shape == "power":
        coeffs = {degree: coeffs[degree]}
    shift = draw(st.sampled_from([0, 0, 1, 3]))
    return sort, lt.poly({e + shift: c for e, c in coeffs.items()})


@settings(max_examples=400, deadline=None)
@given(_hull_case())
@example((lt.NAT, P("x^2 + 0:1*x + 2:1")))  # monic, its middle term below the line of root 1
def test_hull_readers_match_status_oracle(case):
    """slopes, corner_roots, homogeneous_parts, separable_factor, is_primary
    and psi_a's refusal read the corners of the coefficient hull; the
    oracles read ``_status_oracle``, and ``_primary_oracle`` the line of
    the root."""
    sort, f = case
    status = _status_oracle(f)
    full = _full_oracle({e: c for e, c in f.coeffs.items() if _keeps(status[e], c)})
    assert lt.full_form(f) == full
    runs = _runs_oracle(full)
    assert lt.slopes(full) == runs
    assert lt.corner_roots(f) == [(slope, end - start) for slope, (start, end) in runs]
    top = max(full.coeffs, default=0)
    assert lt.homogeneous_parts(full) == [
        lt.poly({e: c for e, c in full.coeffs.items() if top - end <= e <= top - start})
        for _, (start, end) in runs
    ]
    assert _raised(lt.separable_factor, f, sort) == _raised(_separable_oracle, f, sort)
    root = _raised(_primary_oracle, f)
    assert _raised(lt.is_primary, f) == root
    assert (_raised(lt.psi_a, f) == (lt.NotPrimary, "psi_a needs a primary polynomial")) == (root is None)
