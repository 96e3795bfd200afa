"""Cross-module algebraic laws driven by hypothesis."""

import functools
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import laytrop as lt
from conftest import tied_value
from laytrop import sorts

SORTS = st.sampled_from(
    [lt.UNIT, lt.SUPER, lt.truncated(3), lt.NAT, lt.POSQ, lt.RAT]
)


def layer_for(sort):
    if sort == lt.UNIT:
        return st.just(F(1))
    if sort == lt.SUPER:
        return st.sampled_from([F(1), lt.INF])
    if sort.kind == "trunc":
        return st.integers(1, sort.q).map(F)
    if sort == lt.NAT:
        return st.integers(1, 5).map(F)
    if sort == lt.POSQ:
        return st.builds(F, st.integers(1, 9), st.integers(1, 9))
    return st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def scalar_for(sort):
    value = st.builds(F, st.integers(-50, 50), st.integers(1, 8))
    return st.builds(lt.LayeredScalar, value, layer_for(sort))


@st.composite
def sort_and_scalars(draw, n):
    sort = draw(SORTS)
    return sort, [draw(scalar_for(sort)) for _ in range(n)]


@st.composite
def sort_and_layers(draw, n):
    """A sort and n of its layers, layer 0 included (INF under super)."""
    sort = draw(SORTS)
    layer = st.one_of(st.just(F(0)), layer_for(sort))
    return sort, [draw(layer) for _ in range(n)]


@given(sort_and_layers(2), st.integers(0, 12))
@settings(max_examples=400, deadline=None)
def test_raw_ops_are_closed_and_match_checked_ops(data, n):
    """The kernels' unchecked folds rely on this: valid layers in, valid layers out."""
    sort, (k, l) = data
    for raw, checked in (
        (sort.add(k, l), lt.layer_add(k, l, sort)),
        (sort.mul(k, l), lt.layer_mul(k, l, sort)),
        (sort.pow(k, n), lt.layer_pow_int(k, n, sort)),
    ):
        assert raw == 0 or sorts.layer_valid(raw, sort)
        assert raw == checked


CAPPED = [lt.UNIT, lt.SUPER, lt.truncated(1), lt.truncated(3), lt.truncated(4)]
EVERY_SORT = CAPPED + [lt.NAT, lt.POSQ, lt.RAT]


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_each_sort_is_a_commutative_semiring(data):
    """sort.add and sort.mul on the layers with 0: INF under super, the caps."""
    sort = data.draw(st.sampled_from(EVERY_SORT))
    k, l, m = (data.draw(st.one_of(st.just(F(0)), layer_for(sort))) for _ in range(3))
    add, mul = sort.add, sort.mul
    assert add(k, l) == add(l, k)
    assert mul(k, l) == mul(l, k)
    assert add(add(k, l), m) == add(k, add(l, m))
    assert mul(mul(k, l), m) == mul(k, mul(l, m))
    assert mul(k, add(l, m)) == add(mul(k, l), mul(k, m))
    assert add(F(0), k) == k and mul(F(0), k) == 0
    assert mul(F(1), k) == k


@given(st.sampled_from(CAPPED), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=400, deadline=None)
def test_collapse_is_a_homomorphism_from_n(sort, a, b):
    c = sort.collapse
    a, b = F(a), F(b)
    assert c(a + b) == sort.add(c(a), c(b))
    assert c(a * b) == sort.mul(c(a), c(b))
    assert c(F(0)) == 0 and c(F(1)) == 1
    if sort == lt.SUPER:  # INF read as 2, as Sort.fold reads it: 2 collapses to INF
        assert c(F(2)) == lt.INF
        assert c(2 + b) == sort.add(lt.INF, c(b)) and c(2 * b) == sort.mul(lt.INF, c(b))
        assert c(F(2) ** int(a)) == sort.pow(lt.INF, a)


def stepwise_fold(terms, sort):
    """The sum of the products of powers by ``Sort.add``, ``Sort.mul`` and
    ``Sort.pow``, one step at a time."""
    return functools.reduce(
        sort.add, (functools.reduce(sort.mul, (sort.pow(l, e) for l, e in term)) for term in terms)
    )


def exponent_for(sort):
    """0..40, and under a collapse the exponents next to where Sort.pow
    clamps them for each layer up to the cap (INF under super is 2)."""
    if sort.exact:
        return st.integers(0, 40)
    clamps = {sort._clamp(F(l), 40) + d for l in range(1, (sort.q or 2) + 1) for d in (-1, 0, 1)}
    return st.one_of(st.integers(0, 40), st.sampled_from(sorted(clamps)))


@st.composite
def sort_and_terms(draw):
    """A sort and 1..4 terms of 1..3 (layer, exponent) pairs: layer 0 in
    every sort, INF under super, negative and fractional layers under q."""
    sort = draw(st.sampled_from(EVERY_SORT))
    pair = st.tuples(st.one_of(st.just(F(0)), layer_for(sort)), exponent_for(sort))
    return sort, draw(st.lists(st.lists(pair, min_size=1, max_size=3), min_size=1, max_size=4))


@given(sort_and_terms())
@example((lt.SUPER, [[(lt.INF, 40), (F(0), 1)], [(lt.INF, 0)], [(F(1), 2), (lt.INF, 1)]]))
@example((lt.truncated(4), [[(F(3), 2), (F(2), 3)], [(F(0), 40)], [(F(4), 0)]]))
@example((lt.RAT, [[(F(-3, 2), 3), (F(1, 3), 1)], [(F(5, 2), 40)], [(F(0), 2), (F(-1), 0)]]))
@settings(max_examples=600, deadline=None)
def test_fold_is_the_stepwise_fold(data):
    """Sort.fold, one exact sum collapsed once, is the stepwise fold."""
    sort, terms = data
    got = sort.fold(terms)
    assert got == stepwise_fold(terms, sort) and type(got) is type(stepwise_fold(terms, sort))
    assert got == 0 or sorts.layer_valid(got, sort)


@given(st.sampled_from(EVERY_SORT), st.randoms(use_true_random=False), st.data())
@settings(max_examples=300, deadline=None)
def test_p_eval_at_ties_is_the_stepwise_fold(sort, rng, data):
    """At tie-heavy values, p_eval's layer is the stepwise sum over the
    tied terms of c * k**e, for coefficient layers c and the point's k."""
    layer = st.one_of(st.just(F(0)), layer_for(sort))
    exps = data.draw(st.sets(exponent_for(sort), min_size=1, max_size=5))
    f = lt.poly({e: lt.LayeredScalar(tied_value(rng), data.draw(layer)) for e in exps})
    x = lt.LayeredScalar(tied_value(rng), data.draw(layer))
    values = {e: c.value + e * x.value for e, c in f.coeffs.items()}
    tied = [(c.layer, e) for e, c in f.coeffs.items() if values[e] == max(values.values())]
    want = functools.reduce(sort.add, (sort.mul(c, sort.pow(x.layer, e)) for c, e in tied))
    assert lt.p_eval(f, x, sort) == lt.LayeredScalar(max(values.values()), want)


@given(sort_and_scalars(3))
@settings(max_examples=400, deadline=None)
def test_distributivity(data):
    sort, (x, y, z) = data
    assert lt.ls_mul(x, lt.ls_add(y, z, sort), sort) == lt.ls_add(
        lt.ls_mul(x, y, sort), lt.ls_mul(x, z, sort), sort
    )


@given(sort_and_scalars(2))
@settings(max_examples=400, deadline=None)
def test_addition_is_nu_monotone(data):
    sort, (x, y) = data
    total = lt.ls_add(x, y, sort)
    assert total.value == max(x.value, y.value)


@given(sort_and_scalars(2))
@settings(max_examples=400, deadline=None)
def test_surpassing_is_reflexive_and_layer_monotone(data):
    sort, (x, y) = data
    assert lt.surpasses_L(x, x, sort)
    total = lt.ls_add(x, y, sort)
    # the sum surpasses each summand at the summand's own layer when it
    # keeps that summand's value
    if total.value == x.value and lt.nu_cmp(x, y) != 0:
        assert total == x


@given(sort_and_scalars(2))
@settings(max_examples=200, deadline=None)
def test_truncation_quotient_commutes_with_scalar_ops(data):
    sort, (x, y) = data
    if sort != lt.NAT:
        return
    q = 3
    tr = lt.truncated(q)

    def cap(s):
        return lt.LayeredScalar(s.value, lt.truncate_layer(s.layer, q))

    assert cap(lt.ls_add(x, y, sort)) == lt.ls_add(cap(x), cap(y), tr)
    assert cap(lt.ls_mul(x, y, sort)) == lt.ls_mul(cap(x), cap(y), tr)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_poly_ring_laws(data):
    sort = data.draw(SORTS)
    coeffs = st.dictionaries(st.integers(0, 4), scalar_for(sort), min_size=1, max_size=4)
    f = lt.poly(data.draw(coeffs))
    g = lt.poly(data.draw(coeffs))
    h = lt.poly(data.draw(coeffs))
    assert lt.p_mul(f, g, sort) == lt.p_mul(g, f, sort)
    assert lt.p_mul(f, lt.p_add(g, h, sort), sort) == lt.p_add(
        lt.p_mul(f, g, sort), lt.p_mul(f, h, sort), sort
    )
    assert lt.p_mul(lt.p_mul(f, g, sort), h, sort) == lt.p_mul(
        f, lt.p_mul(g, h, sort), sort
    )
