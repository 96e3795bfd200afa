"""The benchmark's reference arithmetic, ``bench/ref.py``, against the library.

Every ``correct`` verdict of the benchmark compares a laytrop result with
``ref.py``, which shares no code with laytrop.  Here the two agree on
seeded valid inputs, among them coefficients of layer 0 and, under super,
the infinite layer.
"""

import random
from fractions import Fraction as F

import pytest
from conftest import ALL_SORTS, load_tool, rand_layer

import laytrop as lt

ref = load_tool("ref", "bench")


def _rand_poly(rng, sort, max_deg):
    """A valid polynomial with a constant term and small values, so that
    terms tie; about one coefficient in five has layer 0."""
    deg = rng.randint(1, max_deg)
    coeffs = {}
    for e in range(deg + 1):
        if e in (0, deg) or rng.random() < 0.6:
            layer = F(0) if rng.random() < 0.2 else rand_layer(rng, sort)
            coeffs[e] = lt.LayeredScalar(F(rng.randint(-4, 4), rng.randint(1, 2)), layer)
    return lt.poly(coeffs)


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_evaluation_and_resultant_match_the_benchmark_oracle(sort):
    rng = random.Random(1100 + ALL_SORTS.index(sort))
    layers = set()
    for _ in range(200):
        f, g = _rand_poly(rng, sort, 4), _rand_poly(rng, sort, 3)
        b = lt.LayeredScalar(F(rng.randint(-2, 2)), rand_layer(rng, sort))
        value = lt.p_eval(f, b, sort)
        assert (value.value, value.layer) == ref.direct_eval(ref.coeffs_of(f), (b.value, b.layer), sort), b
        res = lt.resultant(f, g, sort)
        rows = ref.sylvester(ref.coeffs_of(f), ref.coeffs_of(g))
        assert (res.value, res.layer) == ref.permanent(rows, sort)[:2], (f, g)
        layers.update((value.layer, res.layer))
    assert 0 in layers
    assert (lt.INF in layers) == (sort == lt.SUPER)
