"""Shared random generators for the randomized law suites."""

from fractions import Fraction

import laytrop as lt

try:
    from hypothesis import settings
except ImportError:  # only the Hypothesis suites need it, and they fail to collect
    pass
else:
    # CI runs tier-1 with --hypothesis-profile=ci: every run draws the same
    # examples, and a failure prints the blob that replays it locally.
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)

ALL_SORTS = [lt.UNIT, lt.SUPER, lt.truncated(3), lt.NAT, lt.POSQ, lt.RAT]
FINITE_SORTS = [lt.truncated(3), lt.NAT, lt.POSQ, lt.RAT]
NONNEG_SORTS = [lt.UNIT, lt.SUPER, lt.truncated(3), lt.NAT, lt.POSQ]


def rand_layer(rng, sort):
    if sort == lt.UNIT:
        return Fraction(1)
    if sort == lt.SUPER:
        return rng.choice([Fraction(1), lt.INF])
    if sort.kind == "trunc":
        return Fraction(rng.randint(1, sort.q))
    if sort == lt.NAT:
        return Fraction(rng.randint(1, 4))
    if sort == lt.POSQ:
        return Fraction(rng.randint(1, 8), rng.randint(1, 8))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_value(rng):
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def rand_scalar(rng, sort):
    return lt.LayeredScalar(rand_value(rng), rand_layer(rng, sort))


def rand_poly(rng, sort, max_deg=4, monic=False, with_constant=True):
    deg = rng.randint(1, max_deg)
    coeffs = {}
    coeffs[deg] = lt.ONE if monic else rand_scalar(rng, sort)
    if with_constant:
        coeffs[0] = rand_scalar(rng, sort)
    for e in range(0 if not with_constant else 1, deg):
        if rng.random() < 0.65:
            coeffs[e] = rand_scalar(rng, sort)
    return lt.poly(coeffs)


def rand_primary(rng, sort, root, max_deg=3):
    """Monic primary polynomial with the given root value."""
    deg = rng.randint(1, max_deg)
    coeffs = {deg: lt.ONE}
    for e in range(deg):
        if e == 0 or rng.random() < 0.7:
            coeffs[e] = lt.LayeredScalar(root * (deg - e), rand_layer(rng, sort))
    return lt.poly(coeffs)


def probe_points(decomp, count=50):
    """Sample scalars below, at, between and above all roots of a
    decomposition, cycling coordinate layers 1, 2, 1/2."""
    roots = sorted({pf.root_value for pf in decomp.factors})
    values = {Fraction(0)}
    if roots:
        values.add(roots[0] - 3)
        values.add(roots[-1] + 3)
        values.update(roots)
        values.update(Fraction(a + b, 2) for a, b in zip(roots, roots[1:]))
    values = sorted(values)
    layers = [Fraction(1), Fraction(2), Fraction(1, 2)]
    points = []
    i = 0
    while len(points) < count:
        v = values[i % len(values)] + Fraction(i // len(values), 7)
        points.append(lt.LayeredScalar(v, layers[i % 3]))
        i += 1
    return points
