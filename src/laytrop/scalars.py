"""Layered scalars: pairs (value, layer) in logarithmic notation.

The value lives in the ordered group (Q, +); tropical multiplication is
ordinary addition of values and the multiplicative unit is ``ONE`` =
value 0 at layer 1.  Addition keeps the nu-greater argument and adds
layers on ties.  ``BOTTOM`` is the formally adjoined zero used as the
empty matrix entry and as the derivative of a constant; it is not a
LayeredScalar.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import sorts
from .errors import NonInvertibleLayer
from .sorts import Sort, as_layer, is_inf


class LayeredScalar(NamedTuple):
    value: Fraction
    layer: object  # Fraction or INF

    def __repr__(self):
        return f"<{self.value}>^{sorts.format_layer(self.layer)}"


class _Bottom:
    """The adjoined zero: BOTTOM + x = x and BOTTOM * x = BOTTOM."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


def scalar(value, layer=1) -> LayeredScalar:
    return LayeredScalar(Fraction(value), as_layer(layer))


ONE = scalar(0, 1)


def integer_scale(values):
    """(D, [v * D for v in values]) for the least common multiple D of the
    denominators of the values, which are ints or Fractions.

    D is positive, so the ints keep every order and equality of the
    values: a loop can add, compare and tie them exactly and divide by D
    once on the way out.
    """
    values = list(values)
    # not math.lcm(*generator): unpacking a generator resizes the argument
    # tuple, and each call then leaves one more tuple on the interpreter's
    # free list of that size, which shows as resident memory
    scale = functools.reduce(math.lcm, (v.denominator for v in values), 1)
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def s(x: LayeredScalar):
    """The sorting map: the layer of x."""
    return x.layer


def nu_cmp(x: LayeredScalar, y: LayeredScalar) -> int:
    """Compare underlying values only (nu-equivalence ignores layers)."""
    if x.value == y.value:
        return 0
    return -1 if x.value < y.value else 1


def ls_add(x: LayeredScalar, y: LayeredScalar, sort: Sort) -> LayeredScalar:
    c = nu_cmp(x, y)
    if c > 0:
        return x
    if c < 0:
        return y
    return LayeredScalar(x.value, sorts.layer_add(x.layer, y.layer, sort))


def ls_mul(x: LayeredScalar, y: LayeredScalar, sort: Sort) -> LayeredScalar:
    return LayeredScalar(x.value + y.value, sorts.layer_mul(x.layer, y.layer, sort))


def ls_sum(items, sort: Sort):
    """Fold ls_add over an iterable, skipping BOTTOM; BOTTOM if empty."""
    out = BOTTOM
    for item in items:
        if item is BOTTOM:
            continue
        out = item if out is BOTTOM else ls_add(out, item, sort)
    return out


def is_ell_ghost(x: LayeredScalar, l, sort: Sort) -> bool:
    return sorts.is_ghost_sort(x.layer, l, sort)


def surpasses_ell(a: LayeredScalar, b: LayeredScalar, l, sort: Sort) -> bool:
    """The ell-surpassing relation.

    a surpasses b at level l iff a = b, or a is an l-ghost with a >=nu b.
    (The existential clause "a = b + c" collapses to the latter under a
    totally ordered sorting semiring: take c = a when a >nu b.)
    """
    if a == b:
        return True
    return nu_cmp(a, b) >= 0 and is_ell_ghost(a, l, sort)


def surpasses_L(a: LayeredScalar, b: LayeredScalar, sort: Sort) -> bool:
    """Surpassing at the level of b's own layer."""
    return surpasses_ell(a, b, b.layer, sort)


def ls_inv(x: LayeredScalar, sort: Sort) -> LayeredScalar:
    """Multiplicative inverse: value negated, layer inverted in L."""
    l = sorts.require_layer(x.layer, sort)
    if is_inf(l) or l == 0:
        raise NonInvertibleLayer(f"layer {sorts.format_layer(l)} is not invertible")
    inv_layer = 1 / l
    if not sorts.layer_valid(inv_layer, sort):
        raise NonInvertibleLayer(
            f"layer {sorts.format_layer(l)} has no inverse under sort {sort}"
        )
    return LayeredScalar(-x.value, inv_layer)


def ls_pow(x: LayeredScalar, n, sort: Sort) -> LayeredScalar:
    """x ** n for rational n; the layer is ``Sort.pow``'s.

    For n != 0 x's layer and the result must be layers of the sort, or
    0; n = 0 gives ONE for any x.
    """
    n = Fraction(n)
    if n == 0:
        return ONE
    return LayeredScalar(x.value * n, sorts.layer_pow_int(x.layer, n, sort))
