"""Layered scalars: pairs (value, layer) in logarithmic notation.

The value lives in the ordered group (Q, +); tropical multiplication is
ordinary addition of values and the multiplicative unit is ``ONE`` =
value 0 at layer 1.  Addition keeps the nu-greater argument and adds
layers on ties.  ``BOTTOM`` is the formally adjoined zero used as the
empty matrix entry and as the derivative of a constant; it is not a
LayeredScalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import sorts
from .errors import InvalidLayer, NonInvertibleLayer
from .sorts import INF, Sort, as_layer, is_inf


@dataclass(frozen=True)
class LayeredScalar:
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


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a non-negative integer, or None."""
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    if k >= n.bit_length():  # 2 ** k > n, and 1 ** k = 1 < n
        return None
    # integer Newton iteration, falling from a start above the root
    root = 1 << -(-n.bit_length() // k)
    while True:
        step = ((k - 1) * root + n // root ** (k - 1)) // k
        if step >= root:
            return root if root ** k == n else None
        root = step


def _layer_pow(l, n: Fraction, sort: Sort):
    """Exact l ** n for rational n, staying inside the sort."""
    if is_inf(l):
        if n > 0:
            return INF
        raise InvalidLayer("negative powers of the infinite layer are undefined")
    if n.denominator == 1:
        if l == 0 and n < 0:
            raise InvalidLayer("layer 0 has no negative powers")
        return sorts.bounded_pow(l, n.numerator)
    if l == 0:
        if n > 0:
            return Fraction(0)
        raise InvalidLayer("layer 0 has no negative powers")
    if l < 0:
        raise InvalidLayer("fractional powers of negative layers leave the rationals")
    num = _int_nth_root(l.numerator, n.denominator)
    den = _int_nth_root(l.denominator, n.denominator)
    if num is None or den is None:
        raise InvalidLayer(
            f"layer {sorts.format_layer(l)} has no exact {n.denominator}-th root"
        )
    return sorts.bounded_pow(Fraction(num, den), n.numerator)


def ls_pow(x: LayeredScalar, n, sort: Sort) -> LayeredScalar:
    """x ** n for rational n.

    For n != 0 x's layer and the result must be layers of the sort, or
    0; n = 0 gives ONE for any x.
    """
    n = Fraction(n)
    if n == 0:
        return ONE
    if n.denominator == 1 and n > 0:
        # the n-fold product inside the sort, so truncation caps apply
        layer = sorts.layer_pow_int(x.layer, n.numerator, sort)
    else:
        layer = _layer_pow(sorts.require_layer(x.layer, sort), n, sort)
        if not sorts.layer_valid(layer, sort, allow_zero=True):
            raise InvalidLayer(
                f"layer {sorts.format_layer(x.layer)} ** {n} leaves sort {sort}"
            )
    return LayeredScalar(x.value * n, layer)
