"""The sorting semiring of layers.

A layer is encoded universally as an exact ``Fraction`` or the infinite
element ``INF``; which encodings are legal depends on the active sort:

* ``UNIT``          -- only layer 1 (max-plus; 1+1 = 1).
* ``SUPER``         -- layers {1, INF}; 1*1 = 1, every other sum/product INF.
* ``truncated(q)``  -- layers {1, ..., q}; sums and products cap at q.
* ``NAT``           -- positive integers with ordinary arithmetic.
* ``POSQ``          -- positive rationals with ordinary arithmetic.
* ``RAT``           -- arbitrary rationals; 0 absorbs multiplicatively.

Every sort's arithmetic is exact rational arithmetic followed by the
sort's collapse map (``Sort.collapse``): every nonzero layer goes to 1
under ``UNIT``, layers >= 2 go to ``INF`` under ``SUPER``, layers >= q go
to q under ``truncated(q)``, and nothing moves under the other three.
Sums, products, n-fold sums and powers are all derived from that map.

Layers are checked where a kernel is entered.  Scalars and polynomials
carry no sort, so a layer cannot be checked when it is built or parsed;
instead each public operation (``layer_add``, ``ls_mul``, ...) runs
``require_layer`` on each input layer it uses.  The kernels
``p_eval``, ``p_mul``, ``mp_mul``, ``mp_eval``, the two rasters
(``grid_scan``, ``corner_locus_on_grid``) and ``eval_sort`` do so once
per layer and call, and their inner loops then work on the unchecked
operations ``_raw_ops(sort)`` and ``_raw_pow``, under which the valid
layers (with 0) are closed.  An input a kernel never reads is not
checked: ``p_eval`` of a constant accepts any point.

Layer 0 additionally appears in *every* sort as the formal marker of
inessential full-form coefficients.  Arithmetic treats it uniformly:
0 + l = l and 0 * l = 0.  It is not a member of the sort (except under
``RAT``) and ``layer_valid`` rejects it elsewhere; the ``allow_zero``
flag used internally by the arithmetic admits it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidLayer, LayerNotDivisible, NonInvertibleLayer, OutOfRange

INF = float("inf")
_ZERO = Fraction(0)
_ONE = Fraction(1)

# Exact powers under nat, posq and q are refused beyond this many bits of
# numerator or denominator (2**14 bits, about 4900 decimal digits).
MAX_LAYER_BITS = 1 << 14

_UNIT = "unit"
_SUPER = "super"
_TRUNC = "trunc"
_NAT = "nat"
_POSQ = "posq"
_RAT = "q"
_EXACT = (_NAT, _POSQ, _RAT)  # sorts whose collapse map is the identity


@dataclass(frozen=True)
class Sort:
    """One instance of the sorting semiring; see the module docstring."""

    kind: str
    q: int | None = None

    def __str__(self):
        if self.kind == _TRUNC:
            return f"trunc:{self.q}"
        return self.kind

    def __repr__(self):
        return f"Sort({self})"

    def collapse(self, x):
        """Map an exact sum, product or power of layers onto this sort."""
        if self.kind == _UNIT:
            return _ONE if x else x
        if self.kind == _SUPER:
            return x if x <= 1 else INF
        if self.kind == _TRUNC:
            return x if x < self.q else Fraction(self.q)
        return x


UNIT = Sort(_UNIT)
SUPER = Sort(_SUPER)
NAT = Sort(_NAT)
POSQ = Sort(_POSQ)
RAT = Sort(_RAT)


def truncated(q: int) -> Sort:
    if not isinstance(q, int) or q < 1:
        raise InvalidLayer(f"truncation bound must be a positive integer, got {q!r}")
    return Sort(_TRUNC, q)


def parse_sort(text: str) -> Sort:
    """Parse the CLI grammar ``unit|super|trunc:<q>|nat|posq|q``."""
    plain = {"unit": UNIT, "super": SUPER, "nat": NAT, "posq": POSQ, "q": RAT}
    if text in plain:
        return plain[text]
    if text.startswith("trunc:"):
        try:
            return truncated(int(text[len("trunc:"):]))
        except ValueError:
            pass
    raise InvalidLayer(f"unknown sort {text!r}")


Layer = object  # Fraction or INF; kept loose on purpose


def is_inf(layer) -> bool:
    # the type test spares Fraction.__eq__ against a float on every check
    return isinstance(layer, float) and layer == INF


def as_layer(value) -> Layer:
    """Normalize an int/Fraction/INF into the universal layer encoding."""
    if is_inf(value):
        return INF
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidLayer(f"not a layer: {value!r}")


def layer_valid(layer, sort: Sort, allow_zero: bool = False) -> bool:
    """Membership of ``layer`` in the sort (optionally admitting formal 0)."""
    if is_inf(layer):
        return sort.kind == _SUPER
    if isinstance(layer, int):
        layer = Fraction(layer)
    elif not isinstance(layer, Fraction):
        return False
    if allow_zero and layer == 0:
        return True
    if sort.kind == _UNIT:
        return layer == 1
    if sort.kind == _SUPER:
        return layer == 1
    if sort.kind == _TRUNC:
        return layer.denominator == 1 and 1 <= layer <= sort.q
    if sort.kind == _NAT:
        return layer.denominator == 1 and layer >= 1
    if sort.kind == _POSQ:
        return layer > 0
    return True  # RAT


def require_layer(layer, sort: Sort, allow_zero: bool = True) -> Layer:
    layer = as_layer(layer)
    if not layer_valid(layer, sort, allow_zero=allow_zero):
        raise InvalidLayer(f"layer {format_layer(layer)} is not valid under sort {sort}")
    return layer


def infinite_layer(layer, sort: Sort) -> bool:
    """True when layer + p = layer for every positive p (Def. of finiteness)."""
    if sort.kind == _UNIT:
        return layer == 1
    if sort.kind == _SUPER:
        return is_inf(layer)
    if sort.kind == _TRUNC:
        return layer == sort.q
    return False


def _raw_ops(sort: Sort):
    """The sort's (add, mul) on layers already validated, for hot loops."""
    if sort.kind in _EXACT:
        return operator.add, operator.mul
    collapse = sort.collapse

    def add(k, l):
        return collapse(k + l)

    def mul(k, l):
        if k == 0 or l == 0:  # layer 0 absorbs, and 0 * INF is nan
            return _ZERO
        return collapse(k * l)

    return add, mul


def layer_add(k, l, sort: Sort) -> Layer:
    add, _ = _raw_ops(sort)
    return add(require_layer(k, sort), require_layer(l, sort))


def layer_mul(k, l, sort: Sort) -> Layer:
    _, mul = _raw_ops(sort)
    return mul(require_layer(k, sort), require_layer(l, sort))


def layer_cmp(k, l) -> int:
    """Total order on the universal encoding; INF is maximal."""
    k = as_layer(k)
    l = as_layer(l)
    if k == l:
        return 0
    return -1 if k < l else 1


def is_ghost_sort(l, base, sort: Sort) -> bool:
    """True iff l = base + p for some positive p of the sort.

    Under a totally ordered L this is: l > base, or l = base infinite.
    """
    l = require_layer(l, sort)
    base = require_layer(base, sort)
    if layer_cmp(l, base) > 0:
        return True
    return l == base and infinite_layer(l, sort)


def truncate_layer(l, q) -> Layer:
    """Quotient map collapsing every layer >= q to q."""
    l = as_layer(l)
    q = as_layer(q)
    if is_inf(q) or q <= 0:
        raise InvalidLayer("truncation bound must be finite and positive")
    return l if layer_cmp(l, q) < 0 else q


def layer_nmul(n: int, l, sort: Sort) -> Layer:
    """The n-fold sum l + ... + l inside the sort (n >= 1)."""
    if n < 1:
        raise InvalidLayer(f"n-fold sum needs n >= 1, got {n}")
    return sort.collapse(n * require_layer(l, sort))


def layer_ndiv(n: int, l, sort: Sort) -> Layer:
    """Solve layer_nmul(n, x, sort) == l for x, or raise LayerNotDivisible."""
    if n < 1:
        raise InvalidLayer(f"n-fold quotient needs n >= 1, got {n}")
    l = require_layer(l, sort)
    if n == 1 or l == 0:
        return l
    if sort.kind == _UNIT:
        return Fraction(1)
    if sort.kind == _SUPER:
        if is_inf(l):
            return INF
        raise LayerNotDivisible(f"layer {format_layer(l)} has no {n}-fold half under {sort}")
    x = l / n
    if not layer_valid(x, sort):
        raise LayerNotDivisible(f"{n} does not divide layer {format_layer(l)} under {sort}")
    return x


def layer_div(k, l, sort: Sort) -> Layer:
    """Exact quotient k / l inside the sort, where it exists."""
    k = require_layer(k, sort)
    l = require_layer(l, sort)
    if l == 0:
        raise NonInvertibleLayer("layer 0 is not invertible")
    if k == 0:  # x * l = 0 with l != 0 forces x = 0 in every sort
        return _ZERO
    if sort.kind == _UNIT:
        return Fraction(1)
    if sort.kind == _SUPER:
        if l == 1:
            return k
        raise NonInvertibleLayer("layer inf is not invertible under the supertropical sort")
    if sort.kind == _TRUNC:
        # capping destroys cancellation; quotients are not well defined
        raise LayerNotDivisible(f"layer division is not defined under {sort}")
    x = k / l
    if not layer_valid(x, sort):
        raise LayerNotDivisible(
            f"layer {format_layer(k)} is not divisible by {format_layer(l)} under {sort}"
        )
    return x


def layer_pow_int(l, n: int, sort: Sort) -> Layer:
    """l multiplied with itself n times (n >= 0); n = 0 gives layer 1.

    Checks l (only when n > 0) and returns ``_raw_pow``.
    """
    return _raw_pow(require_layer(l, sort) if n > 0 else l, n, sort)


def _raw_pow(l, n: int, sort: Sort) -> Layer:
    """``layer_pow_int`` on a layer already checked, for hot loops.

    The exact power followed by the collapse.  Under trunc:q the collapse
    sends every power of a layer >= 2 to q from n = q.bit_length() on
    (2**n > q), so the exponent is clamped there (n = 1 under unit and
    super) and the work is O(1).  Under nat, posq and q ``bounded_pow``
    refuses powers beyond ``MAX_LAYER_BITS``.
    """
    if n < 0:
        raise InvalidLayer("integer layer power needs n >= 0")
    if n == 0:
        return _ONE
    if sort.kind in _EXACT:
        return bounded_pow(l, n)
    clamp = sort.q.bit_length() if sort.kind == _TRUNC else 1
    return sort.collapse(l ** min(n, clamp))


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def bounded_pow(l: Fraction, e: int) -> Fraction:
    """The exact rational power l ** e (any integer e).

    Raises OutOfRange when its numerator or denominator would need more
    than MAX_LAYER_BITS bits.  A b-bit part has a power of at least
    (b - 1) * |e| + 1 bits, so such powers are refused before any work;
    the rest cost at most 2 * MAX_LAYER_BITS bits and are checked exactly.
    """
    if (_bits(l) - 1) * abs(e) < MAX_LAYER_BITS:
        out = l ** e
        if _bits(out) <= MAX_LAYER_BITS:
            return out
    raise OutOfRange(f"a layer power with exponent {e} exceeds {MAX_LAYER_BITS} bits")


def format_value(v) -> str:
    """Decimal text of a rational, ``p`` or ``p/q``.

    Raises OutOfRange for a number too long for the interpreter's
    integer-to-decimal conversion limit (4300 digits by default).
    """
    v = Fraction(v)
    try:
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    except ValueError:
        raise OutOfRange(f"a {_bits(v)}-bit number is too long to print") from None


def format_layer(l) -> str:
    return "inf" if is_inf(l) else format_value(l)
