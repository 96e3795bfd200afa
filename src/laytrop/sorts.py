"""The sorting semiring of layers.

A layer is encoded universally as an exact ``Fraction`` or the infinite
element ``INF``.  A sort is a membership test (which encodings are its
layers) and a collapse map (which sends an exact sum, product or power
of layers back into the sort), both fixed where the sort is defined:

* ``UNIT``: layer 1; every nonzero layer collapses to 1 (max-plus).
* ``SUPER``: layers 1 and ``INF``; layers >= 2 collapse to ``INF``.
* ``truncated(q)``: layers 1, ..., q; layers >= q collapse to q.
* ``NAT``, ``POSQ``, ``RAT``: the positive integers, the positive
  rationals, all rationals; the collapse is the identity.

Every other layer rule is derived from these two parts:

* ``Sort.add`` and ``Sort.mul``: the exact sum or product, collapsed;
* ``Sort.pow``: for a positive integer exponent the exact power,
  collapsed.  Where the collapse is not the identity the exponent is
  clamped where every further power collapses to the same layer, so the
  exact power stays short.  Any other rational exponent gives the exact
  power (a root, then a power), not collapsed, since it is no n-fold
  product; it must be 0 or a member of the sort.  Every rational power
  of layer 1 is 1 (a member of every sort), so it costs no arithmetic;
  an exponent that is no rational still raises;
* ``layer_valid`` and ``require_layer``: the membership test;
* ``truncate_layer``: the collapse of ``truncated(q)`` on its own;
* ``infinite_layer``: l + 1 collapses to l (never where the collapse is
  the identity);
* ``layer_nmul`` and ``layer_ndiv``: the n-fold sum, and its inverse
  l / n when that is a layer, else l itself when n * l collapses to l;
* ``layer_div``: k / l when that is a layer.  It refuses an ``INF``
  divisor, and any division under ``truncated(q)``, where capping
  destroys cancellation.

Layers are checked where a kernel is entered.  Scalars and polynomials
carry no sort, so a layer cannot be checked when it is built or parsed;
instead each public operation (``layer_add``, ``ls_mul``, ...) runs
``require_layer`` on each input layer it uses.  The kernels
``p_eval``, ``p_mul``, ``mp_mul``, ``mp_eval`` and the two rasters
(``grid_scan``, ``corner_locus_on_grid``, which stream their rows and
check a monomial's layer at the first row that reaches it) do so once
per layer and call, and their inner loops then work on the unchecked
``sort.add``, ``sort.mul`` and ``sort.pow``, under which the valid
layers (with 0) are closed; ``p_eval`` checks a polynomial's
coefficient layers once per sort object, and keeps the checked layers
on the polynomial.  ``eval_sort`` is a product of such calls
(``layer_pow_int``, ``require_layer`` and ``p_eval``), with no loop of
its own.  Values carry no sort: ``p_eval``,
``p_mul`` and ``mp_mul``, the coefficient hull and the raster fold
scale them once to ints over one common denominator and compare those
ints; ``p_eval`` and the products then compute layers
only for the nu-maximal terms, the ones whose values tie.  An input a
kernel never reads is not checked: ``p_eval`` of a constant accepts any
point.

Layer 0 additionally appears in *every* sort as the formal marker of
inessential full-form coefficients.  Arithmetic treats it uniformly:
0 + l = l and 0 * l = 0.  It is not a member of the sort (except under
``RAT``), so ``layer_valid`` rejects it elsewhere, but ``require_layer``
admits it; a caller that admits it writes ``l == 0 or layer_valid(l, sort)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable

from .errors import InvalidLayer, LayerNotDivisible, NonInvertibleLayer, OutOfRange

INF = float("inf")
_ZERO = Fraction(0)
_ONE = Fraction(1)

# Exact powers under nat, posq and q are refused beyond this many bits of
# numerator or denominator (2**14 bits, about 4900 decimal digits).
MAX_LAYER_BITS = 1 << 14


def _same(x):
    return x


class Sort:
    """One instance of the sorting semiring; see the module docstring.

    Immutable by convention; equality and hashing read ``kind`` and ``q``.
    """

    __slots__ = ("kind", "q", "member", "collapse", "add", "mul")

    def __init__(
        self, kind: str, q: int | None = None, *, member: Callable, collapse: Callable = _same
    ):
        self.kind = kind
        self.q = q
        self.member = member
        self.collapse = collapse
        if self.exact:
            add, mul = operator.add, operator.mul
        else:
            def add(k, l):
                return collapse(k + l)

            def mul(k, l):
                if k == 0 or l == 0:  # layer 0 absorbs, and 0 * INF is nan
                    return _ZERO
                return collapse(k * l)

        self.add, self.mul = add, mul

    def __eq__(self, other):
        if not isinstance(other, Sort):
            return NotImplemented
        return (self.kind, self.q) == (other.kind, other.q)

    def __hash__(self):
        return hash((self.kind, self.q))

    @property
    def exact(self) -> bool:
        """True when the collapse is the identity (nat, posq, q)."""
        return self.collapse is _same

    def __str__(self):
        return self.kind if self.q is None else f"{self.kind}:{self.q}"

    def __repr__(self):
        return f"Sort({self})"

    def pow(self, l, n):
        """l ** n for a checked layer l (0 included) and a rational n.

        n = 0 gives 1 for any l.  A positive integer n gives the n-fold
        product, collapsed.  Once 2**n > q (q = 1 under unit and super)
        every power of a layer >= 2 collapses to the same layer, hence
        the clamp; without a collapse ``bounded_pow`` refuses powers
        beyond MAX_LAYER_BITS.  Under trunc:q a layer of b >= 2 bits has
        l**n >= 2**((b-1)*n), so n is also clamped to
        ceil(bits(q) / (b-1)): the exact power then has at most about
        2 * bits(q) + b bits.

        Any other n gives the exact power (an integer root, then
        ``bounded_pow``).  A root is not an n-fold product, so it is not
        collapsed: InvalidLayer unless it is 0 or a member of the sort.

        Layer 1 is a member of every sort and every rational power of it
        is 1, so l = 1 returns 1 at once, but only after n is normalized:
        an n that is no rational (None, text) still raises.
        """
        if n == 0:
            return _ONE
        if not isinstance(n, int) or n < 0:
            n = Fraction(n)
        if l == 1:
            return _ONE
        if n.denominator != 1 or n < 0:
            out = _exact_pow(l, n)
            if out != 0 and not self.member(out):
                raise InvalidLayer(f"layer {format_layer(l)} ** {n} leaves sort {self}")
            return out
        n = n.numerator
        if self.exact:
            return bounded_pow(l, n)
        q_bits = (self.q or 1).bit_length()
        n = min(n, q_bits)
        if self.q and l > 1:  # l is never INF here: q is None under super
            n = min(n, -(-q_bits // (_bits(l) - 1)))
        return self.collapse(l ** n)

    def pow_limit(self, l):
        """An exponent bound for a checked layer l (0 included): ``pow``
        cannot raise for an integer 0 <= n <= the bound.

        Only ``bounded_pow`` refuses an integer power, and it computes
        every power of at most MAX_LAYER_BITS bits at once; where the
        collapse keeps powers short the bound is INF.
        """
        return MAX_LAYER_BITS // _bits(l) if self.exact else INF


UNIT = Sort("unit", member=lambda l: l == 1, collapse=lambda x: _ONE if x else x)
SUPER = Sort(
    "super", member=lambda l: l == 1 or is_inf(l), collapse=lambda x: x if x <= 1 else INF
)
NAT = Sort(
    "nat", member=lambda l: isinstance(l, Fraction) and l.denominator == 1 and l.numerator >= 1
)
POSQ = Sort("posq", member=lambda l: isinstance(l, Fraction) and l.numerator > 0)
RAT = Sort("q", member=lambda l: isinstance(l, Fraction))


def truncated(q: int) -> Sort:
    if not isinstance(q, int) or q < 1:
        raise InvalidLayer(f"truncation bound must be a positive integer, got {q!r}")
    cap = Fraction(q)
    return Sort(
        "trunc",
        q,
        member=lambda l: isinstance(l, Fraction) and l.denominator == 1 and 1 <= l.numerator <= q,
        collapse=lambda x: x if x < cap else cap,
    )


_NAMED = {str(sort): sort for sort in (UNIT, SUPER, NAT, POSQ, RAT)}


def parse_sort(text: str) -> Sort:
    """Parse the CLI grammar ``unit|super|trunc:<q>|nat|posq|q``.

    q is a run of ASCII digits: no sign, space, separator or other script.
    """
    if text in _NAMED:
        return _NAMED[text]
    digits = text[len("trunc:"):]
    if text.startswith("trunc:") and digits.isascii() and digits.isdigit():
        try:
            return truncated(int(digits))
        except ValueError:  # more digits than int() converts
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


def layer_valid(layer, sort: Sort) -> bool:
    """Membership of ``layer`` in the sort."""
    if isinstance(layer, int):
        layer = Fraction(layer)
    elif not isinstance(layer, Fraction) and not is_inf(layer):
        return False
    return sort.member(layer)


def require_layer(layer, sort: Sort) -> Layer:
    """The layer in its universal encoding; InvalidLayer unless it is 0 or a member."""
    if type(layer) is not Fraction:  # almost every layer already is one
        layer = as_layer(layer)
    if not sort.member(layer) and layer != 0:
        raise InvalidLayer(f"layer {format_layer(layer)} is not valid under sort {sort}")
    return layer


def infinite_layer(layer, sort: Sort) -> bool:
    """True when layer + p = layer for every positive p (Def. of finiteness)."""
    return not sort.exact and sort.collapse(layer + 1) == layer


def layer_add(k, l, sort: Sort) -> Layer:
    return sort.add(require_layer(k, sort), require_layer(l, sort))


def layer_mul(k, l, sort: Sort) -> Layer:
    return sort.mul(require_layer(k, sort), require_layer(l, sort))


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
    return l > base or (l == base and infinite_layer(l, sort))


def truncate_layer(l, q: int) -> Layer:
    """The collapse of ``truncated(q)`` on one layer: every layer >= q goes to q."""
    return truncated(q).collapse(as_layer(l))


def layer_nmul(n: int, l, sort: Sort) -> Layer:
    """The n-fold sum l + ... + l inside the sort (n >= 1)."""
    if n < 1:
        raise InvalidLayer(f"n-fold sum needs n >= 1, got {n}")
    return sort.collapse(n * require_layer(l, sort))


def layer_ndiv(n: int, l, sort: Sort) -> Layer:
    """Solve layer_nmul(n, x, sort) == l for x, or raise LayerNotDivisible.

    x = l / n when that is a layer, else x = l when n * l collapses to l.
    """
    if n < 1:
        raise InvalidLayer(f"n-fold quotient needs n >= 1, got {n}")
    l = require_layer(l, sort)
    x = l / n
    if sort.member(x):
        return x
    if sort.collapse(n * l) == l:
        return l
    raise LayerNotDivisible(f"{n} does not divide layer {format_layer(l)} under {sort}")


def layer_div(k, l, sort: Sort) -> Layer:
    """Exact quotient k / l inside the sort, where it exists."""
    k = require_layer(k, sort)
    l = require_layer(l, sort)
    if l == 0:
        raise NonInvertibleLayer("layer 0 is not invertible")
    if k == 0:  # x * l = 0 with l != 0 forces x = 0 in every sort
        return _ZERO
    if is_inf(l):
        raise NonInvertibleLayer(f"layer inf is not invertible under {sort}")
    if sort.kind == "trunc":
        # capping destroys cancellation; quotients are not well defined
        raise LayerNotDivisible(f"layer division is not defined under {sort}")
    x = k / l
    if not sort.member(x):
        raise LayerNotDivisible(
            f"layer {format_layer(k)} is not divisible by {format_layer(l)} under {sort}"
        )
    return x


def layer_pow_int(l, n, sort: Sort) -> Layer:
    """l ** n for a rational n; n = 0 gives layer 1.

    Checks l (only when n != 0) and returns ``Sort.pow``.
    """
    return sort.pow(require_layer(l, sort) if n else l, n)


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a positive integer (k >= 2), or None."""
    if n == 1:
        return 1
    if k >= n.bit_length():  # 2 ** k > n, and 1 ** k = 1 < n
        return None
    # integer Newton iteration, falling from a start above the root
    root = 1 << -(-n.bit_length() // k)
    while True:
        step = ((k - 1) * root + n // root ** (k - 1)) // k
        if step >= root:
            return root if root ** k == n else None
        root = step


def _exact_pow(l, n: Fraction) -> Layer:
    """The exact l ** n, or InvalidLayer where it is not a rational or INF."""
    if is_inf(l):
        if n > 0:
            return INF
        raise InvalidLayer("negative powers of the infinite layer are undefined")
    if l == 0:
        if n > 0:
            return _ZERO
        raise InvalidLayer("layer 0 has no negative powers")
    if n.denominator == 1:
        return bounded_pow(l, n.numerator)
    if l < 0:
        raise InvalidLayer("fractional powers of negative layers leave the rationals")
    num = _int_nth_root(l.numerator, n.denominator)
    den = _int_nth_root(l.denominator, n.denominator)
    if num is None or den is None:
        raise InvalidLayer(f"layer {format_layer(l)} has no exact {n.denominator}-th root")
    return bounded_pow(Fraction(num, den), n.numerator)


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def bounded_pow(l: Fraction, e: int) -> Fraction:
    """The exact rational power l ** e (any integer e).

    Raises OutOfRange when its numerator or denominator would need more
    than MAX_LAYER_BITS bits.  A b-bit part has a power of at most
    b * |e| bits, so within that bound the power is returned unchecked,
    and of at least (b - 1) * |e| + 1 bits, so beyond the other one it is
    refused before any work; the powers between cost at most
    2 * MAX_LAYER_BITS bits and are checked exactly.
    """
    bits = _bits(l)
    if bits * abs(e) <= MAX_LAYER_BITS:
        return l ** e
    if (bits - 1) * abs(e) < MAX_LAYER_BITS:
        out = l ** e
        if _bits(out) <= MAX_LAYER_BITS:
            return out
    raise OutOfRange(f"a layer power with exponent {e} exceeds {MAX_LAYER_BITS} bits")


def format_value(v) -> str:
    """Decimal text of a rational, ``p`` or ``p/q``.

    Raises OutOfRange for a number too long for the interpreter's
    integer-to-decimal conversion limit (4300 digits by default).  An
    int or a float is converted to a ``Fraction`` first; a ``Fraction``
    is read as it is.
    """
    if type(v) is not Fraction:
        v = Fraction(v)
    try:
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    except ValueError:
        raise OutOfRange(f"a {_bits(v)}-bit number is too long to print") from None


def format_layer(l) -> str:
    return "inf" if is_inf(l) else format_value(l)
