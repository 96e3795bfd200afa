"""Primary polynomials, primary decomposition and the classical transfer.

A monic polynomial is a-primary when every coefficient value fits the
line value(alpha_j) = (deg - j) * a; equivalently all its corner roots
are nu-equivalent to a, and its coefficient hull is one edge.  That
test, ``polys.is_primary``, lives beside the hull; ``separable_factor``
reads the hull's corners (``polys.hull_vertices``), as the decomposition
reads its slopes.  Any polynomial factors uniquely (up to nu-value) as
unit * f_{a_1} ... f_{a_d} with strictly decreasing roots; the factors
are split off bottom-part-first, each a slice of the full form whose
values come from its ``_scaled`` ints, one ``Fraction`` each, and whose
layers are the checked layers divided by the slice's top layer, whose
invertibility is checked once per slice.
``eval_sort`` reads the layer of f(b) off that decomposition as one
``Sort.fold`` of its parts: b is placed against the roots by int
cross-multiplication, and the factor whose root b's value is, where
all its terms tie, contributes the sum of its coefficient layers times
powers of b's layer.  The map psi_a reads off the coefficient layers of
an a-primary polynomial as a classical polynomial over Q, which carries
multiplicity information.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from . import sorts
from .errors import NonInvertibleLayer, NotMonic, NotPrimary, NotSeparable, PreconditionViolated
from .polys import (LayeredPoly, checked_layers, full_form, hull_vertices, is_primary, monomial, p_eval, p_mul,
                    p_shift, poly, slopes)
from .scalars import ONE, LayeredScalar
from .sorts import NAT, POSQ, RAT, Sort, is_inf, layer_valid


class PrimaryFactor(NamedTuple):
    root_value: Fraction
    poly: LayeredPoly
    degree: int


class PrimaryDecomposition(NamedTuple):
    unit: LayeredScalar
    factors: tuple  # PrimaryFactor, strictly decreasing root_value
    lambda_power: int = 0
    promoted_sort: bool = False

    def product(self, sort: Sort) -> LayeredPoly:
        out = monomial(0, self.unit)
        for factor in self.factors:
            out = p_mul(out, factor.poly, sort)
        if self.lambda_power:
            out = p_shift(out, self.lambda_power)
        return out


def primary_decomposition(f: LayeredPoly, sort: Sort) -> PrimaryDecomposition:
    """Split f into a unit, a power of the variable and primary factors.

    Needs divisible layers; under the Naturals sort the computation is
    promoted to positive rationals and the result flagged accordingly.
    The factor list is ordered by strictly decreasing root value, and the
    reconstruction product is checked against the full form before
    returning.

    The lead's layer is inverted first, only so that a lead layer that
    is invalid or has no inverse is refused before anything else; then
    every coefficient layer is checked in term order, so a bad layer
    below the hull raises InvalidLayer before ``full_form(f)`` can raise
    OutOfRange.  That full form is built once, and ``slopes`` builds its
    ``_scaled`` view, the values as ints over one denominator D.  Each
    factor is its slice of the full form, values minus the slice's top
    value and layers divided by the top layer: dividing by the lead first
    would change neither, since a shift of every value moves no slope.
    So a factor value is one ``Fraction`` of the int difference over D.
    The top layer, the slice's pivot, is checked once for what
    ``layer_div`` would refuse, layer 0 and ``inf``, with its errors and
    messages; then the checked layers, the entry pass's and the gaps' 0,
    are divided by it directly, 0 staying 0, and a pivot of 1 leaves
    them as they are.
    The reconstruction check compares with the full form.
    """
    if f.is_zero:
        raise PreconditionViolated("cannot decompose the zero polynomial")
    work_sort = POSQ if sort == NAT else sort
    lead = f.coeffs[f.degree]
    sorts.layer_div(Fraction(1), lead.layer, work_sort)
    checked = {e: sorts.require_layer(c.layer, work_sort) for e, c in f.coeffs.items()}
    full = full_form(f)
    runs = slopes(full)
    scale, ints = full._scaled()
    # an essential coefficient of the full form is f's own, checked above; an inserted one has layer 0
    full_layers = [checked[e] if c is f.coeffs.get(e) else c.layer for e, c in full.coeffs.items()]
    d, low = full.degree, full.min_exp  # ints[i] and full_layers[i] belong to exponent low + i
    factors = []
    for root, (start, end) in reversed(runs):  # bottom part first
        lo, hi = d - end - low, d - start - low
        top, pivot = ints[hi], full_layers[hi]
        if pivot == 0:  # layer_div's refusals, checked once per slice: trunc was refused at the lead
            raise NonInvertibleLayer("layer 0 is not invertible")
        if is_inf(pivot):
            raise NonInvertibleLayer(f"layer inf is not invertible under {work_sort}")
        quotients = full_layers[lo:hi + 1]
        if pivot != 1:
            quotients = [l / pivot if l else l for l in quotients]  # 0 stays 0
        part = {k: LayeredScalar(Fraction(ints[lo + k] - top, scale), l) for k, l in enumerate(quotients)}
        factors.append(PrimaryFactor(root, LayeredPoly(part, form="full"), hi - lo))

    factors.reverse()
    promoted = False
    if sort == NAT:
        layers = [lead.layer] + [
            c.layer for factor in factors for c in factor.poly.coeffs.values()
        ]
        promoted = not all(l == 0 or layer_valid(l, NAT) for l in layers)
    decomp = PrimaryDecomposition(lead, tuple(factors), f.min_exp, promoted)
    if decomp.product(work_sort) != full:
        raise AssertionError("primary decomposition failed its reconstruction check")
    return decomp


def separable_factor(f: LayeredPoly, sort: Sort):
    """Linear factors of a strictly convex monic polynomial.

    Returns [x + <beta_i>^{k_i}, ...] with the largest root first, where
    beta_i is the value difference of consecutive coefficients and k_i
    the layer ratio.  Raises NotSeparable when any slope repeats (a
    multiple corner root) or an interior coefficient survives on a hull
    edge.
    """
    if f.is_zero:
        raise NotSeparable("the zero polynomial has no linear factorization")
    if f.coeffs[f.degree].value != 0:
        raise NotMonic("separable_factor needs a monic polynomial")
    if f.min_exp != 0:
        raise NotSeparable("divisible by the variable; no linear factorization over R")
    if hull_vertices(f) != set(range(f.degree + 1)):
        raise NotSeparable("slope runs longer than 1: repeated corner root")
    out = []
    for e in range(f.degree, 0, -1):
        hi, lo = f.coeffs[e], f.coeffs[e - 1]
        beta = lo.value - hi.value
        k = sorts.layer_div(lo.layer, hi.layer, POSQ if sort == NAT else sort)
        out.append(poly({1: ONE, 0: LayeredScalar(beta, k)}))
    return out


def _as_poly(f):
    return f.poly if isinstance(f, PrimaryFactor) else f


def psi_a(f):
    """Coefficient layers of a primary polynomial, as a classical poly.

    Returns the dense ascending coefficient list over Q; absent
    monomials contribute 0.
    """
    p = _as_poly(f)
    if is_primary(p) is None:
        raise NotPrimary("psi_a needs a primary polynomial")
    t = p.degree
    out = []
    for exp in range(t + 1):
        c = p.coeffs.get(exp)
        if c is None:
            out.append(Fraction(0))
        elif sorts.is_inf(c.layer):
            raise NotPrimary("psi_a needs finite layers")
        else:
            out.append(Fraction(c.layer))
    return out


def classical_multiplicity(coeffs, root):
    """Multiplicity of ``root`` in a classical polynomial over Q: synthetic
    division by (x - root), by Horner's rule, while the remainder is 0."""
    high_first = list(coeffs)[::-1]
    count = 0
    while len(high_first) > 1:
        *quotient, remainder = accumulate(high_first, lambda carry, c: carry * root + c)
        if remainder != 0:
            break
        count += 1
        high_first = quotient
    return count


def linear_multiplicity(f, l) -> int:
    """How often (x + <a>^l) divides an a-primary polynomial.

    This is the classical multiplicity of -l as a root of psi_a(f),
    computed by exact synthetic division.  l is a layer of the rational
    sort, read after f is checked: InvalidLayer otherwise.
    """
    psi = psi_a(f)
    return classical_multiplicity(psi, -sorts.require_layer(l, RAT))


def linear_divides_via_zero_layer(f, l, sort: Sort) -> bool:
    """Zero-layer divisibility probe, available under the rational sort.

    Evaluates the primary polynomial at its root value with layer -l;
    landing in the 0 layer is equivalent to (x + <a>^l) dividing it.  l
    is a layer of the rational sort, read after the sort and f are
    checked: InvalidLayer otherwise.
    """
    if sort != RAT:
        raise PreconditionViolated("the zero-layer probe needs the rational sort")
    p = _as_poly(f)
    a = is_primary(p)
    if a is None:
        raise NotPrimary("the zero-layer probe needs a primary polynomial")
    value = p_eval(p, LayeredScalar(a, -sorts.require_layer(l, RAT)), sort)
    return value.layer == 0


def eval_sort(decomp: PrimaryDecomposition, b: LayeredScalar, sort: Sort):
    """Closed-form layer of f(b) from the primary decomposition.

    The layer of f(b) is the product of its parts: k**lambda_power,
    where k is b's layer, when a power of the variable was divided out;
    then for each factor, k**degree when its root lies below b's value,
    its constant-term layer when its root lies above, and when b's value
    is its root, where every monomial of the factor ties, the sum of
    c * k**e over its terms (c the coefficient layer of x^e).
    ``Sort.fold`` takes that whole sum of products in one exact fold,
    collapsed once; a decomposition without parts returns the unit layer
    as it is.

    b is placed against the strictly decreasing roots p / q by the sign
    of n * q - p * d, for b's value n / d.  A float value is placed where
    comparing it with the root places it: a finite one at its exact
    ratio, inf above and -inf below every root (and nan, which compares
    false, above); at a root it raises AttributeError, as ``p_eval``
    reads a value as an int or ``Fraction``.

    The parts are read in the order of the stepwise product, so a bad
    input raises what ``layer_mul`` and ``layer_pow_int`` would: k is
    checked at the first power with a positive exponent, and a power
    beyond ``Sort.pow_limit(k, n)`` is taken where it comes, since it
    may refuse; each constant term is checked
    as its part comes, and the unit after the first part.  The crossed
    factor's layers and k are checked as ``p_eval`` checks them
    (``checked_layers``), so its coefficient layers once per sort
    object: a decomposition probed at its roots again under one sort
    checks them once.
    """
    factors = decomp.factors
    if factors:
        v = b.value
        if isinstance(v, float):
            bn, bd = v.as_integer_ratio() if math.isfinite(v) else (-1 if v < 0 else 1, 0)
        else:
            bn, bd = v.numerator, v.denominator
    product = []  # (layer, exponent) pairs, the unit's first
    tied = [[]]  # at a root, [(c, 1), (k, e)] per term of the crossed factor
    k = None
    for factor in ((None,) if decomp.lambda_power else ()) + factors:
        if factor is None:  # x**lambda_power, whose root lies below every value
            side, n = 1, decomp.lambda_power
        else:
            root = factor.root_value
            side, n = bn * root.denominator - root.numerator * bd, factor.degree
        if side > 0:
            if n:  # k**0 is 1, and reads no k
                if k is None:
                    k = sorts.require_layer(b.layer, sort)
                if n > sort.pow_limit(k, n):
                    sort.pow(k, n)
            part = (k, n)
        elif side < 0:
            part = (sorts.require_layer(factor.poly.coeffs[0].layer, sort), 1)
        else:
            if isinstance(v, float):
                raise AttributeError(f"a float point value {v!r} at a root has no denominator")
            layers, kr = checked_layers(factor.poly, b.layer, sort)
            tied = [[(c, 1), (kr, e)] for e, c in zip(factor.poly.coeffs, layers)]
            part = None
        if not product:
            product.append((sorts.require_layer(decomp.unit.layer, sort), 1))
        if part:
            product.append(part)
    return sort.fold([product + t for t in tied]) if product else decomp.unit.layer
