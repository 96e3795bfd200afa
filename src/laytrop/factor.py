"""Primary polynomials, primary decomposition and the classical transfer.

A monic polynomial is a-primary when every coefficient value fits the
line value(alpha_j) = (deg - j) * a; equivalently all its corner roots
are nu-equivalent to a, and its coefficient hull is one edge.  That
test, ``polys.is_primary``, lives beside the hull; ``separable_factor``
reads the hull's corners (``polys.hull_vertices``), as the decomposition
reads its slopes.  Any polynomial factors uniquely (up to nu-value) as
unit * f_{a_1} ... f_{a_d} with strictly decreasing roots; the factors
are split off bottom-part-first.  ``eval_sort`` reads the layer of f(b)
off that decomposition as a product of kernel calls, one per part: the
factor whose root b's value is contributes ``p_eval`` of it at b.  The
map psi_a reads off the coefficient layers of an a-primary polynomial
as a classical polynomial over Q, which carries multiplicity
information.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from . import sorts
from .errors import NotMonic, NotPrimary, NotSeparable, PreconditionViolated
from .polys import (LayeredPoly, full_form, hull_vertices, is_primary, monomial, p_eval, p_mul, p_shift,
                    poly, slopes)
from .scalars import ONE, LayeredScalar, s
from .sorts import NAT, POSQ, RAT, Sort, layer_valid


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
    OutOfRange.  That full form is built once.  Each factor is its slice
    of it, values minus the slice's top value and layers divided by the
    top layer: dividing by the lead first would change neither, since a
    shift of every value moves no slope.  The reconstruction check
    compares with the full form.
    """
    if f.is_zero:
        raise PreconditionViolated("cannot decompose the zero polynomial")
    work_sort = POSQ if sort == NAT else sort
    lead = f.coeffs[f.degree]
    sorts.layer_div(Fraction(1), lead.layer, work_sort)
    for c in f.coeffs.values():
        sorts.require_layer(c.layer, work_sort)
    full = full_form(f)
    d = full.degree
    factors = []
    for root, (start, end) in reversed(slopes(full)):  # bottom part first
        lo, hi = d - end, d - start
        pivot = full.coeffs[hi]
        part = {}
        for e in range(lo, hi + 1):
            c = full.coeffs[e]
            part[e - lo] = LayeredScalar(
                Fraction(c.value - pivot.value), sorts.layer_div(c.layer, pivot.layer, work_sort)
            )
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

    The layer of f(b) is the product of its parts, each one kernel call:
    k**lambda_power, where k is b's layer, when a power of the variable
    was divided out (``layer_pow_int``); then for each factor, k**degree
    when its root lies below b's value (``layer_pow_int``), its
    constant-term layer when its root lies above (``require_layer``),
    and when b's value is its root, where every monomial ties, the
    factor evaluated at b (``p_eval``), whose layer is the sum of all its
    monomials' layers.  The unit layer is checked where the first part
    multiplies in; a decomposition without parts returns it as it is.

    The parts run in the order of the stepwise product, so a bad input
    raises what ``layer_mul`` and ``layer_pow_int`` would.  k is checked
    by each power with a positive exponent that reads it.  ``p_eval``
    keeps the checked coefficient layers of each factor per sort object,
    so a decomposition probed at its roots again under one sort checks
    them once; the unit and the constant terms are checked per call.
    ``p_eval`` reads b's value as an int or ``Fraction``, as every
    kernel does: a point at a root with a float value raises
    AttributeError.
    """

    def parts():
        if decomp.lambda_power:
            yield sorts.layer_pow_int(b.layer, decomp.lambda_power, sort)
        for factor in decomp.factors:
            if b.value == factor.root_value:
                yield p_eval(factor.poly, b, sort).layer
            elif b.value < factor.root_value:
                yield sorts.require_layer(factor.poly.coeffs[0].layer, sort)
            else:
                yield sorts.layer_pow_int(b.layer, factor.degree, sort)

    out = s(decomp.unit)
    for i, part in enumerate(parts()):
        out = sort.mul(sorts.require_layer(out, sort) if i == 0 else out, part)
    return out
