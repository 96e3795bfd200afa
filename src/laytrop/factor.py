"""Primary polynomials, primary decomposition and the classical transfer.

A monic polynomial is a-primary when every coefficient value fits the
line value(alpha_j) = (deg - j) * a; equivalently all its corner roots
are nu-equivalent to a.  Any polynomial factors uniquely (up to
nu-value) as unit * f_{a_1} ... f_{a_d} with strictly decreasing roots;
the factors are split off bottom-part-first.  The map psi_a reads off
the coefficient layers of an a-primary polynomial as a classical
polynomial over Q, which carries multiplicity information.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import sorts
from .errors import NotMonic, NotPrimary, NotSeparable, PreconditionViolated
from .polys import LayeredPoly, full_form, hull_vertices, monomial, p_eval, p_mul, p_shift, poly, slopes
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


def is_primary(f: LayeredPoly):
    """The common root value when f is primary, else None.

    Requires a monic input (leading value 0); polynomials divisible by
    the variable or reduced to a single monomial are never primary.
    """
    if f.is_zero:
        return None
    t = f.degree
    lead = f.coeffs[t]
    if lead.value != 0:
        raise NotMonic("is_primary needs a monic polynomial (leading value 0)")
    if t == 0 or f.min_exp != 0:
        return None
    a = Fraction(f.coeffs[0].value, t)
    for exp, c in f.terms():
        if c.value != (t - exp) * a:
            return None
    return a


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


def _synthetic_division(coeffs, r):
    """Divide by (x - r); returns (quotient coefficients, remainder)."""
    quotient = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * r
        quotient[i - 1] = carry
    remainder = coeffs[0] + carry * r
    return quotient, remainder


def classical_multiplicity(coeffs, root):
    """Multiplicity of ``root`` in a classical polynomial over Q."""
    coeffs = list(coeffs)
    count = 0
    while len(coeffs) > 1:
        quotient, remainder = _synthetic_division(coeffs, root)
        if remainder != 0:
            break
        count += 1
        coeffs = quotient
    return count


def linear_multiplicity(f, l) -> int:
    """How often (x + <a>^l) divides an a-primary polynomial.

    This is the classical multiplicity of -l as a root of psi_a(f),
    computed by exact synthetic division.
    """
    psi = psi_a(f)
    return classical_multiplicity(psi, -Fraction(l))


def linear_divides_via_zero_layer(f, l, sort: Sort) -> bool:
    """Zero-layer divisibility probe, available under the rational sort.

    Evaluates the primary polynomial at its root value with layer -l;
    landing in the 0 layer is equivalent to (x + <a>^l) dividing it.
    """
    if sort != RAT:
        raise PreconditionViolated("the zero-layer probe needs the rational sort")
    p = _as_poly(f)
    a = is_primary(p)
    if a is None:
        raise NotPrimary("the zero-layer probe needs a primary polynomial")
    value = p_eval(p, LayeredScalar(a, -Fraction(l)), sort)
    return value.layer == 0


def eval_sort(decomp: PrimaryDecomposition, b: LayeredScalar, sort: Sort):
    """Closed-form layer of f(b) from the primary decomposition.

    The factor whose root b crosses contributes the sort-evaluated layer
    sum of all its coefficients; factors with larger roots contribute
    their constant-term layer; factors with smaller roots contribute
    k**degree where k is b's layer.  The unit layer and, when a power of
    the variable was divided out, k**lambda_power multiply in.

    Each layer read is checked once: k at the first positive power, a
    coefficient layer where it is read, the unit layer where the first
    part multiplies in (a decomposition without parts returns it as it
    is).  Checks and powers run in the order of the stepwise product, so
    a bad input raises what ``layer_mul`` and ``layer_pow_int`` would.
    """
    add, mul = sort.add, sort.mul
    k = None

    def power(n):
        nonlocal k
        if n > 0 and k is None:
            k = sorts.require_layer(b.layer, sort)
        return sort.pow(k, n)

    def parts():
        if decomp.lambda_power:
            yield power(decomp.lambda_power)
        for factor in decomp.factors:
            if b.value == factor.root_value:
                acc = None
                for exp, c in factor.poly.terms():
                    p = power(exp)
                    term = mul(sorts.require_layer(c.layer, sort), p)
                    acc = term if acc is None else add(acc, term)
                yield acc
            elif b.value < factor.root_value:
                yield sorts.require_layer(factor.poly.coeffs[0].layer, sort)
            else:
                yield power(factor.degree)

    out = s(decomp.unit)
    for i, part in enumerate(parts()):
        out = mul(sorts.require_layer(out, sort) if i == 0 else out, part)
    return out
