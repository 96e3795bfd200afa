"""Layered derivative, antiderivative, discriminant and separability.

The derivative multiplies each coefficient layer by the exponent (the
n-fold layer sum of the active sort) and drops the constant term.  At
the function level the derivative is only well defined on a chosen
representative, so ``derivative`` normalizes to the essential form
first; ``formal_derivative`` applies the raw coefficient rule and is the
one satisfying the sum and product rules for arbitrary representatives.

The discriminant is the resultant of f with its derivative.  For a
tangible separable polynomial of degree m its layer depends only on m,
which turns the discriminant into a separability test.
"""

from __future__ import annotations

from fractions import Fraction

from . import sorts
from .errors import PreconditionViolated
from .polys import LayeredPoly, essential_form, hull_vertices
from .resultants import resultant
from .scalars import BOTTOM, LayeredScalar
from .sorts import POSQ, Sort


def formal_derivative(f: LayeredPoly, sort: Sort) -> LayeredPoly:
    out = {}
    for exp, c in f.terms():
        if exp == 0:
            continue
        out[exp - 1] = LayeredScalar(c.value, sorts.layer_nmul(exp, c.layer, sort))
    return LayeredPoly(out)


def derivative(f: LayeredPoly, sort: Sort) -> LayeredPoly:
    """Layered derivative of the essential-form representative."""
    return formal_derivative(essential_form(f), sort)


def antiderivative(f: LayeredPoly, sort: Sort) -> LayeredPoly:
    """Inverse of the derivative, without a constant of integration.

    Raises LayerNotDivisible when some layer has no (m+1)-fold half in
    the active sort (always solvable under posq and q).
    """
    out = {}
    for exp, c in f.terms():
        out[exp + 1] = LayeredScalar(c.value, sorts.layer_ndiv(exp + 1, c.layer, sort))
    return LayeredPoly(out)


def discriminant(f: LayeredPoly, sort: Sort):
    if f.is_zero or f.degree < 1:
        raise PreconditionViolated("discriminant needs degree >= 1")
    return resultant(f, derivative(f, sort), sort)


def separable_sort(m: int) -> Fraction:
    """The discriminant layer shared by all separable tangible degree-m polys.

    Equals the product of the odd numbers 3 * 5 * ... * (2m - 1): the
    degree-k linear factor of f and the matching derivative factor meet
    with layer (2k - 1)/(k - 1), and the remaining pairings telescope.
    Root-independent, which is what makes the discriminant layer a
    separability test.
    """
    out = Fraction(1)
    for k in range(2, m + 1):
        out *= 2 * k - 1
    return out


def separable_discriminant(f: LayeredPoly, sort: Sort):
    """The discriminant of f, after checking the separability test's preconditions.

    Preconditions: monic, tangible hull-vertex coefficients, degree >= 2,
    positive rational sort.  Quasi-essential coefficients may carry
    ghost layers -- that is precisely what a repeated root produces --
    so tangibility is only required at the corners of the hull.
    """
    if sort != POSQ:
        raise PreconditionViolated("separability test runs under the posq sort")
    if f.is_zero or f.degree < 2:
        raise PreconditionViolated("separability test needs degree >= 2")
    if f.coeffs[f.degree].value != 0:
        raise PreconditionViolated("separability test needs a monic polynomial")
    for exp in hull_vertices(f):
        if f.coeffs[exp].layer != 1:
            raise PreconditionViolated(
                "separability test needs tangible essential coefficients"
            )
    return discriminant(f, sort)


def has_separable_layer(disc, m: int) -> bool:
    """Whether a degree-m discriminant has the separable layer ``separable_sort(m)``.

    BOTTOM, the discriminant of an f that x^2 divides, is a repeated root
    at -inf, so it is not separable.
    """
    return disc is not BOTTOM and disc.layer == separable_sort(m)


def is_separable(f: LayeredPoly, sort: Sort) -> bool:
    """Discriminant-layer separability test (see ``separable_discriminant``)."""
    return has_separable_layer(separable_discriminant(f, sort), f.degree)
