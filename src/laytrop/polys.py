"""Sparse univariate layered polynomials.

Coefficients are stored as a map exponent -> LayeredScalar with no
BOTTOM entries; the empty map is the zero polynomial.  One coefficient
hull, the upper concave hull of the points (exponent, coefficient
value), is behind the essential and full canonical forms, the slopes,
corner roots and homogeneous parts, ``hull_vertices`` and
``is_primary``: its corners are the essential monomials and its edges
the corner roots, each of multiplicity its length, and a primary
polynomial's hull is one edge.  ``_hull_classify`` finds it exactly, in
one scan of the points that keeps those on the hull and one walk over
the kept points, by cross-multiplication of ints: the values are scaled
once per polynomial over their common denominator (its ``_scaled``
view, which ``p_eval``, the gap fill of ``full_form``, ``slopes`` and
the factor values of the primary decomposition read too).  Only this
module reads the hull's statuses; ``factor.separable_factor`` reads
``hull_vertices``.  A polynomial carries a ``form`` tag ("essential",
"full" or None); consumers that require a form check the tag instead of
assuming it, and a full form also for a gap between its exponents.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import sorts
from .errors import NotFullForm, NotMonic, OutOfRange
from .scalars import BOTTOM, ONE, LayeredScalar, integer_scale, ls_add
from .sorts import Sort

# A full form may span at most this many exponents between its lowest and
# highest essential ones; wider spans raise OutOfRange before any gap is
# filled.
MAX_FULL_FORM_TERMS = 2 ** 14


class LayeredPoly:
    """Immutable by convention; equality compares coefficients only.

    Nothing may mutate ``coeffs``: a polynomial keeps two private views
    of it, each built whole the first time a kernel needs it and then
    only replaced, never changed in place.  ``_scaled()`` is
    ``(D, ints)``, the coefficient values as ints over their common
    denominator D (``integer_scale``), which no sort affects.
    ``_checked`` is ``(sort, layers)``, the coefficient layers as the
    last ``checked_layers`` pass that checked them all returned them from
    ``sorts.require_layer`` under that sort (compared by ``is``), or None.
    """

    __slots__ = ("coeffs", "form", "_scale", "_checked")

    def __init__(self, coeffs, form=None):
        clean = {}
        for exp, c in coeffs.items():
            if c is BOTTOM:
                continue
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"exponent must be a non-negative integer, got {exp!r}")
            clean[exp] = c
        self.coeffs = dict(sorted(clean.items()))
        self.form = form
        self._scale = self._checked = None

    def _scaled(self):
        """(D, ints): the coefficient values in term order, times D."""
        scaled = self._scale
        if scaled is None:
            scaled = self._scale = integer_scale([c.value for c in self.coeffs.values()])
        return scaled

    def __eq__(self, other):
        if not isinstance(other, LayeredPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def __repr__(self):
        if self.is_zero:
            return "LayeredPoly(0)"
        terms = " + ".join(
            f"{coeff!r}*x^{exp}" for exp, coeff in sorted(self.coeffs.items(), reverse=True)
        )
        return f"LayeredPoly({terms})"

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def terms(self):
        """(exponent, coefficient) pairs in ascending exponent order."""
        return list(self.coeffs.items())


def poly(coeffs, form=None) -> LayeredPoly:
    return LayeredPoly(coeffs, form)


def zero_poly() -> LayeredPoly:
    return LayeredPoly({})


def monomial(exp: int, coeff: LayeredScalar) -> LayeredPoly:
    return LayeredPoly({exp: coeff})


def p_add(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayeredPoly:
    out = dict(f.coeffs)
    for exp, c in g.coeffs.items():
        out[exp] = ls_add(out[exp], c, sort) if exp in out else c
    return LayeredPoly(out)


def p_mul(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayeredPoly:
    """The product; every coefficient layer is checked once, unless f or g is 0."""
    return LayeredPoly(term_product(f.coeffs.items(), g.coeffs.items(), sort, operator.add))


def term_product(left, right, sort: Sort, add_exps) -> dict:
    """The layered product of two term lists, as exponent -> LayeredScalar.

    ``add_exps`` adds two exponents (ints, or vectors in ``mp_mul``).
    Each coefficient layer is checked once, the right operand's first,
    and an empty operand gives {} unchecked.  The values of both
    operands are scaled once to ints over their common denominator D
    (``integer_scale``), so a pair's value is an int sum; each exponent
    keeps its best value and the layer pairs that tie on it.  Only those
    pairs are multiplied and added, by one ``Sort.fold`` per exponent,
    and one ``Fraction`` is built per term.
    """
    if not left or not right:
        return {}
    right = [(e, c.value, (sorts.require_layer(c.layer, sort), 1)) for e, c in right]
    left = [(e, c.value, (sorts.require_layer(c.layer, sort), 1)) for e, c in left]
    scale, ints = integer_scale([v for _, v, _ in left + right])
    right = [(e, v, l) for (e, _, l), v in zip(right, ints[len(left):])]
    out = {}  # exponent -> (best int value, [tied ((layer, 1), (layer, 1)) terms])
    for (e1, _, l1), v1 in zip(left, ints):
        for e2, v2, l2 in right:
            exp, v = add_exps(e1, e2), v1 + v2
            old = out.get(exp)
            if old is None or v > old[0]:
                out[exp] = v, [(l1, l2)]
            elif v == old[0]:
                old[1].append((l1, l2))
    return {exp: LayeredScalar(Fraction(v, scale), sort.fold(pairs)) for exp, (v, pairs) in out.items()}


def p_pow(f: LayeredPoly, n: int, sort: Sort) -> LayeredPoly:
    """f to the n, n >= 0; the 0th power is the unit ``<0>^1``."""
    if n < 0:
        raise OutOfRange(f"a polynomial has no power {n}")
    out = monomial(0, ONE)
    for _ in range(n):
        out = p_mul(out, f, sort)
    return out


def checked_layers(f: LayeredPoly, layer, sort: Sort):
    """(layers, k): the coefficient layers of a nonzero f in term order
    and a point's layer k, checked under sort as ``p_eval`` checks them;
    k is None when f is a constant, which never reads it.

    Each coefficient layer is checked in term order, unless f's
    ``_checked`` view holds this very sort: those checks passed, and the
    view gives their layers.  A pass that checks them all records the
    view.  k is checked once, at the first positive exponent.  A power
    that ``Sort.pow`` could refuse, an exponent beyond
    ``Sort.pow_limit(k, top)`` for f's highest exponent top, is taken
    where its term comes, before its coefficient's check, so a bad input
    raises what ``ls_pow`` and ``ls_mul`` would.
    """
    coeffs = f.coeffs
    top = next(reversed(coeffs))
    checked = f._checked
    if checked is not None and checked[0] is sort:
        if not top:
            return checked[1], None
        k = sorts.require_layer(layer, sort)
        limit = sort.pow_limit(k, top)
        if top > limit:
            for e in coeffs:
                if e > limit:
                    sort.pow(k, e)
        return checked[1], k
    layers = []
    k = None
    limit = 0  # only exponent 0 comes before k is read
    for e, c in coeffs.items():
        if e and k is None:
            k = sorts.require_layer(layer, sort)
            limit = sort.pow_limit(k, top)
        if e > limit:
            sort.pow(k, e)
        layers.append(sorts.require_layer(c.layer, sort))
    layers = tuple(layers)
    f._checked = (sort, layers)
    return layers, k


def p_eval(f: LayeredPoly, x: LayeredScalar, sort: Sort):
    """Evaluate f at x; the zero polynomial evaluates to BOTTOM.

    The nu-maximum of the monomial values, with the layers of the tied
    monomials added.  The coefficient values come as ints over their
    common denominator D (f's ``_scaled`` view), and x's value is
    n / d, so the term of exponent e is (D * d)^-1 times the int
    c * d + e * n * D (x's value is read first, and only when f's highest
    exponent is positive).  The loop adds, compares and ties these ints,
    and one ``Fraction`` is built at the end; D * d is positive, so every
    order and tie of the values holds for the ints.

    Checks come first (``checked_layers``: x's layer at the first
    positive exponent, each coefficient layer unless f's ``_checked`` view
    holds this sort, and each power that ``Sort.pow`` could refuse,
    beyond ``Sort.pow_limit``, tied or not), then values, then layers:
    one pass over the terms, in ascending exponent order, finds the best
    value and the tied (coefficient layer, exponent) pairs, and one
    ``Sort.fold`` then sums c * k**e, for x's layer k, over the tied
    pairs only, exactly and collapsed once.  A single tied term of exponent 0, or at a point of
    layer 1, answers with its checked coefficient layer: k**0 and 1**e
    are 1, and a checked layer times 1 is itself under every sort (layer
    0 included).  Only the checks raise, so they raise in the order of
    the stepwise ``ls_pow`` and ``ls_mul``.
    """
    coeffs = f.coeffs
    if not coeffs:
        return BOTTOM
    scale, ints = f._scaled()
    xd, xn = 1, 0
    if next(reversed(coeffs)):
        xv = x.value
        xd, xn = xv.denominator, xv.numerator * scale
    layers, xl = checked_layers(f, x.layer, sort)
    best = None
    for e, v, cl in zip(coeffs, ints, layers):
        v = v * xd + e * xn
        if best is None or v > best:
            best, tied = v, [(cl, e)]
        elif v == best:
            tied.append((cl, e))
    if len(tied) == 1 and (tied[0][1] == 0 or xl == 1):
        layer = tied[0][0]
    else:
        layer = sort.fold([((cl, 1), (xl, e)) for cl, e in tied])
    return LayeredScalar(Fraction(best, scale * xd), layer)


def _hull_classify(f: LayeredPoly):
    """Classify the points (exponent, coefficient value) of f against
    their upper concave envelope.

    Returns status in term order, where status[i] is one of "vertex",
    "edge" (on the envelope but not a corner) or "below".  One or two
    points are all corners.  More go through one scan in exponent order
    (Andrew's monotone chain), which keeps the points on the envelope: it
    drops the last kept point only when the new point lies strictly above
    the line through the two last kept points, so a collinear point
    stays.  One walk over the kept points then marks the two ends, and
    every kept point where its neighbours turn, "vertex", and the other
    kept points "edge"; a dropped point is "below".  The values are f's
    ``_scaled`` view, ints over their common denominator D: D is
    positive, so every cross product keeps its sign and every equality
    holds.
    """
    xs = list(f.coeffs)
    if len(xs) <= 2:
        return ["vertex"] * len(xs)
    _, ys = f._scaled()
    kept = [0, 1]  # indices of the points on the envelope of the points so far
    for i in range(2, len(xs)):
        while len(kept) >= 2:
            o, a = kept[-2], kept[-1]
            if (xs[a] - xs[o]) * (ys[i] - ys[o]) <= (ys[a] - ys[o]) * (xs[i] - xs[o]):
                break
            kept.pop()
        kept.append(i)
    status = ["below"] * len(xs)
    status[0] = status[-1] = "vertex"
    for o, a, p in zip(kept, kept[1:], kept[2:]):
        turn = (xs[a] - xs[o]) * (ys[p] - ys[o]) != (ys[a] - ys[o]) * (xs[p] - xs[o])
        status[a] = "vertex" if turn else "edge"
    return status


def hull_vertices(f: LayeredPoly):
    """Exponents sitting at corners of the coefficient hull."""
    return {exp for exp, st in zip(f.coeffs, _hull_classify(f)) if st == "vertex"}


def is_primary(f: LayeredPoly):
    """The common root value when f is primary, else None.

    Requires a monic input (leading value 0); polynomials divisible by
    the variable or reduced to a single monomial are never primary.  A
    monic f with a constant term is primary exactly when its coefficient
    hull (``_hull_classify``) is one edge: no point lies below it
    and only its two ends are corners.  The root is then the drop per
    exponent step along that edge, the constant term's value over the
    degree.
    """
    if f.is_zero:
        return None
    t = f.degree
    lead = f.coeffs[t]
    if lead.value != 0:
        raise NotMonic("is_primary needs a monic polynomial (leading value 0)")
    if t == 0 or f.min_exp != 0:
        return None
    status = _hull_classify(f)
    if "below" in status or status.count("vertex") != 2:
        return None
    return Fraction(f.coeffs[0].value, t)


def essential_form(f: LayeredPoly) -> LayeredPoly:
    """Drop every monomial strictly below the coefficient hull.

    Monomials on the hull survive: corners are essential, edge-interior
    ones are quasi-essential and kept unless their layer is 0 (a 0-layer
    coefficient on an edge contributes nothing to the function).
    """
    out = {}
    for (exp, c), st in zip(f.coeffs.items(), _hull_classify(f)):
        if st == "below":
            continue
        if st == "edge" and c.layer == 0:
            continue
        out[exp] = c
    return LayeredPoly(out, form="essential")


def full_form(f: LayeredPoly) -> LayeredPoly:
    """Insert the hull-interpolated 0-layer coefficient at every gap.

    The result has a coefficient at every exponent between the lowest
    and highest essential exponents; inserted ones carry layer 0 and the
    value interpolated linearly on the hull edge.  A span of more than
    ``MAX_FULL_FORM_TERMS`` exponents raises OutOfRange.  The gap values
    are read off f's ``_scaled`` view, which the hull scan built: between
    essential exponents lo < hi with the ints a and b over D, exponent e
    has the value (a * (hi - e) + b * (e - lo)) / (D * (hi - lo)), one
    ``Fraction`` per inserted coefficient.
    """
    base = essential_form(f)
    if base.is_zero:
        return LayeredPoly({}, form="full")
    exps = list(base.coeffs)
    if exps[-1] - exps[0] > MAX_FULL_FORM_TERMS:
        raise OutOfRange(
            f"a full form spanning {exps[-1] - exps[0]} exponents exceeds "
            f"the limit of {MAX_FULL_FORM_TERMS}"
        )
    scale, ints = f._scaled()
    scaled = dict(zip(f.coeffs, ints))
    out = dict(base.coeffs)
    for lo, hi in zip(exps, exps[1:]):
        a, b, den = scaled[lo], scaled[hi], scale * (hi - lo)
        for exp in range(lo + 1, hi):
            out[exp] = LayeredScalar(Fraction(a * (hi - exp) + b * (exp - lo), den), Fraction(0))
    return LayeredPoly(out, form="full")


def _require_full(f: LayeredPoly):
    """NotFullForm unless f is tagged full and has no gap: a full form has
    a coefficient at every exponent from its lowest to its highest."""
    if f.form != "full":
        raise NotFullForm("operation requires a polynomial flagged as full form")
    if f.coeffs and len(f.coeffs) != f.degree - f.min_exp + 1:
        raise NotFullForm("a polynomial flagged as full form has a gap between its exponents")


def slopes(f: LayeredPoly):
    """Corner-root values of a full-form polynomial, one run per hull edge.

    Returns [(slope, (start, end)), ...] where positions count down from
    the leading coefficient (position p is exponent degree - p) and the
    edge from position start to position end has the slope
    (value(exp degree - end) - value(exp degree - start)) / (end - start),
    the value drop per exponent step.  The runs are the edges between
    consecutive corners of the coefficient hull (the "vertex" points of
    ``_hull_classify``, read in descending exponent order), so they are
    the homogeneous parts; the list starts at the top part, so the slopes
    strictly decrease along it.  Each slope is one ``Fraction`` of the
    corners' ints in f's ``_scaled`` view, which the hull scan reads too.
    """
    _require_full(f)
    scale, ints = f._scaled()
    corners = [(e, v) for e, v, st in zip(f.coeffs, ints, _hull_classify(f)) if st == "vertex"][::-1]
    runs = []
    for (hi, v_hi), (lo, v_lo) in zip(corners, corners[1:]):
        slope = Fraction(v_lo - v_hi, scale * (hi - lo))
        runs.append((slope, (corners[0][0] - hi, corners[0][0] - lo)))
    return runs


def homogeneous_parts(f: LayeredPoly):
    """The coefficient slices of the slope runs, top part first.

    Neighbouring parts share their boundary monomial.  A monomial has
    no corner and yields [].
    """
    runs = slopes(f)
    deg = f.degree if not f.is_zero else 0
    parts = []
    for _, (start, end) in runs:
        part = {deg - p: f.coeffs[deg - p] for p in range(start, end + 1)}
        parts.append(LayeredPoly(part))
    return parts


def corner_roots(f: LayeredPoly):
    """(root value, multiplicity) pairs, largest root first.

    The multiplicity of a root is the length of its slope run in the
    full form, which is the degree of its primary factor.
    """
    return [(slope, end - start) for slope, (start, end) in slopes(full_form(f))]


def p_shift(f: LayeredPoly, u: int) -> LayeredPoly:
    """Multiply by x**u (u may be negative when every exponent allows it)."""
    return LayeredPoly({exp + u: c for exp, c in f.coeffs.items()})
