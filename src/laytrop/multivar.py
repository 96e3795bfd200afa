"""Multivariate layered polynomials and the layering map.

A MultiPoly maps exponent vectors (rational exponents allowed) to
coefficients; a Point is a vector of layered scalars.  The layering map
sends a point to the layer of the evaluated polynomial; corner supports,
corner roots and components are pointwise queries, and finite sample
grids stand in for the full function space.

The two rasters, ``grid_scan`` and ``corner_locus_on_grid``, stream
their rows from one lattice walk (``_walk``) and keep none of them.
Arity, step and grid-size errors raise when a raster is called; a
monomial layer error raises at the first row that reaches it.

Every evaluation here, pointwise or on a grid, is one integer fold
(``_Affine``): on a lattice the value of each monomial is an affine form
in the integer lattice indices.  The set-up builds the forms of one
polynomial as ints, from numerators and denominators, times one common
multiple D of their denominators (not always the least one), and takes
each coordinate power once per (axis, exponent); ``_grid`` builds each
axis's coordinates over one denominator of its own.  The fold then adds,
compares and ties Python ints, and only its maximum is divided by D.
This is exact, not an approximation: a positive D keeps every order and
equality, so the ties, and with them layers, corner supports and
components, are those of the exact rational values.  A point is the
zero-dimensional lattice: it has no steps, and its forms are constants.

What a fold's tie set means, its layer, corner support and component, is
read by one method, ``describe``, which serves the pointwise queries and
the rasters alike.  A raster does less than one full evaluation per
point.  Which monomials tie at the maximum is constant on each cell of a
polyhedral subdivision, so a grid meets few tie sets: each is described
once, the first time it occurs.  And the walk goes row by row, a row
being the points that share every index but the last: a generator's
ints where a row starts are found the first time the row reaches it,
and each later point of the row adds one int per monomial.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import sorts
from .errors import ArityMismatch, OutOfRange, PreconditionViolated
from .polys import term_product
from .scalars import BOTTOM, LayeredScalar
from .sorts import Sort, as_layer

# The largest lattice a raster may scan; larger regions raise OutOfRange
# before any point is built.
MAX_GRID_POINTS = 2 ** 18


class MultiPoly(NamedTuple):
    arity: int
    monomials: tuple  # ((exponent tuple, LayeredScalar), ...) sorted

    def terms(self):
        return self.monomials


def multipoly(arity: int, monomials) -> MultiPoly:
    """A MultiPoly from a dict or a list of (exponent vector, coefficient).

    A list may repeat an exponent vector, and such terms are kept, sorted
    by exponent vector.  So ``==`` compares term lists: a list-built
    MultiPoly need not equal its merged form.  Every query and raster
    answers as the merged polynomial, whose repeated terms are replaced by
    their layered sum; ``parse_poly`` and ``mp_mul`` merge under their sort.
    """
    items = monomials.items() if isinstance(monomials, dict) else monomials
    cleaned = []
    for exps, coeff in items:
        exps = tuple(Fraction(e) for e in exps)
        if len(exps) != arity:
            raise ArityMismatch(f"exponent vector {exps} does not have arity {arity}")
        cleaned.append((exps, coeff))
    cleaned.sort(key=lambda t: t[0])
    return MultiPoly(arity, tuple(cleaned))


def mp_mul(F: MultiPoly, G: MultiPoly, sort: Sort) -> MultiPoly:
    """The product: ``polys.term_product`` with vector exponents."""
    if F.arity != G.arity:
        raise ArityMismatch("arities differ")
    terms = term_product(F.terms(), G.terms(), sort, lambda a, b: tuple(map(operator.add, a, b)))
    return multipoly(F.arity, terms)


def _monomial_layer(exps, coeff, power, sort: Sort):
    """The layer of coeff * prod x_j ** e_j, power(j, e) being x_j ** e.

    Each coordinate's layer is checked where its power is taken, the
    coefficient's at the first product and a constant's on its own; a
    coordinate with exponent 0 is never read.  ``_Affine`` takes each
    power once per (axis, exponent): one it kept was checked when taken.
    """
    layer = None
    for j, e in enumerate(exps):
        if e:
            p = power(j, e)
            if layer is None:
                layer = sorts.require_layer(coeff.layer, sort)
            layer = sort.mul(layer, p)
    return sorts.require_layer(coeff.layer, sort) if layer is None else layer


def mp_eval(F: MultiPoly, point, sort: Sort):
    """The layered sum of the monomial values; BOTTOM without monomials."""
    at = _at_point(F, point, sort)
    return BOTTOM if at is None else LayeredScalar(at[0], at[1])


def theta(F: MultiPoly, point, sort: Sort):
    """The layering map: the layer of F at the point."""
    value = mp_eval(F, point, sort)
    if value is BOTTOM:
        raise PreconditionViolated("the layering map is undefined on the empty polynomial")
    return value.layer


def theta_min(Fs, point, sort: Sort):
    """Pointwise minimum of the layering maps of finitely many generators."""
    if not Fs:
        raise PreconditionViolated("theta_min needs at least one generator")
    return min([theta(F, point, sort) for F in Fs])


class _Affine:
    """A polynomial whose coordinate layers are fixed, on a lattice.

    The lattice is origin + k * steps for integer indices k; a point is
    the zero-dimensional lattice, with no steps and the one index ().
    Every monomial then has a constant layer, and its value
    c + sum_j e_j * x_j is an affine form a + sum_j k_j * b_j in the
    indices, with a its value at the origin and b_j = e_j * step_j.
    ``__init__`` builds these forms as ints, from numerators and
    denominators, times one common multiple D of the denominators of c,
    of each e_j * x_j and of each e_j * step_j: the least common multiple
    of the coefficient, coordinate and step denominators times that of
    the exponent denominators, not always the least such multiple.
    ``fold`` then compares and ties Python ints, and a caller
    divides by D once per point.  This is exact: D is positive, so every
    order and equality of the values holds for the ints, and the tie set
    and what ``describe`` reads from it, the layer sum, the corner support
    and the component, are those of the values.  ``mp_eval``, the rasters
    and the pointwise queries all read this one fold and this one
    ``describe``.

    A raster walks its lattice row by row (``_walk``), a row being the
    points that share every index but the last.  ``base`` gives the ints
    a + sum_{j<last} k_j * b_j where a row starts, and each later point of
    the row adds the last-axis steps ``last`` once more.  The layer,
    corner support and component depend only on the tie set, of which a
    grid meets few: ``facts`` describes a tie set the first time it occurs
    and keeps the answer.  A pointwise query folds once and keeps nothing.
    """

    __slots__ = ("exps", "forms", "last", "scale", "layers", "add", "known")

    def __init__(self, F: MultiPoly, origin, steps, sort: Sort):
        """Fix the monomial layers of F on the lattice origin + k * steps.

        ``_monomial_layer`` checks every term at the origin, in term
        order, with the same checks and stepwise truncation caps at a grid
        as at a point, so an invalid input raises here wherever it is
        evaluated.  Terms with one exponent vector then merge as their
        layered sum: the larger value wins and equal values add their
        layers.  By distributivity of the sort that is the monomial of the
        layered sum of their coefficients, so F answers as the polynomial
        with merged terms does.
        """
        terms = F.terms()
        power = functools.cache(lambda j, e: sorts.layer_pow_int(origin[j].layer, e, sort))
        layers = [_monomial_layer(e, c, power, sort) for e, c in terms]
        xs = [(x.value.numerator, x.value.denominator) for x in origin]
        hs = [(h.numerator, h.denominator) for h in steps]
        dens = {c.value.denominator for _, c in terms} | {d for _, d in xs + hs}
        D = self.scale = math.lcm(*dens) * math.lcm(*{ej.denominator for e, _ in terms for ej in e})

        def times_d(e, pairs):  # e_j * n_j / d_j times D, per axis j
            return [ej.numerator * n * (D // (ej.denominator * d)) for ej, (n, d) in zip(e, pairs)]

        merged = {}  # exponent vector -> (a, layer), in term order
        for (e, c), layer in zip(terms, layers):
            a = c.value.numerator * (D // c.value.denominator) + sum(times_d(e, xs))
            old = merged.get(e)
            if old is None or a > old[0]:
                merged[e] = (a, layer)
            elif a == old[0]:
                merged[e] = (a, sort.add(old[1], layer))
        self.forms = [(a, tuple(times_d(e, hs))) for e, (a, _) in merged.items()]  # (a, (b_j, ...)) times D
        self.last = [b[-1] if b else 0 for _, b in self.forms]  # b_last per monomial; 0 without steps
        self.exps = list(merged)  # distinct exponent vectors, in term order
        self.layers = [layer for _, layer in merged.values()]  # each checked by ``_monomial_layer``
        self.add = sort.add  # the sort's unchecked layer sum
        self.known = {}  # tie set -> ``facts``

    def base(self, index):
        """The ints of the monomials at the first point of a row, index
        giving its indices on every axis but the last; at a point, the
        index () gives its values."""
        return [a + sum(map(operator.mul, b, index)) for a, b in self.forms]

    def fold(self, values):
        """The maximum of the monomials' ints and its tie set.

        Returns (best, ties), ties being the index of the one monomial at
        the maximum or the tuple of the tied indices in term order; None
        when there are no monomials.
        """
        if not values:
            return None
        best = max(values)
        if values.count(best) == 1:
            return best, values.index(best)
        return best, tuple([i for i, v in enumerate(values) if v == best])

    def describe(self, ties):
        """(layer, corner support, component) of a tie set from ``fold``.

        The layer is the sum of the tied monomials' layers, added in term
        order with ``sort.add``: ``_monomial_layer`` checked them and the
        sort is closed under its sum, so nothing ``ls_sum`` would refuse is
        accepted.  The corner support lists the exponent vectors of the
        tied positive-layer monomials, without repeats since ``__init__``
        merged equal vectors.  The component is the one tied monomial whose
        layer is the layer of the sum, or None.
        """
        tied = [ties] if isinstance(ties, int) else ties
        layers = [self.layers[i] for i in tied]
        layer = functools.reduce(self.add, layers)
        corners = [self.exps[i] for i, l in zip(tied, layers) if sorts.is_inf(l) or l > 0]
        hits = [self.exps[i] for i, l in zip(tied, layers) if l == layer]
        return layer, corners, hits[0] if len(hits) == 1 else None

    def facts(self, ties):
        """(layer, corner support size, component) of a tie set, described
        the first time it occurs: each is a function of the tie set and of
        the layers ``__init__`` checked."""
        known = self.known.get(ties)
        if known is None:
            layer, corners, component = self.describe(ties)
            known = self.known[ties] = (layer, len(corners), component)
        return known


def _at_point(F: MultiPoly, point, sort: Sort):
    """(value, layer, corner support, component) of F at a point, the
    fold of the zero-dimensional lattice at index (); None without
    monomials."""
    if len(point) != F.arity:
        raise ArityMismatch(f"point of arity {len(point)} against polynomial of arity {F.arity}")
    affine = _Affine(F, point, (), sort)
    fold = affine.fold(affine.base(()))
    return None if fold is None else (Fraction(fold[0], affine.scale), *affine.describe(fold[1]))


def corner_support(F: MultiPoly, point, sort: Sort):
    """Exponent vectors of positive-layer monomials nu-tied with the value."""
    at = _at_point(F, point, sort)
    return set() if at is None else set(at[2])


def is_corner_root(F: MultiPoly, point, sort: Sort) -> bool:
    return len(corner_support(F, point, sort)) >= 2


def is_ell_root(F: MultiPoly, point, l, sort: Sort) -> bool:
    value = mp_eval(F, point, sort)
    if value is BOTTOM:
        return False
    return sorts.is_ghost_sort(value.layer, as_layer(l), sort)


def component_index(F: MultiPoly, point, sort: Sort):
    """The unique monomial the polynomial equals at the point, or None.

    Equality is exact (value and layer); corner points where layers add
    have no component.
    """
    at = _at_point(F, point, sort)
    return None if at is None else at[3]


class GridRow(NamedTuple):
    point: tuple  # coordinate values (Fractions)
    value: Fraction  # value of the evaluated polynomial
    theta: object  # Layer
    csupp: int
    component: object  # exponent tuple or None


def _grid(region):
    """(origin, steps, axes) of a region.

    Each axis is one (lo, hi, step) triple; ``axes`` lists each axis's
    coordinates lo + k * step, each built as Fraction(a + k * b, L) over
    the one denominator L of its axis.  Step signs are checked first, then
    the size of each axis and of the whole lattice against
    ``MAX_GRID_POINTS``, before any point is built: an over-wide axis is
    refused even next to an empty one.
    """
    region = [tuple(map(Fraction, axis)) for axis in region]
    if any(step <= 0 for _, _, step in region):
        raise PreconditionViolated("grid steps must be positive")
    sizes = [max(0, math.floor((hi - lo) / step) + 1) for lo, hi, step in region]
    if max(sizes, default=0) > MAX_GRID_POINTS or math.prod(sizes) > MAX_GRID_POINTS:
        raise OutOfRange(f"the grid exceeds the limit of {MAX_GRID_POINTS} points")
    axes = []
    for (lo, _, step), n in zip(region, sizes):
        L = math.lcm(lo.denominator, step.denominator)  # lo = a / L and step = b / L
        a, b = lo.numerator * (L // lo.denominator), step.numerator * (L // step.denominator)
        axes.append([Fraction(a + k * b, L) for k in range(n)])
    return [lo for lo, _, _ in region], [step for _, _, step in region], axes


def _walk(Fs, region, coord_layers, sort: Sort):
    """The one lattice walk behind both rasters.

    Checks arity, coordinate layers, step signs and the grid size at the
    call, and returns (rows, tails, affine).  ``rows`` streams one
    (head, index) per lattice row: the coordinates and the indices the
    row's points share, those of every axis but the last; the points are
    head + tail for each tail in ``tails``.  Arity 0 is the one-point
    lattice: one row, whose head and one tail are ().  ``affine(i)`` is
    generator i's ``_Affine``, built when it is first asked for, so a
    generator's monomial layers are checked, and a layer error raised, at
    the first row that reaches it.
    """
    if len(region) != len(coord_layers) or any(len(region) != F.arity for F in Fs):
        raise ArityMismatch("region and layer vectors must match the polynomial arity")
    layers = [as_layer(l) for l in coord_layers]
    origin, steps, axes = _grid(region)
    origin = tuple(map(LayeredScalar, origin, layers))
    affine = functools.cache(lambda i: _Affine(Fs[i], origin, steps, sort))
    front, tails = axes[:-1], [(x,) for x in axes[-1]] if axes else [()]
    rows = zip(itertools.product(*front), itertools.product(*[range(len(axis)) for axis in front]))
    return rows if tails else (), tails, affine


def grid_scan(F: MultiPoly, region, coord_layers, sort: Sort):
    """Rasterize the layering map over a lattice region.

    ``region`` is one (lo, hi, step) triple per axis; ``coord_layers``
    fixes the layer of each coordinate.  Rows stream in lexicographic
    order of the coordinate values, each coordinate a ``Fraction`` equal
    to lo + k * step.  Each monomial's layer is fixed once and its value
    is an integer affine form in the lattice indices: a row of the
    lattice starts from its ``base`` ints, and each later point adds one
    int per monomial; the layer, corner support and component of a tie
    set are found once.  So every row is exact; it equals ``mp_eval``,
    ``corner_support`` and ``component_index`` at that point.  Arity,
    step and size errors raise at the call (regions of more than
    ``MAX_GRID_POINTS`` points raise ``OutOfRange``); a layer error
    raises at the first row.
    """
    return _scan(*_walk([F], region, coord_layers, sort))


def _scan(rows, tails, affine):
    for head, index in rows:
        f = affine(0)
        base = f.base(index)
        if not base:
            raise PreconditionViolated("cannot rasterize the empty polynomial")
        # lists, not iterators, become tuples here and in ``fold``: a tuple built from an iterator is
        # resized, and each call then leaves one more tuple on the interpreter's free list of that size
        for tail, values in zip(tails, zip(*[itertools.count(a, b) for a, b in zip(base, f.last)])):
            best, ties = f.fold(values)
            yield GridRow(head + tail, Fraction(best, f.scale), *f.facts(ties))


def corner_locus_on_grid(Fs, region, coord_layers, sort: Sort):
    """Stream the lattice points where every generator has a corner root.

    An empty generator list gives the whole grid (empty intersection
    convention), and its region and layer vector must still agree in
    length.  Arity, step and size errors raise at the call.  The
    generators are tried in order at each point and the first one without
    a corner root ends the test there, so a generator's row-base ints are
    found, its monomial layers fixed, and a layer error raised, the first
    time a point of the row, or of the grid, reaches it.  At the k-th
    point of a row a generator's ints are its base plus k times its
    last-axis steps.
    """
    return _locus(*_walk(Fs, region, coord_layers, sort), len(Fs))


def _locus(rows, tails, affine, count):
    for head, index in rows:
        bases = [None] * count
        for k, tail in enumerate(tails):
            for i in range(count):
                f = affine(i)
                if bases[i] is None:
                    bases[i] = f.base(index)
                fold = f.fold([a + k * b for a, b in zip(bases[i], f.last)])
                if fold is None or f.facts(fold[1])[1] < 2:
                    break
            else:
                yield head + tail
