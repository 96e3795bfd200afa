"""Layered permanents, Sylvester matrices and resultants.

The layered permanent sums the permutation products under layered
addition, so every nu-maximal transversal contributes its layer.  It is
computed by a dynamic programme over rows and sets of used columns that
merges partial transversals with the sort's own layered sum; since
layered multiplication distributes over layered addition under all six
sorts, the merge is exact.  The programme adds and compares Python
ints: the entries' values are scaled once per matrix to one positive
common denominator D, which keeps every order and tie exact, and one
``Fraction`` is built for the result.  Inclusion-exclusion shortcuts
(Ryser's formula) need subtraction and are unsound here.  The naive
full enumeration is kept as the oracle; it and the engine share one
check of their input (``_runs``).

A matrix row is a band ``(columns, scalars)``, ``BOTTOM`` left out; the
Sylvester rows of f share one tuple of its coefficients, as do g's.

For two primary polynomials with the same root, the resultant is
determined by the classical permanent of the layer Sylvester matrix:
value m*n*a at that layer.  A primary pair is recognised by
``polys.is_primary``, on the coefficient hull, so this module reads
nothing of ``factor``, which comes after it in the chain.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from . import sorts
from .errors import (
    DegreeZero,
    DomainError,
    NotPrimaryPair,
    NotSquare,
    OutOfRange,
)
from .polys import LayeredPoly, full_form, is_primary
from .scalars import BOTTOM, ONE, LayeredScalar, integer_scale, ls_add, ls_mul, ls_pow
from .sorts import Sort

# A Sylvester matrix of more than this many rows (m + n for degrees m and
# n) is refused before any row is built, to keep the permanent in check.
MAX_SYLVESTER_SIZE = 2 ** 12

# ``layered_permanent`` raises OutOfRange once one row's table of column
# masks would hold more than this many states, so its memory stays
# bounded: a dense pair of degree d needs C(2d, d) states, 48620 at d = 9,
# and the separable discriminant of degree m at most 92378 (m = 10).
MAX_PERMANENT_STATES = 2 ** 17


class LayeredMatrix(NamedTuple):
    rows: int
    cols: int
    entries: tuple  # per row, a band (columns, scalars) in column order; no BOTTOM


class LayerMatrix(NamedTuple):
    size: int
    entries: tuple  # size row tuples of size ints or Fractions each (0 for empty)


def layered_matrix(rows) -> LayeredMatrix:
    """The matrix of dense rows of LayeredScalar or BOTTOM cells."""
    rows = [tuple(row) for row in rows]
    m = len(rows[0]) if rows else 0
    if any(len(row) != m for row in rows):
        raise ValueError("ragged matrix")
    columns = [tuple(j for j, e in enumerate(row) if e is not BOTTOM) for row in rows]
    entries = tuple((js, tuple(row[j] for j in js)) for row, js in zip(rows, columns))
    return LayeredMatrix(len(rows), m, entries)


def _bands(matrix: LayeredMatrix):
    """Each band ``(columns, scalars)`` of ``matrix`` in row order, checked.

    A band with more or fewer scalars than columns raises ValueError, a
    column outside ``0..cols-1`` raises OutOfRange, and columns that do
    not strictly increase raise ValueError.  An empty band passes.  A
    band is checked when the caller reaches it.
    """
    cols = matrix.cols
    for columns, scalars in matrix.entries:
        if len(columns) != len(scalars):
            raise ValueError("a band needs one scalar per column")
        if columns and (min(columns) < 0 or max(columns) >= cols):
            raise OutOfRange(f"a band leaves the columns 0..{cols - 1}")
        if not all(map(operator.lt, columns, columns[1:])):
            raise ValueError("a band's columns must strictly increase")
        yield columns, scalars


def dense_rows(matrix: LayeredMatrix, empty):
    """Each row of ``matrix`` in full, ``empty`` in the cells it leaves out.

    Each band is checked (``_bands``) as its row is reached.
    """
    for columns, scalars in _bands(matrix):
        cells = dict(zip(columns, scalars))
        yield tuple(cells.get(j, empty) for j in range(matrix.cols))


def _runs(matrix: LayeredMatrix, sort: Sort):
    """The permanent's input check: the scalars tuple of each run of rows
    that share one, or None if a row is empty.

    It raises NotSquare unless ``rows == cols`` is the number of bands.
    Then, in one pass in row order: each band is checked (``_bands``);
    the first empty one gives None before any later row is read; then
    every layer of the row is checked (``sorts.require_layer``), except
    in a row whose scalars tuple is the previous row's (the rows of one
    Sylvester polynomial share theirs), which passed.
    """
    if not matrix.rows == matrix.cols == len(matrix.entries):
        raise NotSquare("permanent needs a square matrix of one band per row")
    runs = []
    for columns, scalars in _bands(matrix):
        if not columns:
            return None
        if not runs or scalars is not runs[-1]:
            for e in scalars:
                sorts.require_layer(e.layer, sort)
            runs.append(scalars)
    return runs


def layered_permanent_naive(matrix: LayeredMatrix, sort: Sort):
    """Oracle: plain sum over all permutations.

    The input is checked by ``_runs``, as in ``layered_permanent``, and
    an empty row gives BOTTOM.
    """
    if _runs(matrix, sort) is None:
        return BOTTOM
    rows = [dict(zip(columns, scalars)) for columns, scalars in matrix.entries]
    total = BOTTOM
    for perm in permutations(range(matrix.rows)):
        term = ONE  # the empty product, of the one permutation of no rows
        for i, (row, j) in enumerate(zip(rows, perm)):
            if j not in row:
                break
            term = row[j] if i == 0 else ls_mul(term, row[j], sort)
        else:
            total = term if total is BOTTOM else ls_add(total, term, sort)
    return total


def layered_permanent(matrix: LayeredMatrix, sort: Sort):
    """Permutation sum by a row-by-row dynamic programme over column masks.

    After row i the state maps each set of i used columns to the layered
    sum of all partial transversals of rows 0..i-1 into those columns.
    Extending a state by one entry is a layered product and merging two
    extensions into the same mask is a layered sum, so every nu-maximal
    transversal keeps its layer.  The result equals the naive sum because
    layered multiplication distributes over layered addition under every
    sort; no subtraction is used, so layer 0 and ``INF`` need no care.
    The work is the number of reachable column masks, at most C(n, i)
    after row i, whatever the values.  A row whose table would hold more
    than ``MAX_PERMANENT_STATES`` masks raises OutOfRange.

    The values are Python ints over one denominator D per matrix:
    ``integer_scale`` runs once, over the scalars of each run of rows
    that share a tuple, so a partial transversal's value is an int sum,
    read over D.  D is positive, so every order and tie between partial
    sums holds for the ints exactly as for the rationals, and the layers
    are multiplied and added where the rational sums would have them.
    One ``Fraction`` is built, for the result.

    The input is checked first, in one pass in row order (``_runs``),
    before any state exists: BOTTOM if a row is empty.  The values are
    scaled after it.  The programme then builds a row's cells only when
    it reaches that row, so it holds two state tables and one row of
    cells at a time.
    """
    runs = _runs(matrix, sort)
    if runs is None:
        return BOTTOM
    scale, ints = integer_scale(e.value for run in runs for e in run)
    add, mul = sort.add, sort.mul
    limit = MAX_PERMANENT_STATES

    run, start = None, 0  # the current run's scalars, and its first value in ints
    states = {0: (0, Fraction(1))}  # used columns -> (value * D, layer)
    for columns, scalars in matrix.entries:
        if scalars is not run:
            run, values = scalars, ints[start:start + len(scalars)]
            start += len(scalars)
        cells = [(1 << j, v, e.layer) for j, v, e in zip(columns, values, scalars)]
        extended = {}
        for used, (value, layer) in states.items():
            for bit, v, l in cells:
                if used & bit:
                    continue
                mask = used | bit
                w = value + v
                prior = extended.get(mask)
                if prior is None:
                    if len(extended) == limit:
                        raise OutOfRange(
                            f"a permanent of size {matrix.rows} needs more than "
                            f"{limit} states in one row"
                        )
                    extended[mask] = (w, mul(layer, l))
                elif w > prior[0]:
                    extended[mask] = (w, mul(layer, l))
                elif w == prior[0]:
                    extended[mask] = (w, add(prior[1], mul(layer, l)))
        if not extended:
            return BOTTOM
        states = extended
    (value, layer), = states.values()  # the single mask of all columns
    return LayeredScalar(Fraction(value, scale), layer)


def sylvester(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayeredMatrix:
    """The (m+n) x (m+n) staircase of full-form coefficients.

    Inputs are normalized to full form first; absent exponents (below a
    power of the variable dividing the input) are BOTTOM and lie outside
    every band.  A size above ``MAX_SYLVESTER_SIZE`` raises OutOfRange.
    """
    return _staircase(full_form(f), full_form(g))


def _staircase(f: LayeredPoly, g: LayeredPoly) -> LayeredMatrix:
    """``sylvester`` of two full forms: row r of p has columns r + e."""
    if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
        raise DegreeZero("sylvester needs two polynomials of degree >= 1")
    m, n = f.degree, g.degree
    size = m + n
    if size > MAX_SYLVESTER_SIZE:
        raise OutOfRange(
            f"a Sylvester matrix of size {size} exceeds the limit of {MAX_SYLVESTER_SIZE}"
        )
    entries = []
    for p, count in ((f, n), (g, m)):
        scalars = tuple(p.coeffs.values())  # one per exponent: a full form has no gap
        entries += [(range(r + p.min_exp, r + p.degree + 1), scalars) for r in range(count)]
    return LayeredMatrix(size, size, tuple(entries))


def resultant(f: LayeredPoly, g: LayeredPoly, sort: Sort):
    """Layered resultant; constant inputs use the power rule."""
    if f.is_zero or g.is_zero:
        return BOTTOM
    if f.degree == 0:
        return ls_pow(f.coeffs[0], g.degree, sort)
    if g.degree == 0:
        return ls_pow(g.coeffs[0], f.degree, sort)
    return layered_permanent(sylvester(f, g, sort), sort)


def explain_resultant(f: LayeredPoly, g: LayeredPoly, sort: Sort):
    """(``resultant``, its Sylvester matrix, the layer Sylvester matrix,
    its layer permanent), with None for a matrix there is none of.

    Each full form and the staircase are built once.  The resultant
    raises what ``resultant`` raises.  The layer matrix exists for an
    equal-root primary pair with finite layers; where it does not, the
    last two are None.  Its permanent is then never refused: its support
    lies inside the staircase's, whose permanent has just been computed
    under the same state bound, and every nonzero finite rational is a
    layer of ``RAT``.
    """
    if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
        return resultant(f, g, sort), None, None, None
    f, g = full_form(f), full_form(g)
    matrix = _staircase(f, g)
    value = layered_permanent(matrix, sort)
    layers = None
    try:
        root = is_primary(f)
        if root is not None and root == is_primary(g):
            layers = _layer_matrix(f, g, matrix)
    except DomainError:  # not monic, or an infinite layer
        pass
    return value, matrix, layers, None if layers is None else layer_permanent(layers)


def layer_sylvester(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayerMatrix:
    """Layers of the Sylvester matrix of two primary polynomials.

    Both inputs must be monic and primary with nu-equivalent roots.
    """
    return _primary_pair(f, g, "layer Sylvester matrix needs an equal-root primary pair")[1]


def _primary_pair(f: LayeredPoly, g: LayeredPoly, message: str):
    """Root and layer matrix of an equal-root primary pair; NotPrimaryPair(message) if not."""
    f = full_form(f)
    a = is_primary(f)
    g = full_form(g)
    b = is_primary(g)
    if a is None or b is None or a != b:
        raise NotPrimaryPair(message)
    return a, _layer_matrix(f, g, _staircase(f, g))


def _layer_matrix(f: LayeredPoly, g: LayeredPoly, matrix: LayeredMatrix) -> LayerMatrix:
    """The layers of ``matrix``, the staircase of the full forms f and g."""
    if any(sorts.is_inf(c.layer) for p in (f, g) for c in p.coeffs.values()):
        raise NotPrimaryPair("layer matrix needs finite layers")
    empty = LayeredScalar(Fraction(0), Fraction(0))  # an empty cell has layer 0
    entries = tuple(tuple(Fraction(e.layer) for e in row) for row in dense_rows(matrix, empty))
    return LayerMatrix(matrix.rows, entries)


def layer_permanent(matrix: LayerMatrix) -> Fraction:
    """Classical permanent over Q, by the layered permanent under ``RAT``.

    ``matrix`` is ``size`` rows of ``size`` entries each, else NotSquare.
    Every nonzero entry e becomes the scalar of value 0 and layer e, and
    every 0 is left out (BOTTOM).  All transversals then tie, so the
    layered sum adds their layer products: the classical permanent.
    BOTTOM (no transversal) is 0.  The entries are passed as they are,
    so ``RAT``'s layer check is the entry check: an int or a ``Fraction``
    passes, and ``inf``, a float, text or None raises InvalidLayer.
    """
    n = matrix.size
    if len(matrix.entries) != n or any(len(row) != n for row in matrix.entries):
        raise NotSquare("permanent needs a square matrix")
    tied = layered_matrix(
        [BOTTOM if e == 0 else LayeredScalar(Fraction(0), e) for e in row] for row in matrix.entries
    )
    per = layered_permanent(tied, sorts.RAT)
    return Fraction(0) if per is BOTTOM else per.layer


def reduction(f: LayeredPoly, u: int) -> LayeredPoly:
    """Drop the u lowest coefficients and shift down by u."""
    if f.is_zero:
        raise OutOfRange("cannot reduce the zero polynomial")
    if u < 0 or u > f.degree:
        raise OutOfRange(f"reduction index {u} outside 0..{f.degree}")
    return LayeredPoly({e - u: c for e, c in f.terms() if e >= u})


def primary_pair_resultant(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayeredScalar:
    """Closed form for an equal-root primary pair.

    The value is m*n*a (logarithmic notation) and the layer is the
    classical permanent of the layer Sylvester matrix, collapsed onto the
    sort.  It holds under all six sorts: on the layers a sort admits,
    its collapse commutes with the sums and products that make up the
    permanent.  The layers must be finite: an ``inf`` layer raises
    NotPrimaryPair.
    """
    a, matrix = _primary_pair(f, g, "closed form needs an equal-root primary pair")
    return LayeredScalar(Fraction(f.degree * g.degree) * a, sort.collapse(layer_permanent(matrix)))
