"""Layered permanents, Sylvester matrices and resultants.

The layered permanent sums the permutation products under layered
addition, so every nu-maximal transversal contributes its layer.  It is
computed by a dynamic programme over rows and sets of used columns that
merges partial transversals with the sort's own layered sum; since
layered multiplication distributes over layered addition under all six
sorts, the merge is exact.  Inclusion-exclusion shortcuts (Ryser's
formula) need subtraction and are unsound here.  The naive full
enumeration is kept as the oracle.

For two primary polynomials with the same root, the resultant is
determined by the classical permanent of the layer Sylvester matrix:
value m*n*a at that layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from . import sorts
from .errors import (
    DegreeZero,
    NotPrimaryPair,
    NotSquare,
    OutOfRange,
    PreconditionViolated,
)
from .factor import is_primary
from .polys import LayeredPoly, full_form
from .scalars import BOTTOM, LayeredScalar, ls_add, ls_mul, ls_pow
from .sorts import SUPER, UNIT, Sort

# A Sylvester matrix of more than this many rows (m + n for degrees m and
# n) is refused before any row is built: its rows hold (m + n)**2 cells.
MAX_SYLVESTER_SIZE = 2 ** 12

# ``layered_permanent`` raises OutOfRange once one row's table of column
# masks would hold more than this many states, so its memory stays
# bounded: a dense pair of degree d needs C(2d, d) states, 48620 at d = 9,
# and the separable discriminant of degree m at most 92378 (m = 10).
MAX_PERMANENT_STATES = 2 ** 17


class LayeredMatrix(NamedTuple):
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples; entries LayeredScalar or BOTTOM


class LayerMatrix(NamedTuple):
    size: int
    entries: tuple  # tuple of row tuples of Fractions (0 for empty)


def layered_matrix(rows) -> LayeredMatrix:
    entries = tuple(tuple(row) for row in rows)
    n = len(entries)
    m = len(entries[0]) if entries else 0
    if any(len(row) != m for row in entries):
        raise ValueError("ragged matrix")
    return LayeredMatrix(n, m, entries)


def layered_permanent_naive(matrix: LayeredMatrix, sort: Sort):
    """Oracle: plain sum over all permutations."""
    if matrix.rows != matrix.cols:
        raise NotSquare("permanent needs a square matrix")
    n = matrix.rows
    total = BOTTOM
    for perm in permutations(range(n)):
        term = None
        for i in range(n):
            e = matrix.entries[i][perm[i]]
            if e is BOTTOM:
                term = None
                break
            term = e if term is None else ls_mul(term, e, sort)
        if term is None:
            continue
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
    """
    if matrix.rows != matrix.cols:
        raise NotSquare("permanent needs a square matrix")
    rows = []
    for row in matrix.entries:
        cells = []
        for j, e in enumerate(row):
            if e is BOTTOM:
                continue
            sorts.require_layer(e.layer, sort)
            cells.append((1 << j, e.value, e.layer))
        if not cells:
            return BOTTOM
        rows.append(cells)
    add, mul = sort.add, sort.mul
    limit = MAX_PERMANENT_STATES

    states = {0: (Fraction(0), Fraction(1))}  # used columns -> (value, layer)
    for cells in rows:
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
    return LayeredScalar(value, layer)


def sylvester(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayeredMatrix:
    """The (m+n) x (m+n) staircase of full-form coefficients.

    Inputs are normalized to full form first; absent exponents (below a
    power of the variable dividing the input) stay BOTTOM.  A size above
    ``MAX_SYLVESTER_SIZE`` raises OutOfRange.
    """
    f = full_form(f)
    g = full_form(g)
    if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
        raise DegreeZero("sylvester needs two polynomials of degree >= 1")
    m, n = f.degree, g.degree
    size = m + n
    if size > MAX_SYLVESTER_SIZE:
        raise OutOfRange(
            f"a Sylvester matrix of size {size} exceeds the limit of {MAX_SYLVESTER_SIZE}"
        )
    rows = []
    for r in range(n):
        row = [BOTTOM] * size
        for e, c in f.terms():
            row[r + e] = c
        rows.append(row)
    for r in range(m):
        row = [BOTTOM] * size
        for e, c in g.terms():
            row[r + e] = c
        rows.append(row)
    return layered_matrix(rows)


def resultant(f: LayeredPoly, g: LayeredPoly, sort: Sort):
    """Layered resultant; constant inputs use the power rule."""
    if f.is_zero or g.is_zero:
        return BOTTOM
    if f.degree == 0:
        return ls_pow(f.coeffs[0], g.degree, sort)
    if g.degree == 0:
        return ls_pow(g.coeffs[0], f.degree, sort)
    return layered_permanent(sylvester(f, g, sort), sort)


def layer_sylvester(f: LayeredPoly, g: LayeredPoly, sort: Sort) -> LayerMatrix:
    """Layers of the Sylvester matrix of two primary polynomials.

    Both inputs must be monic and primary with nu-equivalent roots.
    """
    a = is_primary(full_form(f))
    b = is_primary(full_form(g))
    if a is None or b is None or a != b:
        raise NotPrimaryPair("layer Sylvester matrix needs an equal-root primary pair")
    matrix = sylvester(f, g, sort)
    if any(
        e is not BOTTOM and sorts.is_inf(e.layer)
        for row in matrix.entries
        for e in row
    ):
        raise NotPrimaryPair("layer matrix needs finite layers")
    entries = tuple(
        tuple(
            Fraction(0) if e is BOTTOM else Fraction(e.layer)
            for e in row
        )
        for row in matrix.entries
    )
    return LayerMatrix(matrix.rows, entries)


def layer_permanent(matrix: LayerMatrix) -> Fraction:
    """Classical permanent over Q, by the layered permanent under ``RAT``.

    Every nonzero entry e becomes the scalar of value 0 and layer e, and
    every 0 becomes BOTTOM.  All transversals then tie, so the layered
    sum adds their layer products: the classical permanent.  BOTTOM (no
    transversal) is 0.
    """
    entries = matrix.entries
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise NotSquare("permanent needs a square matrix")
    tied = layered_matrix(
        [BOTTOM if e == 0 else LayeredScalar(Fraction(0), Fraction(e)) for e in row]
        for row in entries
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
    classical permanent of the layer Sylvester matrix, collapsed onto the sort.
    """
    if sort in (UNIT, SUPER):
        raise PreconditionViolated(
            "the layer-permanent closed form needs ordinary layer arithmetic"
        )
    a = is_primary(full_form(f))
    b = is_primary(full_form(g))
    if a is None or b is None or a != b:
        raise NotPrimaryPair("closed form needs an equal-root primary pair")
    m, n = f.degree, g.degree
    layer = sort.collapse(layer_permanent(layer_sylvester(f, g, sort)))
    return LayeredScalar(Fraction(m * n) * a, layer)
