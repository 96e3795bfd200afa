"""Reference arithmetic written independently of laytrop, used as oracles.

Nothing here imports laytrop: a sort is read only through its ``kind`` and
``q`` fields, and a scalar is a plain ``(value, layer)`` pair.  The layer
rules are the ones the package documents for its six sorts; layer 0 is the
formal marker of inessential full-form coefficients (0 + l = l, 0 * l = 0).
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def layer_add(a, b, sort):
    if a == 0:
        return b
    if b == 0:
        return a
    kind = sort.kind
    if kind == "unit":
        return Fraction(1)
    if kind == "super":
        return INF
    if kind == "trunc":
        return min(a + b, Fraction(sort.q))
    return a + b


def layer_mul(a, b, sort):
    if a == 0 or b == 0:
        return Fraction(0)
    kind = sort.kind
    if kind == "unit":
        return Fraction(1)
    if kind == "super":
        return Fraction(1) if a == 1 and b == 1 else INF
    if kind == "trunc":
        return min(a * b, Fraction(sort.q))
    return a * b


def layer_power(k, e, sort):
    """k multiplied with itself e times (integer e >= 0)."""
    out = Fraction(1)
    for _ in range(e):
        out = layer_mul(out, k, sort)
    return out


def coeffs_of(f):
    """{exponent: (value, layer)} of a univariate laytrop polynomial."""
    return {e: (c.value, c.layer) for e, c in f.coeffs.items()}


def tropical_sum(terms, sort):
    """Layered sum of (value, layer) pairs: the largest value wins, ties add."""
    best = None
    for value, layer in terms:
        if best is None or value > best[0]:
            best = (value, layer)
        elif value == best[0]:
            best = (value, layer_add(best[1], layer, sort))
    return best


def direct_eval(coeffs, point, sort):
    """f(b) for f = {exponent: (value, layer)} and b = (value, layer).

    Exponent 0 contributes its coefficient unchanged; a positive exponent e
    contributes c * b^e with the power taken stepwise inside the sort.
    """
    bv, bl = point
    return tropical_sum(
        (
            (v + e * bv, l if e == 0 else layer_mul(l, layer_power(bl, e, sort), sort))
            for e, (v, l) in coeffs.items()
        ),
        sort,
    )


def full_form(coeffs):
    """Coefficients of the full form: every exponent between the lowest and
    highest one, each on the upper concave hull of (exponent, value), with
    layer 0 wherever no original coefficient sits on the hull."""
    exps = sorted(coeffs)
    out = {}
    for e in range(exps[0], exps[-1] + 1):
        hull = None
        for i in exps:
            if i > e:
                break
            for j in exps:
                if j < e or (j == e and i != e):
                    continue
                if i == j:
                    cand = coeffs[i][0]
                else:
                    cand = coeffs[i][0] + (coeffs[j][0] - coeffs[i][0]) * Fraction(e - i, j - i)
                if hull is None or cand > hull:
                    hull = cand
        if e in coeffs and coeffs[e][0] == hull:
            out[e] = coeffs[e]
        else:
            out[e] = (hull, Fraction(0))
    return out


def derivative(coeffs, sort):
    """Formal derivative of the essential form: coefficient e moves to e - 1
    with its layer added to itself e times."""
    full = full_form(coeffs)
    lo, hi = min(full), max(full)
    out = {}
    for e, (v, l) in coeffs.items():
        if e == 0 or v != full[e][0]:
            continue
        vertex = e in (lo, hi) or (
            full[e][0] - full[e - 1][0] != full[e + 1][0] - full[e][0]
        )
        if l == 0 and not vertex:
            continue
        total = l
        for _ in range(e - 1):
            total = layer_add(total, l, sort)
        out[e - 1] = (v, total)
    return out


def corner_roots(coeffs):
    """Values x at which the maximum of value_e + e*x is attained twice."""
    exps = sorted(coeffs)
    roots = set()
    for a, i in enumerate(exps):
        for j in exps[a + 1:]:
            x = Fraction(coeffs[i][0] - coeffs[j][0], j - i)
            top = max(v + e * x for e, (v, _) in coeffs.items())
            if coeffs[i][0] + i * x == top:
                roots.add(x)
    return roots


def sylvester(f, g):
    """Staircase of full-form coefficients; None marks an empty entry."""
    ff, gg = full_form(f), full_form(g)
    m, n = max(ff), max(gg)
    size = m + n
    rows = []
    for coeffs, shifts in ((ff, n), (gg, m)):
        for r in range(shifts):
            row = [None] * size
            for e, c in coeffs.items():
                row[r + e] = c
            rows.append(row)
    return rows


def permanent(rows, sort):
    """Layered permanent by a row-by-row dynamic programme over column sets.

    Returns (value, layer, tied, total): the permanent plus the number of
    value-maximal transversals and of all transversals, or None when no
    transversal exists.  Valid because layered addition and multiplication
    distribute, so partial sums over equal column sets may be merged.
    """
    states = {0: (Fraction(0), Fraction(1), 1, 1)}
    for row in rows:
        nxt = {}
        for mask, (value, layer, tied, total) in states.items():
            for j, entry in enumerate(row):
                bit = 1 << j
                if entry is None or mask & bit:
                    continue
                cand = (value + entry[0], layer_mul(layer, entry[1], sort), tied, total)
                key = mask | bit
                old = nxt.get(key)
                if old is None:
                    nxt[key] = cand
                elif cand[0] > old[0]:
                    nxt[key] = (cand[0], cand[1], cand[2], old[3] + total)
                elif cand[0] < old[0]:
                    nxt[key] = (old[0], old[1], old[2], old[3] + total)
                else:
                    nxt[key] = (
                        old[0],
                        layer_add(old[1], cand[1], sort),
                        old[2] + tied,
                        old[3] + total,
                    )
        states = nxt
    if not states:
        return None
    (state,) = states.values()
    return state


def odd_product(m):
    """3 * 5 * ... * (2m - 1): the discriminant layer of a separable degree-m poly."""
    out = Fraction(1)
    for k in range(2, m + 1):
        out *= 2 * k - 1
    return out


def int_root(n, k):
    """Exact k-th root of a non-negative integer, or None."""
    root = round(n ** (1.0 / k))
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand ** k == n:
            return cand
    return None


def rational_power(layer, e):
    """layer ** e for a positive rational layer and rational e, when exact."""
    layer = Fraction(layer)
    if e.denominator == 1:
        return layer ** e.numerator
    num = int_root(layer.numerator, e.denominator)
    den = int_root(layer.denominator, e.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** e.numerator


def axis(lo, hi, step):
    out = []
    x = lo
    while x <= hi:
        out.append(x)
        x += step
    return out


def lattice_size(region):
    n = 1
    for lo, hi, step in region:
        n *= int((hi - lo) / step) + 1
    return n


def lattice(region):
    points = [()]
    for lo, hi, step in region:
        points = [p + (x,) for p in points for x in axis(lo, hi, step)]
    return points


def monomial_terms(monomials, coords, layers):
    """(value, layer, exponents) of each monomial at a point; layers of
    nat/posq coordinates multiply without caps."""
    out = []
    for exps, (cv, cl) in monomials:
        value = cv
        layer = cl
        for e, x, l in zip(exps, coords, layers):
            if e == 0:
                continue
            value += e * x
            layer *= rational_power(l, e)
        out.append((value, layer, exps))
    return out


def raster_row(monomials, coords, layers):
    """(point, value, theta, csupp, component) of the layering map at a point."""
    terms = monomial_terms(monomials, coords, layers)
    top = max(v for v, _, _ in terms)
    tied = [(l, exps) for v, l, exps in terms if v == top]
    theta = sum((l for l, _ in tied), Fraction(0))
    hits = [exps for v, l, exps in terms if v == top and l == theta]
    return (coords, top, theta, len(tied), hits[0] if len(hits) == 1 else None)


def is_corner(monomials, coords, layers):
    terms = monomial_terms(monomials, coords, layers)
    top = max(v for v, _, _ in terms)
    return sum(1 for v, _, _ in terms if v == top) >= 2
