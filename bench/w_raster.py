"""Workload ``raster``: one op is one ``grid_scan`` or ``corner_locus_on_grid`` call.

Polynomials have 3..8 monomials with integer, negative and rational
exponents; coordinate layers are 1..4 and the sorts nat and posq.  An
exponent is drawn only where its layer power stays exact and inside the
sort (a half power needs layer 1 or 4, a negative power under nat needs
layer 1), so no op is refused.  Each cycle holds the grid mix in CYCLE.
Most ops are 7x7 rasters: at about 2 ms a point on the seed, a run of
twenty seconds reaches the hundred ops a p90 with ten samples beyond it
needs only if the bulk is that small; the 11x11 to 41x41 grids are the tail.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import ref

# (kind, arity, points per axis, monomial count of each such op in a cycle);
# the counts are fixed per slot so that every cycle costs about the same.
# The p90 falls among the 11x11 rasters and the median among the 7x7 ones
# with six monomials, so those strata each share one monomial count.
CYCLE = (
    ("scan", 2, 41, (3,)),
    ("scan", 2, 21, (5, 6)),
    ("scan", 2, 11, (5,) * 6),
    ("scan", 3, 5, (3, 5)),
    ("locus", 2, 11, (3, 4, 5)),
    ("scan", 2, 7, (3, 4, 5) * 6 + (6,) * 13 + (7, 7, 7, 8, 8)),
)


class Op:
    __slots__ = ("kind", "polys", "region", "layers", "sort")

    def __init__(self, kind, polys, region, layers, sort):
        self.kind = kind
        self.polys = polys  # one MultiPoly for scan, generators for locus
        self.region = region
        self.layers = layers
        self.sort = sort


class RasterLoad:
    name = "raster"
    n_cycles = 6

    def __init__(self, lt, seed):
        self.lt = lt
        rng = random.Random(seed)
        self.cycles = []
        for _ in range(self.n_cycles):
            specs = [(kind, arity, n, size) for kind, arity, n, sizes in CYCLE for size in sizes]
            ops = [self._op(rng, i, *spec) for i, spec in enumerate(specs)]
            rng.shuffle(ops)
            self.cycles.append(ops)

    def _exponent(self, rng, layer, sort):
        choices = [F(rng.randint(0, 3))]
        if layer == 1 or sort.kind == "posq":
            choices.append(F(rng.randint(-3, -1)))
        if layer in (1, 4):
            choices.append(F(rng.choice((-3, -1, 1, 3, 5)), 2))
        e = rng.choice(choices)
        if e < 0 and layer != 1 and sort.kind != "posq":
            return -e
        return e

    def _poly(self, rng, arity, layers, sort, size):
        lt = self.lt
        monos = {}
        while len(monos) < size:
            exps = tuple(self._exponent(rng, l, sort) for l in layers)
            coeff = lt.LayeredScalar(F(rng.randint(-12, 12), rng.choice((1, 1, 2))), F(rng.randint(1, 3)))
            monos[exps] = coeff
        return lt.multipoly(arity, monos)

    def _op(self, rng, slot, kind, arity, n, size):
        """Sort, step and coordinate layers follow the slot, so that every
        cycle has the same mix of them."""
        lt = self.lt
        sort = (lt.NAT, lt.POSQ)[slot % 2]
        step = F(1, 1 + slot // 2 % 2)
        layers = tuple(F((slot // 4 + j) % 4 + 1) for j in range(arity))
        region = []
        for _ in range(arity):
            lo = F(rng.randint(-4, 0)) - (n // 2) * step
            region.append((lo, lo + (n - 1) * step, step))
        count = 2 if kind == "locus" else 1
        polys = tuple(self._poly(rng, arity, layers, sort, size) for _ in range(count))
        return Op(kind, polys, tuple(region), layers, sort)

    def warm_ops(self):
        rng = random.Random(0)
        return [self._op(rng, 0, "scan", 2, 3, 3), self._op(rng, 1, "locus", 2, 3, 3)]

    # -- the timed call ------------------------------------------------------

    def execute(self, op):
        """Folds the rows into a digest as they arrive; nothing is kept."""
        lt = self.lt
        digest = 0
        if op.kind == "scan":
            for row in lt.grid_scan(op.polys[0], op.region, op.layers, op.sort):
                digest = hash((digest, tuple(row)))
        else:
            for point in lt.corner_locus_on_grid(op.polys, op.region, op.layers, op.sort):
                digest = hash((digest, point))
        return digest

    # -- oracles (outside the timed phase) -------------------------------------

    def expected(self, op):
        monos = [
            [(exps, (c.value, c.layer)) for exps, c in F_.terms()] for F_ in op.polys
        ]
        digest = 0
        for coords in ref.lattice(op.region):
            if op.kind == "scan":
                digest = hash((digest, ref.raster_row(monos[0], coords, op.layers)))
            elif all(ref.is_corner(m, coords, op.layers) for m in monos):
                digest = hash((digest, coords))
        return digest

    def check(self, executed):
        failures = []
        grids = Counter()
        for key, (op, digest) in executed.items():
            grids[f"{op.kind}:{ref.lattice_size(op.region)}"] += 1
            if digest != self.expected(op):
                failures.append((key, f"{op.kind} rows differ from the per-point evaluation", True))
        mix = {
            "grid_points_per_op": dict(sorted(grids.items())),
            "monomials": dict(sorted(Counter(len(p.terms()) for op, _ in executed.values() for p in op.polys).items())),
            "sorts": dict(sorted(Counter(str(op.sort) for op, _ in executed.values()).items())),
        }
        return failures, mix
