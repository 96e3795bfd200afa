"""Workload ``resultant``: one op is one ``resultant`` or ``discriminant`` call.

Each cycle holds the same mix, drawn afresh from the seed:

* criterion-04 triples under nat, posq and trunc:4 -- per sort four generic
  triples (degree <= 4) and one of equal-or-adjacent-root primaries;
  each triple is three ops: res(f, g*h), res(f, g), res(f, h);
* one separable posq polynomial of each degree 2..6 (integer roots in
  1..59), one discriminant op each;
* twelve conjecture-search pairs: equal-root primaries under nat, whose
  Sylvester matrices are all ties, sizes 2..8.

Sylvester sizes therefore run from 2 to 12 and from no ties to all ties.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import ref

# Degrees are fixed per slot, so every cycle has the same Sylvester sizes.
# GENERIC_DEGREES go two to a sort; SMALL_DEGREES and one PRIMARY_DEGREES
# entry go to every sort.
GENERIC_DEGREES = ((1, 2, 3), (2, 3, 4), (3, 4, 2), (4, 3, 3), (2, 2, 2), (4, 4, 4))
SMALL_DEGREES = ((1, 1, 1), (2, 1, 1))
PRIMARY_DEGREES = ((1, 1, 2), (2, 1, 2), (2, 2, 1))
# Six all-tie 8x8 pairs (about 30 ms each, nearly the same cost whatever the
# seed) sit just below the four heaviest ops of a cycle, so the p90 falls
# inside their stratum rather than among ops whose cost varies with the seed.
PAIR_DEGREES = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)) + ((4, 4),) * 6
NAIVE_SAMPLE = 24  # matrices with n <= 6 checked against the naive oracle per run


class Op:
    __slots__ = ("kind", "f", "g", "sort", "group", "role")

    def __init__(self, kind, f, g, sort, group=None, role=None):
        self.kind = kind  # "res" or "disc"
        self.f = f
        self.g = g
        self.sort = sort
        self.group = group
        self.role = role


def _value(rng):
    return F(rng.randint(-100, 100), rng.randint(10, 12))


def _layer(rng, sort):
    if sort.kind == "posq":
        return F(rng.randint(1, 9), rng.randint(1, 9))
    if sort.kind == "trunc":
        return F(rng.randint(1, sort.q))
    return F(rng.randint(1, 4))


class ResultantLoad:
    name = "resultant"
    n_cycles = 24

    def __init__(self, lt, seed):
        self.lt = lt
        self.sorts = (lt.NAT, lt.POSQ, lt.truncated(4))
        rng = random.Random(seed)
        self._groups = 0
        self.cycles = [self._cycle(rng) for _ in range(self.n_cycles)]
        self.sample_rng = random.Random(seed + 1)

    # -- inputs --------------------------------------------------------------

    def _poly(self, rng, sort, deg):
        lt = self.lt
        coeffs = {deg: lt.ONE, 0: lt.LayeredScalar(_value(rng), _layer(rng, sort))}
        for e in range(1, deg):
            if rng.random() < 0.65:
                coeffs[e] = lt.LayeredScalar(_value(rng), _layer(rng, sort))
        return lt.poly(coeffs)

    def _primary(self, rng, sort, root, deg, fill=0.7):
        lt = self.lt
        coeffs = {deg: lt.ONE}
        for e in range(deg):
            if e == 0 or rng.random() < fill:
                coeffs[e] = lt.LayeredScalar(root * (deg - e), _layer(rng, sort))
        return lt.poly(coeffs)

    def _triple_ops(self, rng, sort, degrees, primary):
        lt = self.lt
        if primary:
            root = F(rng.randint(-2, 2))
            f, g, h = (
                self._primary(rng, sort, root + rng.randint(0, 1), deg) for deg in degrees
            )
        else:
            f, g, h = (self._poly(rng, sort, deg) for deg in degrees)
        self._groups += 1
        gid = self._groups
        gh = lt.p_mul(g, h, sort)
        return [
            Op("res", f, gh, sort, gid, "fgh"),
            Op("res", f, g, sort, gid, "fg"),
            Op("res", f, h, sort, gid, "fh"),
        ]

    def _separable(self, rng, m):
        lt = self.lt
        f = lt.monomial(0, lt.ONE)
        for r in sorted(rng.sample(range(1, 60), m)):
            f = lt.p_mul(f, lt.poly({1: lt.ONE, 0: lt.scalar(r, 1)}), lt.POSQ)
        return Op("disc", f, None, lt.POSQ)

    def _cycle(self, rng):
        lt = self.lt
        ops = []
        for i, sort in enumerate(self.sorts):
            for degrees in GENERIC_DEGREES[2 * i: 2 * i + 2] + SMALL_DEGREES:
                ops.extend(self._triple_ops(rng, sort, degrees, False))
            ops.extend(self._triple_ops(rng, sort, PRIMARY_DEGREES[i], True))
        for m in range(2, 7):
            ops.append(self._separable(rng, m))
        for m, n in PAIR_DEGREES:
            root = F(rng.randint(1, 3))
            f = self._primary(rng, lt.NAT, root, m, fill=1.0)
            g = self._primary(rng, lt.NAT, root, n, fill=1.0)
            ops.append(Op("res", f, g, lt.NAT))
        rng.shuffle(ops)
        return ops

    def warm_ops(self):
        lt = self.lt
        rng = random.Random(0)
        ops = [Op("res", self._poly(rng, s, 2), self._poly(rng, s, 1), s) for s in self.sorts]
        ops.append(self._separable(rng, 3))
        return ops

    # -- the timed call ------------------------------------------------------

    def execute(self, op):
        if op.kind == "disc":
            return self.lt.discriminant(op.f, op.sort)
        return self.lt.resultant(op.f, op.g, op.sort)

    # -- oracles (outside the timed phase) -------------------------------------

    def _reference(self, op):
        f = ref.coeffs_of(op.f)
        g = ref.derivative(f, op.sort) if op.kind == "disc" else ref.coeffs_of(op.g)
        rows = ref.sylvester(f, g)
        return rows, ref.permanent(rows, op.sort)

    def check(self, executed):
        """Compare every executed op with the oracles; returns (failures, mix)."""
        failures = []
        sizes = Counter()
        ties = 0
        by_group = {}
        small = []
        for key, (op, result) in executed.items():
            rows, expect = self._reference(op)
            n = len(rows)
            sizes[n] += 1
            if expect[2] == expect[3]:
                ties += 1
            got = (result.value, result.layer)
            if got != expect[:2]:
                failures.append((key, f"permanent oracle {expect[:2]} != {got}", True))
            if op.kind == "disc" and result.layer != ref.odd_product(op.f.degree):
                failures.append((key, f"discriminant layer {result.layer} != separable_sort", True))
            if op.group is not None:
                by_group.setdefault(op.group, {})[op.role] = (key, op, result)
            if n <= 6:
                small.append((key, op, result))
        for key, op, result in self.sample_rng.sample(small, min(NAIVE_SAMPLE, len(small))):
            lt = self.lt
            g = lt.derivative(op.f, op.sort) if op.kind == "disc" else op.g
            naive = lt.layered_permanent_naive(lt.sylvester(op.f, g, op.sort), op.sort)
            if naive != result:
                failures.append((key, f"naive permanent {naive} != {result}", True))
        for roles in by_group.values():
            if len(roles) == 3:
                failures.extend(self._triple_law(roles))
        ops = [op for op, _ in executed.values()]
        mix = {
            "sylvester_sizes": dict(sorted(sizes.items())),
            "all_tie_share": round(ties / max(1, len(ops)), 4),
            "degrees": dict(sorted(Counter(f"{op.kind}:{op.f.degree}" for op in ops).items())),
            "sorts": dict(sorted(Counter(str(op.sort) for op in ops).items())),
        }
        return failures, mix

    def _triple_law(self, roles):
        """Criterion 04: res(f, gh) and res(f, g) * res(f, h) agree in value,
        and exactly when f shares no corner root with g or h."""
        key, op, lhs = roles["fgh"]
        _, op_g, rg = roles["fg"]
        _, op_h, rh = roles["fh"]
        rhs = (rg.value + rh.value, ref.layer_mul(rg.layer, rh.layer, op.sort))
        if lhs.value != rhs[0]:
            return [(key, f"nu-multiplicativity: {lhs} vs {rhs}", True)]
        roots_f = ref.corner_roots(ref.coeffs_of(op.f))
        roots_gh = ref.corner_roots(ref.coeffs_of(op_g.g)) | ref.corner_roots(ref.coeffs_of(op_h.g))
        if not roots_f & roots_gh and (lhs.value, lhs.layer) != rhs:
            return [(key, f"disjoint roots but {lhs} != {rhs}", True)]
        return []
