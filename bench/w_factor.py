"""Workload ``factor_eval``: one op is one polynomial of degree 1..6.

The op decomposes the polynomial under posq, nat (promoted when a layer
quotient leaves the naturals) and q, takes its full form and the
decomposition products, and evaluates at 50 probes: ``p_eval`` of the full
form and of the product plus ``eval_sort`` under posq and q, and ``p_eval``
of the full form of a layer-mapped copy under nat, unit, super (with
``inf`` layers) and trunc:4.  Each cycle holds the degrees in
CYCLE_DEGREES, so every cycle has the same degree mix.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import ref

# Degree 4 twice puts the median op inside one degree's stratum, not on the
# step between two, and the p90 inside the degree-6 stratum.
CYCLE_DEGREES = (1, 2, 3, 4, 4, 5, 6)
# (sort name, probe count, probe layers); 50 probes per op
PROBE_PLAN = (
    ("posq", 20, (F(1), F(2), F(1, 2))),
    ("q", 10, (F(1), F(-1), F(2), F(0), F(-3, 2))),
    ("nat", 5, (F(1), F(2), F(3))),
    ("unit", 5, (F(1),)),
    ("super", 5, (F(1), ref.INF)),
    ("trunc:4", 5, (F(1), F(2), F(3))),
)


def _value(rng):
    return F(rng.randint(-100, 100), rng.randint(10, 12))


class Op:
    __slots__ = ("f", "variants", "probes")

    def __init__(self, f, variants, probes):
        self.f = f
        self.variants = variants  # sort name -> poly with layers valid there
        self.probes = probes  # [(sort name, LayeredScalar)]


class FactorLoad:
    name = "factor_eval"
    n_cycles = 80

    def __init__(self, lt, seed):
        self.lt = lt
        self.sorts = {
            "posq": lt.POSQ,
            "q": lt.RAT,
            "nat": lt.NAT,
            "unit": lt.UNIT,
            "super": lt.SUPER,
            "trunc:4": lt.truncated(4),
        }
        rng = random.Random(seed)
        self.cycles = [
            [self._op(rng, deg) for deg in rng.sample(CYCLE_DEGREES, len(CYCLE_DEGREES))]
            for _ in range(self.n_cycles)
        ]

    def _op(self, rng, deg):
        lt = self.lt
        coeffs = {
            deg: (F(0), F(rng.randint(1, 4))),
            0: (_value(rng), F(rng.randint(1, 4))),
        }
        # a fixed share of the interior exponents, so that ops of one degree
        # cost about the same
        for e in rng.sample(range(1, deg), round(0.6 * (deg - 1))):
            coeffs[e] = (_value(rng), F(rng.randint(1, 4)))
        super_layers = {e: ref.INF if rng.random() < 0.3 else F(1) for e in coeffs}
        layer_maps = {
            "nat": lambda e, l: l,
            "unit": lambda e, l: F(1),
            "super": lambda e, l: super_layers[e],
            "trunc:4": lambda e, l: l,
        }

        def build(layer_of):
            return lt.poly(
                {e: lt.LayeredScalar(v, layer_of(e, l)) for e, (v, l) in coeffs.items()}
            )

        f = build(lambda e, l: l)
        variants = {name: build(m) for name, m in layer_maps.items()}
        roots = sorted(ref.corner_roots(coeffs))
        values = {F(0)}
        if roots:
            values.update(roots)
            values.update((roots[0] - 3, roots[-1] + 3))
            values.update((a + b) / 2 for a, b in zip(roots, roots[1:]))
        values = sorted(values)
        probes = []
        i = 0
        for name, count, layers in PROBE_PLAN:
            for j in range(count):
                v = values[i % len(values)] + F(i // len(values), 7)
                probes.append((name, lt.LayeredScalar(v, layers[j % len(layers)])))
                i += 1
        return Op(f, variants, probes)

    def warm_ops(self):
        rng = random.Random(0)
        return [self._op(rng, deg) for deg in (1, 3)]

    # -- the timed call ------------------------------------------------------

    def execute(self, op):
        """Returns a hash of every value the op computed, in a fixed order."""
        lt = self.lt
        s = self.sorts
        f = op.f
        dec = {
            "posq": lt.primary_decomposition(f, s["posq"]),
            "nat": lt.primary_decomposition(f, s["nat"]),
            "q": lt.primary_decomposition(f, s["q"]),
        }
        full = lt.full_form(f)
        prods = {name: dec[name].product(s[name]) for name in ("posq", "q")}
        fulls = {name: lt.full_form(g) for name, g in op.variants.items()}
        nat_direct = not dec["nat"].promoted_sort
        out = []
        for name, b in op.probes:
            sort = s[name]
            if name in prods:
                out.append(lt.p_eval(full, b, sort))
                out.append(lt.p_eval(prods[name], b, sort))
                out.append(lt.eval_sort(dec[name], b, sort))
            else:
                out.append(lt.p_eval(fulls[name], b, sort))
                if name == "nat" and nat_direct:
                    out.append(lt.eval_sort(dec["nat"], b, sort))
        return hash(tuple(out)), nat_direct

    # -- oracles (outside the timed phase) -------------------------------------

    def expected(self, op, nat_direct):
        out = []
        for name, b in op.probes:
            sort = self.sorts[name]
            g = op.f if name in ("posq", "q") else op.variants[name]
            value, layer = ref.direct_eval(ref.coeffs_of(g), (b.value, b.layer), sort)
            scalar = self.lt.LayeredScalar(value, layer)
            if name in ("posq", "q"):
                out.extend((scalar, scalar, layer))
            else:
                out.append(scalar)
                if name == "nat" and nat_direct:
                    out.append(layer)
        return hash(tuple(out))

    def check(self, executed):
        failures = []
        degrees = Counter()
        for key, (op, (digest, nat_direct)) in executed.items():
            degrees[op.f.degree] += 1
            if digest != self.expected(op, nat_direct):
                failures.append((key, "evaluation differs from the direct evaluation", True))
        mix = {
            "degrees": dict(sorted(degrees.items())),
            "probe_sorts": {name: count for name, count, _ in PROBE_PLAN},
        }
        return failures, mix
