"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 7 note: the discriminant layer of f = prod (x + r_i) with m
distinct roots of layer 1 under posq is the root-independent constant
prod_{k=2}^{m} (2k-1) = 3, 15, 105, 945 for m = 2..5.  An earlier
statement, m^{m-1} * prod (2k-1)/(k(k-1)), cannot be right for m >= 3:
it gives 45/4, 140/3 and 13125/64, yet every coefficient layer of f counts
maximal root subsets (a natural number), the layers of f' are those
counts times the exponents, and the layer of res(f, f') is a sum of
products of these entries, hence a natural number.  A brute-force
max-plus enumeration that shares no code with laytrop measures 3, 15,
105, 945, the constants also pinned in test_calculus.py.  The expected
values are written out here rather than taken from separable_sort, so
the criterion stays independent of the code it checks.
"""

import random
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest
from conftest import linear_product, probe_points

import laytrop as lt

sc = lt.scalar
P = lt.parse_poly


def _report(num, name, passed, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}{detail}")
    assert passed, f"criterion {num} {name}{detail}"


def _value_in_10(rng):
    return F(rng.randint(-100, 100), rng.randint(10, 12))


def _layer_for(rng, sort):
    if sort == lt.POSQ:
        return F(rng.randint(1, 9), rng.randint(1, 9))
    if sort.kind == "trunc":
        return F(rng.randint(1, sort.q))
    return F(rng.randint(1, 4))


def _rand_poly(rng, sort, max_deg=4):
    deg = rng.randint(1, max_deg)
    coeffs = {
        deg: lt.ONE,
        0: lt.LayeredScalar(_value_in_10(rng), _layer_for(rng, sort)),
    }
    for e in range(1, deg):
        if rng.random() < 0.65:
            coeffs[e] = lt.LayeredScalar(_value_in_10(rng), _layer_for(rng, sort))
    return lt.poly(coeffs)


def _rand_primary(rng, sort, root, max_deg=2):
    deg = rng.randint(1, max_deg)
    coeffs = {deg: lt.ONE}
    for e in range(deg):
        if e == 0 or rng.random() < 0.7:
            coeffs[e] = lt.LayeredScalar(root * (deg - e), _layer_for(rng, sort))
    return lt.poly(coeffs)


def test_criterion_01_resultant_example():
    f = P("x^2 + 5:1*x + 7:1")
    g = P("x^2 + 4:1*x + 6:1")
    assert lt.resultant(f, g, lt.NAT) == sc(16, 2)  # warm-up
    t0 = time.perf_counter()
    value = lt.resultant(f, g, lt.NAT)
    elapsed = time.perf_counter() - t0
    ok = lt.format_scalar(value) == "16:2" and elapsed < 0.010
    _report(1, "resultant-example", ok, f" ({elapsed * 1000:.2f} ms)")


def test_criterion_02_factor_check():
    f = P("x^2 + 5:1*x + 7:1")
    g = P("x^2 + 4:1*x + 6:1")
    df = lt.primary_decomposition(f, lt.POSQ)
    dg = lt.primary_decomposition(g, lt.POSQ)
    ok = [pf.poly for pf in df.factors] == [P("x + 5:1"), P("x + 2:1")]
    ok = ok and [pg.poly for pg in dg.factors] == [P("x + 4:1"), P("x + 2:1")]
    # closed form <2>^2 * 5 * 4 * 5 over the factor pairs
    prod = None
    for pf in df.factors:
        for pg in dg.factors:
            r = lt.resultant(pf.poly, pg.poly, lt.POSQ)
            prod = r if prod is None else lt.ls_mul(prod, r, lt.POSQ)
    ok = ok and prod == sc(16, 2)
    ok = ok and lt.resultant(f, g, lt.POSQ) == prod
    _report(2, "factor-check", ok)


def test_criterion_03_counterexample_reproduction():
    one = F(1)
    f = lt.poly({2: lt.ONE, 1: lt.LayeredScalar(F(1), one), 0: lt.LayeredScalar(F(2), one)})
    g = lt.poly({1: lt.ONE, 0: lt.LayeredScalar(F(1), one)})
    h = lt.poly({1: lt.ONE, 0: lt.LayeredScalar(F(1), one)})
    gh = lt.p_mul(g, h, lt.NAT)
    per_gh = lt.layer_permanent(lt.layer_sylvester(f, gh, lt.NAT))
    per_g = lt.layer_permanent(lt.layer_sylvester(f, g, lt.NAT))
    per_h = lt.layer_permanent(lt.layer_sylvester(f, h, lt.NAT))
    diff = per_gh - per_g * per_h
    _report(3, "counterexample-reproduction", diff == 4, f" (difference {diff})")


def test_criterion_04_nu_multiplicativity():
    failures = 0
    checked = disjoint = 0
    for sort, seed in ((lt.NAT, 41), (lt.POSQ, 43), (lt.truncated(4), 47)):
        rng = random.Random(seed)
        for trial in range(334):
            if trial % 3 == 0:
                # small integer coefficients make shared corner roots common
                root = F(rng.randint(-2, 2))
                f, g, h = (
                    _rand_primary(rng, sort, root + rng.randint(0, 1))
                    for _ in range(3)
                )
            else:
                f, g, h = (_rand_poly(rng, sort) for _ in range(3))
            gh = lt.p_mul(g, h, sort)
            lhs = lt.resultant(f, gh, sort)
            rhs = lt.ls_mul(
                lt.resultant(f, g, sort), lt.resultant(f, h, sort), sort
            )
            checked += 1
            if lhs.value != rhs.value:
                failures += 1
            rf = {r for r, _ in lt.corner_roots(f)}
            rgh = {r for r, _ in lt.corner_roots(g)} | {
                r for r, _ in lt.corner_roots(h)
            }
            if not (rf & rgh):
                disjoint += 1
                if lhs != rhs:
                    failures += 1
    _report(
        4,
        "nu-multiplicativity",
        failures == 0 and checked >= 1000,
        f" ({checked} triples, {disjoint} with disjoint roots)",
    )


def test_criterion_05_blockwise_primary_product():
    rng = random.Random(53)
    failures = 0
    for trial in range(500):
        if trial % 3 == 0:
            shared = F(rng.randint(-4, 4))
            f = _rand_primary(rng, lt.POSQ, shared)
            g = _rand_primary(rng, lt.POSQ, shared)
            f = lt.p_mul(f, _rand_primary(rng, lt.POSQ, shared + rng.randint(1, 3)), lt.POSQ)
        else:
            f = _rand_poly(rng, lt.POSQ)
            g = _rand_poly(rng, lt.POSQ)
        lhs = lt.resultant(f, g, lt.POSQ)
        rhs = None
        for pf in lt.primary_decomposition(f, lt.POSQ).factors:
            for pg in lt.primary_decomposition(g, lt.POSQ).factors:
                r = lt.resultant(pf.poly, pg.poly, lt.POSQ)
                rhs = r if rhs is None else lt.ls_mul(rhs, r, lt.POSQ)
        if lhs != rhs:
            failures += 1
    _report(5, "blockwise-primary-product", failures == 0, " (500 pairs)")


def test_criterion_06_truncated_surpassing():
    failures = 0
    for q in (2, 3, 4):
        sort = lt.truncated(q)
        rng = random.Random(600 + q)
        for _ in range(168):
            root = F(rng.randint(-4, 4))
            f, g, h = (_rand_primary(rng, sort, root) for _ in range(3))
            gh = lt.p_mul(g, h, sort)
            lhs = lt.resultant(f, gh, sort)
            rhs = lt.ls_mul(
                lt.resultant(f, g, sort), lt.resultant(f, h, sort), sort
            )
            for ell in range(1, q + 1):
                if not lt.surpasses_ell(lhs, rhs, F(ell), sort):
                    failures += 1
    _report(6, "truncated-surpassing", failures == 0, " (504 triples, q in {2,3,4})")


def test_criterion_07_discriminant_sorts():
    t0 = time.perf_counter()
    rng = random.Random(59)
    measured = {}
    root_independent = True
    for m in range(2, 6):
        layers = set()
        for _ in range(50):
            f = linear_product(sorted(rng.sample(range(1, 60), m)), lt.POSQ)
            layers.add(lt.discriminant(f, lt.POSQ).layer)
        root_independent = root_independent and len(layers) == 1
        measured[m] = layers.pop()
    elapsed = time.perf_counter() - t0

    formula = {}
    for m in range(2, 6):
        out = F(1)
        for k in range(2, m + 1):
            out *= 2 * k - 1
        formula[m] = out

    ok = root_independent and elapsed < 5.0 and measured == formula
    detail = f" ({elapsed:.1f}s; measured {dict(measured)}, closed form {dict(formula)})"
    _report(7, "discriminant-sorts", ok, detail)


@lru_cache(maxsize=None)
def _decomposition_probes():
    rng = random.Random(61)
    cases = []
    for _ in range(500):
        deg = rng.randint(1, 6)
        coeffs = {
            deg: lt.LayeredScalar(F(0), _layer_for(rng, lt.POSQ)),
            0: lt.LayeredScalar(_value_in_10(rng), _layer_for(rng, lt.POSQ)),
        }
        for e in range(1, deg):
            if rng.random() < 0.6:
                coeffs[e] = lt.LayeredScalar(_value_in_10(rng), _layer_for(rng, lt.POSQ))
        f = lt.poly(coeffs)
        d = lt.primary_decomposition(f, lt.POSQ)
        cases.append((f, d, probe_points(d)))
    return cases


def test_criterion_08_decomposition_soundness():
    failures = 0
    for f, d, probes in _decomposition_probes():
        full = lt.full_form(f)
        prod = d.product(lt.POSQ)
        for b in probes:
            if lt.p_eval(full, b, lt.POSQ) != lt.p_eval(prod, b, lt.POSQ):
                failures += 1
    _report(8, "decomposition-soundness", failures == 0, " (500 polys x 50 probes)")


def test_criterion_09_evaluation_sorts():
    failures = 0
    for f, d, probes in _decomposition_probes():
        full = lt.full_form(f)
        for b in probes:
            if lt.eval_sort(d, b, lt.POSQ) != lt.p_eval(full, b, lt.POSQ).layer:
                failures += 1
    spots_ok = True
    for m in range(1, 7):
        f = lt.p_pow(P("x + 2:1"), m, lt.NAT)
        spots_ok = spots_ok and lt.p_eval(f, sc(2, 1), lt.NAT).layer == 2**m
    _report(9, "evaluation-sorts", failures == 0 and spots_ok, " (incl. 2^m spots m=1..6)")


def test_criterion_10_layering_map_raster():
    line = P("x1 + x2 + 0:1")
    ok = True
    for ell, expect in ((1, {"open": {1}, "ray": {2}, "vertex": 3}),
                        (2, {"open": {2, 1}, "ray": {4, 3}, "vertex": 5})):
        rows = list(lt.grid_scan(line, [(-2, 2, 1), (-2, 2, 1)], [ell, ell], lt.NAT))
        by_point = {row.point: row for row in rows}
        vertex = by_point[(F(0), F(0))]
        ok = ok and vertex.theta == expect["vertex"] and vertex.csupp == 3
        rays = [(F(1), F(1)), (F(2), F(2)), (F(0), F(-1)), (F(-1), F(0))]
        for p in rays:
            ok = ok and by_point[p].theta in expect["ray"] and by_point[p].csupp == 2
        opens = [(F(2), F(1)), (F(1), F(-1)), (F(-1), F(-2)), (F(-2), F(-1))]
        for p in opens:
            ok = ok and by_point[p].theta in expect["open"] and by_point[p].csupp == 1
        observed = {row.theta for row in rows}
        if ell == 1:
            ok = ok and observed == {1, 2, 3}
        else:
            ok = ok and observed == {1, 2, 3, 4, 5}
    _report(10, "layering-map-raster", ok)


def test_criterion_11_permanent_oracle_equivalence():
    rng = random.Random(67)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        rows = []
        for _ in range(n):
            rows.append(
                [
                    lt.BOTTOM
                    if rng.random() < 0.30
                    else lt.LayeredScalar(_value_in_10(rng), F(rng.randint(1, 4)))
                    for _ in range(n)
                ]
            )
        m = lt.layered_matrix(rows)
        if lt.layered_permanent(m, lt.NAT) != lt.layered_permanent_naive(m, lt.NAT):
            failures += 1
    _report(11, "permanent-oracle-equivalence", failures == 0, " (200 matrices <= 7x7)")


def test_criterion_12_algebraic_law_suite():
    sorts = [lt.UNIT, lt.SUPER, lt.truncated(3), lt.NAT, lt.POSQ, lt.RAT]
    nonneg = {str(s) for s in sorts if s != lt.RAT}
    failures = 0
    cases_per_sort = 1000

    def rand_scalar(rng, sort):
        if sort == lt.UNIT:
            layer = F(1)
        elif sort == lt.SUPER:
            layer = rng.choice([F(1), lt.INF])
        elif sort.kind == "trunc":
            layer = F(rng.randint(1, sort.q))
        elif sort == lt.NAT:
            layer = F(rng.randint(1, 4))
        elif sort == lt.POSQ:
            layer = F(rng.randint(1, 9), rng.randint(1, 9))
        else:
            layer = F(rng.randint(-5, 5), rng.randint(1, 3))
        return lt.LayeredScalar(_value_in_10(rng), layer)

    for index, sort in enumerate(sorts):
        rng = random.Random(1000 + index)
        for _ in range(cases_per_sort):
            x, y, z = (rand_scalar(rng, sort) for _ in range(3))
            if lt.ls_add(x, y, sort) != lt.ls_add(y, x, sort):
                failures += 1
            if lt.ls_mul(lt.ls_mul(x, y, sort), z, sort) != lt.ls_mul(
                x, lt.ls_mul(y, z, sort), sort
            ):
                failures += 1
            if lt.ls_mul(x, lt.ls_add(y, z, sort), sort) != lt.ls_add(
                lt.ls_mul(x, y, sort), lt.ls_mul(x, z, sort), sort
            ):
                failures += 1
            n = rng.randint(2, 4)
            frob_l = lt.ls_pow(lt.ls_add(x, y, sort), n, sort)
            frob_r = lt.ls_add(lt.ls_pow(x, n, sort), lt.ls_pow(y, n, sort), sort)
            if frob_l.value != frob_r.value:
                failures += 1
            if str(sort) in nonneg and not lt.surpasses_L(frob_l, frob_r, sort):
                failures += 1

    # truncation homomorphism on layers
    rng = random.Random(71)
    q = 3
    tr = lt.truncated(q)
    for _ in range(1000):
        k, l = F(rng.randint(1, 10)), F(rng.randint(1, 10))
        if lt.truncate_layer(k + l, q) != lt.layer_add(
            lt.truncate_layer(k, q), lt.truncate_layer(l, q), tr
        ):
            failures += 1
        if lt.truncate_layer(k * l, q) != lt.layer_mul(
            lt.truncate_layer(k, q), lt.truncate_layer(l, q), tr
        ):
            failures += 1

    # derivative sum and product rules (formal rule, any representative)
    for index, sort in enumerate((lt.NAT, lt.POSQ, lt.truncated(3), lt.RAT)):
        rng = random.Random(2000 + index)
        for _ in range(1000):
            f = lt.poly(
                {
                    e: rand_scalar(rng, sort)
                    for e in range(4)
                    if rng.random() < 0.7
                }
            )
            g = lt.poly(
                {
                    e: rand_scalar(rng, sort)
                    for e in range(4)
                    if rng.random() < 0.7
                }
            )
            if lt.formal_derivative(lt.p_add(f, g, sort), sort) != lt.p_add(
                lt.formal_derivative(f, sort), lt.formal_derivative(g, sort), sort
            ):
                failures += 1
            if lt.formal_derivative(lt.p_mul(f, g, sort), sort) != lt.p_add(
                lt.p_mul(lt.formal_derivative(f, sort), g, sort),
                lt.p_mul(f, lt.formal_derivative(g, sort), sort),
                sort,
            ):
                failures += 1
    _report(12, "algebraic-law-suite", failures == 0, " (>= 1000 cases per sort)")
