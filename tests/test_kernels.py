"""The evaluation kernels against the stepwise compositions they replace.

``p_eval``, ``p_mul``, ``mp_mul`` and ``mp_eval`` check each input
layer once and then run on the sort's unchecked operations: the tied
sums of ``p_eval``, ``p_mul`` and ``mp_mul`` are one exact
``Sort.fold`` each, collapsed once.  ``eval_sort`` checks its parts in
the order of the stepwise product (b's layer once, each constant term,
the unit, and ``p_eval``'s checks for the factor whose root the point
crosses) and takes their sum of products in one ``Sort.fold``.  The oracles below are the
compositions of checked scalar and layer operations, one step at a
time, that these kernels used to be; the kernels must give the same
result, or refuse with the same exception class, on every input.
"""

import math
import random
from fractions import Fraction as F

import pytest

import laytrop as lt
from conftest import ALL_SORTS, outcome
from laytrop import sorts

HUGE = F(2**6000 + 1)  # a valid layer whose cube exceeds MAX_LAYER_BITS
LAYERS = [F(0), F(1), F(2), F(3), F(4), F(1, 2), F(-1), F(-3, 2), lt.INF, HUGE]


def oracle_p_eval(f, x, sort):
    return lt.ls_sum(
        (lt.ls_mul(c, lt.ls_pow(x, exp, sort), sort) for exp, c in f.coeffs.items()), sort
    )


def oracle_p_mul(f, g, sort):
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            exp = e1 + e2
            prod = lt.ls_mul(c1, c2, sort)
            out[exp] = lt.ls_add(out[exp], prod, sort) if exp in out else prod
    return lt.poly(out)


def oracle_eval_sort(decomp, b, sort):
    k = b.layer
    out = decomp.unit.layer
    if decomp.lambda_power:
        out = lt.layer_mul(out, lt.layer_pow_int(k, decomp.lambda_power, sort), sort)
    for factor in decomp.factors:
        if b.value == factor.root_value:
            acc = None
            for exp, c in factor.poly.terms():
                term = lt.layer_mul(c.layer, lt.layer_pow_int(k, exp, sort), sort)
                acc = term if acc is None else lt.layer_add(acc, term, sort)
            out = lt.layer_mul(out, acc, sort)
        elif b.value < factor.root_value:
            out = lt.layer_mul(out, factor.poly.coeffs[0].layer, sort)
        else:
            out = lt.layer_mul(out, lt.layer_pow_int(k, factor.degree, sort), sort)
    return out


def rand_layer(rng, sort):
    """Mostly a layer of the sort (0, caps, INF, negatives included), else any."""
    valid = [l for l in LAYERS if l == 0 or sorts.layer_valid(l, sort)]
    if rng.random() < 0.9:
        small = [l for l in valid if l is not HUGE]
        return rng.choice(small if small and rng.random() < 0.9 else valid)
    return rng.choice(LAYERS)


def rand_poly(rng, sort, max_deg):
    deg = rng.randint(0, max_deg)
    exps = [e for e in range(deg + 1) if rng.random() < 0.6] or [deg]
    return lt.poly(
        {e: lt.LayeredScalar(F(rng.randint(-3, 3), rng.randint(1, 2)), rand_layer(rng, sort)) for e in exps}
    )


def rand_point(rng, sort):
    return lt.LayeredScalar(F(rng.randint(-4, 4), rng.randint(1, 2)), rand_layer(rng, sort))


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_p_eval_matches_stepwise_sum(sort):
    rng = random.Random(700 + ALL_SORTS.index(sort))
    kinds = set()
    for _ in range(300):
        f, x = rand_poly(rng, sort, 6), rand_point(rng, sort)
        got = outcome(lt.p_eval, f, x, sort)
        assert got == outcome(oracle_p_eval, f, x, sort), (f, x)
        kinds.add(got if isinstance(got, type) else "ok")
    assert "ok" in kinds and lt.InvalidLayer in kinds


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_p_mul_matches_stepwise_double_loop(sort):
    rng = random.Random(800 + ALL_SORTS.index(sort))
    for _ in range(200):
        f, g = rand_poly(rng, sort, 5), rand_poly(rng, sort, 4)
        if rng.random() < 0.1:
            f = lt.zero_poly()
        assert outcome(lt.p_mul, f, g, sort) == outcome(oracle_p_mul, f, g, sort), (f, g)


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_eval_sort_matches_stepwise_product(sort):
    rng = random.Random(900 + ALL_SORTS.index(sort))
    decomposed = 0
    for i in range(250):
        if i < 150:
            dsort = (lt.POSQ, lt.RAT, lt.NAT)[i % 3]
            layers = (F(1), F(2), F(3), F(1, 2), F(0)) if i % 2 else (F(1),)
        else:  # the crossed factor's sum then meets layer 0 and inf through p_eval
            dsort = (lt.UNIT, lt.SUPER)[i % 2]
            layers = (F(1), F(0), lt.INF) if dsort == lt.SUPER else (F(1), F(0))
        f = lt.poly(
            {e: lt.scalar(F(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice(layers))
             for e in range(rng.randint(0, 6) + 1) if e == 0 or rng.random() < 0.6}
        )
        dec = outcome(lt.primary_decomposition, f, dsort)
        if isinstance(dec, type):
            continue
        decomposed += 1
        replaced = rng.random() < 0.2
        if replaced:
            dec = dec._replace(unit=lt.LayeredScalar(dec.unit.value, rng.choice(LAYERS)))
        roots = [pf.root_value for pf in dec.factors] or [F(0)]
        for _ in range(6):
            b = lt.LayeredScalar(rng.choice(roots) + rng.choice([0, 0, 1, -1, F(1, 3)]), rand_layer(rng, sort))
            got = outcome(lt.eval_sort, dec, b, sort)
            assert got == outcome(oracle_eval_sort, dec, b, sort), (f, dsort, b)
            valid_b = b.layer == 0 or sorts.layer_valid(b.layer, sort)
            if sort == dsort != lt.NAT and valid_b and not replaced and not isinstance(got, type):
                assert got == lt.p_eval(lt.full_form(f), b, sort).layer, (f, b)
    assert decomposed >= 100


@pytest.mark.parametrize("sort", [lt.POSQ, lt.RAT, lt.NAT], ids=str)
def test_eval_sort_with_a_power_of_the_variable(sort):
    """f = x^u * g for u = 1, 2, 3: the divided-out power multiplies in k**u."""
    rng = random.Random(950 + ALL_SORTS.index(sort))
    compared = 0
    for i in range(150):
        u = i % 3 + 1
        layers = (F(1), F(2), F(3), F(1, 2), F(0)) if i % 2 else (F(1),)
        f = lt.poly(
            {e + u: lt.scalar(F(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice(layers))
             for e in range(rng.randint(0, 5) + 1) if e == 0 or rng.random() < 0.6}
        )
        dec = outcome(lt.primary_decomposition, f, sort)
        if isinstance(dec, type) or dec.promoted_sort:
            continue
        assert dec.lambda_power == u
        roots = [pf.root_value for pf in dec.factors] or [F(0)]
        for _ in range(6):
            b = lt.LayeredScalar(rng.choice(roots) + rng.choice([0, 0, 1, -1, F(1, 3)]), rand_layer(rng, sort))
            got = outcome(lt.eval_sort, dec, b, sort)
            assert got == outcome(oracle_eval_sort, dec, b, sort), (f, b)
            if isinstance(got, type):
                continue
            full = outcome(lt.p_eval, lt.full_form(f), b, sort)
            # p_eval raises k to every exponent of f, eval_sort to those it reads
            if full is not lt.OutOfRange:
                assert got == full.layer, (f, b)
                compared += 1
    assert compared >= 300


def test_order_of_refusals_is_kept():
    """A power beyond MAX_LAYER_BITS and an invalid layer: the first met wins."""
    x = lt.LayeredScalar(0, HUGE)
    half = lt.LayeredScalar(0, F(1, 2))
    late_bad = lt.poly({1: lt.ONE, 3: half})  # x**3 overflows before 1/2 is read
    early_bad = lt.poly({0: half, 3: lt.ONE})
    for f, expected in [(late_bad, lt.OutOfRange), (early_bad, lt.InvalidLayer)]:
        assert outcome(lt.p_eval, f, x, lt.NAT) is expected
        assert outcome(oracle_p_eval, f, x, lt.NAT) is expected
    dec = lt.primary_decomposition(lt.parse_poly("x^3 + 3:1"), lt.POSQ)
    bad_unit = dec._replace(unit=half)
    # above the root k**3 comes first; below it only the unit layer is read
    for b, expected in [(lt.LayeredScalar(5, HUGE), lt.OutOfRange), (lt.LayeredScalar(-5, HUGE), lt.InvalidLayer)]:
        assert outcome(lt.eval_sort, bad_unit, b, lt.NAT) is expected
        assert outcome(oracle_eval_sort, bad_unit, b, lt.NAT) is expected


def test_a_losing_huge_power_is_still_refused():
    """x**3 loses to the constant 100, yet its layer power is refused."""
    f = lt.poly({0: lt.scalar(100, 1), 3: lt.ONE})
    x = lt.LayeredScalar(0, HUGE)
    assert outcome(lt.p_eval, f, x, lt.NAT) is lt.OutOfRange
    assert outcome(oracle_p_eval, f, x, lt.NAT) is lt.OutOfRange


def test_p_eval_raises_only_tied_terms_to_their_powers(monkeypatch):
    """Sort.pow runs only beyond ``pow_limit``, for a losing term too,
    where it might refuse; the tied terms' powers are taken inside
    ``Sort.fold``, and a single tied constant takes no power."""
    powers = []
    pow_ = sorts.Sort.pow

    def counting(self, l, n):
        powers.append(n)
        return pow_(self, l, n)

    monkeypatch.setattr(sorts.Sort, "pow", counting)
    # at <1>^2 the terms have the values 3, 3, 2, 3: exponents 0, 1 and 3 tie
    f = lt.poly({0: lt.scalar(3, 1), 1: lt.scalar(2, 2), 2: lt.scalar(0, 1), 3: lt.scalar(0, 3)})
    x = lt.scalar(1, 2)
    assert lt.p_eval(f, x, lt.POSQ) == lt.scalar(3, 1 + 2 * 2 + 3 * 8)
    assert powers == []
    # a 127-bit layer: 127 * 130 bits pass MAX_LAYER_BITS, so the losing x**130
    # is taken (2**16380 fits, so it is not refused); the tied constant is raised to nothing
    big = F(2**126)
    assert sorts.NAT.pow_limit(big, 130) == sorts.MAX_LAYER_BITS // 127 < 130
    g = lt.poly({0: lt.scalar(1000, 1), 130: lt.ONE})
    for sort, y in ((lt.NAT, lt.LayeredScalar(0, big)), (lt.SUPER, lt.LayeredScalar(0, lt.INF))):
        assert oracle_p_eval(g, y, sort) == lt.scalar(1000, 1)
        powers.clear()
        assert lt.p_eval(g, y, sort) == lt.scalar(1000, 1)
        assert powers == ([130] if sort == lt.NAT else [])


def test_the_power_limit_is_computed_only_where_it_can_matter(monkeypatch):
    """In p_eval and eval_sort ``Sort.pow_limit`` comes out below the
    exponent only when that exponent times k's bit length passes
    MAX_LAYER_BITS; a power beyond the limit is still taken, and refused
    where it is too long."""
    limits = []  # the layers whose limit comes out below the exponent
    pow_limit = sorts.Sort.pow_limit

    def recording(self, l, top):
        limit = pow_limit(self, l, top)
        if limit < top:
            limits.append(l)
        return limit

    monkeypatch.setattr(sorts.Sort, "pow_limit", recording)
    f = lt.full_form(lt.parse_poly("x^6 + 3:2*x^4 + 2:1*x + 9:3"))
    dec = lt.primary_decomposition(f, lt.NAT)
    tiny = 1 / HUGE  # a long denominator: no nat layer
    for layer in (F(1), F(3), F(7, 5), HUGE, F(0), tiny):
        for sort in (lt.NAT, lt.POSQ, lt.RAT):
            x = lt.LayeredScalar(F(9, 2), layer)
            want = outcome(oracle_p_eval, f, x, sort)
            assert outcome(lt.p_eval, f, x, sort) == want
            assert outcome(lt.eval_sort, dec, x, sort) == (want if isinstance(want, type) else want.layer)
    # only HUGE and tiny, of 6002 bits: x**3 passes MAX_LAYER_BITS, and is refused, once per
    # p_eval and once per eval_sort under each sort that admits the layer
    assert limits == [HUGE] * 6 + [tiny] * 4 and sorts.NAT.pow_limit(HUGE, 6) == sorts.RAT.pow_limit(tiny, 6) == 2
    # 2**2730: 6 * 2731 bits pass the bound, the limit is 16384 // 2731 = 5, and x**6
    # (2**16380) is taken but not refused; 5 * 2731 bits stay within it
    big = F(2**2730)
    for g, computed in ((f, [big]), (lt.poly({0: lt.scalar(100, 1), 5: lt.ONE}), [])):
        limits.clear()
        x = lt.LayeredScalar(F(0), big)
        assert lt.p_eval(g, x, lt.NAT) == oracle_p_eval(g, x, lt.NAT)
        assert limits == computed


# single ties at exponent 0 and at x layer 1 answer with the coefficient layer
IDENTITY_POLYS = [
    lt.poly({0: lt.scalar(5, 2)}),  # a constant
    lt.poly({0: lt.scalar(100, 3), 4: lt.scalar(0, 2)}),  # the constant wins alone
    lt.poly({0: lt.scalar(2, 2), 1: lt.scalar(1, 3)}),  # two terms that tie at value 1
    lt.poly({0: lt.scalar(0, 3), 1: lt.scalar(0, 2), 2: lt.scalar(-1, 1)}),  # x^1 wins alone at 1
    lt.poly({0: lt.LayeredScalar(F(9), F(0)), 2: lt.scalar(0, 1)}),  # a layer-0 constant
    lt.poly({0: lt.LayeredScalar(F(9), lt.INF), 3: lt.scalar(0, 1)}),  # an inf constant
    lt.poly({1: lt.LayeredScalar(F(0), F(0)), 2: lt.LayeredScalar(F(0), lt.INF)}),  # no constant
    lt.poly({0: lt.scalar(100, 1), 3: lt.ONE}),  # x**3 loses, and is refused at HUGE
]
IDENTITY_VALUES = [F(0), F(1), F(-3), F(1, 2), F(20)]
IDENTITY_POINT_LAYERS = [F(1), 1, F(2), 2, F(0), lt.INF, HUGE]


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_p_eval_identity_paths_match_stepwise_sum(sort):
    """Every polynomial object meets each point twice, so the coefficient
    checks run on a view miss and are skipped on a hit."""
    kinds = set()
    for f in IDENTITY_POLYS:
        for layer in IDENTITY_POINT_LAYERS:
            for v in IDENTITY_VALUES:
                x = lt.LayeredScalar(v, layer)
                got = evaluate_in_turn(f, [(x, sort), (x, sort)])
                kinds.update(g if isinstance(g, type) else "ok" for g in got)
    assert "ok" in kinds and lt.InvalidLayer in kinds
    x = lt.LayeredScalar(F(0), HUGE)
    assert (outcome(lt.p_eval, IDENTITY_POLYS[-1], x, sort) is lt.OutOfRange) == sort.exact


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_every_power_of_layer_one_is_one(sort):
    for n in (0, 7, -3, F(1, 2), F(-3, 2), F(7), 0.5):
        for got in (sort.pow(F(1), n), lt.layer_pow_int(F(1), n, sort), lt.layer_pow_int(1, n, sort),
                    lt.ls_pow(lt.scalar(2, 1), n, sort).layer):
            assert got == 1 and type(got) is F, (n, got)
    # the exponent is normalized before layer 1 answers: one that is no rational raises
    with pytest.raises(TypeError):
        sort.pow(F(1), None)
    with pytest.raises(ValueError):
        lt.layer_pow_int(1, "x", sort)
    with pytest.raises(TypeError):
        lt.layer_pow_int(F(1), None, sort)


@pytest.mark.parametrize("sort", [lt.truncated(3), lt.SUPER], ids=str)
def test_three_pairs_tie_on_one_exponent(sort):
    """x^2 of f * f comes from the pairs (0, 2), (1, 1) and (2, 0), all of value 0."""
    top = lt.INF if sort == lt.SUPER else F(2)
    terms = [(0, lt.LayeredScalar(F(1, 2), F(1))), (1, lt.LayeredScalar(F(0), top)),
             (2, lt.LayeredScalar(F(-1, 2), F(1)))]
    f = lt.poly(dict(terms))
    got = lt.p_mul(f, f, sort)
    assert got == oracle_p_mul(f, f, sort)
    # 1 + top * top + 1, collapsed: 3 under trunc:3, inf under super
    assert got.coeffs[2] == lt.LayeredScalar(F(0), F(3) if sort != lt.SUPER else lt.INF)
    g = lt.multipoly(2, [((F(e), F(e)), c) for e, c in terms])
    got = lt.mp_mul(g, g, sort)
    assert got == oracle_mp_mul(g, g, sort)
    assert dict(got.terms())[F(2), F(2)] == lt.LayeredScalar(F(0), F(3) if sort != lt.SUPER else lt.INF)


def test_unread_layers_are_not_checked():
    bad = lt.LayeredScalar(0, 5)
    const = lt.poly({0: lt.scalar(3, 1)})
    assert lt.p_eval(const, bad, lt.UNIT) == lt.scalar(3, 1)
    assert lt.p_eval(const, lt.LayeredScalar(0, lt.INF), lt.NAT) == lt.scalar(3, 1)
    # nor its value, which no common denominator then takes in
    assert lt.p_eval(const, lt.LayeredScalar(None, "not a layer"), lt.NAT) == lt.scalar(3, 1)
    assert lt.p_mul(lt.zero_poly(), lt.poly({0: bad}), lt.UNIT).is_zero
    # b below every root reads only the constant terms, never b's layer
    dec = lt.primary_decomposition(lt.parse_poly("x^2 + 1:1*x + 2:1"), lt.POSQ)
    assert lt.eval_sort(dec, lt.LayeredScalar(-5, 5), lt.UNIT) == 1
    # nor does a power with exponent 0, as for a hand-built constant factor
    const_factor = lt.PrimaryFactor(F(0), lt.poly({0: lt.ONE}, form="full"), 0)
    for b in (lt.LayeredScalar(0, 5), lt.LayeredScalar(1, 5)):
        assert lt.eval_sort(lt.PrimaryDecomposition(lt.ONE, (const_factor,)), b, lt.UNIT) == 1


def test_is_inf_encodings():
    assert sorts.is_inf(math.inf) and sorts.is_inf(float("inf")) and sorts.is_inf(lt.INF)
    for layer in (-math.inf, F(5), F(0), 5, 0, 1.0):
        assert not sorts.is_inf(layer)
    assert lt.as_layer(math.inf) is lt.INF
    assert sorts.layer_valid(math.inf, lt.SUPER) and not sorts.layer_valid(-math.inf, lt.RAT)
    assert sorts.layer_valid(3, lt.NAT) and not sorts.layer_valid(3.0, lt.NAT)


def test_p_eval_checks_each_layer_once(monkeypatch):
    checked = []
    require = sorts.require_layer

    def counting(layer, sort):
        checked.append(layer)
        return require(layer, sort)

    monkeypatch.setattr(sorts, "require_layer", counting)
    f = lt.full_form(lt.parse_poly("x^6 + 3:2*x^4 + 2:1*x + 9:3"))
    lt.p_eval(f, lt.scalar(1, 2), lt.POSQ)
    assert len(checked) <= len(f.coeffs) + 1
    checked.clear()
    lt.p_eval(lt.poly({0: lt.scalar(3, 2)}), lt.scalar(1, 2), lt.POSQ)
    assert len(checked) == 1


# -- one polynomial object, many calls: the views p_eval keeps on it ----------


def evaluate_in_turn(f, calls):
    """p_eval of the one object f at each (x, sort) in turn, each call
    checked against the oracle; returns the outcomes."""
    outcomes = []
    for x, sort in calls:
        got = outcome(lt.p_eval, f, x, sort)
        assert got == outcome(oracle_p_eval, f, x, sort), (f, x, sort)
        outcomes.append(got)
    return outcomes


def test_a_view_of_posq_layers_does_not_pass_them_under_nat():
    """1/2 is a posq layer but no nat one: nat refuses it after posq passed it."""
    f = lt.poly({0: lt.scalar(1, F(1, 2)), 2: lt.scalar(0, 3)})
    x = lt.scalar(F(1, 2), 2)  # both terms have the value 1
    got = evaluate_in_turn(f, [(x, s) for s in (lt.POSQ, lt.POSQ, lt.NAT, lt.POSQ, lt.NAT, lt.RAT, lt.NAT)])
    assert got[0] == lt.scalar(1, F(1, 2) + 3 * 4)
    assert [g is lt.InvalidLayer for g in got] == [False, False, True, False, True, False, True]


def test_two_equal_truncated_sorts_are_two_keys():
    t1, t2 = lt.truncated(4), lt.truncated(4)
    assert t1 == t2 and t1 is not t2
    x = lt.scalar(1, 3)
    ok = lt.poly({0: lt.scalar(2, 4), 1: lt.scalar(1, 2), 3: lt.scalar(-1, 1)})
    got = evaluate_in_turn(ok, [(x, t1), (x, t2), (x, t1), (x, t2)])
    assert got == [lt.scalar(2, 4)] * 4  # 4 + 2 * 3 + 27 = 37, capped at 4
    five = lt.poly({0: lt.scalar(2, 5), 1: lt.scalar(1, 2)})  # 5 is a nat layer, not a trunc:4 one
    got = evaluate_in_turn(five, [(x, lt.NAT), (x, t1), (x, lt.NAT), (x, t2), (x, t1)])
    assert got == [lt.scalar(2, 5 + 6), lt.InvalidLayer, lt.scalar(2, 11), lt.InvalidLayer, lt.InvalidLayer]


def test_int_layers_and_values():
    f = lt.poly({0: lt.LayeredScalar(3, 2), 1: lt.LayeredScalar(-1, 1), 2: lt.LayeredScalar(-2, 3)})
    x = lt.LayeredScalar(2, 3)  # the values 3, 1 and 2
    got = evaluate_in_turn(f, [(x, s) for s in (lt.NAT, lt.NAT, lt.UNIT, lt.POSQ, lt.truncated(3), lt.NAT)])
    assert got[0] == lt.scalar(3, 2) and got[2] is lt.InvalidLayer
    assert all(type(g.layer) is F for g in got if g is not lt.InvalidLayer)


def test_layer_zero_and_inf():
    f = lt.poly({0: lt.LayeredScalar(F(1), F(0)), 1: lt.LayeredScalar(F(0), lt.INF), 2: lt.LayeredScalar(F(-1), F(1))})
    points = [lt.LayeredScalar(F(1), F(1)), lt.LayeredScalar(F(1), lt.INF), lt.LayeredScalar(F(1), F(0))]
    calls = [(x, s) for s in (lt.SUPER, lt.NAT, lt.SUPER, lt.RAT, lt.UNIT, lt.SUPER) for x in points]
    got = evaluate_in_turn(f, calls)
    # under super every call passes; inf is no layer of the other sorts
    assert [g is lt.InvalidLayer for g in got] == [s != lt.SUPER for _, s in calls]
    assert got[:3] == [lt.LayeredScalar(F(1), lt.INF), lt.LayeredScalar(F(1), lt.INF), lt.LayeredScalar(F(1), F(0))]


def test_the_power_guard_runs_after_a_view_hit():
    """x**3 loses to the constant, yet a 6001-bit x layer is refused on the
    third call, whose coefficient checks the view of the first two spares."""
    f = lt.poly({0: lt.scalar(1000, 1), 3: lt.ONE})
    small, huge = lt.LayeredScalar(F(0), F(2)), lt.LayeredScalar(F(0), HUGE)
    got = evaluate_in_turn(f, [(small, lt.NAT), (small, lt.NAT), (huge, lt.NAT), (small, lt.NAT)])
    assert got == [lt.scalar(1000, 1), lt.scalar(1000, 1), lt.OutOfRange, lt.scalar(1000, 1)]


def test_a_view_hit_checks_no_coefficient_layer(monkeypatch):
    f = lt.full_form(lt.parse_poly("x^6 + 3:2*x^4 + 2:1*x + 9:3"))
    lt.p_eval(f, lt.scalar(1, 2), lt.POSQ)
    checked = []
    require = sorts.require_layer
    monkeypatch.setattr(sorts, "require_layer", lambda l, s: checked.append(l) or require(l, s))
    lt.p_eval(f, lt.scalar(2, 3), lt.POSQ)
    assert checked == [F(3)]  # x's layer only
    lt.p_eval(f, lt.scalar(2, 3), lt.RAT)
    assert len(checked) == 1 + 1 + len(f.coeffs)


def test_eval_sort_checks_the_crossed_factor_once_per_sort(monkeypatch):
    """At the root 4 of the middle factor, the second probe under one sort
    object checks the constant term above b, the unit and b's layer (once
    per power that reads it), but none of the crossed factor's layers."""
    f = lt.p_mul(lt.p_mul(lt.parse_poly("3:2*x + 15:2"), lt.parse_poly("x^2 + 4:3*x + 8:5"), lt.POSQ),
                 lt.parse_poly("x + 1:7"), lt.POSQ)
    dec = lt.primary_decomposition(f, lt.POSQ)
    assert [pf.root_value for pf in dec.factors] == [12, 4, 1] and dec.unit.layer == 2
    b = lt.scalar(4, 11)
    checked = []
    require = sorts.require_layer
    monkeypatch.setattr(sorts, "require_layer", lambda l, s: checked.append(l) or require(l, s))
    want = lt.p_eval(f, b, lt.POSQ).layer
    # the top factor's constant 1 and the unit 2; in the crossed factor its constant 5, b's layer 11 at
    # the first positive exponent, then the layers 3 and 1 of its x and x^2 terms; last b's layer for x + 1:7
    for sort, crossed in ((lt.POSQ, [5, 11, 3, 1]), (lt.POSQ, [11]), (lt.RAT, [5, 11, 3, 1])):
        checked.clear()
        assert lt.eval_sort(dec, b, sort) == want
        assert checked == [1, 2] + crossed + [11], sort


# -- the multivariate kernels -------------------------------------------------

EXPONENTS = [0, 0, 1, 2, 3, -1, F(1, 2), F(3, 2), F(-1, 2)]


def oracle_monomial(exps, coeff, point, sort):
    """coeff * prod x_j ** e_j by checked scalar operations; a constant's
    layer is checked on its own."""
    if not any(exps):
        sorts.require_layer(coeff.layer, sort)
        return coeff
    out = coeff
    for e, x in zip(exps, point):
        if e != 0:
            out = lt.ls_mul(out, lt.ls_pow(x, e, sort), sort)
    return out


def oracle_mp_eval(f, point, sort):
    if len(point) != f.arity:
        raise lt.ArityMismatch("point and polynomial arities differ")
    return lt.ls_sum((oracle_monomial(e, c, point, sort) for e, c in f.terms()), sort)


def oracle_mp_mul(f, g, sort):
    if f.arity != g.arity:
        raise lt.ArityMismatch("arities differ")
    out = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            key = tuple(a + b for a, b in zip(e1, e2))
            prod = lt.ls_mul(c1, c2, sort)
            out[key] = lt.ls_add(out[key], prod, sort) if key in out else prod
    return lt.multipoly(f.arity, out)


def rand_multipoly(rng, sort, arity):
    """Up to five terms; a list of pairs may repeat an exponent vector."""
    return lt.multipoly(
        arity,
        [
            (tuple(F(rng.choice(EXPONENTS)) for _ in range(arity)),
             lt.LayeredScalar(F(rng.randint(-3, 3), rng.randint(1, 2)), rand_layer(rng, sort)))
            for _ in range(rng.randint(0, 5))
        ],
    )


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_mp_eval_matches_stepwise_sum(sort):
    rng = random.Random(1000 + ALL_SORTS.index(sort))
    kinds = set()
    for _ in range(300):
        arity = rng.randint(1, 3)
        f = rand_multipoly(rng, sort, arity)
        point = tuple(rand_point(rng, sort) for _ in range(arity if rng.random() < 0.95 else arity + 1))
        got = outcome(lt.mp_eval, f, point, sort)
        assert got == outcome(oracle_mp_eval, f, point, sort), (f, point)
        kinds.add(got if isinstance(got, type) else "ok")
    assert {"ok", lt.InvalidLayer, lt.ArityMismatch} <= kinds


@pytest.mark.parametrize("sort", ALL_SORTS, ids=str)
def test_mp_mul_matches_stepwise_double_loop(sort):
    rng = random.Random(1100 + ALL_SORTS.index(sort))
    kinds = set()
    for _ in range(200):
        arity = rng.randint(1, 3)
        f, g = rand_multipoly(rng, sort, arity), rand_multipoly(rng, sort, arity)
        if rng.random() < 0.05:
            g = rand_multipoly(rng, sort, arity + 1)
        got = outcome(lt.mp_mul, f, g, sort)
        assert got == outcome(oracle_mp_mul, f, g, sort), (f, g)
        kinds.add(got if isinstance(got, type) else "ok")
    assert {"ok", lt.InvalidLayer} <= kinds


def test_mp_mul_with_an_empty_operand_reads_no_layer():
    bad = lt.multipoly(2, [((F(1), F(0)), lt.LayeredScalar(0, 5)), ((F(0), F(0)), lt.LayeredScalar(1, lt.INF))])
    empty = lt.multipoly(2, {})
    for f, g in ((empty, bad), (bad, empty)):
        assert lt.mp_mul(f, g, lt.UNIT) == empty == oracle_mp_mul(f, g, lt.UNIT)
    assert outcome(lt.mp_mul, bad, bad, lt.UNIT) is lt.InvalidLayer
