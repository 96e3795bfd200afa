import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import laytrop as lt
from laytrop import resultants
from conftest import ALL_SORTS, rand_layer, rand_poly, rand_primary, rand_scalar

try:
    import resource
except ImportError:  # not on every platform
    resource = None

sc = lt.scalar
P = lt.parse_poly


def test_layered_permanent_examples():
    # only the identity permutation attains value 2 here
    m = lt.layered_matrix([[sc(1, 1), sc(0, 1)], [sc(0, 1), sc(1, 1)]])
    assert lt.layered_permanent(m, lt.NAT) == sc(2, 1)
    # two nu-equal terms of value 2 merge their layers
    m = lt.layered_matrix([[sc(1, 1), sc(1, 1)], [sc(1, 1), sc(1, 1)]])
    assert lt.layered_permanent(m, lt.NAT) == sc(2, 2)
    ident = lt.layered_matrix([[lt.ONE, lt.BOTTOM], [lt.BOTTOM, lt.ONE]])
    assert lt.layered_permanent(ident, lt.NAT) == lt.ONE
    x = sc(F(5, 3), 2)
    assert lt.layered_permanent(lt.layered_matrix([[x]]), lt.NAT) == x
    allbottom = lt.layered_matrix([[lt.BOTTOM, sc(1, 1)], [lt.BOTTOM, sc(1, 1)]])
    assert lt.layered_permanent(allbottom, lt.NAT) is lt.BOTTOM
    with pytest.raises(lt.NotSquare):
        lt.layered_permanent(lt.layered_matrix([[lt.ONE, lt.ONE]]), lt.NAT)
    # the 0x0 matrix has one permutation, whose empty product is the unit
    empty = lt.layered_matrix([])
    assert lt.layered_permanent_naive(empty, lt.NAT) == lt.layered_permanent(empty, lt.NAT) == lt.ONE
    assert lt.layer_permanent(lt.LayerMatrix(0, ())) == 1


def bands(m):
    """Each row's band as (column tuple, scalar tuple); BOTTOM cells are outside it."""
    return tuple((tuple(columns), scalars) for columns, scalars in m.entries)


def test_sylvester_shapes():
    m = lt.sylvester(P("x + 3:1"), P("x + 5:1"), lt.NAT)
    assert (m.rows, m.cols) == (2, 2)
    assert bands(m) == (((0, 1), (sc(3, 1), lt.ONE)), ((0, 1), (sc(5, 1), lt.ONE)))
    m = lt.sylvester(P("x^2 + 1:1*x + 2:1"), P("x + 1:1"), lt.NAT)
    assert (m.rows, m.cols) == (3, 3)
    f = P("x^2 + 5:1*x + 7:1")
    g = P("x^2 + 4:1*x + 6:1")
    m = lt.sylvester(f, g, lt.NAT)
    assert (m.rows, m.cols) == (4, 4)
    assert bands(m)[0] == ((0, 1, 2), (sc(7, 1), sc(5, 1), lt.ONE))
    assert bands(m)[1] == ((1, 2, 3), (sc(7, 1), sc(5, 1), lt.ONE))
    assert bands(m)[2] == ((0, 1, 2), (sc(6, 1), sc(4, 1), lt.ONE))
    assert bands(m)[3] == ((1, 2, 3), (sc(6, 1), sc(4, 1), lt.ONE))
    # the rows of one polynomial share its coefficient tuple
    assert m.entries[0][1] is m.entries[1][1] and m.entries[2][1] is m.entries[3][1]
    assert list(resultants.dense_rows(m, lt.BOTTOM)) == [
        (sc(7, 1), sc(5, 1), lt.ONE, lt.BOTTOM),
        (lt.BOTTOM, sc(7, 1), sc(5, 1), lt.ONE),
        (sc(6, 1), sc(4, 1), lt.ONE, lt.BOTTOM),
        (lt.BOTTOM, sc(6, 1), sc(4, 1), lt.ONE),
    ]
    with pytest.raises(lt.DegreeZero):
        lt.sylvester(P("3:1"), g, lt.NAT)
    # one band per row: 8001 entries, not 4001**2 cells
    m = lt.sylvester(P("x^4000"), P("x + 1:1"), lt.NAT)
    assert (m.rows, m.cols) == (4001, 4001)
    assert [len(columns) for columns, _ in m.entries] == [1] + [2] * 4000
    assert bands(m)[0] == ((4000,), (lt.ONE,))
    assert bands(m)[4000] == ((3999, 4000), (sc(1, 1), lt.ONE))
    with pytest.raises(lt.OutOfRange, match="4097"):  # one past MAX_SYLVESTER_SIZE
        lt.sylvester(P("x^4096"), P("x + 1:1"), lt.NAT)
    # x^2 and x^3 leave columns 0 and 1 empty, so no transversal exists
    m = lt.sylvester(P("x^2"), P("x^3"), lt.NAT)
    assert {j for columns, _ in m.entries for j in columns} == {2, 3, 4}
    assert lt.resultant(P("x^2"), P("x^3"), lt.NAT) is lt.BOTTOM
    # a layer-0 full-form coefficient is a real entry, not BOTTOM
    m = lt.sylvester(P("x^2 + 2:1"), P("x + 1:1"), lt.NAT)
    assert bands(m)[0] == ((0, 1, 2), (sc(2, 1), lt.LayeredScalar(F(1), F(0)), lt.ONE))
    assert bands(m)[1] == ((0, 1), (sc(1, 1), lt.ONE))
    assert bands(m)[2] == ((1, 2), (sc(1, 1), lt.ONE))
    # layered_matrix takes dense rows and leaves BOTTOM out of the bands
    m = lt.layered_matrix([[lt.ONE, lt.BOTTOM], [lt.BOTTOM, lt.BOTTOM]])
    assert bands(m) == (((0,), (lt.ONE,)), ((), ()))
    with pytest.raises(ValueError, match="ragged"):
        lt.layered_matrix([[lt.ONE, lt.BOTTOM], [lt.ONE]])


def test_resultant_worked_example():
    r = lt.resultant(P("x^2 + 5:1*x + 7:1"), P("x^2 + 4:1*x + 6:1"), lt.NAT)
    assert r == sc(16, 2)


def test_resultant_with_variable_and_constants():
    f = P("x^2 + 1:1*x + 2:1")
    assert lt.resultant(f, P("x"), lt.NAT) == sc(2, 1)  # the constant term
    assert lt.resultant(P("3:2"), f, lt.NAT) == lt.ls_pow(sc(3, 2), 2, lt.NAT)
    assert lt.resultant(f, P("4:1"), lt.NAT) == lt.ls_pow(sc(4, 1), 2, lt.NAT)


def test_resultant_equal_root_linear_pair():
    # equal nu-values merge the layers
    r = lt.resultant(
        lt.poly({1: lt.ONE, 0: sc(4, 3)}),
        lt.poly({1: lt.ONE, 0: sc(4, 5)}),
        lt.NAT,
    )
    assert r == sc(4, 8)
    # distinct values keep the winner
    r = lt.resultant(P("x + 4:3"), P("x + 2:5"), lt.NAT)
    assert r == sc(4, 3)


def test_layer_sylvester():
    f = lt.poly({2: lt.ONE, 1: sc(1, 1), 0: sc(2, 1)})
    g = lt.poly({1: lt.ONE, 0: sc(1, 1)})
    m = lt.layer_sylvester(f, g, lt.NAT)
    assert m.entries == ((1, 1, 1), (1, 1, 0), (0, 1, 1))
    pair = lt.layer_sylvester(
        lt.poly({1: lt.ONE, 0: sc(1, 3)}), lt.poly({1: lt.ONE, 0: sc(1, 5)}), lt.NAT
    )
    assert pair.entries == ((3, 1), (5, 1))
    with pytest.raises(lt.NotPrimaryPair):
        lt.layer_sylvester(P("x^2 + 2:1*x + 3:1"), g, lt.NAT)
    with pytest.raises(lt.NotPrimaryPair):
        lt.layer_sylvester(
            lt.poly({1: lt.ONE, 0: sc(1, 1)}),
            lt.poly({1: lt.ONE, 0: sc(2, 1)}),
            lt.NAT,
        )


def test_layer_permanent_linear_case_evaluates_layer_poly():
    # degree-m primary against x + <a>^l: permanent is sum k_i l^i
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(1, 4)
        ks = [F(rng.randint(1, 5)) for _ in range(m + 1)]
        ks[-1] = F(1)
        ell = F(rng.randint(1, 5))
        f = lt.poly(
            {i: lt.LayeredScalar(F(m - i), ks[i]) for i in range(m + 1)}
        )
        g = lt.poly({1: lt.ONE, 0: lt.LayeredScalar(F(1), ell)})
        per = lt.layer_permanent(lt.layer_sylvester(f, g, lt.POSQ))
        assert per == sum(k * ell**i for i, k in enumerate(ks))


def test_layer_permanent_counterexample_matrix():
    k0, k1, ell, hat = F(2), F(3), F(2), F(5)
    f = lt.poly({2: lt.ONE, 1: lt.LayeredScalar(F(1), k1), 0: lt.LayeredScalar(F(2), k0)})
    g = lt.poly({1: lt.ONE, 0: lt.LayeredScalar(F(1), ell)})
    h = lt.poly({1: lt.ONE, 0: lt.LayeredScalar(F(1), hat)})
    p = (ell**2 + k1 * ell + k0) * (hat**2 + k1 * hat + k0)
    assert lt.layer_permanent(lt.layer_sylvester(f, g, lt.POSQ)) == ell**2 + k1 * ell + k0
    gh = lt.p_mul(g, h, lt.POSQ)
    assert lt.layer_permanent(lt.layer_sylvester(f, gh, lt.POSQ)) == p + 4 * k0 * ell * hat


def test_layer_permanent_all_ones():
    m = lt.LayerMatrix(2, ((F(1), F(1)), (F(1), F(1))))
    assert lt.layer_permanent(m) == 2


def _classical_permanent(rows):
    total = F(0)
    for perm in itertools.permutations(range(len(rows))):
        term = F(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_layer_permanent_matches_permutation_sum():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(0, 6)
        rows = tuple(
            tuple(
                F(0) if rng.random() < 0.3 else F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                for _ in range(n)
            )
            for _ in range(n)
        )
        assert lt.layer_permanent(lt.LayerMatrix(n, rows)) == _classical_permanent(rows)


def test_layer_permanent_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = tuple(
            tuple(F(rng.choice([0, 1, 2, 3, -1]), rng.choice([1, 2])) for _ in range(n)) for _ in range(n)
        )
        want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in rows]).per()
        assert lt.layer_permanent(lt.LayerMatrix(n, rows)) == F(int(want.p), int(want.q)), rows


def test_layer_permanent_has_no_size_cap():
    # 13 x 13 was refused with OutOfRange by the old enumeration
    ones = lt.LayerMatrix(13, ((F(1),) * 13,) * 13)
    assert lt.layer_permanent(ones) == math.factorial(13)
    # a 0/1 band |i - j| <= 1 has Fibonacci-many transversals: F(14) = 377
    band = lt.LayerMatrix(
        13, tuple(tuple(F(1) if abs(i - j) <= 1 else F(0) for j in range(13)) for i in range(13))
    )
    assert lt.layer_permanent(band) == 377


def test_layer_permanent_checks_size_and_entries():
    """The size is the row count and each row's length, and an entry is
    an int or a ``Fraction``: the layer check of ``RAT`` refuses the rest."""
    rows = ((F(1), F(2)), (F(3), F(1, 2)))
    for size in (1, 3):
        with pytest.raises(lt.NotSquare):
            lt.layer_permanent(lt.LayerMatrix(size, rows))
    for entry in (math.inf, 1.5, "2", None):
        with pytest.raises(lt.InvalidLayer):
            lt.layer_permanent(lt.LayerMatrix(2, ((F(1), entry), (F(3), F(1, 2)))))
    ints = lt.layer_permanent(lt.LayerMatrix(2, ((1, 2), (3, 0))))
    fractions = lt.layer_permanent(lt.LayerMatrix(2, ((F(1), F(2)), (F(3), F(0)))))
    assert ints == fractions == 6 and type(ints) is type(fractions) is F


def test_permanent_state_bound(monkeypatch):
    """A row whose table of column masks would pass MAX_PERMANENT_STATES
    raises OutOfRange; the bound is read at call time.  A dense n x n
    matrix holds C(n, i) masks after row i, at most 6 at n = 4."""
    bound = lt.resultants.MAX_PERMANENT_STATES
    assert math.comb(18, 9) <= math.comb(19, 9) <= bound  # dense d = 9, separable m = 10
    dense = lt.layered_matrix([[sc(i * j % 3, 1 + (i + j) % 2) for j in range(4)] for i in range(4)])
    expected = lt.layered_permanent_naive(dense, lt.NAT)
    monkeypatch.setattr(lt.resultants, "MAX_PERMANENT_STATES", 6)
    assert lt.layered_permanent(dense, lt.NAT) == expected
    monkeypatch.setattr(lt.resultants, "MAX_PERMANENT_STATES", 5)
    with pytest.raises(lt.OutOfRange, match="more than 5 states"):
        lt.layered_permanent(dense, lt.NAT)
    with pytest.raises(lt.OutOfRange):
        lt.resultant(P("x^2 + 1:1*x + 2:1"), P("x^2 + 1:2*x + 2:3"), lt.NAT)


def test_band_column_outside_the_matrix_is_out_of_range():
    # a column past either edge of the matrix
    wide = lt.LayeredMatrix(2, 2, (((0, 5), (lt.ONE, lt.ONE)), ((1,), (lt.ONE,))))
    with pytest.raises(lt.OutOfRange):
        lt.layered_permanent(wide, lt.NAT)
    negative = lt.LayeredMatrix(2, 2, (((0, 1), (lt.ONE, lt.ONE)), ((-1, 0), (lt.ONE, lt.ONE))))
    with pytest.raises(lt.OutOfRange):
        lt.layered_permanent(negative, lt.NAT)


def test_malformed_bands_are_refused():
    """Every column of a band is checked, not only its ends: a repeated
    column is not counted twice, a negative interior column is out of
    range, and a band with too few scalars is not cut short.  The
    engine, the naive oracle and ``dense_rows`` read bands alike."""
    readers = (
        lambda m: lt.layered_permanent(m, lt.NAT),
        lambda m: lt.layered_permanent_naive(m, lt.NAT),
        lambda m: list(resultants.dense_rows(m, lt.BOTTOM)),
    )
    a, b = sc(0, 1), sc(0, 2)
    repeated = lt.LayeredMatrix(2, 2, (((0, 0), (a, b)), ((1,), (a,))))
    interior = lt.LayeredMatrix(3, 3, (((1, -1, 1), (a, a, a)), ((0,), (a,)), ((2,), (a,))))
    short = lt.LayeredMatrix(2, 2, (((0, 1), (a,)), ((0, 1), (a, b))))
    empty_first = lt.LayeredMatrix(2, 2, (((), ()), ((0, 0), (a, b))))
    bad_layer = sc(0, F(1, 2))
    later_bad = lt.LayeredMatrix(2, 2, (((0, 0), (a, b)), ((0, 1), (bad_layer, a))))
    for read in readers:
        with pytest.raises(ValueError, match="strictly increase"):
            read(repeated)
        with pytest.raises(lt.OutOfRange):
            read(interior)
        with pytest.raises(ValueError, match="one scalar per column"):
            read(short)
        # in row order: a malformed band before a bad layer raises its own error
        with pytest.raises(ValueError, match="strictly increase"):
            read(later_bad)
    # the permanents also share the square check and the layer check of each band
    one, two = ((0,), (a,)), ((0, 1), (a, b))
    unsquare = [lt.LayeredMatrix(2, 2, bands_) for bands_ in ((), (two,), (two, two, two))]
    unsquare.append(lt.LayeredMatrix(1, 1, (one, one)))
    lone_bad = lt.LayeredMatrix(1, 1, (((0,), (bad_layer,)),))
    # row 1 takes column 0, so no complete transversal uses row 0's bad cell
    unused_bad = lt.LayeredMatrix(2, 2, (((0, 1), (bad_layer, a)), one))
    for read in readers[:2]:
        for m in unsquare:
            with pytest.raises(lt.NotSquare):
                read(m)
        for m in (lone_bad, unused_bad):
            with pytest.raises(lt.InvalidLayer):
                read(m)
    # an empty row before a malformed band gives BOTTOM, and a row of empty cells
    assert lt.layered_permanent(empty_first, lt.NAT) is lt.BOTTOM
    assert lt.layered_permanent_naive(empty_first, lt.NAT) is lt.BOTTOM
    rows = resultants.dense_rows(empty_first, lt.BOTTOM)
    assert next(rows) == (lt.BOTTOM, lt.BOTTOM)
    with pytest.raises(ValueError, match="strictly increase"):
        next(rows)


def test_permanent_checks_each_shared_band_once(monkeypatch):
    """The rows of one Sylvester polynomial share its coefficient tuple,
    so each of its full-form coefficients is checked once: 7 + 7 for a
    pair of degree 6, not once per row (84)."""
    calls = []
    require = lt.sorts.require_layer

    def counting(layer, sort):
        calls.append(layer)
        return require(layer, sort)

    syl = lt.sylvester(P("x^6 + 1:1"), P("x^6 + 2:1"), lt.NAT)
    expected = lt.layered_permanent(syl, lt.NAT)
    monkeypatch.setattr(lt.sorts, "require_layer", counting)
    assert lt.layered_permanent(syl, lt.NAT) == expected
    assert len(calls) == 14


def test_permanent_refusal_order(monkeypatch):
    # an invalid layer in g's band comes before the state bound, which
    # this pair (C(6, 3) = 20 masks after row 3) passes
    monkeypatch.setattr(lt.resultants, "MAX_PERMANENT_STATES", 5)
    with pytest.raises(lt.InvalidLayer):
        lt.resultant(P("x^3 + 1:1"), P("x^3 + 2:1/2"), lt.NAT)
    with pytest.raises(lt.OutOfRange):
        lt.resultant(P("x^3 + 1:1"), P("x^3 + 2:1"), lt.NAT)
    # the first empty row gives BOTTOM before later rows are checked;
    # an invalid layer before it still raises
    bad = [sc(0, F(1, 2)), lt.ONE, lt.ONE]
    empty = [lt.BOTTOM] * 3
    full = [lt.ONE] * 3
    assert lt.layered_permanent(lt.layered_matrix([full, empty, bad]), lt.NAT) is lt.BOTTOM
    with pytest.raises(lt.InvalidLayer):
        lt.layered_permanent(lt.layered_matrix([full, bad, empty]), lt.NAT)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_cli_refuses_the_largest_dense_pair_in_bounded_memory():
    """The largest pair the Sylvester bound admits (size 4096) is refused
    by the state bound, with exit 3 within the 60 s timeout, under a
    1 GiB address-space limit on the child alone."""
    gib = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (gib, gib))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = [sys.executable, "-m", "laytrop.cli", "resultant", "x^2048 + 1:1", "x^2048 + 2:1"]
    proc = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_reduction():
    f = P("x^2 + 2:1*x + 3:1")
    assert lt.reduction(f, 1) == P("x + 2:1")
    assert lt.reduction(f, 0) == f
    assert lt.reduction(f, 2) == P("0:1")
    with pytest.raises(lt.OutOfRange):
        lt.reduction(f, 3)
    with pytest.raises(lt.OutOfRange):
        lt.reduction(lt.zero_poly(), 0)


def test_primary_pair_formula():
    rng = random.Random(7)
    for sort in (lt.NAT, lt.POSQ, lt.truncated(2), lt.truncated(3), lt.RAT):
        for _ in range(60):
            root = F(rng.randint(-4, 4))
            f = rand_primary(rng, sort, root, max_deg=3)
            g = rand_primary(rng, sort, root, max_deg=3)
            direct = lt.resultant(f, g, sort)
            closed = lt.primary_pair_resultant(f, g, sort)
            assert direct == closed


def test_primary_pair_formula_unit_and_super():
    """The closed form serves the capped sorts too; an ``inf`` layer has
    no classical layer matrix and is refused as not a primary pair."""
    rng = random.Random(23)
    for sort in (lt.UNIT, lt.SUPER):
        checked = 0
        while checked < 60:
            root = F(rng.randint(-4, 4))
            f = rand_primary(rng, sort, root, max_deg=3)
            g = rand_primary(rng, sort, root, max_deg=3)
            if any(lt.is_inf(c.layer) for p in (f, g) for c in p.coeffs.values()):
                continue
            assert lt.primary_pair_resultant(f, g, sort) == lt.resultant(f, g, sort)
            checked += 1
    f, g = P("x + 1:inf"), P("x^2 + 2:1")
    with pytest.raises(lt.NotPrimaryPair):
        lt.primary_pair_resultant(f, g, lt.SUPER)


def test_resultant_counterexample_reproduction():
    f = P("x^2 + 1:1*x + 2:1")
    g = P("x + 1:1")
    h = P("x + 1:1")
    gh = lt.p_mul(g, h, lt.NAT)
    lhs = lt.resultant(f, gh, lt.NAT)
    rhs = lt.ls_mul(lt.resultant(f, g, lt.NAT), lt.resultant(f, h, lt.NAT), lt.NAT)
    assert lhs == sc(4, 13)
    assert rhs == sc(4, 9)
    assert lhs != rhs


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ, lt.truncated(3)])
def test_nu_multiplicativity(sort):
    rng = random.Random(11)
    for _ in range(80):
        f, g, h = (rand_poly(rng, sort, max_deg=3) for _ in range(3))
        gh = lt.p_mul(g, h, sort)
        lhs = lt.resultant(f, gh, sort)
        assert lhs.value == (
            lt.resultant(f, g, sort).value + lt.resultant(f, h, sort).value
        )
        hg = lt.p_mul(h, g, sort)
        fg = lt.p_mul(f, g, sort)
        assert lt.resultant(fg, h, sort).value == (
            lt.resultant(f, h, sort).value + lt.resultant(g, h, sort).value
        )
        assert lt.resultant(f, hg, sort) == lhs


def test_exact_multiplicativity_disjoint_roots():
    rng = random.Random(13)
    hits = 0
    while hits < 60:
        f, g, h = (rand_poly(rng, lt.POSQ, max_deg=3) for _ in range(3))
        rf = {r for r, _ in lt.corner_roots(f)}
        rgh = {r for r, _ in lt.corner_roots(g)} | {r for r, _ in lt.corner_roots(h)}
        if rf & rgh:
            continue
        hits += 1
        gh = lt.p_mul(g, h, lt.POSQ)
        assert lt.resultant(f, gh, lt.POSQ) == lt.ls_mul(
            lt.resultant(f, g, lt.POSQ), lt.resultant(f, h, lt.POSQ), lt.POSQ
        )


def test_blockwise_primary_product():
    rng = random.Random(17)
    for trial in range(80):
        if trial % 2:
            f = rand_poly(rng, lt.POSQ, max_deg=4, monic=True)
            g = rand_poly(rng, lt.POSQ, max_deg=4, monic=True)
        else:
            # force shared roots
            roots = [F(rng.randint(-3, 3)) for _ in range(2)]
            f = rand_primary(rng, lt.POSQ, roots[0], max_deg=2)
            g = rand_primary(rng, lt.POSQ, roots[0], max_deg=2)
            f = lt.p_mul(f, rand_primary(rng, lt.POSQ, roots[1], max_deg=2), lt.POSQ)
        lhs = lt.resultant(f, g, lt.POSQ)
        df = lt.primary_decomposition(f, lt.POSQ)
        dg = lt.primary_decomposition(g, lt.POSQ)
        rhs = None
        for pf in df.factors:
            for pg in dg.factors:
                r = lt.resultant(pf.poly, pg.poly, lt.POSQ)
                rhs = r if rhs is None else lt.ls_mul(rhs, r, lt.POSQ)
        assert rhs is not None
        assert lhs == rhs


def test_separated_primary_pair_closed_forms():
    rng = random.Random(19)
    for _ in range(60):
        a = F(rng.randint(-5, 5))
        b = a + F(rng.randint(1, 4))
        f = rand_primary(rng, lt.POSQ, a, max_deg=3)  # smaller root
        g = rand_primary(rng, lt.POSQ, b, max_deg=3)
        m = f.degree
        # the larger-rooted polynomial's constant term, raised to the
        # other degree; symmetric in the argument order
        expect = lt.ls_pow(lt.full_form(g).coeffs[0], m, lt.POSQ)
        assert lt.resultant(f, g, lt.POSQ) == expect
        assert lt.resultant(g, f, lt.POSQ) == expect


def test_lambda_factor_rule():
    rng = random.Random(23)
    for _ in range(40):
        f = rand_poly(rng, lt.NAT, max_deg=3)  # always has a constant term
        g = rand_poly(rng, lt.NAT, max_deg=2)
        t = rng.randint(1, 2)
        alpha0 = f.coeffs[0]
        expect = lt.ls_mul(
            lt.ls_pow(alpha0, t, lt.NAT), lt.resultant(f, g, lt.NAT), lt.NAT
        )
        assert lt.resultant(f, lt.p_shift(g, t), lt.NAT) == expect


@pytest.mark.parametrize("q", [2, 3, 4])
def test_truncated_surpassing(q):
    sort = lt.truncated(q)
    rng = random.Random(100 + q)
    for _ in range(60):
        root = F(rng.randint(-4, 4))
        f, g, h = (rand_primary(rng, sort, root, max_deg=2) for _ in range(3))
        gh = lt.p_mul(g, h, sort)
        lhs = lt.resultant(f, gh, sort)
        rhs = lt.ls_mul(
            lt.resultant(f, g, sort), lt.resultant(f, h, sort), sort
        )
        for ell in range(1, q + 1):
            assert lt.surpasses_ell(lhs, rhs, F(ell), sort)


def test_optimized_permanent_matches_naive():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = []
        for _ in range(n):
            rows.append(
                [
                    lt.BOTTOM if rng.random() < 0.3 else rand_scalar(rng, lt.NAT)
                    for _ in range(n)
                ]
            )
        m = lt.layered_matrix(rows)
        assert lt.layered_permanent(m, lt.NAT) == lt.layered_permanent_naive(m, lt.NAT)


def test_permanent_matches_naive_all_sorts():
    # small integer values make nu-ties common, so layers accumulate;
    # layer 0 (the full-form marker) is admitted by the arithmetic of
    # every sort, and rand_layer draws INF under super
    rng = random.Random(43)
    for sort in ALL_SORTS:
        for _ in range(150):
            n = rng.randint(1, 6)
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    u = rng.random()
                    if u < 0.3:
                        row.append(lt.BOTTOM)
                    else:
                        layer = F(0) if u < 0.4 else rand_layer(rng, sort)
                        row.append(lt.LayeredScalar(F(rng.randint(-2, 2)), layer))
                rows.append(row)
            m = lt.layered_matrix(rows)
            assert lt.layered_permanent(m, sort) == lt.layered_permanent_naive(m, sort)


# values over several denominators at once, 2^31 - 1 (a prime) among
# them; sums such as 1/2 + 1/3 = 5/6 + 0 and 1/7 + 6/7 = 1 + 0 tie only
# as exact rationals
BIG_PRIME = 2 ** 31 - 1
MIXED_VALUES = (
    F(0), F(1), F(-1), F(1, 2), F(1, 3), F(5, 6), F(-1, 2), F(1, 7), F(6, 7), F(3, 11), F(8, 11),
    F(1, BIG_PRIME), F(BIG_PRIME - 1, BIG_PRIME), F(-5, BIG_PRIME), 2, -3,
)


def test_permanent_int_scaling_matches_naive_all_sorts():
    rng = random.Random(53)
    for sort in ALL_SORTS:

        def entry():
            layer = F(0) if rng.random() < 0.1 else rand_layer(rng, sort)
            return lt.LayeredScalar(rng.choice(MIXED_VALUES), layer)

        for _ in range(40):
            n = rng.randint(1, 6)
            shared = tuple(entry() for _ in range(rng.randint(1, n)))
            entries = []
            for _ in range(n):
                if rng.random() < 0.4:  # a shared scalars tuple, as a Sylvester row
                    start = rng.randint(0, n - len(shared))
                    entries.append((range(start, start + len(shared)), shared))
                else:
                    columns = tuple(j for j in range(n) if rng.random() < 0.7)
                    entries.append((columns, tuple(entry() for _ in columns)))
            m = lt.LayeredMatrix(n, n, tuple(entries))
            got = lt.layered_permanent(m, sort)
            assert got == lt.layered_permanent_naive(m, sort), (sort, m)
            if got is not lt.BOTTOM:
                assert type(got.value) is F


def test_permanent_ties_exact_rationals():
    # the two transversals tie at 5/6 = 1/2 + 1/3 = 5/6 + 0, so their layers add
    m = lt.layered_matrix([[sc(F(1, 2), 1), sc(F(5, 6), 2)], [sc(0, 3), sc(F(1, 3), 1)]])
    assert lt.layered_permanent(m, lt.NAT) == lt.layered_permanent_naive(m, lt.NAT) == sc(F(5, 6), 7)
    # one part in 2^31 - 1 breaks the tie
    nudged = lt.layered_matrix([[sc(F(1, 2), 1), sc(F(5, 6), 2)],
                                [sc(F(1, BIG_PRIME), 3), sc(F(1, 3), 1)]])
    assert lt.layered_permanent(nudged, lt.NAT) == sc(F(5, 6) + F(1, BIG_PRIME), 6)


def test_permanent_value_is_a_fraction():
    empty = lt.layered_permanent(lt.LayeredMatrix(0, 0, ()), lt.NAT)
    assert empty == lt.ONE and type(empty.value) is F
    three = lt.layered_permanent(lt.LayeredMatrix(1, 1, (((0,), (lt.LayeredScalar(3, F(2)),)),)), lt.NAT)
    assert three == sc(3, 2) and type(three.value) is F


def test_discriminant_sylvester_matches_naive():
    # the Sylvester matrices of f and f' for separable f of degree m;
    # under posq the naive layer is the integer 3, 15, 105 for m = 2..4
    rng = random.Random(47)
    expected = {2: 3, 3: 15, 4: 105}
    for m in range(2, 5):
        for _ in range(3):
            f = lt.monomial(0, lt.ONE)
            for r in sorted(rng.sample(range(1, 60), m)):
                f = lt.p_mul(f, lt.poly({1: lt.ONE, 0: sc(r, 1)}), lt.POSQ)
            for sort in ALL_SORTS:
                syl = lt.sylvester(f, lt.derivative(f, sort), sort)
                naive = lt.layered_permanent_naive(syl, sort)
                assert lt.layered_permanent(syl, sort) == naive
                if sort == lt.POSQ:
                    assert naive.layer == expected[m]


def test_essential_and_full_inputs_agree():
    # normalizing to full form does not change the resultant
    rng = random.Random(31)
    for _ in range(60):
        f = rand_poly(rng, lt.NAT, max_deg=3)
        g = rand_poly(rng, lt.NAT, max_deg=3)
        base = lt.resultant(f, g, lt.NAT)
        assert lt.resultant(lt.essential_form(f), g, lt.NAT) == base
        assert lt.resultant(lt.full_form(f), lt.full_form(g), lt.NAT) == base


def test_resultant_with_linear_evaluates():
    # res(f, x + b) equals f(b) on the full form, for any layers
    rng = random.Random(37)
    for _ in range(80):
        f = rand_poly(rng, lt.NAT, max_deg=4)
        b = rand_scalar(rng, lt.NAT)
        g = lt.poly({1: lt.ONE, 0: b})
        assert lt.resultant(f, g, lt.NAT) == lt.p_eval(lt.full_form(f), b, lt.NAT)


# -- the tropical Poisson formula as a value certificate ----------------------------


def _poisson_value(f, g):
    """val res(f, g) by the tropical Poisson formula (Odagiri 2008):
    n * val(lc f) + m * val(lc g) + sum of max(alpha_i, beta_j) over the
    corner roots with multiplicity, where m and n are the degrees.  Each
    power of x dividing a polynomial adds a root -inf; a pair of them
    makes the resultant BOTTOM, here None."""

    def roots(p):
        finite = [root for root, mult in lt.corner_roots(p) for _ in range(mult)]
        return [-math.inf] * min(p.coeffs) + finite

    m, n = f.degree, g.degree
    total = n * f.coeffs[m].value + m * g.coeffs[n].value
    for alpha in roots(f):
        for beta in roots(g):
            if max(alpha, beta) == -math.inf:
                return None
            total += max(alpha, beta)
    return total


@st.composite
def _poisson_pair(draw):
    """A sort and two polynomials of degree 1 to 4 over it, with small
    values so that roots tie, and a power of x dividing either at times."""
    sort = draw(st.sampled_from(ALL_SORTS))
    rng = draw(st.randoms(use_true_random=False))

    def poly():
        degree = rng.randint(1, 4)
        low = rng.choice((0, 0, 0, 1, degree))
        exps = {low, degree} | {e for e in range(low + 1, degree) if rng.random() < 0.6}
        return lt.poly(
            {e: lt.LayeredScalar(F(rng.randint(-6, 6), rng.randint(1, 3)), rand_layer(rng, sort)) for e in exps}
        )

    return sort, poly(), poly()


@given(_poisson_pair())
def test_resultant_value_matches_poisson_formula(case):
    sort, f, g = case
    res = lt.resultant(f, g, sort)
    want = _poisson_value(f, g)
    if want is None:
        assert res is lt.BOTTOM
    else:
        assert res.value == want
