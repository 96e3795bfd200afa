import random
from fractions import Fraction as F

import pytest

import laytrop as lt
from conftest import ALL_SORTS, NONNEG_SORTS, rand_scalar

sc = lt.scalar


def test_ls_mul_examples():
    assert lt.ls_mul(sc(2, 1), sc(3, 2), lt.NAT) == sc(5, 2)
    x = sc(F(7, 3), 4)
    assert lt.ls_mul(lt.ONE, x, lt.NAT) == x
    got = lt.ls_mul(lt.LayeredScalar(F(1), lt.INF), sc(1, 1), lt.SUPER)
    assert got == lt.LayeredScalar(F(2), lt.INF)


def test_ls_add_examples():
    assert lt.ls_add(sc(5, 1), sc(3, 7), lt.NAT) == sc(5, 1)
    assert lt.ls_add(sc(5, 1), sc(5, 1), lt.NAT) == sc(5, 2)
    got = lt.ls_add(lt.LayeredScalar(F(5), lt.INF), sc(5, 1), lt.SUPER)
    assert got == lt.LayeredScalar(F(5), lt.INF)


def test_the_sorting_map_is_the_layer():
    for x in (sc(5, 1), sc(-3, 7), lt.LayeredScalar(F(1, 2), lt.INF), lt.LayeredScalar(F(0), F(0))):
        assert lt.s(x) is x.layer


def test_nu_cmp():
    assert lt.nu_cmp(sc(5, 1), sc(5, 9)) == 0
    assert lt.nu_cmp(sc(3, 2), sc(5, 1)) == -1
    assert lt.nu_cmp(sc(0, 1), lt.LayeredScalar(F(0), lt.INF)) == 0


def test_is_ell_ghost():
    assert lt.is_ell_ghost(sc(5, 2), 1, lt.NAT)
    assert not lt.is_ell_ghost(sc(5, 1), 1, lt.NAT)
    assert lt.is_ell_ghost(lt.LayeredScalar(F(5), lt.INF), lt.INF, lt.SUPER)


def test_surpasses_ell():
    assert lt.surpasses_ell(sc(5, 2), sc(5, 1), 1, lt.NAT)
    assert not lt.surpasses_ell(sc(5, 1), sc(3, 1), 1, lt.NAT)
    assert lt.surpasses_ell(sc(7, 2), sc(3, 1), 1, lt.NAT)


def test_surpasses_L():
    x = sc(F(9, 2), 3)
    assert lt.surpasses_L(x, x, lt.NAT)
    assert lt.surpasses_L(sc(5, 3), sc(5, 2), lt.NAT)
    assert not lt.surpasses_L(sc(5, 2), sc(5, 3), lt.NAT)


def test_ls_inv():
    assert lt.ls_inv(sc(3, 1), lt.NAT) == sc(-3, 1)
    assert lt.ls_inv(sc(3, 2), lt.POSQ) == sc(-3, F(1, 2))
    with pytest.raises(lt.NonInvertibleLayer):
        lt.ls_inv(sc(3, 2), lt.NAT)
    with pytest.raises(lt.NonInvertibleLayer):
        lt.ls_inv(sc(3, 0), lt.RAT)
    with pytest.raises(lt.InvalidLayer):
        lt.ls_inv(sc(1, F(1, 2)), lt.NAT)  # the input layer is checked too


def test_ls_pow():
    assert lt.ls_pow(sc(2, 1), 3, lt.NAT) == sc(6, 1)
    assert lt.ls_pow(sc(2, 2), 2, lt.NAT) == sc(4, 4)
    assert lt.ls_pow(sc(2, 4), F(1, 2), lt.POSQ) == sc(1, 2)
    with pytest.raises(lt.InvalidLayer):
        lt.ls_pow(sc(2, 2), F(1, 2), lt.POSQ)  # sqrt(2) leaves Q
    # truncation caps stepwise
    assert lt.ls_pow(sc(1, 3), 2, lt.truncated(4)) == sc(2, 4)
    # every nonzero exponent checks the input layer, not only the result's
    for x, n, sort in [
        (sc(0, F(1, 2)), -1, lt.NAT),
        (sc(0, 9), F(1, 2), lt.truncated(4)),
        (sc(0, 2), -1, lt.UNIT),
        (sc(0, lt.INF), F(1, 2), lt.NAT),
        (sc(0, 2), 2, lt.UNIT),
    ]:
        with pytest.raises(lt.InvalidLayer):
            lt.ls_pow(x, n, sort)
    assert lt.ls_pow(sc(3, F(1, 2)), 0, lt.NAT) == lt.ONE  # the empty product


def test_ls_pow_roots_of_long_layers():
    # layers far beyond float range: the k-th root is found in integers
    big = F(3**700, 7**300)
    assert lt.ls_pow(sc(0, big**5), F(2, 5), lt.POSQ).layer == big**2
    with pytest.raises(lt.InvalidLayer):
        lt.ls_pow(sc(0, big**5 + 1), F(1, 5), lt.POSQ)
    with pytest.raises(lt.InvalidLayer):
        lt.ls_pow(sc(0, 5), F(1, 10**30), lt.POSQ)
    assert lt.ls_pow(sc(0, 1), F(1, 10**30), lt.POSQ).layer == 1


def test_bottom_behaviour():
    assert lt.ls_sum([], lt.NAT) is lt.BOTTOM
    x = sc(1, 1)
    assert lt.ls_sum([lt.BOTTOM, x, lt.BOTTOM], lt.NAT) == x


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_scalar_semiring_laws(sort):
    rng = random.Random(42)
    for _ in range(300):
        x, y, z = (rand_scalar(rng, sort) for _ in range(3))
        assert lt.ls_add(x, y, sort) == lt.ls_add(y, x, sort)
        assert lt.ls_mul(x, y, sort) == lt.ls_mul(y, x, sort)
        assert lt.ls_add(lt.ls_add(x, y, sort), z, sort) == lt.ls_add(
            x, lt.ls_add(y, z, sort), sort
        )
        assert lt.ls_mul(lt.ls_mul(x, y, sort), z, sort) == lt.ls_mul(
            x, lt.ls_mul(y, z, sort), sort
        )
        assert lt.ls_mul(x, lt.ls_add(y, z, sort), sort) == lt.ls_add(
            lt.ls_mul(x, y, sort), lt.ls_mul(x, z, sort), sort
        )


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_nu_bipotence(sort):
    rng = random.Random(17)
    for _ in range(300):
        x, y = rand_scalar(rng, sort), rand_scalar(rng, sort)
        total = lt.ls_add(x, y, sort)
        if lt.nu_cmp(x, y) != 0:
            assert total in (x, y)
        else:
            assert total.value == x.value
            assert total.layer == lt.layer_add(x.layer, y.layer, sort)


@pytest.mark.parametrize("sort", NONNEG_SORTS)
def test_frobenius_surpassing(sort):
    rng = random.Random(23)
    for _ in range(200):
        x, y = rand_scalar(rng, sort), rand_scalar(rng, sort)
        for n in (2, 3, 4):
            lhs = lt.ls_pow(lt.ls_add(x, y, sort), n, sort)
            rhs = lt.ls_add(lt.ls_pow(x, n, sort), lt.ls_pow(y, n, sort), sort)
            assert lt.surpasses_L(lhs, rhs, sort), (sort, x, y, n, lhs, rhs)
            assert lhs.value == rhs.value  # nu-equivalence holds always


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_frobenius_nu_equivalence(sort):
    rng = random.Random(29)
    for _ in range(200):
        x, y = rand_scalar(rng, sort), rand_scalar(rng, sort)
        n = rng.randint(2, 4)
        lhs = lt.ls_pow(lt.ls_add(x, y, sort), n, sort)
        rhs = lt.ls_add(lt.ls_pow(x, n, sort), lt.ls_pow(y, n, sort), sort)
        assert lhs.value == rhs.value


def test_surpasses_antisymmetry_finite_layers():
    rng = random.Random(31)
    for sort in (lt.NAT, lt.POSQ, lt.RAT):
        for _ in range(300):
            a, b = rand_scalar(rng, sort), rand_scalar(rng, sort)
            if lt.surpasses_L(a, b, sort) and lt.surpasses_L(b, a, sort):
                assert a == b


@pytest.mark.parametrize("sort", [lt.NAT, lt.POSQ, lt.RAT])
def test_nu_cancellation(sort):
    rng = random.Random(37)
    for _ in range(300):
        a, b, c = (rand_scalar(rng, sort) for _ in range(3))
        if lt.nu_cmp(lt.ls_mul(a, c, sort), lt.ls_mul(b, c, sort)) == 0:
            assert lt.nu_cmp(a, b) == 0
