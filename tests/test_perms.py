import numpy as np
import pytest

from d4fusion.perms import (
    ConfigurationError,
    as_images,
    compose,
    identity_images,
    inverse,
    is_identity,
    perm_from_cycles,
    perm_order,
)


def test_identity():
    e = identity_images(5)
    assert is_identity(e)
    assert perm_order(e) == 1
    assert e[3] == 3


def test_compose_convention_left_to_right():
    # a: 0->1, b: 1->2, so (a then b): 0->2
    a = perm_from_cycles(3, [(0, 1)])
    b = perm_from_cycles(3, [(1, 2)])
    assert compose(a, b)[0] == 2
    assert np.array_equal(compose(a, b), b[a])


def test_inverse_and_order():
    p = perm_from_cycles(6, [(0, 1, 2), (3, 4)])
    assert is_identity(compose(p, inverse(p)))
    assert perm_order(p) == 6


def test_order_oracle_brute_force():
    # oracle: repeated composition until the identity returns
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = np.argsort(rng.random(9)).astype(np.uint16)
        q = p
        n = 1
        while not is_identity(q):
            q = compose(q, p)
            n += 1
        assert perm_order(p) == n


def power(a, k):
    """a^k by binary powering with compose."""
    out = np.arange(a.shape[0], dtype=a.dtype)
    while k:
        if k & 1:
            out = compose(out, a)
        a = compose(a, a)
        k >>= 1
    return out


def prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def test_order_against_powers():
    # reference: the least k with a^k the identity, by repeated compose for
    # the small degrees, and by a^k = 1 with a^(k/p) != 1 for each prime p | k
    rng = np.random.default_rng(15)
    cases = [np.arange(135, dtype=np.uint16)]
    cases += [rng.permutation(n).astype(np.uint16) for n in (1, 2, 8, 135) for _ in range(6)]
    for a in cases:
        k = perm_order(a)
        assert is_identity(power(a, k))
        assert not any(is_identity(power(a, k // p)) for p in prime_divisors(k))
        if a.shape[0] <= 8:
            q, n = a, 1
            while not is_identity(q):
                q, n = compose(q, a), n + 1
            assert n == k


def test_perm_from_cycles_builds_images_and_refuses_stray_points():
    p = perm_from_cycles(8, [(0, 3, 5), (1, 2)])
    assert p.dtype == np.uint16
    assert p.tolist() == [3, 2, 1, 5, 4, 0, 6, 7]
    for cycles in ([(0, 8)], [(1, 2), (-1, 3)]):
        with pytest.raises(ConfigurationError, match="outside 0..7"):
            perm_from_cycles(8, cycles)


def test_rejects_non_bijection():
    with pytest.raises(ConfigurationError):
        as_images(np.array([0, 0, 1], dtype=np.uint16))
    with pytest.raises(ConfigurationError):
        perm_from_cycles(3, [(0, 1), (1, 2)])


def test_as_images_refuses_stray_images_and_other_shapes():
    for bad in ([0, 5, 1], [0, -1, 1], [[0, 1], [1, 0]], 0):
        with pytest.raises(ConfigurationError):
            as_images(bad)
    assert as_images([2, 0, 1]).tolist() == [2, 0, 1]


def test_compose_degree_mismatch():
    with pytest.raises(ConfigurationError):
        compose(np.arange(3, dtype=np.uint16), np.arange(4, dtype=np.uint16))


def test_inverse_array():
    a = np.array([2, 0, 1], dtype=np.uint16)
    assert np.array_equal(compose(a, inverse(a)), np.arange(3, dtype=np.uint16))
