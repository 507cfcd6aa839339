import numpy as np
import pytest

from d4fusion.groupmodels import AffineModule, a8_generators
from d4fusion.quadforms import (
    DIM,
    GF2_SPACE,
    GF3_SPACE,
    PreconditionError,
    check_isometry,
    dickson,
    gf2_rank,
    gf3_det,
    in_omega_gf3,
    invariant_quadratic_forms,
    is_isometry_exhaustive,
    monomials,
    q,
    reflection,
    reflection_decomposition,
    spinor_norm,
    transvection,
)


def random_isometry_gf2(rng, length=6):
    codes = GF2_SPACE.nonsingular_codes()
    m = np.eye(DIM, dtype=np.uint8)
    for _ in range(length):
        t = transvection(GF2_SPACE, int(rng.choice(codes)))
        m = (t.astype(np.int64) @ m) % 2
    return m.astype(np.uint8)


def random_isometry_gf3(rng, length=6):
    m = np.eye(DIM, dtype=np.int64)
    count = 0
    while count < length:
        v = rng.integers(0, 3, size=DIM)
        if GF3_SPACE.eval_q(v) == 0:
            continue
        r = reflection(GF3_SPACE, v)
        m = (r.astype(np.int64) @ m) % 3
        count += 1
    return m


def test_eval_zero_vector():
    assert GF2_SPACE.eval_q(0) == 0
    assert GF3_SPACE.eval_q(np.zeros(8)) == 0


def test_gf3_basis_vector():
    e1 = np.eye(8, dtype=np.int64)[0]
    assert GF3_SPACE.eval_q(e1) == 1


def test_singular_count_gf2():
    # oracle: brute enumeration over all 255 nonzero vectors
    brute = sum(1 for c in range(1, 256) if GF2_SPACE.eval_q(c) == 0)
    assert brute == 135
    assert len(GF2_SPACE.singular_codes()) == 135
    # cross-check against the closed count (2^3+1)(2^4-1)
    assert brute == (2 ** 3 + 1) * (2 ** 4 - 1)
    assert len(GF2_SPACE.nonsingular_codes()) == 120


def test_polar_symmetric_and_nondegenerate_gf2():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = int(rng.integers(256)), int(rng.integers(256))
        assert GF2_SPACE.polar(u, v) == GF2_SPACE.polar(v, u)
    # nondegenerate: no nonzero vector is orthogonal to everything
    for u in range(1, 256):
        assert any(GF2_SPACE.polar(u, 1 << i) for i in range(8))


def test_transvection_is_involution_of_rank_one():
    rng = np.random.default_rng(1)
    for code in rng.choice(GF2_SPACE.nonsingular_codes(), 10, replace=False):
        t = transvection(GF2_SPACE, int(code))
        assert t.dtype == np.uint8 and t.shape == (DIM, DIM)
        sq = (t.astype(np.int64) @ t) % 2
        assert np.array_equal(sq, np.eye(DIM, dtype=np.int64))
        assert gf2_rank((t + np.eye(DIM, dtype=np.uint8)) % 2) == 1
        assert dickson(GF2_SPACE, t) == 1


def test_transvection_rejects_singular_vector():
    with pytest.raises(PreconditionError):
        transvection(GF2_SPACE, int(GF2_SPACE.singular_codes()[0]))


def test_dickson_identity_and_additivity():
    assert dickson(GF2_SPACE, np.eye(DIM, dtype=np.uint8)) == 0
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = random_isometry_gf2(rng, length=int(rng.integers(1, 7)))
        b = random_isometry_gf2(rng, length=int(rng.integers(1, 7)))
        ab = (b.astype(np.int64) @ a) % 2
        assert dickson(GF2_SPACE, ab) == dickson(GF2_SPACE, a) ^ dickson(GF2_SPACE, b)


def test_product_of_even_transvections_in_kernel():
    rng = np.random.default_rng(3)
    m = random_isometry_gf2(rng, length=4)
    assert dickson(GF2_SPACE, m) == 0
    m = random_isometry_gf2(rng, length=5)
    assert dickson(GF2_SPACE, m) == 1


def test_isometry_exhaustive_gf2():
    rng = np.random.default_rng(4)
    assert is_isometry_exhaustive(GF2_SPACE, random_isometry_gf2(rng))


def test_reflection_fixes_perp_and_negates_vector():
    e1 = np.eye(8, dtype=np.int64)[0]
    r = reflection(GF3_SPACE, e1)
    assert r.dtype == np.uint8 and r.shape == (DIM, DIM)
    assert np.array_equal((r @ e1) % 3, (-e1) % 3)
    for i in range(1, 8):
        e = np.eye(8, dtype=np.int64)[i]
        assert np.array_equal((r @ e) % 3, e)
    assert gf3_det(r) == 2  # determinant -1


def test_reflection_rejects_singular():
    v = np.array([1, 1, 1, 0, 0, 0, 0, 0])  # Q = 3 = 0 mod 3
    with pytest.raises(PreconditionError):
        reflection(GF3_SPACE, v)


def test_orthogonal_reflections_commute():
    e1 = np.eye(8, dtype=np.int64)[0]
    e2 = np.eye(8, dtype=np.int64)[1]
    r1, r2 = reflection(GF3_SPACE, e1), reflection(GF3_SPACE, e2)
    a = (r1.astype(np.int64) @ r2) % 3
    b = (r2.astype(np.int64) @ r1) % 3
    assert np.array_equal(a, b)
    assert gf3_det(a) == 1
    sq = (a.astype(np.int64) @ a) % 3
    assert np.array_equal(sq, np.eye(8, dtype=np.int64))


def test_spinor_identity_square():
    assert spinor_norm(GF3_SPACE, np.eye(8, dtype=np.int64)) == "square"


def test_spinor_double_sign_change_square():
    m = np.eye(8, dtype=np.int64)
    m[0, 0] = m[1, 1] = 2
    assert spinor_norm(GF3_SPACE, m) == "square"
    assert in_omega_gf3(GF3_SPACE, m)


def test_spinor_of_double_transposition():
    # (12)(34) as a permutation matrix: each transposition reflects in
    # e_i - e_j with Q = 2, a nonsquare; the product of two is square.
    m = np.eye(8, dtype=np.int64)
    m[[0, 1]] = m[[1, 0]]
    m[[2, 3]] = m[[3, 2]]
    assert gf3_det(m) == 1
    assert spinor_norm(GF3_SPACE, m) == "square"
    # single transposition: nonsquare
    m2 = np.eye(8, dtype=np.int64)
    m2[[0, 1]] = m2[[1, 0]]
    assert spinor_norm(GF3_SPACE, m2) == "nonsquare"


def test_spinor_multiplicative_and_decomposition_consistent():
    rng = np.random.default_rng(5)
    classes = {"square": 0, "nonsquare": 1}
    for _ in range(40):
        a = random_isometry_gf3(rng, length=int(rng.integers(1, 6)))
        b = random_isometry_gf3(rng, length=int(rng.integers(1, 6)))
        ab = (b @ a) % 3
        sa, sb, sab = (spinor_norm(GF3_SPACE, m) for m in (a, b, ab))
        assert classes[sab] == classes[sa] ^ classes[sb]


def test_decomposition_rebuilds_matrix():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = random_isometry_gf3(rng, length=int(rng.integers(1, 8)))
        vecs = reflection_decomposition(GF3_SPACE, m)
        rebuilt = np.eye(8, dtype=np.int64)
        for v in vecs:
            rebuilt = (reflection(GF3_SPACE, v).astype(np.int64) @ rebuilt) % 3
        # the decomposition satisfies r_k ... r_1 M = I
        assert np.array_equal((rebuilt @ m) % 3, np.eye(8, dtype=np.int64))


def test_isometry_matrix_spot_check_rejects_garbage():
    bad = np.zeros((8, 8), dtype=np.uint8)
    bad[0, 0] = 1
    with pytest.raises(PreconditionError):
        check_isometry(GF2_SPACE, bad)


def test_isometry_check_catches_one_changed_polar_value():
    # e_0 -> e_0 + e_2 keeps Q on every basis vector; of the 28 basis pairs
    # only B(e_0, e_3) changes, from 0 to 1
    m = np.eye(DIM, dtype=np.uint8)
    m[2, 0] = 1
    assert all(GF2_SPACE.eval_q(GF2_SPACE.code(m[:, i])) == 0 for i in range(DIM))
    changed = [(i, j) for i in range(DIM) for j in range(i + 1, DIM)
               if GF2_SPACE.polar(GF2_SPACE.code(m[:, i]), GF2_SPACE.code(m[:, j]))
               != GF2_SPACE.polar(1 << i, 1 << j)]
    assert changed == [(0, 3)]
    assert not is_isometry_exhaustive(GF2_SPACE, m)
    with pytest.raises(PreconditionError, match="polar"):
        check_isometry(GF2_SPACE, m)
    with pytest.raises(PreconditionError, match="polar"):
        dickson(GF2_SPACE, m)


def test_isometry_check_agrees_with_the_exhaustive_reference_gf3():
    rng = np.random.default_rng(3)
    good = random_isometry_gf3(rng)
    check_isometry(GF3_SPACE, good)
    assert is_isometry_exhaustive(GF3_SPACE, good)
    # e_0 -> e_0 + e_1 + e_2 + e_3 keeps Q(e_0) = 1 but not its polar values
    bad = np.eye(DIM, dtype=np.int64)
    bad[1:4, 0] = 1
    assert GF3_SPACE.eval_q(bad[:, 0]) == 1
    assert not is_isometry_exhaustive(GF3_SPACE, bad)
    with pytest.raises(PreconditionError, match="polar"):
        check_isometry(GF3_SPACE, bad)


def test_identity_action_leaves_every_form_invariant():
    basis = invariant_quadratic_forms([np.arange(64)])
    assert sorted(basis) == [1 << k for k in range(21)]
    # the basis form at bit 6 + pair index is the monomial x_0 x_1
    assert [v for v in range(64) if q(1 << 6, v)] == [v for v in range(64) if v & 3 == 3]
    assert monomials(0) == 0 and monomials(0b11) == 0b11 | 1 << 6


def test_a8_module_has_one_invariant_form():
    module = AffineModule()
    # letters 1..6 are the unit vectors, letter 7 the all-ones vector
    coords = np.array([sum(1 << (i - 1) for i in range(1, 7) if (c >> i) & 1)
                       ^ (0x3F if (c >> 7) & 1 else 0) for c in module.reps])
    assert sorted(coords) == list(range(64))
    perms = []
    for p in a8_generators():
        vp = np.empty(64, dtype=np.int64)
        vp[coords] = coords[module.linear_perm(p)]
        perms.append(vp)
    (sol,) = invariant_quadratic_forms(perms)
    assert all(q(sol, int(coords[m])) == module.weight_form(m) for m in range(64))
    assert sum(1 for v in range(1, 64) if q(sol, v) == 0) == 35
