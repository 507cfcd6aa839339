import dataclasses
import hashlib

import numpy as np
import pytest

from d4fusion.cayley import CayleyGroup, ClosureError, invariant_core
from d4fusion.groupmodels import (
    Frame,
    SYLOW_ORDER,
    check_in_omega,
    frame_from_involutions,
    frame_sign_gens,
    matrices_from_point_perms,
    matrix_from_point_perm,
    perm_matrix,
    standard_frame,
    verify_embedding,
    verify_frame_o2,
)
from d4fusion.perms import ConfigurationError, compose, inverse, perm_from_cycles
from d4fusion.quadforms import (GF2_SPACE, GF3_SPACE, PreconditionError, gf3_det,
                                gf3_inverse)
from d4fusion.stabchain import GroupHandle, build_stab_chain, stabilizer_of_prefix


def test_omega_order_and_transitivity(omega_handle):
    assert omega_handle.chain.order() == 174_182_400
    # 2-part is exactly 2^12
    order = omega_handle.chain.order()
    two_part = order & -order
    assert two_part == 4096
    # transitive on the 135 singular points from three start points
    from d4fusion.stabchain import orbit
    for start in (0, 57, 134):
        assert len(orbit(omega_handle.generators, start)) == 135


def test_transvection_pairs_need_one_probe_chain(monkeypatch):
    from d4fusion import groupmodels
    degrees = []

    def counting(handle, *args, **kwargs):
        degrees.append(handle.degree)
        return build_stab_chain(handle, *args, **kwargs)

    monkeypatch.setattr(groupmodels, "build_stab_chain", counting)
    pairs = groupmodels.omega_transvection_pairs()
    assert len(pairs) == 5
    assert degrees == [135]


def test_omega_generators_in_kernel(omega_handle):
    from d4fusion.quadforms import dickson
    for mat in omega_handle.gen_matrices:
        assert dickson(GF2_SPACE, mat) == 0


def test_point_stabilizer_order(omega_handle):
    sub = stabilizer_of_prefix(omega_handle, [0])
    assert sub.chain.order() == 1_290_240
    assert 174_182_400 // 1_290_240 == 135


def test_membership_separates_kernel(omega_handle):
    # a single transvection acts on the singular points but lies outside
    # the chain's group (Dickson invariant 1; it also swaps the two solid
    # families, so it does not even act on the full flag domain); a
    # product of two transvections sifts in
    from d4fusion.quadforms import PreconditionError, transvection
    codes = GF2_SPACE.nonsingular_codes()
    t1 = transvection(GF2_SPACE, int(codes[3]))
    t2 = transvection(GF2_SPACE, int(codes[40]))
    pts = omega_handle.geometry.parts[0]
    gens135 = [g[:135] for g in omega_handle.generators]
    chain135 = build_stab_chain(GroupHandle("omega-points", gens135))
    assert chain135.order() == 174_182_400
    p1 = pts.perm_of_matrix(t1)
    both = pts.perm_of_matrix((t2.astype(np.int64) @ t1) % 2)
    assert not chain135.contains(p1)
    assert chain135.contains(both)
    with pytest.raises(PreconditionError):
        omega_handle.geometry.perm_of_matrix(t1)


def test_frame_order_two_independent_chains(frame_bundle):
    # rebuild with a shuffled base prefix; the two chain orders must agree
    gens = list(frame_bundle.ambient.generators)
    chain2 = build_stab_chain(GroupHandle("frame2", gens), base_hint=[700, 13, 222])
    assert chain2.order() == frame_bundle.ambient.chain.order() == 1_290_240


def test_omega_perfect(omega_handle):
    # normal closure of generator commutators regenerates the whole group
    gens = omega_handle.generators
    seeds = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i], gens[j]
            seeds.append(compose(compose(compose(inverse(a), inverse(b)), a), b))
    closure_gens = list(seeds)
    while True:
        chain = build_stab_chain(GroupHandle("nc", list(closure_gens)))
        new = []
        for s in closure_gens:
            for g in gens:
                c = compose(compose(inverse(g), s), g)
                if not chain.contains(c):
                    new.append(c)
        if not new:
            break
        closure_gens.extend(new[:4])
    assert chain.order() == 174_182_400


def test_chamber_stabilizer(chamber_bundle):
    assert chamber_bundle.sylow.n == SYLOW_ORDER
    orders = chamber_bundle.sylow.order_of
    assert set(np.unique(orders).tolist()) <= {1, 2, 4, 8}
    z = chamber_bundle.sylow.center_of(chamber_bundle.sylow.full_bits())
    assert z.order == 2


def test_chamber_matrices_match_perms(chamber_bundle, omega_handle):
    # recovered matrices re-induce the stored point permutations
    geometry = omega_handle.geometry
    pts = geometry.parts[0]
    rng = np.random.default_rng(3)
    for i in rng.integers(0, 4096, 25):
        mat = chamber_bundle.matrices[int(i)]
        perm = pts.perm_of_matrix(mat)
        assert np.array_equal(perm, chamber_bundle.embedding[int(i)][:135])


def test_matrix_gather_matches_the_reference(chamber_bundle, omega_handle):
    emb = chamber_bundle.embedding
    mats = matrices_from_point_perms(emb, omega_handle.geometry)
    assert mats.shape == (SYLOW_ORDER, 8, 8) and mats.dtype == np.int64
    for i in range(SYLOW_ORDER):
        ref = matrix_from_point_perm(emb[i], omega_handle.geometry)
        assert np.array_equal(mats[i], ref)
        assert np.array_equal(chamber_bundle.matrices[i], ref)


def test_embedding_verification_all_models(bundles):
    for bundle in bundles.values():
        verify_embedding(bundle)  # raises on any failure


@pytest.mark.parametrize("pick", ["first", "identity"])
def test_embedding_check_rejects_swapped_rows(affine_bundle, pick):
    gens = set(affine_bundle.sylow.generating_set())
    others = [i for i in range(1, SYLOW_ORDER) if i not in gens]
    x, y = (others[0], others[1]) if pick == "first" else (0, others[-1])
    emb = affine_bundle.embedding.copy()
    emb[[x, y]] = emb[[y, x]]
    twin = dataclasses.replace(affine_bundle, embedding=emb)
    with pytest.raises(ConfigurationError):
        verify_embedding(twin)


# SHA-1 of T, of the BFS parents (int64) and of the elements (uint16), as the
# one-element-at-a-time closure numbered them
TABLE_PINS = {
    "chamber_bundle": ("0389ed456fe7b869017f74038373402f2debabfd",
                       "fcef67577b02f3b29f2a4ea40e005e90a0a81093",
                       "284985e2ba55a7fbddba6e5326f6d3d0f7fc81ca"),
    "frame_bundle": ("8711d9c994d95bca6b98cbba9e40751ee4e8530a",
                     "3a54fca1a9b946e504b33b7cd9610db3d2efe0b8",
                     "a55267794f40bfd16900a216253a1cc7c17c10ec"),
    "affine_bundle": ("2ba3c6792fc531cc608ea58c855c356f9e182c9e",
                      "ab2d76670081e26edddce9a7cdb7b942cc806c03",
                      "52ea9fff909d8a16ec0a0340421e38a198a4e900"),
    "root": ("392e821bc58ee75c651ea40c18b73ce9c32c4c6a",
             "87e5c1ded18d195ed63a10adc161f8ae037bc15e",
             "bdc94558232b311add2a6f81586ff33b0089bd84"),
}


@pytest.mark.parametrize("model", sorted(TABLE_PINS))
def test_sylow_tables_are_pinned(model, request):
    from d4fusion.rootmodel import build_root_model
    group = (build_root_model() if model == "root"
             else request.getfixturevalue(model).sylow)
    digests = tuple(hashlib.sha1(a.tobytes()).hexdigest() for a in (
        group.T, np.array(group.parents, dtype=np.int64),
        np.stack(group.elements).astype(np.uint16)))
    assert digests == TABLE_PINS[model]


@pytest.mark.parametrize("base", [[1], [1, 19], "flag"])
def test_closure_keyed_on_a_non_base_raises(chamber_bundle, base):
    # a table is keyed only on a verified chain, so keys that are not a base
    # of S can come only from the chain of a smaller group: here the group of
    # S's first two generators, with `base` as its base prefix.  The other
    # generators do not sift into it
    S = chamber_bundle.sylow
    gens = chamber_bundle.embedding[S.gen_indices]
    if base == "flag":
        base = chamber_bundle.ambient.flag_base
    chain = build_stab_chain(GroupHandle("part", list(gens[:2])), base_hint=base)
    assert chain.order() < SYLOW_ORDER
    with pytest.raises(ClosureError, match="sift"):
        CayleyGroup.from_generators(gens, chain=chain)


def test_chain_keyed_and_full_row_keyed_builds_agree(affine_bundle):
    # both keys are faithful, and the closure numbers rows by first occurrence
    S = affine_bundle.sylow
    assert len(affine_bundle.ambient.chain.base) < affine_bundle.degree
    full = CayleyGroup.from_generators(affine_bundle.embedding[S.gen_indices])
    assert np.array_equal(full.T, S.T)
    assert np.array_equal(full.elements, affine_bundle.embedding)
    assert full.parents == S.parents


@pytest.mark.parametrize("model", sorted(TABLE_PINS))
def test_built_tables_pass_lights_test_and_the_embedding_check(model, request):
    # the oracle for `from_generators`, which runs neither check itself
    from d4fusion.rootmodel import build_root_model
    if model == "root":
        group = build_root_model()
        group.check_embedding(group.elements)
    else:
        bundle = request.getfixturevalue(model)
        group = bundle.sylow
        verify_embedding(bundle)
    checked = CayleyGroup(group.T, gen_indices=group.gen_indices)  # runs Light's test
    assert checked.generating_set() == group.generating_set()


def test_a_generator_outside_the_chain_raises_at_the_sift(affine_bundle):
    # a transposition acts on the module as an element of S8 outside 64:A8
    S = affine_bundle.sylow
    gens = list(affine_bundle.embedding[S.gen_indices])
    odd = affine_bundle.extras["module"].linear_perm(perm_from_cycles(8, [(0, 1)]))
    chain = affine_bundle.ambient.chain
    assert CayleyGroup.from_generators(gens, chain=chain).n == SYLOW_ORDER
    with pytest.raises(ClosureError, match="sift"):
        CayleyGroup.from_generators(gens + [odd], chain=chain)


def test_bundle_index_lookup(chamber_bundle):
    emb = chamber_bundle.embedding
    assert chamber_bundle.index_of_perm(emb[137]) == 137
    foreign = np.roll(emb[137], 1)
    assert chamber_bundle.index_of_perm(foreign) is None


def test_affine_model(affine_bundle):
    assert affine_bundle.ambient.chain.order() == 1_290_240
    assert affine_bundle.sylow.n == SYLOW_ORDER
    q = affine_bundle.extras["Q"]
    assert q.order == 512
    grp = affine_bundle.sylow
    assert grp.is_extraspecial(q)
    assert grp.extraspecial_type(q) == "+"
    z = grp.center_of(grp.full_bits())
    assert np.array_equal(grp.center_of(q).bits, z.bits)


def test_frame_model(frame_bundle):
    assert frame_bundle.ambient.chain.order() == 1_290_240
    assert frame_bundle.sylow.n == SYLOW_ORDER
    o2 = frame_bundle.extras["O2"]
    assert o2.order == 64
    assert frame_bundle.sylow.is_elementary_abelian(o2)


def test_frame_generators_in_omega(frame_bundle):
    from d4fusion.quadforms import spinor_norm
    for mat in frame_bundle.ambient.gen_matrices:
        assert gf3_det(mat) == 1
        assert spinor_norm(GF3_SPACE, mat) == "square"


def test_three_sylow_orders_agree(bundles):
    assert {b.sylow.n for b in bundles.values()} == {4096}


def test_standard_frame_from_sign_changes():
    lifts = [m.astype(np.int64) for m in frame_sign_gens()]
    frame = frame_from_involutions(lifts)
    assert np.array_equal(frame.vectors, np.eye(8, dtype=np.int64))


def test_check_in_omega_rejects_a_letter_across_mixed_q_values():
    vecs = np.eye(8, dtype=np.int64)
    vecs[0, 1] = 1
    vecs[1, :2] = [1, 2]
    frame = Frame(vecs)  # lines e0 + e1 and e0 - e1 have Q-value 2, the rest 1
    c = frame.basis_matrix()
    letter = perm_matrix(perm_from_cycles(8, [(0, 2, 3)]))
    with pytest.raises(ConfigurationError, match="not an isometry"):
        check_in_omega((c @ letter @ gf3_inverse(c)) % 3)


def test_a_frame_generator_that_is_not_frame_monomial_is_refused_before_any_chain(
        monkeypatch):
    from d4fusion import groupmodels
    # the product of the reflections in e0+..+e3 and e4+..+e7: in Omega, but it
    # maps e0 to 2e0+e1+e2+e3, off the frame lines
    block = (np.ones((4, 4), dtype=np.int64) + np.eye(4, dtype=np.int64)) % 3
    bad = np.zeros((8, 8), dtype=np.int64)
    bad[:4, :4] = bad[4:, 4:] = block
    check_in_omega(bad)
    built = []

    def counting(handle, *args, **kwargs):
        built.append(handle.name)
        return build_stab_chain(handle, *args, **kwargs)

    monkeypatch.setattr(groupmodels, "build_stab_chain", counting)
    monkeypatch.setattr(groupmodels, "frame_sign_gens", lambda: frame_sign_gens() + [bad])
    with pytest.raises(ConfigurationError, match="does not permute the frame lines"):
        groupmodels.build_frame_model_gf3()
    assert built == []


def test_the_generator_invariant_core_of_the_frame_sylow_is_the_sign_change_subgroup(
        frame_bundle):
    # full-degree conjugates by the 13 ambient generators, not the signature lookups
    # that verify_frame_o2 reads
    everything = np.arange(frame_bundle.sylow.n)
    images = [frame_bundle.conjugate_indices(g, everything)
              for g in frame_bundle.ambient.generators]
    assert len(images) == 13
    core = invariant_core(np.ones(frame_bundle.sylow.n, dtype=bool), images)
    d_bits = frame_bundle.subgroup_from_perms(frame_bundle.extras["sign_perms"])
    assert d_bits.order == 64
    assert np.array_equal(core, d_bits.bits)


def test_a_false_signature_hit_in_the_frame_radical_scan_is_refused(frame_bundle,
                                                                     monkeypatch):
    o2 = frame_bundle.extras["O2"]
    assert np.array_equal(verify_frame_o2(frame_bundle).bits, o2.bits)
    stray = int(np.flatnonzero(~o2.bits)[0])
    real = frame_bundle.conjugate_indices

    def false_hit(g, members, verify=True):
        out = real(g, members, verify)
        if not verify:
            out[np.asarray(members) == stray] = 0
        return out

    monkeypatch.setattr(frame_bundle, "conjugate_indices", false_hit)
    with pytest.raises(ConfigurationError, match="did not stabilize"):
        verify_frame_o2(frame_bundle)


def test_frame_from_involutions_rejects_junk():
    bad = np.eye(8, dtype=np.int64)
    bad[0, 0] = 2  # diag(-1,1,...): involution, but single matrix gives
    # only 2 eigenspaces, of dimensions 1 and 7
    with pytest.raises(PreconditionError):
        frame_from_involutions([bad])


def test_frame_eigenvalue_patterns_separate(frame_bundle, contexts):
    ctx = contexts["frame"]
    d_bits = frame_bundle.extras["O2"]
    from d4fusion.fusion import _involution_lifts
    d_sub = next(e for e in ctx.six_E if np.array_equal(e.bits, d_bits.bits))
    lifts = _involution_lifts(frame_bundle, d_sub)
    frame = frame_from_involutions(lifts)
    patterns = set()
    for m in lifts:
        pat = tuple(1 if np.array_equal((m @ v) % 3, v) else -1
                    for v in frame.vectors)
        patterns.add(max(pat, tuple(-x for x in pat)))
    assert len(patterns) == 63  # one per projective nonidentity element


def test_frame_lines_orthogonal_property():
    frame = standard_frame()
    for i in range(8):
        for j in range(i + 1, 8):
            assert GF3_SPACE.polar(frame.vectors[i], frame.vectors[j]) == 0
        assert GF3_SPACE.eval_q(frame.vectors[i]) != 0


def test_t_part_transitive_on_letters():
    from d4fusion.groupmodels import t_part_perms
    from d4fusion.stabchain import orbit
    gens = t_part_perms()
    assert sorted(orbit(gens, 0)) == list(range(8))
    chain = build_stab_chain(GroupHandle("t", gens))
    assert chain.order() == 64


def test_matrix_recovery_identity(omega_handle):
    ident = np.arange(omega_handle.degree, dtype=np.uint16)
    mat = matrix_from_point_perm(ident, omega_handle.geometry)
    assert np.array_equal(mat, np.eye(8, dtype=np.int64))


def test_batched_lookup_agrees_with_single_lookup(chamber_bundle):
    emb = chamber_bundle.embedding
    cols = chamber_bundle.sig_cols
    batch = chamber_bundle.lookup(emb[:, cols], emb)
    single = [chamber_bundle.index_of_perm(row) for row in emb]
    assert batch.tolist() == single == list(range(SYLOW_ORDER))
    foreign = np.roll(emb[137], 1)[None, :]
    assert chamber_bundle.lookup(foreign[:, cols], foreign).tolist() == [-1]


def test_lookup_full_row_check_rejects_signature_twin(chamber_bundle):
    # same signature as element 137, different elsewhere
    emb = chamber_bundle.embedding
    cols = chamber_bundle.sig_cols
    twin = emb[137].copy()
    rest = np.setdiff1d(np.arange(chamber_bundle.degree), cols)
    a, b = rest[:2]
    twin[[a, b]] = twin[[b, a]]
    assert chamber_bundle.lookup(twin[None, cols]).tolist() == [137]
    assert chamber_bundle.lookup(twin[None, cols], twin[None, :]).tolist() == [-1]
    assert chamber_bundle.index_of_perm(twin) is None
