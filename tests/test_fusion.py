import copy
import hashlib

import numpy as np
import pytest

from d4fusion import fusion
from d4fusion.cayley import inner_automap
from d4fusion.fusion import (
    EssentialSlot,
    ambient_involution_fusion,
    aut_group_on_elab,
    check_O2,
    conjugation_automap,
    delete_slot,
    FusionSystem,
    essential_candidates,
    fingerprint_fusion,
    fuse_elements,
    fusion_report,
    inner_only_system,
    minimal_overgroups_in_alternating,
    pair_of_elab,
)
from d4fusion.groupmodels import frame_line_action
from d4fusion.perms import ConfigurationError, inverse, perm_order
from d4fusion.stabchain import GroupHandle, build_stab_chain


def test_candidates_structure(contexts):
    for ctx in contexts.values():
        cands = essential_candidates(ctx)
        assert len(cands) == 5
        assert all(c.order == 2048 for c in cands)
        f1 = cands[0]
        assert not (ctx.Q <= f1)
        for k in range(1, 5):
            assert ctx.Q <= cands[k]
            assert sum(1 for e in ctx.six_E if e <= cands[k]) == 3
        # every E lies in F1 and in exactly two of the others
        for e in ctx.six_E:
            assert e <= f1
            assert len(pair_of_elab(ctx, cands, e)) == 2


def test_pairs_biject_with_elabs(contexts):
    ctx = contexts["frame"]
    cands = essential_candidates(ctx)
    pairs = {pair_of_elab(ctx, cands, e) for e in ctx.six_E}
    assert len(pairs) == 6  # all six unordered pairs of the four overgroups


def test_essential_counts(fusion_systems):
    assert len(fusion_systems["O8p2"].essentials) == 4
    assert len(fusion_systems["O8p2x3"].essentials) == 4
    assert len(fusion_systems["PO8p3"].essentials) == 5
    assert len(fusion_systems["PO8p3x3"].essentials) == 5


def test_slot_outer_orders(fusion_systems):
    for fs in fusion_systems.values():
        for slot in fs.essentials:
            assert slot.outer_order == 6
            assert slot.automizer_gens[0].map_order() == 3


def with_restricted_inner_maps(fs):
    """The same system with each slot's restricted copy of Inn(S) added back."""
    S = fs.s
    slots = [EssentialSlot(subgroup=slot.subgroup,
                           automizer_gens=[inner_automap(S, g, slot.subgroup)
                                           for g in S.generating_set()]
                           + slot.automizer_gens,
                           model_tag=slot.model_tag, outer_order=slot.outer_order)
             for slot in fs.essentials]
    return FusionSystem(ctx=fs.ctx, essentials=slots, aut_s_gens=fs.aut_s_gens,
                        variant=fs.variant, notes=dict(fs.notes))


def test_each_slot_is_one_order3_map_and_restricted_inner_maps_add_nothing(
        fusion_systems, fusion_partitions, fusion_radicals):
    for variant, fs in fusion_systems.items():
        for slot in fs.essentials:
            (order3_map,) = slot.automizer_gens
            assert order3_map.map_order() == 3
        reference = with_restricted_inner_maps(fs)
        assert np.array_equal(fuse_elements(reference).class_id,
                              fusion_partitions[variant].class_id), variant
        assert check_O2(reference) == fusion_radicals[variant], variant
        for e in fs.ctx.six_E:
            assert (aut_group_on_elab(reference, e)["order"]
                    == aut_group_on_elab(fs, e)["order"]), variant


def test_non_essential_candidate_matches_order3_fixed(fusion_systems):
    notes = fusion_systems["O8p2x3"].notes
    assert notes["order3_fixed_candidate"] == notes["non_essential_candidate"]


def test_incompatible_order3_rejected(fusion_systems, chamber_bundle, contexts,
                                      order3_searches):
    from d4fusion.fusion import build_fusion_system, compatible_order3_map
    ctx = contexts["omega8plus2"]
    cands = essential_candidates(ctx)
    wrong = order3_searches["omega8plus2"]["outcome"].found[0]
    # premise: the first searched map fixes a Q-overgroup candidate other
    # than the non-essential one
    assert fusion_systems["O8p2"].notes["non_essential_candidate"] == 4
    assert compatible_order3_map(ctx, cands, wrong) == 1
    with pytest.raises(ConfigurationError):
        build_fusion_system("O8p2x3", chamber_bundle, ctx, order3=wrong)


def test_order3_sources_are_recorded(fusion_systems):
    notes = {v: fs.notes for v, fs in fusion_systems.items()}
    assert "order3_source" not in notes["O8p2"] and "order3_source" not in notes["PO8p3"]
    assert notes["O8p2x3"]["order3_source"] == "root-triality"
    assert notes["PO8p3x3"]["order3_source"] == "search"
    assert notes["PO8p3x3"]["order3_search_nodes"] > 0


def test_o8p2x3_involution_classes(fusion_systems, fusion_partitions):
    # the root triality fuses the three classes of size 68 and keeps 103 and 188
    fs = fusion_systems["O8p2x3"]
    table = fusion_partitions["O8p2x3"].class_table(fs.s.order_of)
    sizes = [size for order, size, count in table if order == 2 for _ in range(count)]
    assert sorted(sizes) == [103, 188, 204]


def test_inner_conjugation_is_inner_automap(chamber_bundle, contexts):
    # conjugating by an element of the subgroup itself gives the inner map
    ctx = contexts["omega8plus2"]
    cands = essential_candidates(ctx)
    f = cands[1]
    member = int(f.members[5])
    via_ambient = conjugation_automap(chamber_bundle, f,
                                      chamber_bundle.embedding[member])
    direct = inner_automap(ctx.S, member, domain=f)
    assert np.array_equal(via_ambient.images[f.members], direct.images[f.members])


@pytest.mark.parametrize("variant", ["O8p2", "PO8p3"])
def test_slot_inner_maps_equal_ambient_conjugation(fusion_systems, bundles, variant):
    # the inner maps come from S's table; restricted to each slot radical,
    # the ambient conjugation through the verified embedding must agree
    bundle = bundles["omega8plus2" if variant == "O8p2" else "frame"]
    S = bundle.sylow
    fs = fusion_systems[variant]
    assert len(fs.aut_s_gens) == len(S.generating_set())
    for slot in fs.essentials:
        members = slot.subgroup.members
        for gi, table_map in zip(S.generating_set(), fs.aut_s_gens):
            ambient = conjugation_automap(bundle, slot.subgroup, bundle.embedding[gi])
            assert np.array_equal(table_map.images[members], ambient.images[members])


# SHA-1 of the c_g3 image array of each flag slot, omitting b_0 .. b_3
FLAG_ORDER3_MAP_SHA = ["dd57b6681aa121d040d15758e39a9100e0c9a0eb",
                       "582add4e0a263cc42193574b96d4695180798601",
                       "86d40a7618da31987b6bd4b59e84c4630d9f2212",
                       "3008f97f8b5bd98a5f9ff9a0023ae338f4e1f621"]


def test_order3_slot_maps_are_deterministic(fusion_systems, chamber_bundle):
    # a second build from a fresh context picks the same order-3 elements
    from d4fusion.fusion import build_fusion_system
    from d4fusion.structure import StructureContext
    fresh = build_fusion_system("O8p2", chamber_bundle, StructureContext(chamber_bundle))
    first = fusion_systems["O8p2"].essentials
    assert len(fresh.essentials) == len(first) == 4
    for a, b in zip(first, fresh.essentials):
        assert np.array_equal(a.automizer_gens[0].images, b.automizer_gens[0].images)
    flag = sorted((s.model_tag, hashlib.sha1(s.automizer_gens[0].images.tobytes()).hexdigest())
                  for s in first)
    assert flag == [("omega8plus2-parabolic-omit%d" % k, pin)
                    for k, pin in enumerate(FLAG_ORDER3_MAP_SHA)]


def test_flag_stabilizer_orders_equal_full_builds(omega_handle):
    # the oracle: a chain of O8+(2) built from scratch with the flag minus
    # b_k in front, read below those three points
    flag = omega_handle.flag_base
    for k in range(3):
        points = [b for j, b in enumerate(flag) if j != k]
        full = build_stab_chain(GroupHandle("full", list(omega_handle.generators)),
                                base_hint=points)
        below = 1
        for lv in full.levels[3:]:
            below *= len(lv.orbit)
        assert below == fusion._flag_stabilizer_order(omega_handle, flag, k) == 3 * 4096


@pytest.mark.parametrize("position, message", [
    (0, "not a base prefix"), (1, "has order 512"), (2, "moves a flag point"),
    (3, "moves a flag point")])
def test_a_wrong_flag_point_is_refused_naming_the_slot(chamber_bundle, monkeypatch,
                                                       position, message):
    # another point of the same basic orbit takes the place of b_position
    seeded = list(chamber_bundle.extras["flag_base"])
    seeded[position] = chamber_bundle.ambient.chain.levels[position].orbit[1]
    monkeypatch.setitem(chamber_bundle.extras, "flag_base", seeded)
    with pytest.raises(ConfigurationError, match="omega8plus2-parabolic-omit0: .*" + message):
        fusion.chamber_parabolic_slots(chamber_bundle)


def _full_degree_radical(bundle, g3):
    """S meet S^g3 meet S^(g3^-1) from full-degree conjugates: the reference."""
    mask = np.ones(bundle.sylow.n, dtype=bool)
    for conj in (g3, inverse(g3)):
        members = np.flatnonzero(mask)
        mask[members[bundle.conjugate_indices(conj, members, verify=True) < 0]] = False
    return mask


def test_signature_radicals_equal_the_full_degree_intersection(chamber_bundle, frame_bundle,
                                                               contexts, monkeypatch):
    calls = []
    real = fusion.automizer_from_model

    def recording(bundle, g3, tag):
        slot = real(bundle, g3, tag)
        calls.append((bundle, g3, slot))
        return slot

    monkeypatch.setattr(fusion, "automizer_from_model", recording)
    fusion.chamber_parabolic_slots(chamber_bundle)
    ctx = contexts["frame"]
    fusion._frame_slots(frame_bundle, ctx,
                        ctx.once("candidates", lambda: essential_candidates(ctx)))
    assert [slot.model_tag for _, _, slot in calls] == (
        ["omega8plus2-parabolic-omit%d" % k for k in range(4)]
        + ["frame-%s-parabolic-%d" % (f, k) for f in ("standard", "disjoint")
           for k in range(3)])
    for bundle, g3, slot in calls:
        assert np.array_equal(_full_degree_radical(bundle, g3), slot.subgroup.bits)


def test_a_swapped_signature_hit_is_refused_naming_the_slot(chamber_bundle, fusion_systems,
                                                           monkeypatch):
    slot = next(s for s in fusion_systems["O8p2"].essentials
                if s.model_tag == "omega8plus2-parabolic-omit0")
    radical = slot.subgroup.bits
    # one radical member misses its signature, one non-member hits the identity's,
    # so the mask keeps order 2048 and only the order-3 map's check can refuse it
    dropped, stray = int(np.flatnonzero(radical)[-1]), int(np.flatnonzero(~radical)[0])
    real = chamber_bundle.conjugate_indices

    def swapped(g, members, verify=True):
        out = real(g, members, verify)
        if not verify:
            members = np.asarray(members)
            out[members == dropped] = -1
            out[members == stray] = 0
        return out

    monkeypatch.setattr(chamber_bundle, "conjugate_indices", swapped)
    with pytest.raises(ConfigurationError,
                       match="omega8plus2-parabolic-omit0: conjugation by the order-3"):
        fusion.chamber_parabolic_slots(chamber_bundle)


def test_radicals_trivial_for_all_variants(fusion_radicals):
    for variant, o2 in fusion_radicals.items():
        assert o2.order == 1, "O2 nontrivial for %s" % variant


def test_deleting_f1_recovers_q(fusion_systems, contexts):
    for variant, model in (("O8p2", "omega8plus2"), ("PO8p3", "frame")):
        ctx = contexts[model]
        cands = essential_candidates(ctx)
        smaller = delete_slot(fusion_systems[variant], cands[0])
        o2 = check_O2(smaller)
        assert o2 == ctx.Q


def reference_radical(fs):
    """Bottom-up reference for check_O2: x lies in the radical iff the least
    map-invariant subgroup containing x stays inside every essential.

    The radical R lies in every map domain and a(R) = R, so each fusion
    class lies inside R or misses it: one member of each class that meets
    the essentials' intersection decides the whole class.
    """
    S = fs.s
    r0 = np.ones(S.n, dtype=bool)
    for slot in fs.essentials:
        r0 &= slot.subgroup.bits
    maps = fs.all_generator_maps()
    label = fuse_elements(fs).class_id
    out = np.zeros(S.n, dtype=bool)
    for c in np.unique(label[r0]):
        x = int(np.flatnonzero(r0 & (label == c))[0])
        bits = S.closure([x]).bits
        while not (bits & ~r0).any():
            grown = bits.copy()
            for a in maps:
                grown[a.images[np.flatnonzero(bits)]] = True
            if np.array_equal(grown, bits):
                out |= label == c
                break
            bits = S.closure(np.flatnonzero(grown)).bits
    return out


def test_check_O2_matches_bottom_up_reference(fusion_systems):
    for variant in ("O8p2", "PO8p3"):
        fs = fusion_systems[variant]
        systems = [fs, inner_only_system(fs)]
        systems += [delete_slot(fs, slot.subgroup) for slot in fs.essentials]
        for system in systems:
            assert np.array_equal(check_O2(system).bits, reference_radical(system))


def test_deleting_one_overgroup_slot(fusion_systems, contexts):
    # O8p2: the radical is the E lying in the two remaining Q-overgroup slots
    fs = fusion_systems["O8p2"]
    ctx = contexts["omega8plus2"]
    cands = essential_candidates(ctx)
    essential = [k for k in range(1, 5) if k != fs.notes["non_essential_candidate"]]
    assert len(essential) == 3
    for k in essential:
        smaller = delete_slot(fs, cands[k])
        o2 = check_O2(smaller)
        assert o2.order == 64
        rest = tuple(j for j in essential if j != k)
        (e,) = [e for e in ctx.six_E if pair_of_elab(ctx, cands, e) == rest]
        assert o2 == e
    # PO8p3: any three of the four overgroup slots still force a trivial radical
    fs = fusion_systems["PO8p3"]
    cands = essential_candidates(contexts["frame"])
    for k in range(1, 5):
        assert check_O2(delete_slot(fs, cands[k])).order == 1


def test_deleting_q_slot_changes_fingerprint(fusion_systems, fusion_fingerprints):
    fs = fusion_systems["PO8p3"]
    slot = fs.essentials[1]
    smaller = delete_slot(fs, slot.subgroup)
    fp_small = fingerprint_fusion(smaller)
    assert fp_small != fusion_fingerprints["PO8p3"]
    assert fp_small[0] == 4


def test_inner_only_radical_is_s(fusion_systems):
    fs = inner_only_system(fusion_systems["O8p2"])
    assert check_O2(fs).order == 4096


def test_partition_identity_singleton(fusion_partitions):
    for part in fusion_partitions.values():
        assert int(part.class_id[0]) == 0
        assert int((part.class_id == 0).sum()) == 1


def test_partition_sizes_sum(fusion_partitions):
    for part in fusion_partitions.values():
        _, counts = np.unique(part.class_id, return_counts=True)
        assert int(counts.sum()) == 4096


def test_order_constant_on_classes(fusion_systems, fusion_partitions):
    for variant, part in fusion_partitions.items():
        order_of = fusion_systems[variant].s.order_of
        assert (order_of == order_of[part.class_id]).all()


def test_involution_counts_differ_between_O8p2_and_PO8p3(fusion_systems,
                                                         fusion_partitions):
    def involution_class_count(variant):
        fs = fusion_systems[variant]
        part = fusion_partitions[variant]
        inv = np.flatnonzero(fs.s.order_of == 2)
        return len(np.unique(part.class_id[inv]))

    assert involution_class_count("O8p2") != involution_class_count("PO8p3")


def test_x3_partition_coarser(fusion_systems, fusion_partitions):
    base = fusion_partitions["O8p2"].class_table(fusion_systems["O8p2"].s.order_of)
    x3 = fusion_partitions["O8p2x3"].class_table(fusion_systems["O8p2x3"].s.order_of)
    assert base != x3
    assert len(np.unique(fusion_partitions["O8p2x3"].class_id)) < \
        len(np.unique(fusion_partitions["O8p2"].class_id))


def test_ambient_oracle_matches_O8p2(ambient_oracle_O8p2):
    result = ambient_oracle_O8p2
    assert result["agree"]
    assert result["involutions"] == 495
    assert result["fusion_classes"] == result["ambient_classes"]


def test_aut_orders_all_20160_in_PO8p3(fusion_systems, contexts):
    fs = fusion_systems["PO8p3"]
    for e in contexts["frame"].six_E:
        info = aut_group_on_elab(fs, e)
        assert info["order"] == 20160
        assert info["form"]["space_dim"] == 1
        assert info["form"]["plus_type"]
        assert info["form"]["nondegenerate"]


def test_elab_orbits_split_by_isotropy(fusion_systems, contexts):
    # under the maps applicable to one E, the 63 nonidentity elements split
    # into exactly two classes (the singular and nonsingular vectors)
    fs = fusion_systems["PO8p3"]
    ctx = contexts["frame"]
    e = ctx.six_E[0]
    members = e.members
    parent = {int(m): int(m) for m in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in fs.all_generator_maps():
        if a.domain is not None and not a.domain.bits[members].all():
            continue
        if not e.bits[a.images[members]].all():
            continue
        for m in members:
            rx, ry = find(int(m)), find(int(a.images[int(m)]))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    classes = {}
    for m in members:
        if int(m) == 0:
            continue
        classes.setdefault(find(int(m)), []).append(int(m))
    sizes = sorted(len(v) for v in classes.values())
    assert sizes == [28, 35]


def test_inner_only_aut_on_elab(fusion_systems, contexts):
    fs = inner_only_system(fusion_systems["O8p2"])
    e = contexts["omega8plus2"].six_E[0]
    info = aut_group_on_elab(fs, e)
    assert info["order"] == 64  # |S / C_S(E)| with C_S(E) = E


def test_fingerprints_pairwise_distinct(fusion_fingerprints):
    names = list(fusion_fingerprints)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert fusion_fingerprints[a] != fusion_fingerprints[b], (a, b)
    counts = sorted(fp[0] for fp in fusion_fingerprints.values())
    assert counts == [4, 4, 5, 5]


def test_fusion_report_schema(fusion_systems, fusion_partitions, fusion_radicals):
    rep = fusion_report(fusion_systems["PO8p3"],
                        partition=fusion_partitions["PO8p3"],
                        o2=fusion_radicals["PO8p3"])
    assert rep["variant"] == "PO8p3"
    assert rep["essential_count"] == 5
    assert rep["o2_order"] == 1
    assert rep["status"] == "pass"
    assert len(rep["autFE_orders"]) == 6
    for row in rep["class_table"]:
        assert set(row) == {"order", "size", "count"}


def test_automap_rejects_mutated_image_on_candidate(contexts):
    from d4fusion.cayley import AutoMap, ClosureError
    ctx = contexts["omega8plus2"]
    S = ctx.S
    f = essential_candidates(ctx)[1]
    gens = S.generating_set(f)
    inner = inner_automap(S, S.gen_indices[0], domain=f)
    x, y = [int(m) for m in f.members[1:] if int(m) not in gens][-2:]
    changed = inner.images.copy()
    changed[x] = changed[y]
    with pytest.raises(ClosureError):
        AutoMap(S, changed, f)
    swapped = inner.images.copy()
    swapped[[x, y]] = swapped[[y, x]]
    with pytest.raises(ClosureError):
        AutoMap(S, swapped, f)


def test_conjugation_outside_sylow_rejected(chamber_bundle, contexts):
    from d4fusion.perms import ConfigurationError
    ctx = contexts["omega8plus2"]
    f = essential_candidates(ctx)[1]
    g = chamber_bundle.ambient.chain.random_element(np.random.default_rng(1))
    outside = chamber_bundle.conjugate_indices(g, f.members)
    assert (outside < 0).any()
    with pytest.raises(ConfigurationError):
        conjugation_automap(chamber_bundle, f, g)


def test_slot_moving_the_centre_is_rejected_at_construction(fusion_systems):
    from d4fusion.perms import ConfigurationError
    slot = fusion_systems["O8p2"].essentials[0]
    P = slot.subgroup
    S = P.group
    z = S.center_of(P)
    gen = slot.automizer_gens[0]
    EssentialSlot(subgroup=P, automizer_gens=[gen], model_tag="copy")
    # swap the images of a central involution and of a non-central one: the
    # map still keeps element orders, but it moves Z(P)
    zx = int(z.members[1])
    y = next(int(x) for x in P.members
             if not z.bits[x] and S.order_of[x] == S.order_of[zx])
    bad = copy.copy(gen)
    bad.images = gen.images.copy()
    bad.images[[zx, y]] = bad.images[[y, zx]]
    with pytest.raises(ConfigurationError, match="moves the center"):
        EssentialSlot(subgroup=P, automizer_gens=[gen, bad], model_tag="bad")


def test_aut_on_elab_rejects_nonlinear_map(fusion_systems, contexts):
    fs = fusion_systems["O8p2"]
    e = contexts["omega8plus2"].six_E[0]
    members = e.members
    source = next(a for a in fs.all_generator_maps()
                  if (a.domain is None or a.domain.bits[members].all())
                  and e.bits[a.images[members]].all())
    # swapping the images of two nonidentity members of e keeps a bijection
    # of e but breaks linearity
    images = source.images.copy()
    x, y = int(members[1]), int(members[2])
    images[[x, y]] = images[[y, x]]
    mutated = copy.copy(source)
    mutated.images = images
    broken = FusionSystem(ctx=fs.ctx, essentials=[], aut_s_gens=[mutated],
                          variant="mutated")
    assert aut_group_on_elab(FusionSystem(ctx=fs.ctx, essentials=[],
                                          aut_s_gens=[source], variant="source"),
                             e)["generator_count"] == 1
    with pytest.raises(ConfigurationError, match="not linear"):
        aut_group_on_elab(broken, e)


def test_minimal_overgroups_are_three_distinct_order_192_groups(frame_bundle):
    frame = frame_bundle.extras["frame"]
    t_gens = [frame_line_action(frame, frame_bundle.matrices[int(gi)])
              for gi in frame_bundle.sylow.gen_indices]
    letters = minimal_overgroups_in_alternating(t_gens)
    assert len(letters) == 3
    element_sets = []
    for rho in letters:
        assert perm_order(rho) == 3
        chain = build_stab_chain(GroupHandle("overgroup", t_gens + [rho]))
        elements = sorted(e.tobytes() for e in chain.elements())
        assert len(elements) == len(set(elements)) == 192
        element_sets.append(elements)
    assert len({tuple(s) for s in element_sets}) == 3


def test_minimal_overgroup_letters_are_pinned_and_need_one_chain(frame_bundle,
                                                                monkeypatch):
    frame = frame_bundle.extras["frame"]
    t_gens = [frame_line_action(frame, frame_bundle.matrices[int(gi)])
              for gi in frame_bundle.sylow.gen_indices]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return build_stab_chain(*args, **kwargs)

    monkeypatch.setattr(fusion, "build_stab_chain", counting)
    letters = minimal_overgroups_in_alternating(t_gens)
    assert [rho.tolist() for rho in letters] == [[3, 2, 4, 5, 1, 0, 6, 7],
                                                 [1, 2, 0, 3, 6, 4, 5, 7],
                                                 [2, 0, 1, 3, 6, 4, 5, 7]]
    assert calls == ["a8"]


def test_ambient_oracle_partition(chamber_bundle):
    labels = ambient_involution_fusion(chamber_bundle)
    S = chamber_bundle.sylow
    assert ((labels >= 0) == (S.order_of == 2)).all()
    # class sizes in label order: each class is labelled at its least involution
    assert np.unique(labels[labels >= 0], return_counts=True)[1].tolist() == \
        [68, 103, 188, 68, 68]


@pytest.mark.parametrize("variant", ["O8p2", "PO8p3x3"])
def test_fuse_elements_matches_union_find(fusion_systems, fusion_partitions, variant):
    fs = fusion_systems[variant]
    n = fs.s.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in fs.all_generator_maps():
        dom = a.domain.members if a.domain is not None else range(n)
        for x in dom:
            rx, ry = find(int(x)), find(int(a.images[int(x)]))
            parent[max(rx, ry)] = min(rx, ry)
    least = {}
    for x in range(n):
        least.setdefault(find(x), x)
    expected = [least[find(x)] for x in range(n)]
    assert fusion_partitions[variant].class_id.tolist() == expected


def test_o8p2_path_builds_no_commutator_table(omega_handle):
    # a fresh bundle, so that nothing another test ran is counted
    from d4fusion.fusion import build_fusion_system
    from d4fusion.groupmodels import sylow_via_chamber
    from d4fusion.structure import StructureContext
    flag = sylow_via_chamber(omega_handle)
    fs = build_fusion_system("O8p2", flag, StructureContext(flag))
    table = fuse_elements(fs).class_table(flag.sylow.order_of)
    assert not hasattr(flag.sylow, "comm")
    assert table == ((1, 1, 1), (2, 68, 3), (2, 103, 1), (2, 188, 1), (4, 40, 1),
                     (4, 448, 3), (4, 576, 1), (4, 1384, 1), (8, 128, 2))


def test_frame_slots_build_no_frame_group_chain(frame_bundle, contexts, fusion_systems,
                                                monkeypatch):
    from d4fusion import groupmodels, stabchain
    ctx = contexts["frame"]
    candidates = ctx.once("candidates", lambda: essential_candidates(ctx))
    degrees = []

    def counting(handle, *args, **kwargs):
        degrees.append(handle.degree)
        return build_stab_chain(handle, *args, **kwargs)

    for module in (fusion, groupmodels, stabchain):
        monkeypatch.setattr(module, "build_stab_chain", counting)
    slots, notes = fusion._frame_slots(frame_bundle, ctx, candidates)
    # one chain of A8 per frame, and one automizer chain per radical
    assert degrees == [8, 2048, 2048, 2048] * 2
    expected = fusion_systems["PO8p3"]
    assert notes == {"second_frame_pair": expected.notes["second_frame_pair"]}
    assert [s.model_tag for s in slots] == [s.model_tag for s in expected.essentials]
    for slot, ref in zip(slots, expected.essentials):
        assert np.array_equal(slot.subgroup.bits, ref.subgroup.bits)


def test_second_frame_group_names_the_subgroup_without_a_frame(frame_bundle, contexts,
                                                               monkeypatch):
    from d4fusion.groupmodels import Frame
    from d4fusion.quadforms import PreconditionError
    ctx = contexts["frame"]
    candidates = ctx.once("candidates", lambda: essential_candidates(ctx))
    frame, pair = fusion.second_frame_group(frame_bundle, ctx, candidates)
    d_sub = next(e for e in ctx.six_E
                 if np.array_equal(e.bits, frame_bundle.extras["O2"].bits))
    assert isinstance(frame, Frame)
    assert not set(pair) & set(pair_of_elab(ctx, candidates, d_sub))

    def no_frame(lifts):
        raise PreconditionError("lifts have 4 common eigenlines, not 8")

    monkeypatch.setattr(fusion, "frame_from_involutions", no_frame)
    with pytest.raises(ConfigurationError,
                       match=r"subgroup \d \(overgroup pair \(%d, %d\)\) admits no frame"
                       % pair):
        fusion.second_frame_group(frame_bundle, ctx, candidates)
