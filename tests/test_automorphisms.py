import numpy as np
import pytest

from d4fusion.automorphisms import (
    SearchOutcome,
    element_colors,
    find_isomorphism,
    joint_colors,
    order3_automorphisms,
    order3_behavior,
)


def test_joint_colors_agree_across_models(contexts):
    c1, c2 = joint_colors(contexts["affine"], contexts["omega8plus2"])
    assert sorted(c1.tolist()) == sorted(c2.tolist())
    assert len(np.unique(c1)) >= 10


def test_colors_are_class_functions(contexts):
    ctx = contexts["affine"]
    colors = element_colors(ctx)
    labels = ctx.S.conjugacy_classes()
    for rep in np.unique(labels)[:40]:
        members = np.flatnonzero(labels == rep)
        assert len(np.unique(colors[members])) == 1


def test_order3_search_finds_verified_map(order3_searches, contexts):
    for name, data in order3_searches.items():
        outcome = data["outcome"]
        assert outcome.found, "no order-3 automorphism found on %s" % name
        auto = outcome.found[0]
        assert auto.map_order() == 3
        behavior = order3_behavior(contexts[name], auto)
        assert behavior["ok"], behavior


def test_order3_behavior_details(order3_searches, contexts):
    data = order3_searches["omega8plus2"]
    behavior = order3_behavior(contexts["omega8plus2"], data["outcome"].found[0])
    assert behavior["trivial_on_Q_mod_phi"]
    assert behavior["fixed_is_i0_only"]
    assert behavior["commutator_image_order"] == 4
    assert behavior["E_permutation_cycles"] == [3, 3]


def test_triality_transport_behavior(chamber_triality, contexts):
    behavior = order3_behavior(contexts["omega8plus2"], chamber_triality)
    assert behavior["ok"]


def test_identity_excluded(order3_searches):
    for data in order3_searches.values():
        for auto in data["outcome"].found:
            assert not np.array_equal(auto.images,
                                      np.arange(len(auto.images), dtype=np.uint16))


def test_isomorphisms_found_and_verified(isomorphisms):
    for pair, data in isomorphisms.items():
        outcome = data["outcome"]
        assert outcome.ok, "no isomorphism found for %s" % (pair,)
        # AutoMapPair verified multiplicativity exhaustively at construction
        iso = outcome.found[0]
        assert len(np.unique(iso.images)) == iso.g1.n


def test_isomorphism_transports_automorphism(isomorphisms, order3_searches, contexts):
    iso = isomorphisms[("omega8plus2", "frame")]["outcome"].found[0]
    auto = order3_searches["omega8plus2"]["outcome"].found[0]
    moved = iso.transport_automap(auto)
    assert moved.map_order() == 3
    behavior = order3_behavior(contexts["frame"], moved)
    assert behavior["ok"]


def test_isomorphism_self_is_trivial_to_find(contexts):
    ctx = contexts["affine"]
    outcome = find_isomorphism(ctx, ctx, budget_secs=600)
    assert outcome.ok


def test_mismatched_sizes_fail_fast(contexts):
    ctx = contexts["affine"]
    quot, _, _ = ctx.S.quotient_group(ctx.Z)

    class FakeCtx:
        S = quot

    out = find_isomorphism(ctx, FakeCtx(), budget_secs=10)
    assert isinstance(out, SearchOutcome) and not out.ok


def test_budget_raises_resource_error_and_checkpoints(contexts, tmp_path):
    from d4fusion.perms import ResourceError
    checkpoint = tmp_path / "order3.checkpoint.json"
    with pytest.raises(ResourceError):
        order3_automorphisms(contexts["affine"], budget_secs=1e-9,
                             checkpoint_path=checkpoint)
    assert checkpoint.exists()
    # a resumed run with a real budget completes
    outcome = order3_automorphisms(contexts["affine"], budget_secs=600, limit=1,
                                   checkpoint_path=checkpoint)
    assert outcome.found


def test_exhaustive_small_limit_consistency(contexts):
    # eight maps, all distinct, all order 3, all passing behavior checks
    outcome = order3_automorphisms(contexts["omega8plus2"], budget_secs=600, limit=8)
    keys = {a.images.tobytes() for a in outcome.found}
    assert len(keys) == len(outcome.found) == 8
    for a in outcome.found:
        assert a.map_order() == 3


def test_automappair_rejects_swapped_generator_images(isomorphisms):
    from d4fusion.automorphisms import AutoMapPair
    from d4fusion.perms import ConfigurationError
    iso = isomorphisms[("affine", "omega8plus2")]["outcome"].found[0]
    a, b = iso.g1.gen_indices[:2]
    images = iso.images.copy()
    images[[a, b]] = images[[b, a]]
    with pytest.raises(ConfigurationError):
        AutoMapPair(iso.g1, iso.g2, images)
