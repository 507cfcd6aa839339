import types

import numpy as np
import pytest

from d4fusion.automorphisms import (
    SearchOutcome,
    _anchor_prefixes,
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


@pytest.mark.parametrize("search", ["order3", "isomorphism"])
def test_budget_raises_resource_error(contexts, search):
    from d4fusion.perms import ResourceError
    ctx = contexts["affine"]
    with pytest.raises(ResourceError) as exc:
        if search == "order3":
            order3_automorphisms(ctx, budget_secs=1e-9)
        else:
            find_isomorphism(ctx, contexts["omega8plus2"], budget_secs=1e-9)
    assert exc.value.stats["nodes"] == 0


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


# -- the colour refinement and the Frattini actions against references -------


def _round_features_reference(S, colors):
    """The unblocked formula, with n x n int64 temporaries and `%`."""
    from d4fusion.automorphisms import _MIX1, _MIX2, _PRIME
    cy = colors[None, :]
    mix = (cy * _MIX1 + colors[S.T] * _MIX2) % _PRIME
    mix = (mix * mix + cy) % _PRIME
    feat = mix.sum(axis=1) % _PRIME
    return (feat + colors[S.T[np.arange(S.n), np.arange(S.n)]]) % _PRIME


def _s5():
    from d4fusion.cayley import CayleyGroup
    from d4fusion.perms import Permutation
    gens = [Permutation.from_cycles(5, (0, 1, 2, 3, 4)).images,
            Permutation.from_cycles(5, (0, 1)).images]
    return CayleyGroup.from_generators(gens)


def test_blocked_round_features_match_unblocked(contexts):
    from d4fusion.automorphisms import _BLOCK, _round_features
    small = _s5()
    assert small.n % _BLOCK != 0
    rng = np.random.default_rng(7)
    for S in (contexts["omega8plus2"].S, small):
        for colors in (S.order_of.astype(np.int64),
                       rng.integers(0, 1 << 13, S.n, dtype=np.int64)):
            assert np.array_equal(_round_features(S, colors),
                                  _round_features_reference(S, colors))


def test_mod_prime_matches_remainder_at_the_edges():
    from d4fusion.automorphisms import _PRIME, _mod_prime
    p = int(_PRIME)
    info = np.iinfo(np.int64)
    edges = [0, 1, -1, -8, -9, p - 1, p, p + 7, 2 * p, -p, info.min, info.max,
             info.min + 1, info.max - 1]
    rng = np.random.default_rng(3)
    values = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(info.min, info.max, 4096, dtype=np.int64,
                                          endpoint=True)])
    want = np.remainder(values, _PRIME)
    got = _mod_prime(values.copy(), np.empty_like(values))
    assert np.array_equal(got, want)


def _joint_colors_reference(ctx1, ctx2):
    """Both groups refined together, so that one ranking assigns the ids."""
    from d4fusion.automorphisms import _attribute_matrix, _round_features
    both = np.concatenate([_attribute_matrix(ctx1), _attribute_matrix(ctx2)])
    _, colors = np.unique(both, axis=0, return_inverse=True)
    colors = colors.astype(np.int64)
    n1 = ctx1.S.n
    c1, c2 = colors[:n1], colors[n1:]
    for _ in range(6):
        f1, f2 = _round_features(ctx1.S, c1), _round_features(ctx2.S, c2)
        stacked = np.concatenate([np.stack([c1, f1], axis=1),
                                  np.stack([c2, f2], axis=1)])
        _, new = np.unique(stacked, axis=0, return_inverse=True)
        new = new.astype(np.int64)
        if np.array_equal(new[:n1], c1) and np.array_equal(new[n1:], c2):
            break
        c1, c2 = new[:n1], new[n1:]
    return c1, c2


def _relabelled_context(ctx, seed):
    """A context on S with its elements renumbered by a seeded permutation
    fixing the identity, and the new index of each old element."""
    from d4fusion.cayley import CayleyGroup
    from d4fusion.structure import StructureContext
    S = ctx.S
    rng = np.random.default_rng(seed)
    new_of_old = np.concatenate([[0], 1 + rng.permutation(S.n - 1)])
    old_of_new = np.argsort(new_of_old)
    table = new_of_old.astype(np.uint16)[S.T[np.ix_(old_of_new, old_of_new)]]
    group = CayleyGroup(table, gen_indices=[int(new_of_old[g]) for g in S.gen_indices])
    return StructureContext(types.SimpleNamespace(sylow=group, extras={})), new_of_old


@pytest.mark.parametrize("pair", [("affine", "omega8plus2"), ("omega8plus2", "frame")])
def test_per_context_colors_match_joint_refinement(contexts, pair):
    ctx1, ctx2 = contexts[pair[0]], contexts[pair[1]]
    c1, c2 = _joint_colors_reference(ctx1, ctx2)
    assert np.array_equal(element_colors(ctx1), c1)
    assert np.array_equal(element_colors(ctx2), c2)
    assert all(np.array_equal(a, b) for a, b in zip(joint_colors(ctx1, ctx2), (c1, c2)))


def test_per_context_colors_match_joint_refinement_on_a_relabelled_s(contexts):
    ctx = contexts["affine"]
    moved, new_of_old = _relabelled_context(ctx, seed=11)
    c1, c2 = _joint_colors_reference(ctx, moved)
    assert np.array_equal(element_colors(ctx), c1)
    assert np.array_equal(element_colors(moved), c2)
    # the colours are invariants: each element keeps its colour when renamed
    assert np.array_equal(c2[new_of_old], c1)


def test_self_joint_colors_match_the_two_context_path(contexts):
    from d4fusion.structure import StructureContext
    ctx = contexts["omega8plus2"]
    c1, c2 = joint_colors(ctx, ctx)
    assert np.array_equal(c1, c2)
    assert np.array_equal(c1, element_colors(ctx))
    # a fresh context on the same bundle refines on its own, with its own memo
    fresh = StructureContext(ctx.bundle)
    d1, d2 = joint_colors(ctx, fresh)
    assert np.array_equal(d1, c1) and np.array_equal(d2, c2)
    assert "colors" in fresh.memo and fresh.memo["colors"] is not ctx.memo["colors"]


def test_colors_are_refined_once_per_context(contexts, monkeypatch):
    from d4fusion import automorphisms
    ctx = contexts["affine"]
    first = element_colors(ctx)

    def fail(*args):
        raise AssertionError("refined a second time")

    monkeypatch.setattr(automorphisms, "_round_features", fail)
    monkeypatch.setattr(automorphisms, "_attribute_matrix", fail)
    assert element_colors(ctx) is first
    assert joint_colors(ctx, ctx)[0] is first


def test_round_features_memory_stays_small(contexts):
    import tracemalloc
    from d4fusion.automorphisms import _round_features
    S = contexts["affine"].S
    colors = element_colors(contexts["affine"])
    tracemalloc.start()
    try:
        _round_features(S, colors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.n == 4096 and peak < 64 * 2**20
    assert not hasattr(S, "comm")


# node count and SHA-1 of the first map of each search, on the builders' labelling
ORDER3_PINS = {
    "omega8plus2": (14, "14d5ce29476715da6dfb14a30c7ba885a052c00a"),
    "frame": (35, "4b4bf887727ca561beb89e5a43f52df4a9671948"),
}
ISOMORPHISM_PINS = {
    ("affine", "omega8plus2"): (4, "7c1977b7eebe789a7b430f09940170f5bb57d6da"),
    ("omega8plus2", "frame"): (4, "7d4e5e5a4abd0f3acf0291bd24ca0ca9f660623b"),
}


COLOR_PINS = {
    "affine": "53249c304dc0e07fe55b444304c693a03cb76fac",
    "omega8plus2": "3e1332acc6d35ef221b574ec1286a62206ffb43c",
    "frame": "b678c45ff1fd8279e7e201678dceeb924ad4bcb5",
}


def test_search_results_are_pinned(order3_searches, isomorphisms, contexts):
    import hashlib
    # the colour ids order the anchors, so they are pinned with the maps
    assert {name: hashlib.sha1(element_colors(contexts[name]).tobytes()).hexdigest()
            for name in COLOR_PINS} == COLOR_PINS
    got = {name: (data["outcome"].nodes,
                  hashlib.sha1(data["outcome"].found[0].images.tobytes()).hexdigest())
           for name, data in order3_searches.items()}
    assert got == ORDER3_PINS
    got = {pair: (data["outcome"].nodes,
                  hashlib.sha1(data["outcome"].found[0].images.tobytes()).hexdigest())
           for pair, data in isomorphisms.items()}
    assert got == ISOMORPHISM_PINS


def _frattini_reference(ctx, coords):
    """The per-tuple loop over itertools.product."""
    import itertools
    S = ctx.S
    (vq,) = sorted({int(coords[x]) for x in ctx.Q.members} - {0})
    f1 = S.centralizer(ctx.Z2.members)
    f1_coords = frozenset(int(c) for c in np.unique(coords[f1.members]))
    i0_coords = frozenset(int(c) for c in np.unique(coords[ctx.coset_rep == ctx.i0_coset]))
    e_patterns = frozenset(frozenset(int(c) for c in np.unique(coords[e.members]))
                           for e in ctx.six_E)
    out = []
    for cols in itertools.product(range(16), repeat=4):
        imgs = [0] * 16
        for v in range(16):
            for bit in range(4):
                if (v >> bit) & 1:
                    imgs[v] ^= cols[bit]
        if len(set(imgs)) != 16 or imgs == list(range(16)):
            continue
        if [imgs[imgs[imgs[v]]] for v in range(16)] != list(range(16)):
            continue
        if imgs[vq] != vq:
            continue
        if (frozenset(imgs[c] for c in f1_coords) != f1_coords
                or frozenset(imgs[c] for c in i0_coords) != i0_coords):
            continue
        if frozenset(frozenset(imgs[c] for c in p) for p in e_patterns) != e_patterns:
            continue
        out.append(imgs)
    return out


@pytest.mark.parametrize("name", ["omega8plus2", "affine"])
def test_frattini_actions_match_product_loop(contexts, name):
    from d4fusion.automorphisms import _frattini_action_candidates
    ctx = contexts[name]
    coords, _ = ctx.S.elementary_quotient_coords(ctx.phi)
    got = _frattini_action_candidates(ctx, coords)
    assert got and all(t.dtype == np.int64 for t in got)
    assert [t.tolist() for t in got] == _frattini_reference(ctx, coords)


def test_anchor_prefixes_match_the_one_at_a_time_bfs(contexts):
    # the reference: a Python BFS that appends each new element in (x, j) order
    S = contexts["omega8plus2"].S
    anchors = S.generating_set()
    for i, prefix in enumerate(_anchor_prefixes(S, anchors), start=1):
        elements, local, parent, genpos, frontier = [0], {0: 0}, [0], [0], [0]
        while frontier:
            nxt = []
            for x in frontier:
                for j, a in enumerate(anchors[:i]):
                    z = int(S.T[elements[x], a])
                    if z not in local:
                        local[z] = len(elements)
                        elements.append(z)
                        parent.append(x)
                        genpos.append(j)
                        nxt.append(local[z])
            frontier = nxt
        products = [[local[int(S.T[e, a])] for a in anchors[:i]] for e in elements]
        assert prefix.elements.tolist() == elements
        assert prefix.layer_parent.tolist() == parent
        assert prefix.layer_gen.tolist() == genpos
        assert prefix.products.tolist() == products
