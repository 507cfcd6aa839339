import functools
import hashlib
import itertools

import numpy as np
import pytest

from d4fusion.cayley import closure_levels
from d4fusion.perms import (ConfigurationError, compose, identity_images, inverse, is_identity,
                            perm_from_cycles)
from d4fusion.stabchain import (
    GroupHandle,
    build_stab_chain,
    orbit,
    stabilizer_of_prefix,
    verify_chain,
)


def brute_closure(gens):
    """Oracle: full element enumeration by repeated set products."""
    elems = {tuple(np.arange(gens[0].shape[0]))}
    frontier = list(elems)
    gens = [np.asarray(g) for g in gens]
    while frontier:
        nxt = []
        for t in frontier:
            a = np.asarray(t, dtype=np.uint16)
            for g in gens:
                c = tuple(compose(a, g))
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


def closure_elements(gens):
    """All elements of <gens>, as rows: the closure engine keyed on every point."""
    ident = identity_images(gens[0].shape[0])[None, :]
    return np.concatenate([ident] + [rows for rows, *_ in closure_levels(
        ident, np.stack(gens), np.arange(ident.shape[1]))])


def seeded_word(gens, rng, length=20):
    """A product of `length` generators drawn by `rng`."""
    return functools.reduce(compose, (gens[i] for i in rng.integers(len(gens), size=length)))


def sym_gens(n):
    return [
        perm_from_cycles(n, [tuple(range(n))]),
        perm_from_cycles(n, [(0, 1)]),
    ]


def test_orbit_identity_only():
    e = identity_images(8)
    assert orbit([e], 5) == [5]


def test_orbit_full_cycle_and_idempotence():
    gens = sym_gens(6)
    orb = orbit(gens, 0)
    assert sorted(orb) == list(range(6))
    # orbit of any point of an orbit equals that orbit
    for p in orb:
        assert sorted(orbit(gens, p)) == sorted(orb)


def test_orbit_deterministic_bfs_order():
    g = perm_from_cycles(7, [(0, 2), (1, 4)])
    h = perm_from_cycles(7, [(2, 6)])
    assert orbit([g, h], 0) == [0, 2, 6]
    assert orbit([h, g], 0) == [0, 2, 6]


def test_chain_three_cycle():
    h = GroupHandle("c3", [perm_from_cycles(3, [(0, 1, 2)])])
    chain = build_stab_chain(h)
    assert chain.order() == 3


def test_chain_orders_against_brute_closure():
    cases = [
        sym_gens(4),                                        # S4, order 24
        [perm_from_cycles(4, [(0, 1, 2)]),
         perm_from_cycles(4, [(1, 2, 3)])],            # A4, order 12
        [perm_from_cycles(8, [(0, 1, 2, 3), (4, 5)]),
         perm_from_cycles(8, [(0, 2)])],
    ]
    for gens in cases:
        h = GroupHandle("g", gens)
        chain = build_stab_chain(h)
        oracle = brute_closure(gens)
        assert chain.order() == len(oracle)
        # every oracle element is a member, and order = prod of orbit lengths
        for t in itertools.islice(oracle, 50):
            assert chain.contains(np.asarray(t, dtype=np.uint16))
        n = 1
        for ln in (len(lv.orbit) for lv in chain.levels):
            n *= ln
        assert n == chain.order()


def test_membership_soundness():
    gens = [perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    chain = build_stab_chain(GroupHandle("c5", gens))
    assert chain.contains(identity_images(5))
    assert not chain.contains(perm_from_cycles(5, [(0, 1)]))


def test_closure_properties_on_random_pairs():
    gens = sym_gens(7)
    chain = build_stab_chain(GroupHandle("s7", gens))
    assert chain.order() == 5040
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = seeded_word(gens, rng), seeded_word(gens, rng)
        assert chain.contains(compose(a, b))
        assert chain.contains(inverse(a))


def test_base_change_preserves_order():
    gens = sym_gens(6)
    base_orders = set()
    for hint in ([0, 1, 2], [5, 3, 1], [2, 4]):
        chain = build_stab_chain(GroupHandle("s6", gens), base_hint=hint)
        assert chain.base[: len(hint)] == hint
        base_orders.add(chain.order())
    assert base_orders == {720}


def test_stabilizer_of_prefix_empty_is_group():
    gens = sym_gens(5)
    g = GroupHandle("s5", gens)
    sub = stabilizer_of_prefix(g, [])
    assert sub.chain.order() == 120


def test_stabilizer_of_prefix_orders():
    gens = sym_gens(6)
    g = GroupHandle("s6", gens)
    sub = stabilizer_of_prefix(g, [0])
    assert sub.chain.order() == 120  # S5
    sub2 = stabilizer_of_prefix(g, [0, 1])
    assert sub2.chain.order() == 24
    # every generator of the stabilizer really fixes the prefix
    for arr in sub2.generators:
        assert arr[0] == 0 and arr[1] == 1


def test_trivial_group_random_is_identity():
    gens = [identity_images(4)]
    chain = build_stab_chain(GroupHandle("triv", gens))
    assert chain.order() == 1
    assert chain.contains(identity_images(4))


def test_elements_enumeration_exact():
    gens = sym_gens(6)
    chain = build_stab_chain(GroupHandle("s6", gens))
    rows = closure_elements(gens)
    assert len({e.tobytes() for e in rows}) == len(rows) == chain.order() == 720
    assert all(chain.contains(e) for e in rows)


def schreier_resift_fails(chain):
    """Reference oracle: sift every Schreier generator of every level again."""
    for i, lv in enumerate(chain.levels):
        for p in lv.orbit:
            for s in lv.gens:
                q = int(s[p])
                schreier = compose(compose(lv.transversal[p], s),
                                   inverse(lv.transversal[q]))
                residue, _ = chain.sift(schreier, start=i + 1)
                if not is_identity(residue):
                    return True
    return False


def test_built_chains_pass_the_schreier_resift(affine_bundle):
    cases = [sym_gens(7),
             [perm_from_cycles(8, [(0, 1, 2, 3), (4, 5)]),
              perm_from_cycles(8, [(0, 2)])]]
    for gens in cases:
        for hint in (None, [3, 1]):
            chain = build_stab_chain(GroupHandle("g", gens), base_hint=hint)
            assert not schreier_resift_fails(chain)
    assert not schreier_resift_fails(affine_bundle.ambient.chain)


def s6_chain():
    gens = sym_gens(6)
    chain = build_stab_chain(GroupHandle("s6", gens))
    verify_chain(chain, gens)
    return chain


def test_verify_chain_rejects_a_tampered_transversal_entry():
    chain = s6_chain()
    lv = chain.levels[0]
    p, other = lv.orbit[1], lv.orbit[2]
    lv.transversal[p] = lv.transversal[other]
    with pytest.raises(ConfigurationError, match="reach its point"):
        verify_chain(chain)


@pytest.mark.parametrize("entry", ["gen_of", "parent", "parent_later"])
def test_verify_chain_rejects_a_tampered_schreier_vector_entry(entry):
    # the cached transversal entries stay right: only the Schreier vector
    # check sees the tampered edge
    chain = s6_chain()
    lv = chain.levels[0]
    tv = lv.transversal
    q = next(r for r in reversed(lv.orbit) if tv.parent[r] != lv.base)
    p, gi = tv.parent[q], tv.gen_of[q]
    if entry == "gen_of":
        tv.gen_of[q] = next(j for j, s in enumerate(lv.gens) if int(s[p]) != q)
    elif entry == "parent":
        tv.parent[q] = next(r for r in lv.orbit if int(lv.gens[gi][r]) != q)
    else:  # a cycle: p's parent becomes q, which comes after p
        tv.parent[p] = q
    with pytest.raises(ConfigurationError, match="Schreier vector"):
        verify_chain(chain)


def test_verify_chain_rejects_a_generator_moving_an_earlier_base_point():
    chain = s6_chain()
    base0 = chain.levels[0].base
    mover = next(s for s in chain.levels[0].gens if int(s[base0]) != base0)
    chain.levels[1].gens.append(mover)
    with pytest.raises(ConfigurationError, match="earlier base point"):
        verify_chain(chain)


def test_verify_chain_rejects_an_original_generator_outside():
    chain = build_stab_chain(GroupHandle("a4", [perm_from_cycles(4, [(0, 1, 2)]),
                                                perm_from_cycles(4, [(1, 2, 3)])]))
    with pytest.raises(ConfigurationError, match="not in the constructed chain"):
        verify_chain(chain, [perm_from_cycles(4, [(0, 1)])])


def alt_gens(n):
    return [perm_from_cycles(n, [(0, 1, k)]) for k in range(2, n)]


def test_stabilizer_of_a_non_prefix_raises():
    s6 = GroupHandle("s6", sym_gens(6))
    build_stab_chain(s6)
    recorded = s6.chain
    assert recorded.base[:2] != [4, 2]
    with pytest.raises(ConfigurationError, match="not a prefix of the chain's base"):
        stabilizer_of_prefix(s6, [4, 2])
    assert s6.chain is recorded


@pytest.mark.parametrize("name, gens, length", [
    ("s6", sym_gens(6), 3), ("s7", sym_gens(7), 2), ("a6", alt_gens(6), 2)])
def test_with_base_images_matches_a_scan_of_the_elements(name, gens, length):
    chain = build_stab_chain(GroupHandle(name, gens))
    base = chain.base[:length]
    elements = closure_elements(gens)
    assert len(elements) == chain.order()
    reached = {tuple(int(x) for x in g[base]) for g in elements}
    for target in itertools.product(range(chain.degree), repeat=length):
        g = chain.with_base_images(target)
        if target in reached:
            assert g is not None and chain.contains(g)
            assert tuple(int(x) for x in g[base]) == target
        else:
            assert g is None
    assert len(reached) < chain.degree ** length


def test_transversal_is_composed_on_first_read():
    chain = build_stab_chain(GroupHandle("c5", [perm_from_cycles(6, [(0, 1, 2, 3, 4)])]))
    lv = chain.levels[0]
    lv.recompute(chain.degree)
    assert len(lv.transversal) == 1 and lv.orbit == [0, 1, 2, 3, 4]
    assert int(lv.transversal[3][0]) == 3 and len(lv.transversal) == 4
    assert lv.in_orbit(2) and not lv.in_orbit(5)
    with pytest.raises(KeyError):
        lv.transversal[5]


def chain_sha(chain):
    """One SHA-1 over each level's base, orbit, strong generators and
    transversal elements in orbit order."""
    h = hashlib.sha1()
    for lv in chain.levels:
        h.update(np.array([lv.base, len(lv.orbit), len(lv.gens)], np.int64).tobytes())
        h.update(np.asarray(lv.orbit, np.int64).tobytes())
        for s in lv.gens:
            h.update(np.asarray(s, np.uint16).tobytes())
        for p in lv.orbit:
            h.update(np.asarray(lv.transversal[p], np.uint16).tobytes())
    return h.hexdigest()


OMEGA_CHAIN_SHA = "5a00d61fd8fddc2ad474a622751474121c4d0efb"


def test_chains_equal_their_pins(omega_handle, frame_bundle, affine_bundle):
    assert chain_sha(omega_handle.chain) == OMEGA_CHAIN_SHA
    assert chain_sha(frame_bundle.ambient.chain) == "1e758cec8f4226779d3f65cf8d5f7ebda80e9649"
    assert chain_sha(affine_bundle.ambient.chain) == "91790cf97e17ac65ca0415d5f628f4a617c27ec3"


def test_known_order_build_equals_the_full_build(omega_handle):
    full = build_stab_chain(GroupHandle("full", list(omega_handle.generators)),
                            base_hint=omega_handle.flag_base)
    assert chain_sha(full) == chain_sha(omega_handle.chain) == OMEGA_CHAIN_SHA


def test_build_short_of_the_given_order_raises():
    with pytest.raises(ConfigurationError, match="order 720.*order 1440"):
        build_stab_chain(GroupHandle("s6", sym_gens(6)), order=1440)
