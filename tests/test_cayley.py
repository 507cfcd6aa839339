import itertools
import tracemalloc

import numpy as np
import pytest

from d4fusion.cayley import (
    AutoMap,
    CayleyGroup,
    ClosureError,
    SubgroupBits,
    closure_levels,
    enumerate_elab_subgroups,
    find_keys,
    inner_automap,
    invariant_core,
    pack_keys,
)
from d4fusion.perms import (ConfigurationError, ResourceError, compose, inverse,
                            perm_from_cycles)
from d4fusion.stabchain import GroupHandle, build_stab_chain


def perm_group(gens):
    """CayleyGroup from permutation generators (left-to-right products)."""
    return CayleyGroup.from_generators(gens, name="perm")


def right_regular(elements, mul, gens):
    """Permutation generators of a group acting on its own elements, x -> x * h."""
    index = {e: i for i, e in enumerate(elements)}
    return [np.array([index[mul(x, h)] for x in elements], dtype=np.uint16)
            for h in gens]


# the 32 elements (v, z) of a central extension of GF(2)^4 by GF(2)
COCYCLE_ELEMENTS = [(v, z) for v in itertools.product((0, 1), repeat=4) for z in (0, 1)]
COCYCLE_GENS = [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0),
                ((0, 0, 0, 1), 0)]


def commutator_table(g, m):
    """[x, y] = x^-1 y^-1 x y for x (rows) and y (columns) in m, from T and inv."""
    m = np.asarray(m)
    return g.T[g.T[np.ix_(g.inv[m], g.inv[m])], g.T[np.ix_(m, m)]]


@pytest.fixture(scope="module")
def d8():
    r = perm_from_cycles(4, [(0, 1, 2, 3)])
    s = perm_from_cycles(4, [(1, 3)])
    return perm_group([r, s])


def heisenberg_2_4(plus=True):
    """Extraspecial 2^(1+4) via an explicit cocycle; plus or minus type."""
    if plus:
        bform = lambda v, w: (v[0] & w[1]) ^ (v[2] & w[3])
    else:
        bform = lambda v, w: (v[0] & w[1]) ^ (v[2] & w[2]) ^ (v[2] & w[3]) ^ (v[3] & w[3])

    def mul(a, b):
        va, za = a
        vb, zb = b
        v = tuple(x ^ y for x, y in zip(va, vb))
        return (v, za ^ zb ^ bform(vb, va))

    return CayleyGroup.from_generators(right_regular(COCYCLE_ELEMENTS, mul, COCYCLE_GENS))


def test_d8_basics(d8):
    assert d8.n == 8
    assert sorted(d8.order_of) == [1, 2, 2, 2, 2, 2, 4, 4]
    z = d8.center_of(d8.full_bits())
    assert z.order == 2
    assert d8.is_extraspecial(d8.full_bits())
    assert d8.extraspecial_type(d8.full_bits()) == "+"


def test_d8_center_of_abelian_subgroup(d8):
    # the cyclic subgroup of order 4 is abelian: its center is itself
    r_idx = d8.gen_indices[0]
    c4 = d8.closure([r_idx])
    assert c4.order == 4
    assert np.array_equal(d8.center_of(c4).bits, c4.bits)


def test_d8_upper_central_series(d8):
    series = d8.upper_central_series()
    assert [s.order for s in series] == [2, 8]


def test_d8_derived_and_frattini(d8):
    der, phi = d8.derived_subgroup(), d8.frattini()
    assert der.order == 2
    assert phi.order == 2
    assert np.array_equal(der.bits, phi.bits)


def test_frattini_equals_the_intersection_of_the_maximal_subgroups(d8, contexts):
    # Phi(H) is the intersection of the index-2 subgroups, and H' H^2; the
    # second proves the derived subgroup lies in <squares>
    for g in [d8] + [ctx.S for ctx in contexts.values()]:
        phi = g.frattini().bits
        inter = np.ones(g.n, dtype=bool)
        for mx in g.maximal_subgroups():
            inter &= mx.bits
        assert np.array_equal(phi, inter)
        seeds = np.concatenate([g.derived_subgroup().members, g.squares()])
        assert np.array_equal(phi, g.closure(seeds).bits)


def test_d8_maximal_and_index_descent(d8):
    maxs = d8.maximal_subgroups()
    assert len(maxs) == 3
    assert sorted(m.order for m in maxs) == [4, 4, 4]
    idx4 = d8.subgroups_of_index(4)
    assert len(idx4) == 5  # the five subgroups of order 2
    assert all(s.order == 2 for s in idx4)


def test_d8_conjugacy_classes(d8):
    labels = d8.conjugacy_classes()
    assert len(np.unique(labels)) == 5


def test_quotient_by_a_non_normal_subgroup_is_rejected(d8):
    # the search modulo a subgroup and the quotient coordinates rely on this check
    s = d8.closure([d8.gen_indices[1]])
    assert s.order == 2
    with pytest.raises(ClosureError, match="not normal"):
        d8.check_normal(s)
    with pytest.raises(ClosureError, match="not normal"):
        enumerate_elab_subgroups(d8, rank=1, modulo=s)
    d8.check_normal(d8.center_of(d8.full_bits()))


def test_invariant_core_is_the_largest_invariant_subset(d8):
    full = d8.full_bits().bits
    ident = np.arange(d8.n)
    assert np.array_equal(invariant_core(full, [ident]), full)
    # a -1 entry drops its member, and only it, under identity rows
    off = ident.copy()
    off[5] = -1
    assert np.flatnonzero(invariant_core(full, [ident, off])).tolist() == [0, 1, 2, 3, 4, 6, 7]
    # a row sending 6 off the set and 4 to 6 drops both, over two rounds
    bits = full.copy()
    bits[7] = False
    chained = ident.copy()
    chained[[6, 4]] = [7, 6]
    assert np.flatnonzero(invariant_core(bits, [chained])).tolist() == [0, 1, 2, 3, 5]
    assert bits.sum() == 7  # the input is left as it was
    # inner automorphisms keep a normal subgroup and shrink another to its core
    inner = [d8.conj_map_images(g) for g in d8.generating_set()]
    z = d8.center_of(d8.full_bits())
    assert np.array_equal(invariant_core(z.bits, inner), z.bits)
    s = d8.closure([d8.gen_indices[1]])
    assert s.order == 2
    assert np.flatnonzero(invariant_core(s.bits, inner)).tolist() == [0]


def test_closure_against_brute(d8):
    # closure of a reflection and the rotation square
    s_idx = d8.gen_indices[1]
    r_idx = d8.gen_indices[0]
    r2 = int(d8.T[r_idx, r_idx])
    sub = d8.closure([s_idx, r2])
    # oracle: repeated set products
    elems = {0, s_idx, r2}
    grown = True
    while grown:
        grown = False
        for a in list(elems):
            for b in list(elems):
                c = int(d8.T[a, b])
                if c not in elems:
                    elems.add(c)
                    grown = True
    assert set(sub.members) == elems


def test_centralizer_matches_definition(d8):
    s_idx = d8.gen_indices[1]
    cen = d8.centralizer([s_idx])
    for x in range(d8.n):
        commutes = int(d8.T[x, s_idx]) == int(d8.T[s_idx, x])
        assert bool(cen.bits[x]) == commutes


def test_subgroup_closure_validation(d8):
    with pytest.raises(ClosureError):
        d8.subgroup([0, d8.gen_indices[0]])  # r alone is not closed


def test_extraspecial_types():
    plus = heisenberg_2_4(plus=True)
    minus = heisenberg_2_4(plus=False)
    assert plus.n == 32 and minus.n == 32
    assert plus.is_extraspecial(plus.full_bits())
    assert minus.is_extraspecial(minus.full_bits())
    assert plus.extraspecial_type(plus.full_bits()) == "+"
    assert minus.extraspecial_type(minus.full_bits()) == "-"
    # plus type: 2*9+2 = 20 elements of order <= 2; minus: 2*5+2 = 12
    assert int((plus.order_of <= 2).sum()) == 20
    assert int((minus.order_of <= 2).sum()) == 12


def test_abelian_invariants_z4_z2():
    g = perm_group([perm_from_cycles(6, [(0, 1, 2, 3)]),
                    perm_from_cycles(6, [(4, 5)])])
    assert g.n == 8
    assert g.abelian_invariant_check(g.full_bits(), (4, 2))
    assert not g.abelian_invariant_check(g.full_bits(), (2, 2, 2))
    assert not g.abelian_invariant_check(g.full_bits(), (8,))


def test_elab_enumeration_count_oracle():
    # elementary abelian of order 16: rank-2 subgroups number the Gaussian
    # binomial [4 choose 2]_2 = 35
    gens = [perm_from_cycles(8, [(2 * i, 2 * i + 1)]) for i in range(4)]
    g = perm_group(gens)
    assert g.n == 16
    subs, nodes = enumerate_elab_subgroups(g, rank=2)
    assert len(subs) == 35
    # restricted: at least one member outside a fixed hyperplane
    hyper = g.closure(g.gen_indices[:3])
    subs_out, _ = enumerate_elab_subgroups(g, rank=2, avoid=hyper)
    inside = [1 for s in subs if s <= hyper]
    assert len(inside) == 7  # [3 choose 2]_2
    assert len(subs_out) == 35 - 7


def reference_elab_search(g, rank, avoid=None):
    """The depth-first form of the search: one recursive call per node."""
    invol = np.flatnonzero(g.order_of == 2)
    roots = len(invol)
    if avoid is not None:
        invol = invol[np.argsort(avoid.bits[invol], kind="stable")]
        roots = int((~avoid.bits[invol]).sum())
    local = np.full(g.n, -1, dtype=np.int64)
    local[invol] = np.arange(len(invol))
    commute = g._commutators(invol, invol) == 0
    prod = local[g.T[np.ix_(invol, invol)]]
    target = 1 << rank
    found = []
    nodes = 0

    def extend(span, cmask, last):
        nonlocal nodes
        nodes += 1
        if len(span) + 1 == target:
            bits = np.zeros(g.n, dtype=bool)
            bits[0] = True
            bits[invol[span]] = True
            found.append(g.subgroup(bits))
            return
        if int(cmask.sum()) + 1 < target:
            return
        cand = last + 1 + np.flatnonzero(cmask[last + 1:])
        cand = cand[prod[np.ix_(cand, span)].min(axis=1) > cand]
        for t in cand:
            extend(np.concatenate([span, [t], prod[t, span]]), cmask & commute[t], t)

    for r in range(roots):
        extend(np.array([r]), commute[r], r)
    return found, nodes


def assert_same_search(g, rank, avoid=None):
    subs, nodes = enumerate_elab_subgroups(g, rank=rank, avoid=avoid)
    want, want_nodes = reference_elab_search(g, rank, avoid)
    assert nodes == want_nodes
    assert [s.key() for s in subs] == [s.key() for s in want]
    return subs


@pytest.mark.parametrize("rank", [2, 3])
def test_elab_enumeration_matches_brute_force_on_d8xd8(rank):
    # oracle: close every rank-sized set of involutions and keep the
    # elementary abelian closures of the right order
    gens = [perm_from_cycles(8, [(0, 1, 2, 3)]), perm_from_cycles(8, [(1, 3)]),
            perm_from_cycles(8, [(4, 5, 6, 7)]), perm_from_cycles(8, [(5, 7)])]
    g = perm_group(gens)
    invol = np.flatnonzero(g.order_of == 2)
    assert (g.n, len(invol)) == (64, 35)
    want = {}
    for seed in itertools.combinations(invol, rank):
        sub = g.closure(seed)
        if sub.order == 1 << rank and g.is_elementary_abelian(sub):
            want[sub.key()] = sub
    avoid = g.closure(g.gen_indices[:3])  # D8 x C4, of index 2
    assert avoid.order == 32
    for restrict in (None, avoid):
        subs = assert_same_search(g, rank, restrict)
        keys = [s.key() for s in subs]
        assert len(keys) == len(set(keys))  # each subgroup is made once
        expected = {k for k, s in want.items() if restrict is None or not s <= restrict}
        assert set(keys) == expected and expected
    assert not hasattr(g, "comm")


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("central", ["diagonal", "centre"])
def test_elab_search_modulo_matches_brute_force_on_d8xd8(rank, central):
    # oracle: close every rank-sized set of coset representatives together
    # with K, and keep the closures of order 2^rank |K| whose squares and
    # commutators lie in K
    gens = [perm_from_cycles(8, [(0, 1, 2, 3)]), perm_from_cycles(8, [(1, 3)]),
            perm_from_cycles(8, [(4, 5, 6, 7)]), perm_from_cycles(8, [(5, 7)])]
    g = perm_group(gens)
    k = g.center_of(g.full_bits())
    if central == "diagonal":  # <z1 z2>, so that g/K is not elementary abelian
        z1z2 = perm_from_cycles(8, [(0, 2), (1, 3), (4, 6), (5, 7)])
        k = g.closure([int(np.flatnonzero((g.elements == z1z2).all(axis=1))[0])])
    assert k.order == {"diagonal": 2, "centre": 4}[central]
    reps = np.unique(g.coset_reps(k))[1:]
    want = {}
    for seed in itertools.combinations(reps, rank):
        sub = g.closure(np.concatenate([seed, k.members]))
        m = sub.members
        if (sub.order == (1 << rank) * k.order and k.bits[g.square_of[m]].all()
                and k.bits[commutator_table(g, m)].all()):
            want[sub.key()] = sub
    avoid = g.closure(g.gen_indices[:3])  # D8 x C4, of index 2, holding Z(g)
    for restrict in (None, avoid):
        subs, _ = enumerate_elab_subgroups(g, rank=rank, avoid=restrict, modulo=k)
        keys = [s.key() for s in subs]
        assert len(keys) == len(set(keys))  # each subgroup is made once
        expected = {key for key, s in want.items() if restrict is None or not s <= restrict}
        assert set(keys) == expected and expected
    with pytest.raises(ConfigurationError, match="avoid must contain"):
        enumerate_elab_subgroups(g, rank=rank, avoid=g.closure(g.gen_indices[:2]),
                                 modulo=k)


def test_elab_enumeration_finds_full_rank():
    gens = [perm_from_cycles(6, [(0, 1)]), perm_from_cycles(6, [(2, 3)]),
            perm_from_cycles(6, [(4, 5)])]
    g = perm_group(gens)
    subs, _ = enumerate_elab_subgroups(g, rank=3)
    assert len(subs) == 1
    assert subs[0].order == 8


def test_elab_search_matches_depth_first_reference_on_affine_s(contexts):
    ctx = contexts["affine"]
    assert len(assert_same_search(ctx.S, 6)) == 6
    assert assert_same_search(ctx.S, 4, avoid=ctx.Q)


def test_elab_search_budget_raises_resource_error(contexts):
    with pytest.raises(ResourceError) as info:
        enumerate_elab_subgroups(contexts["affine"].S, rank=6, max_nodes=1000)
    assert info.value.stats["nodes"] > 1000


def test_elab_search_memory_stays_small(contexts):
    S = contexts["affine"].S
    tracemalloc.start()
    try:
        subs, _ = enumerate_elab_subgroups(S, rank=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subs) == 6 and peak < 16 * 2 ** 20


def test_automap_identity_and_inner(d8):
    ident = AutoMap(d8, np.arange(d8.n, dtype=np.uint16))
    assert ident.map_order() == 1
    inner = inner_automap(d8, d8.gen_indices[0])
    assert inner.map_order() in (1, 2, 4)


def swapped_table(g):
    """g's table with two non-generator entries of one row swapped.

    The rows stay permutations and the identity, inverse and generator
    columns are kept, so only the associativity check can see it.
    """
    T = g.T.copy()
    x = g.n - 1
    ys = list(itertools.islice(
        (y for y in range(1, g.n)
         if y not in g.gen_indices and y not in (x, int(g.inv[x]))
         and not g.closure([y]).bits[x]), 2))
    T[x, ys] = T[x, ys[::-1]]
    return T


@pytest.mark.parametrize("group,with_gens", [("plus", True), ("plus", False),
                                              ("affine_sylow", True)])
def test_table_with_swapped_non_generator_entries_is_rejected(group, with_gens, request):
    g = (heisenberg_2_4() if group == "plus"
         else request.getfixturevalue("affine_bundle").sylow)
    T = swapped_table(g)
    with pytest.raises(ClosureError, match="associative"):
        CayleyGroup(T, gen_indices=g.gen_indices if with_gens else None)


def test_automap_rejects_non_multiplicative(d8):
    bad = np.arange(d8.n, dtype=np.uint16)
    bad[[d8.gen_indices[0], d8.gen_indices[1]]] = \
        bad[[d8.gen_indices[1], d8.gen_indices[0]]]
    try:
        AutoMap(d8, bad)
    except ClosureError:
        return
    # swapping r and s can only be multiplicative if they are exchangeable
    raise AssertionError("expected the swapped map to fail verification")


def test_automap_on_subgroup_domain(d8):
    z = d8.center_of(d8.full_bits())
    v4 = None
    for m in d8.maximal_subgroups():
        if d8.is_elementary_abelian(m):
            v4 = m
            break
    assert v4 is not None
    inner = inner_automap(d8, d8.gen_indices[0], domain=v4)
    assert inner.stabilizes(z)


def test_generating_set_is_verified_and_cached():
    g = heisenberg_2_4()
    # the reduction keeps all four generators: the Frattini quotient has rank 4
    assert g.generating_set() == [1, 2, 3, 4] == g.gen_indices
    dom = g.maximal_subgroups()[0]
    gens = g.generating_set(dom)
    assert all(dom.bits[x] for x in gens)
    assert np.array_equal(g.closure(gens).bits, dom.bits)
    assert g.generating_set(dom) == gens


def test_generating_set_with_small_closure_rejected():
    g = heisenberg_2_4()
    # a member set that is not a subgroup: its greedy picks close to more than it
    bits = np.zeros(g.n, dtype=bool)
    bits[[0] + g.gen_indices[:2]] = True
    with pytest.raises(ClosureError, match="not a subgroup"):
        g.generating_set(SubgroupBits(g, bits))
    dom = g.maximal_subgroups()[0]
    gens = g.generating_set(dom)
    # each greedy pick lies outside the closure of the earlier ones
    assert g.closure(gens[:-1]).order < dom.order
    # recorded gen_indices are checked on first use, before any map relies on them
    short = CayleyGroup(g.T, gen_indices=g.gen_indices[:3])
    with pytest.raises(ClosureError):
        short.generating_set()
    with pytest.raises(ClosureError):
        AutoMap(short, np.arange(short.n, dtype=np.uint16))


def test_automap_rejects_mutated_non_generator_image():
    g = heisenberg_2_4()
    dom = g.maximal_subgroups()[0]
    gens = g.generating_set(dom)
    inner = inner_automap(g, g.gen_indices[0], domain=dom)
    x, y = [int(m) for m in dom.members if m != 0 and int(m) not in gens][:2]
    changed = inner.images.copy()
    changed[x] = changed[y]
    with pytest.raises(ClosureError):
        AutoMap(g, changed, dom)
    # a swap keeps the map bijective; the generator-column identity must catch it
    swapped = inner.images.copy()
    swapped[[x, y]] = swapped[[y, x]]
    with pytest.raises(ClosureError):
        AutoMap(g, swapped, dom)


# -- the subgroup algebra against definitions --------------------------------


def small_groups():
    r = perm_from_cycles(4, [(0, 1, 2, 3)])
    s = perm_from_cycles(4, [(1, 3)])
    return {"d8": perm_group([r, s]), "plus": heisenberg_2_4(plus=True),
            "minus": heisenberg_2_4(plus=False)}


def brute_subgroups(g):
    """Closures of all subsets of at most three elements, by key."""
    found = {}
    for size in range(4):
        for seeds in itertools.combinations(range(g.n), size):
            sub = g.closure(seeds)
            found.setdefault(sub.key(), sub)
    return found


@pytest.fixture(scope="module", params=["d8", "plus", "minus"])
def small_group(request):
    g = small_groups()[request.param]
    return g, brute_subgroups(g)


def test_subgroups_of_index_match_brute_force(small_group):
    g, brute = small_group
    for index in (2, 4, 8):
        got = [sub.key() for sub in g.subgroups_of_index(index)]
        assert len(set(got)) == len(got)
        assert set(got) == {key for key, sub in brute.items()
                            if sub.order * index == g.n}


def test_center_series_and_derived_match_definitions(small_group):
    g, brute = small_group
    for sub in list(brute.values()) + [g.full_bits()]:
        m = sub.members
        block = commutator_table(g, m)
        center = m[(block == 0).all(axis=1)]
        assert np.array_equal(g.center_of(sub).members, center)
        assert np.array_equal(g.derived_subgroup(sub).bits,
                              g.closure(np.unique(block)).bits)
        series, z = [], {0}
        while True:
            nxt = {int(x) for x, row in zip(m, block) if all(int(c) in z for c in row)}
            if nxt == z:
                break
            z = nxt
            series.append(sorted(z))
            if len(z) == len(m):
                break
        assert [list(t.members) for t in g.upper_central_series(sub)] == series


def test_lone_squares_and_is_extraspecial_match_definitions(small_group):
    # the squares filter keeps every extraspecial subgroup: there Phi = <squares>
    # has order 2, so all squares lie in {1, z}
    g, brute = small_group
    subs = list(brute.values()) + [g.full_bits()]
    lone = g.lone_squares(np.array([sub.bits for sub in subs]))
    kept = 0  # the group itself, and in 2^(1+4) its D8 and Q8 subgroups
    for sub, s in zip(subs, lone):
        squares = g.squares(sub)
        assert s == {1: 0, 2: squares[-1]}.get(len(squares), -1)
        m = sub.members
        block = commutator_table(g, m)
        center = g.closure(m[(block == 0).all(axis=1)])
        derived = g.closure(np.unique(block))
        extraspecial = (bin(len(m)).count("1") == 1 and len(m).bit_length() % 2 == 0
                        and center.order == 2 and center == derived
                        and center == g.closure(squares))
        assert g.is_extraspecial(sub) == extraspecial
        if extraspecial:
            assert s > 0
            kept += 1
    assert kept >= 1


def test_one_level_of_all_rows_matches_one_row_at_a_time(small_group):
    # one batched level over subgroups of mixed orders and ranks gives the
    # one-row results, deduplicated in order of first occurrence
    g, brute = small_group
    subs = list(brute.values())
    want = {}
    for sub in subs:
        for mx in g.maximal_subgroups(sub):
            want.setdefault(mx.key(), mx)
    rows = g._maximal_rows(np.array([sub.bits for sub in subs]))
    assert [np.packbits(row).tobytes() for row in rows] == list(want)


def test_commutator_table_matches_the_definition():
    # S5 has 120 elements: one full block of 64 rows and a shorter last one
    s5 = perm_group([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                     perm_from_cycles(5, [(0, 1)])])
    els = s5.elements
    table = commutator_table(s5, np.arange(s5.n))
    assert np.array_equal(table, s5._commutators(np.arange(s5.n), np.arange(s5.n)))
    for x, y in itertools.product(range(s5.n), repeat=2):
        want = compose(compose(compose(els[s5.inv[x]], els[s5.inv[y]]), els[x]), els[y])
        assert np.array_equal(els[table[x, y]], want)


def test_derived_subgroup_is_a_normal_closure():
    # in S4 the commutators of (0 1 2 3) and (0 1) generate a proper,
    # non-normal subgroup of the derived subgroup A4
    s4 = perm_group([perm_from_cycles(4, [(0, 1, 2, 3)]),
                     perm_from_cycles(4, [(0, 1)])])
    gens = s4.generating_set()
    assert s4.closure(s4._commutators(gens, gens).ravel()).order < 12
    m = np.arange(s4.n)
    assert np.array_equal(s4.derived_subgroup().bits,
                          s4.closure(np.unique(commutator_table(s4, m))).bits)
    assert s4.derived_subgroup().order == 12


def test_maximal_subgroups_reject_non_subgroups():
    g = heisenberg_2_4()
    dom = g.maximal_subgroups()[0]
    extra = dom.bits.copy()
    extra[int(np.flatnonzero(~dom.bits)[0])] = True
    missing = dom.bits.copy()
    missing[int(dom.members[-1])] = False
    for bits in (extra, missing):
        with pytest.raises(ClosureError):
            g.maximal_subgroups(SubgroupBits(g, bits))


def test_corrupted_quotient_coordinate_is_caught(monkeypatch):
    g = heisenberg_2_4()
    phi = g.closure(g.squares())
    coords, basis = g.elementary_quotient_coords(phi)
    assert [int(coords[b]) for b in basis] == [1, 2, 4, 8]
    for x in (basis[0], int(np.flatnonzero(coords == 3)[0]), int(phi.members[1])):
        bad = coords.copy()
        bad[x] ^= 1
        with pytest.raises(ClosureError):
            g.check_quotient_coords(bad, basis, phi, g.full_bits())
    # maximal_subgroups checks the coordinates it is handed
    original = CayleyGroup._quotient_coords

    def corrupted(self, kernels, rows):
        coords, basis = original(self, kernels, rows)
        coords[0, int(np.flatnonzero(rows[0])[-1])] ^= 1
        return coords, basis

    monkeypatch.setattr(CayleyGroup, "_quotient_coords", corrupted)
    with pytest.raises(ClosureError):
        g.maximal_subgroups()


def test_is_extraspecial_near_misses():
    for plus in (True, False):
        g = heisenberg_2_4(plus)
        assert g.is_extraspecial(g.full_bits())
    # <squares> has order 2, but the centre is the whole group
    z4z2 = perm_group([perm_from_cycles(6, [(0, 1, 2, 3)]),
                       perm_from_cycles(6, [(4, 5)])])
    assert len(z4z2.squares()) == 2
    assert not z4z2.is_extraspecial(z4z2.full_bits())
    # <squares> is trivial
    elab = perm_group([perm_from_cycles(6, [(2 * i, 2 * i + 1)]) for i in range(3)])
    assert elab.n == 8
    assert not elab.is_extraspecial(elab.full_bits())


def test_coset_reps_cover_only_the_subgroup(d8):
    z = d8.center_of(d8.full_bits())
    whole = d8.coset_reps(z)
    for x in range(d8.n):
        assert whole[x] == min(int(d8.T[k, x]) for k in z.members)


# -- table construction against the definition -------------------------------


def _heisenberg_plus_mul(a, b):
    (va, za), (vb, zb) = a, b
    return (tuple(x ^ y for x, y in zip(va, vb)),
            za ^ zb ^ (vb[0] & va[1]) ^ (vb[2] & va[3]))


def _perm_case(deg, *cycles):
    return [perm_from_cycles(deg, [c]) for c in cycles]


TABLE_CASES = {
    "d8": (8, lambda: _perm_case(4, (0, 1, 2, 3), (1, 3))),
    "plus": (32, lambda: right_regular(COCYCLE_ELEMENTS, _heisenberg_plus_mul,
                                       COCYCLE_GENS)),
    "s4": (24, lambda: _perm_case(4, (0, 1, 2, 3), (0, 1), (1, 2))),
    "s5": (120, lambda: _perm_case(5, (0, 1, 2, 3, 4), (0, 1), (1, 2))),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_from_generators_matches_brute_force_table(name):
    """Every entry is the index of the composed permutation rows."""
    order, case = TABLE_CASES[name]
    gens = case()
    g = CayleyGroup.from_generators(gens)
    assert g.n == order
    index = {e.tobytes(): i for i, e in enumerate(g.elements)}
    assert len(index) == g.n
    ref = np.array([[index[compose(a, b).tobytes()] for b in g.elements]
                    for a in g.elements])
    assert np.array_equal(g.T, ref)
    assert g.gen_indices == [index[x.tobytes()] for x in gens]
    for b, (f, j) in enumerate(g.parents[1:], start=1):
        assert f < b and g.T[f, g.gen_indices[j]] == b


def test_right_regular_table_is_the_cocycle_product():
    # row x sends the identity (index 0) to x, so it names its element
    g = CayleyGroup.from_generators(right_regular(COCYCLE_ELEMENTS, _heisenberg_plus_mul,
                                                  COCYCLE_GENS))
    elems = [COCYCLE_ELEMENTS[int(row[0])] for row in g.elements]
    index = {e: i for i, e in enumerate(elems)}
    ref = np.array([[index[_heisenberg_plus_mul(a, b)] for b in elems] for a in elems])
    assert np.array_equal(g.T, ref)


def test_from_generators_base_keys():
    # keyed on a chain of S4, whose base of 3 points fixes every point
    gens = _perm_case(4, (0, 1, 2, 3), (0, 1), (1, 2))
    full = CayleyGroup.from_generators(gens)
    chain = build_stab_chain(GroupHandle("s4", gens))
    assert len(chain.base) == 3
    keyed = CayleyGroup.from_generators(gens, chain=chain)
    assert np.array_equal(keyed.T, full.T)
    assert np.array_equal(keyed.elements, full.elements)
    assert keyed.parents == full.parents
    # the chain of a smaller group has a base that is not one of S4: a
    # generator outside that group does not sift, and the build raises
    for part in ([gens[0]], gens[1:], [gens[1]]):
        with pytest.raises(ClosureError, match="sift"):
            CayleyGroup.from_generators(gens, chain=build_stab_chain(GroupHandle("part", part)))


def test_from_generators_respects_max_order():
    gens = _perm_case(5, (0, 1, 2, 3, 4), (0, 1))
    with pytest.raises(ResourceError):
        CayleyGroup.from_generators(gens, max_order=100)


def test_closure_levels_under_conjugation_gives_the_conjugacy_classes():
    # x -> g^-1 x g on the rows of S4, fixing the points past 4: each closure
    # is one class.  Keyed on every point, degree 4 packs one key word and
    # degree 20 two (20 points at 5 bits)
    for degree in (4, 20):
        gens = np.stack(_perm_case(degree, (0, 1, 2, 3), (0, 1), (1, 2)))
        g = CayleyGroup.from_generators(gens)
        index = {e.tobytes(): i for i, e in enumerate(g.elements)}
        pre = np.stack([inverse(a) for a in gens])
        classes = np.full(g.n, -1)
        for x in range(g.n):
            start = g.elements[x][None, :]
            rows = np.concatenate([start] + [r for r, *_ in closure_levels(
                start, gens, np.arange(degree), pre)])
            members = [index[r.tobytes()] for r in rows]
            assert len(set(members)) == len(members)
            classes[x] = min(members)
        assert np.array_equal(classes, g.conjugacy_classes())
        assert sorted(np.unique(classes, return_counts=True)[1]) == [1, 3, 6, 6, 8]


@pytest.mark.parametrize("bits, words", [([6, 4, 5], 1), ([8] * 8, 1), ([11] * 7, 2),
                                         ([40, 30, 20, 64, 1], 4)])
def test_pack_keys_are_exact_and_find_keys_finds_each_row(bits, words):
    # the rows take each column's corner values: 0, 1, its top bit and its
    # largest value, so a column spilling into its neighbour's bits aliases
    # two of them.  8 columns of 8 bits fill one word exactly; 77 bits (the
    # ambient chain's 7-point base at degree 1980) and 155 bits take more
    corners = [sorted({0, 1, 1 << (b - 1), (1 << b) - 1}) for b in bits]
    rows = np.array(list(itertools.product(*corners)), dtype=np.uint64)
    keys = pack_keys(rows, bits)
    assert keys.dtype.itemsize == 8 * words
    assert len(np.unique(keys)) == len(rows)
    order = np.argsort(keys)
    assert np.array_equal(find_keys(keys[order], keys, order), np.arange(len(rows)))
    half = np.sort(keys[::2])
    assert np.array_equal(find_keys(half, keys[1::2]), np.full(len(rows) // 2, -1))
    # past the largest key: no wrap-around hit at position 0
    assert find_keys(np.sort(keys)[:1], np.sort(keys)[-1:]).tolist() == [-1]
