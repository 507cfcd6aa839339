import copy
import hashlib
import tracemalloc

import numpy as np
import pytest

from d4fusion.perms import ConfigurationError, perm_from_cycles
from d4fusion.cayley import CayleyGroup, enumerate_elab_subgroups
from d4fusion.groupmodels import build_affine_model
from d4fusion.structure import (
    CHECK_ALIASES,
    StructureContext,
    check_elab,
    check_sixe,
    check_valuation,
    check_z3meet,
    model_fingerprint,
    run_battery,
    searched_E,
)


def reports_by_id(battery):
    return {r.lemma_id: r for r in battery["reports"]}


def test_full_battery_passes_everywhere(batteries):
    for name, data in batteries.items():
        failing = [r.lemma_id for r in data["reports"] if not r.passed]
        assert failing == [], "%s failed %s" % (name, failing)


def test_center_witnesses(batteries):
    for data in batteries.values():
        rep = reports_by_id(data)["cent"]
        assert rep.witnesses["Z_order"] == 2
        assert rep.witnesses["Z2_order"] == 4
        assert rep.witnesses["coset_count"] == 8


def test_six_elab_witnesses(batteries):
    # search_nodes: the spans visited by the rank-5 search of S/Z(S) outside Q/Z(S)
    nodes = {"omega8plus2": 2795, "affine": 2804, "frame": 2798}
    for name, data in batteries.items():
        rep = reports_by_id(data)["sixe"]
        assert rep.witnesses["count"] == 6
        assert rep.witnesses["index_in_Q"] == [2] * 6
        assert rep.witnesses["inside_Q_count"] == 0
        assert rep.witnesses["search_count"] == 6
        assert rep.witnesses["search_nodes"] == nodes[name]
        assert rep.witnesses["scan_matches_search"]


def test_battery_builds_no_commutator_table():
    # a fresh bundle, so that nothing another test ran is counted
    ctx = StructureContext(build_affine_model())
    reports = run_battery(ctx) + run_battery(ctx, ids=["a8"])
    assert len(reports) == 11 and all(r.passed for r in reports)
    assert not hasattr(ctx.S, "comm")


def seeded(ctx, **cached):
    """A copy of ctx whose named cached properties are replaced."""
    broken = copy.copy(ctx)
    broken.__dict__.update(cached)
    return broken


def test_z3meet_fails_when_z3_is_replaced_by_z2(contexts):
    ctx = contexts["affine"]
    assert check_z3meet(ctx).passed
    rep = check_z3meet(seeded(ctx, series=[ctx.Z, ctx.Z2, ctx.Z2]))
    assert rep.status == "fail"
    assert rep.witnesses["CQ_of_i0_involutions_in_Z3"] is False


def test_z3meet_fails_when_an_e_meets_another_in_less(contexts):
    # E0 cut down to H u Hx, with H a hyperplane of E0 inter Q that misses
    # part of E0 inter E1: C_Q(x) inter C_Q(y) is still E0 inter E1, while
    # the seeded intersection has order 4
    ctx = contexts["affine"]
    S, Q = ctx.S, ctx.Q
    e0, e1 = ctx.six_E[:2]
    meet = S.subgroup(e0.bits & e1.bits)
    h = next(m for m in S.maximal_subgroups(S.subgroup(e0.bits & Q.bits))
             if not meet <= m)
    x = int(np.flatnonzero(e0.bits & ~Q.bits)[0])
    cut = S.closure(list(h.members) + [x])
    assert cut.order == 32 and (cut.bits & e1.bits).sum() == 4
    rep = check_z3meet(seeded(ctx, six_E=[cut] + ctx.six_E[1:]))
    assert rep.status == "fail"
    assert rep.witnesses["CQ_of_i0_involutions_in_Z3"] is True


def test_pair_intersections_cover_z3(contexts):
    # why no seeded Z3 can fail the i0 part alone: a set holding every
    # Ei inter Ej holds all of Z3, and C_Q(s) lies in Z3
    for ctx in contexts.values():
        es = ctx.six_E
        union = np.zeros(ctx.S.n, dtype=bool)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                union |= es[i].bits & es[j].bits
        assert np.array_equal(union, ctx.Z3.bits)


def test_z3meet_fails_when_the_i0_coset_is_misidentified(contexts):
    # an involution s of an E-coset has C_Q(s) = E inter Q of order 32,
    # which is not in Z3; the pair part does not read the i0 coset
    ctx = contexts["affine"]
    rep = check_z3meet(seeded(ctx, i0_coset=next(iter(ctx.E_coset))))
    assert rep.status == "fail"
    assert rep.witnesses["CQ_of_i0_involutions_in_Z3"] is False


def test_z3meet_matches_per_pair_reference(contexts):
    # reference: C_Q(x) inter C_Q(y) as a set, for every pair (x, y)
    ctx = contexts["affine"]
    S, Q = ctx.S, ctx.Q
    qm = Q.members
    outside = [np.flatnonzero(e.bits & ~Q.bits) for e in ctx.six_E]
    cent = {int(x): set(qm[S._commutators(qm, [x])[:, 0] == 0]) for o in outside for x in o}
    pairs = 0
    for i, ei in enumerate(ctx.six_E):
        for j, ej in enumerate(ctx.six_E):
            if i != j:
                inter = set(np.flatnonzero(ei.bits & ej.bits))
                for x in outside[i]:
                    for y in outside[j]:
                        assert cent[int(x)] & cent[int(y)] == inter
                        pairs += 1
    rep = check_z3meet(ctx)
    assert rep.passed and rep.witnesses["pairs_checked"] == pairs


def test_sixe_fails_when_one_e_is_dropped(contexts):
    ctx = contexts["affine"]
    rep = check_sixe(seeded(ctx, six_E=ctx.six_E[:5]))
    assert rep.status == "fail"
    assert rep.witnesses["count"] == 5
    assert rep.witnesses["search_count"] == 6
    assert rep.witnesses["scan_matches_search"] is False


def test_sixe_fails_when_one_e_is_repeated(contexts):
    # six entries, each of index 2 in E, over a consistent coset map: only
    # the comparison with the search can see the missing E
    ctx = contexts["affine"]
    es = ctx.six_E
    rep = check_sixe(seeded(ctx, six_E=[es[0]] + es[:5], E_coset=dict(ctx.E_coset)))
    assert rep.status == "fail"
    assert rep.witnesses["count"] == 6
    assert rep.witnesses["index_in_Q"] == [2] * 6
    assert rep.witnesses["coset_bijection"] is True
    assert rep.witnesses["scan_matches_search"] is False


def test_unrestricted_search_finds_the_scan_and_the_quotient_route(contexts):
    # the oracle for the argument of check_sixe: the rank-6 search of S with
    # neither avoid nor modulo finds exactly the scanned E's, each once, and
    # the E's of the rank-5 search of S/Z outside Q/Z, and none of them lies
    # in Q
    for ctx in contexts.values():
        complete, _ = enumerate_elab_subgroups(ctx.S, rank=6)
        routed, _ = searched_E(ctx)
        assert not any(e <= ctx.Q for e in complete)
        keys = sorted(e.key() for e in complete)
        assert len(set(keys)) == 6
        assert keys == sorted(e.key() for e in ctx.six_E)
        assert set(keys) == {e.key() for e in routed}


def test_a_premise_offender_fails_sixe_and_elab(bundles):
    # with Z(S) replaced by 1, the premise search finds the six E's outside
    # Q; a fresh context, so that no premise is cached yet
    ctx = StructureContext(bundles["affine"])
    broken = seeded(ctx, series=[ctx.S.trivial_bits()] + ctx.series[1:])
    sixe, elab = check_sixe(broken), check_elab(broken)
    assert sixe.status == "fail" and sixe.witnesses["premise_offenders"] == 6
    assert elab.status == "fail" and elab.witnesses["offenders"] == 6
    # an offender alone fails sixe, whose scan and search still agree
    rep = check_sixe(seeded(ctx, elab_offenders=(ctx.six_E[:1], 112)))
    assert rep.status == "fail" and rep.witnesses["premise_offenders"] == 1
    assert rep.witnesses["scan_matches_search"] is True


def test_coset_witnesses(batteries):
    for data in batteries.values():
        rep = reports_by_id(data)["cosets"]
        assert rep.witnesses["non_elementary_cosets"] == 1
        assert rep.witnesses["z4_z2_z2_z2"]
        # the distinguished coset does contain involutions (recorded, not assumed)
        assert "i0_has_involutions" in rep.witnesses


def test_coset_data_matches_per_element_closures(contexts):
    # reference: close [Q, s] for every member s of every coset
    ctx = contexts["affine"]
    S, qm = ctx.S, ctx.Q.members
    assert len(ctx.coset_data) == 7
    for rep, data in ctx.coset_data.items():
        assert np.array_equal(data["members"], np.flatnonzero(ctx.coset_rep == rep))
        for s in data["members"]:
            comms = S.T[S.T[S.inv[qm], S.inv[int(s)]], S.T[qm, int(s)]]  # [q, s]
            sub = S.closure(np.unique(comms))
            assert np.array_equal(sub.bits, data["commutator"].bits)
        assert data["elementary_abelian"] == S.is_elementary_abelian(data["commutator"])


def test_commutator_witness_check_rejects_s_with_central_commutators(contexts):
    # the check tries Q's generators only; the reference is the full
    # 512-row table of [q, s] against Z(Q) taken from its definition
    for ctx in contexts.values():
        S, qm = ctx.S, ctx.Q.members
        zq = qm[(S._commutators(qm, qm) == 0).all(axis=1)]
        witnessed = ~np.isin(S._commutators(qm, np.arange(S.n)), zq).all(axis=0)
        assert np.array_equal(witnessed, ~ctx.Q.bits)  # [Q, q] <= Q' = Z(Q) for q in Q
        for s in range(S.n):
            if witnessed[s]:
                ctx.check_commutator_witnesses([s])
            else:
                with pytest.raises(ConfigurationError, match="Z\\(Q\\)"):
                    ctx.check_commutator_witnesses([s])
        members = np.flatnonzero(ctx.coset_rep == ctx.nontrivial_cosets[0])
        ctx.check_commutator_witnesses(members)
        with pytest.raises(ConfigurationError, match="Z\\(Q\\)"):
            ctx.check_commutator_witnesses(np.append(members, qm[-1]))


def test_frattini_witnesses(batteries):
    for data in batteries.values():
        rep = reports_by_id(data)["frattini"]
        assert rep.witnesses["S_mod_Phi"] == 16
        assert rep.witnesses["derived_equals_phi"]
        assert rep.witnesses["Q_mod_phi"] == 2


def test_z3_and_meet(batteries):
    for data in batteries.values():
        rep = reports_by_id(data)["z3"]
        assert rep.witnesses["Z3_order"] == 32
        assert rep.witnesses["E_meet_orders"] == [16]
        meet = reports_by_id(data)["z3meet"]
        assert meet.passed


def test_elab_and_uniqueness(batteries):
    for data in batteries.values():
        assert reports_by_id(data)["elab"].witnesses["offenders"] == 0
        rep = reports_by_id(data)["extraspecial"]
        assert rep.witnesses["extraspecial_count"] == 1
        assert rep.witnesses["type"] == "+"


def test_a8_check_runs_on_affine_only(batteries):
    assert "a8" in reports_by_id(batteries["affine"])
    assert "a8" not in reports_by_id(batteries["omega8plus2"])
    rep = reports_by_id(batteries["affine"])["a8"]
    assert rep.witnesses["centralizer_order"] == 192
    assert rep.witnesses["qx_order"] == 32 and rep.witnesses["qx_type"] == "+"
    assert rep.witnesses["deep_isotropic"] and not rep.witnesses["shallow_isotropic"]
    assert rep.witnesses["weight4_orbit_size"] == 35
    assert rep.witnesses["invariant_form_space_dim"] == 1


def test_model_fingerprints_agree(contexts):
    fps = [model_fingerprint(ctx) for ctx in contexts.values()]
    assert fps[0] == fps[1] == fps[2]
    assert fps[0]["E_count"] == 6
    assert fps[0]["Q_type"] == "+"


def test_order_histogram_value(contexts):
    ctx = contexts["affine"]
    S = ctx.S
    hist = dict(S.order_histogram(S.full_bits()))
    assert hist == {1: 1, 2: 495, 4: 3344, 8: 256}
    assert sum(hist.values()) == 4096
    # the distinguished subgroups: Q is extraspecial of exponent 4, each E is
    # elementary abelian of order 64, and |Z3| = 32
    assert max(dict(S.order_histogram(ctx.Q))) == 4
    assert S.is_extraspecial(ctx.Q)
    assert all(e.order == 64 and S.is_elementary_abelian(e) for e in ctx.six_E)
    assert ctx.Z3.order == 32


def test_characteristic_series_containments(contexts):
    for ctx in contexts.values():
        assert ctx.Z <= ctx.Z2 <= ctx.Z3 <= ctx.Q
        assert ctx.phi <= ctx.Q
        for e in ctx.six_E:
            assert ctx.Z2 <= e


def test_index2_subgroups_count(contexts):
    ctx = contexts["affine"]
    subs = ctx.S.subgroups_of_index(2)
    assert len(subs) == 15
    assert all(ctx.phi <= m for m in subs)


def test_index8_subgroups_pass_closure_oracle(contexts):
    ctx = contexts["affine"]
    S = ctx.S
    idx8 = S.subgroups_of_index(8)
    assert len(idx8) == 1275
    for sub in idx8:
        assert sub.order == 512
        S.check_closed(sub)
    assert S.is_extraspecial(ctx.Q)
    assert [sub for sub in idx8 if S.is_extraspecial(sub)] == [ctx.Q]


def packed_sha1(subs):
    return hashlib.sha1(b"".join(np.packbits(sub.bits).tobytes()
                                 for sub in subs)).hexdigest()


def test_index8_subgroup_lists_are_pinned(contexts):
    # content and order of the descent's output on each model
    pins = {"affine": "4bb2203bee468e54defc16576e68aa9488b3b9e6",
            "omega8plus2": "28256654af47d1f453e00b9d8c1c3833fe782c30",
            "frame": "c2681df70df43e4ba8c0d20b6f4bd33ff17dfe8f"}
    assert {name: packed_sha1(contexts[name].S.subgroups_of_index(8))
            for name in pins} == pins


def test_lone_squares_match_the_squares_of_every_index8_subgroup(contexts):
    # the extraspecial scan's filter against each row's own squares: it keeps
    # every row that is_extraspecial accepts, and on each model only Q
    for ctx in contexts.values():
        S = ctx.S
        idx8 = S.subgroups_of_index(8)
        lone = S.lone_squares(np.array([sub.bits for sub in idx8]))
        for sub, s in zip(idx8, lone):
            squares = S.squares(sub)
            assert s == {1: 0, 2: squares[-1]}.get(len(squares), -1)
        kept = np.flatnonzero(lone > 0)
        assert set(i for i, sub in enumerate(idx8) if S.is_extraspecial(sub)) <= set(kept)
        assert [idx8[i] for i in kept] == [ctx.Q]


def test_essential_candidate_lists_are_pinned(contexts):
    # F1, then the four index-2 overgroups of Q: content and order per model
    from d4fusion.fusion import essential_candidates
    pins = {"affine": "bc1dd98cc2559e27f23487e8ca182249792ba44a",
            "omega8plus2": "5f2f7fab5a72ed4d04a96c55f83b911eb0ffd05f",
            "frame": "27b92e6d0c698d77f034edf16b56704b423e4240"}
    assert {name: packed_sha1(essential_candidates(contexts[name]))
            for name in pins} == pins


def test_six_E_tests_each_candidate_set_once(bundles, monkeypatch):
    # the coset scan reaches each E from its 32 involutions outside Q
    ctx = StructureContext(bundles["affine"])
    S = ctx.S
    calls = []
    monkeypatch.setattr(S, "is_abelian", lambda sub: calls.append(sub.key())
                        or CayleyGroup.is_abelian(S, sub))
    ctx.six_E
    assert len(calls) == len(set(calls)) == 6


def test_check_elab_memory_stays_small(bundles):
    # a fresh context, so that the elab search runs under tracing and is not
    # read from a cache the battery filled
    ctx = StructureContext(bundles["affine"])
    ctx.Q, ctx.Z  # forced before tracing
    tracemalloc.start()
    try:
        report = check_elab(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.witnesses["search_nodes"] == 112
    assert peak < 16 * 2 ** 20


def test_subgroup_closure_check_runs(contexts):
    ctx = contexts["affine"]
    for e in ctx.six_E:
        ctx.S.check_closed(e)
    ctx.S.check_closed(ctx.Q)
    ctx.S.check_closed(ctx.phi)


def test_valuation_report():
    rep = check_valuation(None)
    assert rep.passed
    assert rep.witnesses["pinned"]["POmega8+_q3"] == 12
    assert rep.witnesses["pinned"]["POmega7_q3"] == 9
    assert rep.witnesses["pinned"]["G2_q3"] == 6


def test_aliases_cover_spec_names():
    for alias in ("l64b", "l64c", "essential64", "Z3E", "wc", "appendix"):
        assert alias in CHECK_ALIASES


def test_battery_rejects_unknown_id(contexts):
    with pytest.raises(ConfigurationError):
        run_battery(contexts["affine"], ids=["nonsense"])


def test_context_rejects_wrong_group():
    # a tiny abelian 2-group has no extraspecial candidate above its
    # Frattini subgroup, so the distinguished-subgroup search must fail
    gens = [perm_from_cycles(6, [(0, 1)]), perm_from_cycles(6, [(2, 3)]),
            perm_from_cycles(6, [(4, 5)])]
    grp = CayleyGroup.from_generators(gens)

    class FakeBundle:
        sylow = grp
        provenance = "fake"
        extras = {}

    ctx = StructureContext(FakeBundle())
    with pytest.raises(ConfigurationError):
        ctx.Q
