"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact equalities; runtime targets are asserted against
wall-clock measurements of the relevant phase.
"""

import time

import numpy as np
import pytest

from d4fusion.groupmodels import (
    build_affine_model,
    build_frame_model_gf3,
    build_omega8plus2,
    sylow_via_chamber,
)


def _line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %s: %s" % (number, status, detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


def _by_id(battery):
    return {r.lemma_id: r for r in battery["reports"]}


def test_criterion_01_construction():
    t0 = time.monotonic()
    omega = build_omega8plus2()
    chamber = sylow_via_chamber(omega)
    affine = build_affine_model()
    frame = build_frame_model_gf3()
    elapsed = time.monotonic() - t0
    order = omega.chain.order()
    ok = (order == 174_182_400
          and order & -order == 4096
          and chamber.sylow.n == 4096
          and affine.sylow.n == 4096
          and frame.sylow.n == 4096
          and elapsed < 60.0)
    _line(1, ok, "orders %d / %d / %d / %d in %.1fs (< 60s)" % (
        order, chamber.sylow.n, affine.sylow.n, frame.sylow.n, elapsed))


def test_criterion_02_structure_battery(batteries):
    total = sum(data["seconds"] for data in batteries.values())
    ok = total < 600.0
    details = []
    for name, data in batteries.items():
        by = _by_id(data)
        ok &= all(r.passed for r in data["reports"])
        ok &= by["cent"].witnesses["Z_order"] == 2
        ok &= by["cent"].witnesses["Z2_order"] == 4
        ok &= by["cent"].witnesses["coset_count"] == 8
        ok &= by["sixe"].witnesses["count"] == 6
        ok &= by["sixe"].witnesses["index_in_Q"] == [2] * 6
        ok &= by["cosets"].witnesses["non_elementary_cosets"] == 1
        ok &= by["cosets"].witnesses["z4_z2_z2_z2"] is True
        ok &= by["cosetpairs"].witnesses["product_mod_Z_orders"] == [64]
        ok &= by["cosetpairs"].witnesses["double_commutator_mod_Z_orders"] == [4]
        ok &= by["eintersect"].witnesses["intersection_orders"] == [8]
        ok &= by["eintersect"].witnesses["commutator_equals_intersection"] is True
        ok &= by["z3"].witnesses["Z3_order"] == 32
        ok &= by["z3"].witnesses["self_centralizing"] is True
        ok &= by["z3"].witnesses["E_meet_orders"] == [16]
        ok &= by["z3meet"].passed
        ok &= by["frattini"].witnesses["S_mod_Phi"] == 16
        ok &= by["frattini"].witnesses["derived_equals_phi"] is True
        ok &= by["frattini"].witnesses["phi_equals_CQ_Z2"] is True
        ok &= by["elab"].witnesses["offenders"] == 0
        ok &= by["extraspecial"].witnesses["extraspecial_count"] == 1
        details.append("%s %.0fs" % (name, data["seconds"]))
    _line(2, ok, "battery on 3 realizations (%s), total %.0fs (< 600s)" % (
        ", ".join(details), total))


def test_criterion_03_a8_check(batteries):
    rep = _by_id(batteries["affine"])["a8"]
    ok = (rep.passed
          and rep.witnesses["qx_order"] == 32
          and rep.witnesses["qx_type"] == "+"
          and rep.witnesses["deep_isotropic"] is True
          and rep.witnesses["shallow_isotropic"] is False
          and rep.elapsed_ms < 60_000)
    _line(3, ok, "extraspecial core of order 32 (+), isotropy dichotomy, %d ms" %
          rep.elapsed_ms)


def test_criterion_04_order3_automorphism(order3_searches, contexts):
    from d4fusion.automorphisms import order3_behavior
    data = order3_searches["omega8plus2"]
    outcome = data["outcome"]
    ok = bool(outcome.found) and data["seconds"] < 7200
    if ok:
        auto = outcome.found[0]
        behavior = order3_behavior(contexts["omega8plus2"], auto)
        ok = (auto.map_order() == 3
              and behavior["trivial_on_Q_mod_phi"]
              and behavior["fixed_is_i0_only"]
              and behavior["ok"])
    _line(4, ok, "order-3 automorphism found in %.0fs, action verified exactly"
          % data["seconds"])


def test_criterion_05_cross_model_isomorphisms(isomorphisms):
    ok = True
    details = []
    for pair, data in isomorphisms.items():
        ok &= data["outcome"].ok and data["seconds"] < 7200
        details.append("%s->%s %.0fs" % (pair[0], pair[1], data["seconds"]))
    _line(5, ok, "verified bijections: " + ", ".join(details))


def test_criterion_06_fusion_systems(fusion_systems, fusion_radicals, contexts):
    from d4fusion.fusion import check_O2, delete_slot, essential_candidates
    t0 = time.monotonic()
    ok = (len(fusion_systems["O8p2"].essentials) == 4
          and len(fusion_systems["PO8p3"].essentials) == 5)
    ok &= all(o2.order == 1 for o2 in fusion_radicals.values())
    for variant, model in (("O8p2", "omega8plus2"), ("PO8p3", "frame")):
        cands = essential_candidates(contexts[model])
        smaller = delete_slot(fusion_systems[variant], cands[0])
        o2 = check_O2(smaller)
        ok &= bool(contexts[model].Q <= o2)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600
    _line(6, ok, "essential counts 4/5, all four radicals trivial, deleting the "
                 "centralizer slot recovers Q (%.0fs)" % elapsed)


def test_criterion_07_fusion_oracle(ambient_oracle_O8p2):
    result = ambient_oracle_O8p2
    ok = result["agree"] and result["fusion_classes"] == result["ambient_classes"]
    _line(7, ok, "flag-model involution fusion equals ambient conjugacy: "
                 "%d involutions, %d classes" % (result["involutions"],
                                                 result["fusion_classes"]))


def test_criterion_08_model_coherence(fusion_systems, contexts):
    from d4fusion.fusion import aut_group_on_elab
    fs = fusion_systems["PO8p3"]
    ok = True
    orders = []
    for e in contexts["frame"].six_E:
        info = aut_group_on_elab(fs, e)
        orders.append(info["order"])
        ok &= info["order"] == 20160
        ok &= info["form"]["space_dim"] == 1 and info["form"]["plus_type"]
    _line(8, ok, "induced automizers on all six elementary abelian subgroups have "
                 "order 20160 preserving a plus-type form: %s" % orders)


def test_criterion_09_distinguishability(fusion_fingerprints):
    names = list(fusion_fingerprints)
    distinct = all(fusion_fingerprints[a] != fusion_fingerprints[b]
                   for i, a in enumerate(names) for b in names[i + 1:])
    counts = sorted(fp[0] for fp in fusion_fingerprints.values())
    x3_split = (fusion_fingerprints["O8p2"][1] != fusion_fingerprints["O8p2x3"][1]
                and fusion_fingerprints["PO8p3"][1] != fusion_fingerprints["PO8p3x3"][1])
    ok = distinct and counts == [4, 4, 5, 5] and x3_split
    _line(9, ok, "four pairwise distinct fingerprints, essential counts %s, "
                 "partitions separate the :3 variants" % counts)


def test_criterion_10_valuations():
    from d4fusion.valuations import closed_form_families, two_part_valuation
    t0 = time.monotonic()
    ok = True
    for family in closed_form_families():
        for q in (3, 5, 7, 11, 13):
            two_part_valuation(family, q)  # raises if closed != direct
    ok &= two_part_valuation("POmega8+", 3) == 12
    ok &= two_part_valuation("POmega7", 3) == 9
    ok &= two_part_valuation("G2", 3) == 6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _line(10, ok, "closed forms match direct valuations for q in {3,5,7,11,13}; "
                  "12/9/6 at q=3 (%.3fs)" % elapsed)


def test_criterion_11_property_suites(contexts, affine_bundle):
    from d4fusion.perms import compose, inverse, perm_from_cycles
    from d4fusion.quadforms import (GF2_SPACE, GF3_SPACE, dickson, reflection,
                                    spinor_norm, transvection)
    from d4fusion.domains import singular_objects
    from d4fusion.stabchain import GroupHandle, build_stab_chain
    violations = 0
    rng = np.random.default_rng(2024)

    # permutation engine: order is the product of basic orbit lengths and
    # membership respects products and inverses
    gens = [perm_from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)]),
            perm_from_cycles(8, [(0, 1)])]
    chain = build_stab_chain(GroupHandle("s8", gens))
    n = 1
    for ln in (len(lv.orbit) for lv in chain.levels):
        n *= ln
    violations += n != chain.order()
    for _ in range(200):
        a, b = chain.random_element(rng), chain.random_element(rng)
        violations += not chain.contains(compose(a, b))
        violations += not chain.contains(inverse(a))

    # linear-algebra homomorphisms over both fields
    ns_codes = GF2_SPACE.nonsingular_codes()
    mats2 = []
    for _ in range(40):
        m = np.eye(8, dtype=np.int64)
        for _ in range(int(rng.integers(1, 6))):
            t = transvection(GF2_SPACE, int(rng.choice(ns_codes)))
            m = (t.astype(np.int64) @ m) % 2
        mats2.append(m)
    for _ in range(1000):
        i, j = rng.integers(0, len(mats2), 2)
        ab = (mats2[j] @ mats2[i]) % 2
        violations += dickson(GF2_SPACE, ab) != (
            dickson(GF2_SPACE, mats2[i]) ^ dickson(GF2_SPACE, mats2[j]))
    mats3 = []
    while len(mats3) < 24:
        v = rng.integers(0, 3, 8)
        if GF3_SPACE.eval_q(v) == 0:
            continue
        mats3.append(reflection(GF3_SPACE, v).astype(np.int64))
    cls = {"square": 0, "nonsquare": 1}
    for _ in range(1000):
        i, j = rng.integers(0, len(mats3), 2)
        ab = (mats3[j] @ mats3[i]) % 3
        violations += cls[spinor_norm(GF3_SPACE, ab)] != (
            cls[spinor_norm(GF3_SPACE, mats3[i])]
            ^ cls[spinor_norm(GF3_SPACE, mats3[j])])
    dom = singular_objects(GF2_SPACE, "points")
    for _ in range(200):
        i, j = rng.integers(0, len(mats2), 2)
        pa, pb = dom.perm_of_matrix(mats2[i]), dom.perm_of_matrix(mats2[j])
        pab = dom.perm_of_matrix((mats2[j] @ mats2[i]) % 2)
        violations += not np.array_equal(pab, compose(pa, pb))

    # Cayley associativity on a million random triples, plus closure checks
    S = contexts["affine"].S
    a = rng.integers(0, S.n, 1_000_000)
    b = rng.integers(0, S.n, 1_000_000)
    c = rng.integers(0, S.n, 1_000_000)
    violations += int(not np.array_equal(S.T[S.T[a, b], c], S.T[a, S.T[b, c]]))
    for sub in (contexts["affine"].Q, contexts["affine"].phi,
                contexts["affine"].Z3, *contexts["affine"].six_E):
        try:
            S.check_closed(sub)
        except Exception:
            violations += 1
    _line(11, violations == 0, "property suites: %d violations across all "
                               "seeded samples" % violations)
