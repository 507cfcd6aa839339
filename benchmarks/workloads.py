"""The three certification workloads of the benchmark.

Each workload has three parts:

* a set-up, which builds the model bundles (timed as ``setup_s``);
* a measured phase, which certifies the bundles (timed as ``certify_s``);
* a correctness gate, which compares the results with the values that the
  paper and the tier-1 tests fix.

Between set-up and measured phase every built Sylow subgroup S is relabelled
by a permutation drawn from the seed (seed 0 keeps each builder's labelling).
The relabelling is input generation: it is timed apart from both phases.

Library functions are always looked up as module attributes at call time, so
that the tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import gc

import numpy as np

from d4fusion import automorphisms, cayley, fusion, groupmodels, rootmodel, structure

# the StructureContext properties that the measured phases force up front
CONTEXT_PROPERTIES = ("series", "derived", "phi", "Q", "coset_rep", "coset_data",
                      "i0_coset", "six_E", "E_coset")

ORDER_HISTOGRAM = ((1, 1), (2, 495), (4, 3344), (8, 256))

# (element order, class size, class count) of the O8+(2) fusion classes on S,
# as the seed commit computes them; its tier-1 oracle test checks that the five
# involution classes are the ambient conjugacy classes
O8P2_CLASS_TABLE = ((1, 1, 1), (2, 68, 3), (2, 103, 1), (2, 188, 1), (4, 40, 1),
                    (4, 448, 3), (4, 576, 1), (4, 1384, 1), (8, 128, 2))


def relabel_bundle(bundle, rng):
    """The same bundle with S relabelled by a random permutation fixing 0.

    With ``rng`` None the permutation is the identity, so seed 0 pays the
    same relabelling cost as every other seed.  Everything that holds an
    element index moves with it: table, generator indices, BFS parents,
    elements, embedding rows, matrices and the subgroup-valued extras.

    The caller must hold no other reference to ``bundle``: its table is freed
    before the new group is built, so that the relabelling stays below the
    set-up's own peak memory and does not show in ``peak_rss_mb``.
    """
    S = bundle.sylow
    n = S.n
    new_of_old = np.arange(n)
    if rng is not None:
        new_of_old[1:] = 1 + rng.permutation(n - 1)
    old_of_new = np.argsort(new_of_old)
    relabel = new_of_old.astype(S.T.dtype)
    table = np.empty_like(S.T)
    for start in range(0, n, 512):  # row blocks keep the index temporaries small
        rows = old_of_new[start:start + 512]
        table[start:start + 512] = relabel[S.T[rows][:, old_of_new]]
    gen_indices = [int(new_of_old[g]) for g in S.gen_indices]
    parents = None
    if S.parents is not None:
        parents = [None] * n
        for old, (f, j) in enumerate(S.parents):
            parents[new_of_old[old]] = (int(new_of_old[f]) if f >= 0 else -1, j)
    elements = None
    if S.elements is not None:
        elements = [S.elements[old] for old in old_of_new]
    extras, subgroup_bits = {}, {}
    for key, value in bundle.extras.items():
        if isinstance(value, cayley.SubgroupBits):
            subgroup_bits[key] = value.bits[old_of_new]
        else:
            extras[key] = value
    matrices = None
    if bundle.matrices is not None:
        matrices = [bundle.matrices[old] for old in old_of_new]
    provenance, ambient, name = bundle.provenance, bundle.ambient, S.name
    embedding, sig_cols = bundle.embedding[old_of_new], bundle.sig_cols
    del bundle, S
    gc.collect()
    group = cayley.CayleyGroup(table, gen_indices=gen_indices, parents=parents,
                               elements=elements, name=name)
    for key, bits in subgroup_bits.items():
        extras[key] = cayley.SubgroupBits(group, bits)
    return groupmodels.ModelBundle(
        provenance=provenance,
        ambient=ambient,
        sylow=group,
        embedding=embedding,
        sig_cols=sig_cols,
        matrices=matrices,
        extras=extras,
    )


def relabel_all(bundles, seed):
    """Relabel every bundle, emptying ``bundles``; bundle k draws from (seed, k)."""
    out = {}
    for k, name in enumerate(sorted(bundles)):
        rng = None if seed == 0 else np.random.default_rng([seed, k])
        out[name] = relabel_bundle(bundles.pop(name), rng)
    return out


def force_context(ctx):
    for name in CONTEXT_PROPERTIES:
        getattr(ctx, name)
    return ctx


def is_isomorphism(T1, T2, images):
    """Independent check of a map on the whole table: bijective, multiplicative."""
    images = np.asarray(images)
    return (len(np.unique(images)) == len(images)
            and np.array_equal(images[T1], T2[np.ix_(images, images)]))


# ---------------------------------------------------------------------------
# battery: subgroup algebra and the structure checks on the affine model


def setup_battery():
    return {"affine": groupmodels.build_affine_model()}


def certify_battery(bundles):
    ctx = force_context(structure.StructureContext(bundles["affine"]))
    reports = structure.run_battery(ctx) + structure.run_battery(ctx, ids=["a8"])
    return {
        "reports": reports,
        "valuation": structure.check_valuation(None),
        "fingerprint": structure.model_fingerprint(ctx),
    }


def gate_battery(bundles, out):
    by_id = {r.lemma_id: r for r in out["reports"]}
    fp = out["fingerprint"]
    witness = lambda lemma_id, key: by_id[lemma_id].witnesses[key]  # noqa: E731
    checks = {
        "report_count": (lambda: len(out["reports"]), 11),
        "passed.valuation": (lambda: out["valuation"].passed, True),
        "Z": (lambda: fp["Z"], 2),
        "Z2": (lambda: fp["Z2"], 4),
        "Z3": (lambda: fp["Z3"], 32),
        "S_mod_Phi": (lambda: witness("frattini", "S_mod_Phi"), 16),
        "six_E": (lambda: witness("sixe", "count"), 6),
        "E_count": (lambda: fp["E_count"], 6),
        "extraspecial_count": (lambda: witness("extraspecial", "extraspecial_count"), 1),
        "extraspecial_type": (lambda: witness("extraspecial", "type"), "+"),
        "order_histogram": (lambda: tuple(tuple(int(v) for v in row)
                                          for row in fp["order_histogram"]),
                            ORDER_HISTOGRAM),
    }
    for report in out["reports"]:
        checks["passed." + report.lemma_id] = (lambda r=report: r.passed, True)
    counts = {"index8_subgroups": witness("extraspecial", "index8_count")}
    return checks, counts


# ---------------------------------------------------------------------------
# search: colour refinement, the order-3 and isomorphism backtracks, the root model


def setup_search():
    flag = groupmodels.sylow_via_chamber(groupmodels.build_omega8plus2())
    return {"flag": flag, "frame": groupmodels.build_frame_model_gf3()}


def certify_search(bundles):
    ctx_flag = force_context(structure.StructureContext(bundles["flag"]))
    ctx_frame = force_context(structure.StructureContext(bundles["frame"]))
    root = rootmodel.build_root_model()
    tri = rootmodel.triality_automap(root)
    translation = rootmodel.root_model_matches(bundles["flag"].matrices)
    back = np.empty_like(translation)
    back[translation] = np.arange(len(translation))
    transported = cayley.AutoMap(ctx_flag.S, translation[tri.images[back]].astype(np.uint16))
    transported_behavior = automorphisms.order3_behavior(ctx_flag, transported)
    order3 = automorphisms.order3_automorphisms(ctx_flag, limit=1)
    searched = order3.found[0]
    searched_behavior = automorphisms.order3_behavior(ctx_flag, searched)
    iso = automorphisms.find_isomorphism(ctx_flag, ctx_frame)
    return {
        "transported": transported, "transported_behavior": transported_behavior,
        "order3": order3, "searched": searched, "searched_behavior": searched_behavior,
        "iso": iso,
    }


def gate_search(bundles, out):
    T_flag = bundles["flag"].sylow.T
    T_frame = bundles["frame"].sylow.T
    transported, searched, iso = out["transported"], out["searched"], out["iso"]
    checks = {
        "transported.order": (lambda: transported.map_order(), 3),
        "transported.automorphism": (
            lambda: is_isomorphism(T_flag, T_flag, transported.images), True),
        "transported.behavior_ok": (lambda: out["transported_behavior"]["ok"], True),
        "order3.order": (lambda: searched.map_order(), 3),
        "order3.automorphism": (lambda: is_isomorphism(T_flag, T_flag, searched.images),
                                True),
        "order3.behavior_ok": (lambda: out["searched_behavior"]["ok"], True),
        "iso.verified": (lambda: is_isomorphism(T_flag, T_frame, iso.found[0].images), True),
    }
    counts = {"order3_nodes": out["order3"].nodes, "iso_nodes": iso.nodes}
    return checks, counts


# ---------------------------------------------------------------------------
# fusion: slot assembly from the ambient group and element fusion for O8p2


def setup_fusion():
    return {"flag": groupmodels.sylow_via_chamber(groupmodels.build_omega8plus2())}


def certify_fusion(bundles):
    flag = bundles["flag"]
    ctx = structure.StructureContext(flag)
    fs = fusion.build_fusion_system("O8p2", flag, ctx)
    return {"system": fs, "partition": fusion.fuse_elements(fs)}


def gate_fusion(bundles, out):
    fs, part = out["system"], out["partition"]
    checks = {
        "essential_count": (lambda: len(fs.essentials), 4),
        "essential_orders": (lambda: [slot.subgroup.order for slot in fs.essentials],
                             [2048] * 4),
        "outer_orders": (lambda: [slot.outer_order for slot in fs.essentials], [6] * 4),
        "non_essential_candidate": (lambda: "non_essential_candidate" in fs.notes, True),
        "class_table": (lambda: part.class_table(bundles["flag"].sylow.order_of),
                        O8P2_CLASS_TABLE),
    }
    counts = {"automizer_maps": sum(len(slot.automizer_gens) for slot in fs.essentials)}
    return checks, counts


WORKLOADS = {
    "battery": (setup_battery, certify_battery, gate_battery),
    "search": (setup_search, certify_search, gate_search),
    "fusion": (setup_fusion, certify_fusion, gate_fusion),
}
