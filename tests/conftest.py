"""Session-scoped fixtures: every expensive object is built exactly once."""

import time

import pytest

from d4fusion.groupmodels import (
    build_affine_model,
    build_frame_model_gf3,
    build_omega8plus2,
    sylow_via_chamber,
)
from d4fusion import rootmodel
from d4fusion.structure import StructureContext, run_battery


@pytest.fixture(scope="session")
def omega_handle():
    return build_omega8plus2()


@pytest.fixture(scope="session")
def chamber_bundle(omega_handle):
    t0 = time.monotonic()
    bundle = sylow_via_chamber(omega_handle)
    bundle.extras["build_seconds"] = time.monotonic() - t0
    return bundle


@pytest.fixture(scope="session")
def affine_bundle():
    t0 = time.monotonic()
    bundle = build_affine_model()
    bundle.extras["build_seconds"] = time.monotonic() - t0
    return bundle


@pytest.fixture(scope="session")
def frame_bundle():
    t0 = time.monotonic()
    bundle = build_frame_model_gf3()
    bundle.extras["build_seconds"] = time.monotonic() - t0
    return bundle


@pytest.fixture(scope="session")
def bundles(chamber_bundle, affine_bundle, frame_bundle):
    return {"omega8plus2": chamber_bundle, "affine": affine_bundle,
            "frame": frame_bundle}


@pytest.fixture(scope="session")
def contexts(bundles):
    return {name: StructureContext(b) for name, b in bundles.items()}


@pytest.fixture(scope="session")
def batteries(contexts):
    out = {}
    for name, ctx in contexts.items():
        t0 = time.monotonic()
        ids = None
        reports = run_battery(ctx, ids=ids)
        if name == "affine":
            reports.extend(run_battery(ctx, ids=["a8"]))
        out[name] = {"reports": reports, "seconds": time.monotonic() - t0}
    return out


@pytest.fixture(scope="session")
def chamber_triality(chamber_bundle):
    return rootmodel.chamber_triality(chamber_bundle)


@pytest.fixture(scope="session")
def order3_searches(contexts):
    """First-found order-3 automorphism per model, with timing."""
    from d4fusion.automorphisms import order3_automorphisms
    out = {}
    for name in ("omega8plus2", "frame"):
        t0 = time.monotonic()
        outcome = order3_automorphisms(contexts[name], budget_secs=7200, limit=1)
        out[name] = {"outcome": outcome, "seconds": time.monotonic() - t0}
    return out


@pytest.fixture(scope="session")
def isomorphisms(contexts):
    from d4fusion.automorphisms import find_isomorphism
    out = {}
    for a, b in (("affine", "omega8plus2"), ("omega8plus2", "frame")):
        t0 = time.monotonic()
        outcome = find_isomorphism(contexts[a], contexts[b], budget_secs=7200)
        out[(a, b)] = {"outcome": outcome, "seconds": time.monotonic() - t0}
    return out


@pytest.fixture(scope="session")
def fusion_systems(bundles, contexts):
    """The four systems, each built as the CLI builds it."""
    from d4fusion.fusion import build_fusion_system
    systems = {}
    for variant in ("O8p2", "O8p2x3", "PO8p3", "PO8p3x3"):
        model = "omega8plus2" if variant.startswith("O8p2") else "frame"
        systems[variant] = build_fusion_system(variant, bundles[model], contexts[model])
    return systems


@pytest.fixture(scope="session")
def fusion_partitions(fusion_systems):
    from d4fusion.fusion import fuse_elements
    return {v: fuse_elements(fs) for v, fs in fusion_systems.items()}


@pytest.fixture(scope="session")
def fusion_radicals(fusion_systems):
    from d4fusion.fusion import check_O2
    return {v: check_O2(fs) for v, fs in fusion_systems.items()}


@pytest.fixture(scope="session")
def fusion_fingerprints(fusion_systems, fusion_partitions):
    from d4fusion.fusion import fingerprint_fusion
    return {v: fingerprint_fusion(fs, fusion_partitions[v])
            for v, fs in fusion_systems.items()}


@pytest.fixture(scope="session")
def ambient_oracle_O8p2(fusion_systems, fusion_partitions, chamber_bundle):
    """The O8p2 involution classes against ambient conjugacy (one BFS)."""
    from d4fusion.fusion import involution_partition_matches_ambient
    return involution_partition_matches_ambient(
        fusion_systems["O8p2"], fusion_partitions["O8p2"], chamber_bundle)
