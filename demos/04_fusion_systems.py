"""Assemble the four fusion systems on S and compute what tells them apart.

The flag model of O8+(2) contributes four essential subgroups (the
radicals of its minimal flag stabilizers); the frame models inside
POmega8+(3) contribute five.  Adding a verified order-3 automorphism of S
gives the ":3" variants.  For each system we compute the element-fusion
partition, certify that the largest subgroup normal in the system is
trivial, and fingerprint the system by variant-free data.
"""

import time

from d4fusion.fusion import (
    build_fusion_system,
    check_O2,
    fingerprint_fusion,
    fuse_elements,
    fusion_report,
)
from d4fusion.groupmodels import (
    build_frame_model_gf3,
    build_omega8plus2,
    sylow_via_chamber,
)
from d4fusion.structure import StructureContext

t0 = time.time()
chamber = sylow_via_chamber(build_omega8plus2())
frame = build_frame_model_gf3()
ctx_c, ctx_f = StructureContext(chamber), StructureContext(frame)

# the ":3" builders take their order-3 map themselves: the diagram
# triality, substituted on the flag table, for O8p2x3, and the first map
# of the order-3 search for PO8p3x3
systems = {
    "O8p2": build_fusion_system("O8p2", chamber, ctx_c),
    "O8p2x3": build_fusion_system("O8p2x3", chamber, ctx_c),
    "PO8p3": build_fusion_system("PO8p3", frame, ctx_f),
    "PO8p3x3": build_fusion_system("PO8p3x3", frame, ctx_f),
}

fingerprints = {}
for name, fs in systems.items():
    part = fuse_elements(fs)
    o2 = check_O2(fs)
    rep = fusion_report(fs, partition=part, o2=o2)
    fingerprints[name] = fingerprint_fusion(fs, part)
    print("%-8s essentials=%d  o2=%d  fusion classes=%d  induced orders=%s" % (
        name, rep["essential_count"], rep["o2_order"],
        len(set(part.class_id.tolist())), rep["autFE_orders"]))

names = list(fingerprints)
print("\npairwise distinct fingerprints:",
      all(fingerprints[a] != fingerprints[b]
          for i, a in enumerate(names) for b in names[i + 1:]))
print("total %.1fs" % (time.time() - t0))
