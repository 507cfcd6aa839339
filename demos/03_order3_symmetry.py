"""The order-3 outer symmetry of the Sylow 2-subgroup, two ways.

First constructively: the twelve positive-root matrices generate S, the
star symmetry of the D4 diagram permutes them with order 3, and
substituting permuted generators into every element's factorization gives
a map whose multiplicativity is verified on the whole table.

Then by search: a pruned backtrack over generator images, constrained by
canonical element colors and the induced action on the Frattini quotient,
finds order-3 automorphisms from scratch.  Both routes must display the
expected action: trivial on Q mod Phi(S), a unique fixed nontrivial
coset, and the six elementary abelian subgroups permuted in two 3-cycles.
"""

import time

from d4fusion.automorphisms import order3_automorphisms, order3_behavior
from d4fusion.groupmodels import build_omega8plus2, sylow_via_chamber
from d4fusion.rootmodel import chamber_triality
from d4fusion.structure import StructureContext

omega = build_omega8plus2()
chamber = sylow_via_chamber(omega)
ctx = StructureContext(chamber)

t0 = time.time()
tri_chamber = chamber_triality(chamber)
print("diagram symmetry transported in %.1fs, order %d" %
      (time.time() - t0, tri_chamber.map_order()))
print("behavior:", order3_behavior(ctx, tri_chamber))

t0 = time.time()
outcome = order3_automorphisms(ctx, budget_secs=600, limit=2)
print("\nbacktrack found %d maps in %.1fs (%d nodes)" %
      (len(outcome.found), time.time() - t0, outcome.nodes))
for auto in outcome.found:
    print("behavior:", order3_behavior(ctx, auto)["ok"])
