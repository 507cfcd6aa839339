"""Certified computations around the Sylow 2-subgroup shared by O8+(2) and POmega8+(3).

The package builds concrete models of the group S of order 2^12, machine
checks its characteristic structure exhaustively from Cayley tables, and
assembles the four saturated fusion systems on S that arise from
O8+(2), O8+(2):3, POmega8+(3) and POmega8+(3):3, together with the
invariants that tell them apart.
"""

__version__ = "0.1.0"

from .perms import compose, inverse, perm_from_cycles
from .stabchain import StabChain, GroupHandle, build_stab_chain, orbit

__all__ = [
    "compose",
    "inverse",
    "perm_from_cycles",
    "StabChain",
    "GroupHandle",
    "build_stab_chain",
    "orbit",
    "__version__",
]
