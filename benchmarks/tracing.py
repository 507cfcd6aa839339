"""Span tracing of d4fusion's public functions, installed from outside.

``install`` replaces each traced function by a wrapper, in every d4fusion
module namespace (and module-level dict, such as ``structure.CHECKS``) that
holds a reference to it, and in the owning class for methods.  The program's
source is not touched; a traced process is a separate benchmark child that
exits when it is done, so nothing is restored.

A span is ``[name, start, end, parent]``; spans stay in memory.  A span's
self time is its duration minus the durations of its child spans (calls are
sequential, so children never overlap).  Functions called hundreds of
thousands of times (``perms``) are counted, not spanned.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter
from functools import cached_property

from d4fusion import (automorphisms, cayley, domains, fusion, groupmodels, perms,
                      quadforms, rootmodel, stabchain, structure)
from workloads import CONTEXT_PROPERTIES

CONTEXT = "structure.context"

# (metric prefix, owner, attribute name); "calls" and "s" are reported for each
SPANS = [
    ("stabchain.build_stab_chain", stabchain, "build_stab_chain"),
    ("stabchain.verify_chain", stabchain, "verify_chain"),
    ("stabchain.stabilizer_of_prefix", stabchain, "stabilizer_of_prefix"),
    ("domains.singular_objects", domains, "singular_objects"),
    ("domains.induced_action", domains, "induced_action"),
    ("quadforms.in_omega_gf3", quadforms, "in_omega_gf3"),
    ("groupmodels.omega_transvection_pairs", groupmodels, "omega_transvection_pairs"),
    ("groupmodels.build_omega8plus2", groupmodels, "build_omega8plus2"),
    ("groupmodels.sylow_via_chamber", groupmodels, "sylow_via_chamber"),
    ("groupmodels.build_affine_model", groupmodels, "build_affine_model"),
    ("groupmodels.build_frame_model_gf3", groupmodels, "build_frame_model_gf3"),
    ("groupmodels.verify_embedding", groupmodels, "verify_embedding"),
    ("groupmodels.verify_frame_o2", groupmodels, "verify_frame_o2"),
    ("rootmodel.build_root_model", rootmodel, "build_root_model"),
    ("rootmodel.triality_automap", rootmodel, "triality_automap"),
    ("rootmodel.root_model_matches", rootmodel, "root_model_matches"),
    ("cayley.CayleyGroup.from_generators", cayley.CayleyGroup, "from_generators"),
    ("cayley.CayleyGroup.init", cayley.CayleyGroup, "__init__"),
    ("cayley.closure", cayley.CayleyGroup, "closure"),
    ("cayley.check_closed", cayley.CayleyGroup, "check_closed"),
    ("cayley.subgroups_of_index", cayley.CayleyGroup, "subgroups_of_index"),
    ("cayley.maximal_subgroups", cayley.CayleyGroup, "maximal_subgroups"),
    ("cayley.derived_subgroup", cayley.CayleyGroup, "derived_subgroup"),
    ("cayley.conjugacy_classes", cayley.CayleyGroup, "conjugacy_classes"),
    ("cayley.AutoMap.verify", cayley.AutoMap, "__post_init__"),
    ("structure.check_cent", structure, "check_cent"),
    ("structure.check_sixe", structure, "check_sixe"),
    ("structure.check_cosets", structure, "check_cosets"),
    ("structure.check_cosetpairs", structure, "check_cosetpairs"),
    ("structure.check_eintersect", structure, "check_eintersect"),
    ("structure.check_z3", structure, "check_z3"),
    ("structure.check_z3meet", structure, "check_z3meet"),
    ("structure.check_frattini", structure, "check_frattini"),
    ("structure.check_elab", structure, "check_elab"),
    ("structure.check_extraspecial_unique", structure, "check_extraspecial_unique"),
    ("structure.check_a8", structure, "check_a8"),
    ("structure.check_valuation", structure, "check_valuation"),
    ("automorphisms.joint_colors", automorphisms, "joint_colors"),
    ("automorphisms.order3_automorphisms", automorphisms, "order3_automorphisms"),
    ("automorphisms.find_isomorphism", automorphisms, "find_isomorphism"),
    ("automorphisms.AutoMapPair", automorphisms.AutoMapPair, "__init__"),
    ("automorphisms.order3_behavior", automorphisms, "order3_behavior"),
    ("fusion.build_fusion_system", fusion, "build_fusion_system"),
    ("fusion.chamber_parabolic_slots", fusion, "chamber_parabolic_slots"),
    ("fusion.automizer_from_model", fusion, "automizer_from_model"),
    ("fusion.conjugation_automap", fusion, "conjugation_automap"),
    ("fusion.fuse_elements", fusion, "fuse_elements"),
]

COUNTED = [
    ("perms.inverse", perms, "inverse"),
    ("perms.compose", perms, "compose"),
]

# counts read off a traced function's return value
RESULT_COUNTS = {
    "automorphisms.order3_automorphisms": ("nodes", lambda r: r.nodes),
    "automorphisms.find_isomorphism": ("nodes", lambda r: r.nodes),
    "cayley.subgroups_of_index": ("found", len),
}

# peak-RSS growth is recorded for these spans
RSS_SPANS = {"automorphisms.joint_colors"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        # every metric the tracer can produce starts at zero, so that a layer
        # the workload does not reach reads 0 and a misspelt name is an error
        self.counts = Counter({name + ".calls": 0 for name, _, _ in COUNTED})
        self.counts.update({name + "." + suffix: 0
                            for name, (suffix, _) in RESULT_COUNTS.items()})
        self.rss_growth_mb = {name: 0.0 for name in RSS_SPANS}
        self.enabled = True
        self._stack = []

    def _span(self, name, fn):
        result_count = RESULT_COUNTS.get(name)
        track_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            rss0 = _maxrss_mb() if track_rss else 0.0
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if track_rss:
                self.rss_growth_mb[name] += _maxrss_mb() - rss0
            if result_count is not None:
                self.counts[name + "." + result_count[0]] += result_count[1](result)
            return result
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for name, owner, attr in SPANS:
            _replace(owner, attr, lambda fn, name=name: self._span(name, fn))
        for name, owner, attr in COUNTED:
            _replace(owner, attr, lambda fn, name=name: self._counter(name, fn))
        for attr in CONTEXT_PROPERTIES:
            _replace(structure.StructureContext, attr, lambda fn: self._span(CONTEXT, fn))

    def self_times(self):
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in [CONTEXT] + [name for name, _, _ in SPANS]}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - inner
        return out


def _replace(owner, attr, make_wrapper):
    """Swap owner.attr for a wrapper everywhere d4fusion holds a reference."""
    if isinstance(owner, type):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        elif isinstance(raw, cached_property):
            prop = cached_property(make_wrapper(raw.func))
            prop.__set_name__(owner, attr)
            setattr(owner, attr, prop)
        else:
            setattr(owner, attr, make_wrapper(raw))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "d4fusion" and not mod_name.startswith("d4fusion."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
