"""The benchmark's tracer and workloads still resolve against the library.

``benchmarks/tracing.py`` wraps functions by (owner, attribute) name and
``benchmarks/workloads.py`` calls library functions as module attributes, so
a renamed or deleted function would only show when a benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import d4fusion
from d4fusion import structure

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_tracer_targets_resolve(monkeypatch):
    tracing = _bench_module(monkeypatch, "tracing")
    for name, owner, attr in tracing.SPANS + tracing.COUNTED:
        if isinstance(owner, type):
            assert attr in vars(owner), name
        else:
            assert callable(getattr(owner, attr, None)), name
    for attr in tracing.CONTEXT_PROPERTIES:
        assert attr in vars(structure.StructureContext), attr


def test_workload_calls_resolve(monkeypatch):
    workloads = _bench_module(monkeypatch, "workloads")
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "d4fusion"
               for alias in node.names}
    assert modules
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert len(used) > 10
    for mod_name, attr in sorted(used):
        module = getattr(d4fusion, mod_name)
        assert getattr(workloads, mod_name) is module
        assert hasattr(module, attr), "%s.%s" % (mod_name, attr)
