"""One certification in a fresh process; ``run.py`` starts it and reads its record.

Usage: python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1

Progress goes to standard error; the last line of standard output is the
record: timings, CPU, peak RSS, the correctness checks, the program's counts
and, when traced, the per-name span totals.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import d4fusion  # noqa: E402

if Path(d4fusion.__file__).resolve().parent != ROOT / "src" / "d4fusion":
    raise SystemExit("d4fusion was imported from %s, not from this checkout" % d4fusion.__file__)

import tracing  # noqa: E402
import workloads  # noqa: E402

# The affine builder keeps no module-level cache, so repeating it measures what
# a fresh process pays; it is repeated to steady the set-up median.  The flag
# and frame builders cache domain enumerations in d4fusion.domains, so a second
# build in one process would be cheaper than the first, and each takes 6-13 s.
SETUP_REPEATS = {"battery": 3, "search": 1, "fusion": 1}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase(t0, c0) -> dict:
    """Wall and CPU seconds since (t0, c0), with the monotonic interval."""
    t1 = time.monotonic()
    return {"start": t0, "end": t1, "wall_s": t1 - t0, "cpu_s": cpu_seconds() - c0}


def log(message):
    print("[%s] %s" % (time.strftime("%H:%M:%S"), message), file=sys.stderr, flush=True)


def evaluate(checks):
    """Each check is (thunk, expected); a raise or a wrong value is a failure."""
    out = {}
    for name, (thunk, expected) in checks.items():
        try:
            observed = thunk()
            ok = bool(observed == expected)
        except Exception as exc:  # a broken result must not abort the gate
            observed, ok = "raised %r" % exc, False
        out[name] = {"ok": ok, "observed": repr(observed), "expected": repr(expected)}
    return out


def run(workload: str, seed: int, trace: bool) -> dict:
    setup, certify, gate = workloads.WORKLOADS[workload]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    setups = []
    bundles = None
    for _ in range(1 if trace else SETUP_REPEATS[workload]):
        bundles = None
        gc.collect()
        c0, t0 = cpu_seconds(), time.monotonic()
        bundles = setup()
        setups.append(phase(t0, c0))
    log("%s set-up %s s, peak RSS %.0f MB" % (
        workload, " ".join("%.2f" % p["wall_s"] for p in setups), peak_rss_mb()))

    if tracer:
        tracer.enabled = False
    t0 = time.monotonic()
    bundles = workloads.relabel_all(bundles, seed)
    relabel_s = time.monotonic() - t0
    gc.collect()
    log("relabelled with seed %d in %.2f s, peak RSS %.0f MB" % (seed, relabel_s, peak_rss_mb()))
    if tracer:
        tracer.enabled = True

    c0, t0 = cpu_seconds(), time.monotonic()
    try:
        out, error = certify(bundles), None
    except Exception:
        out, error = None, traceback.format_exc()
    certification = phase(t0, c0)
    rss = peak_rss_mb()
    log("%s certified in %.2f s, peak RSS %.0f MB" % (workload, certification["wall_s"], rss))
    if tracer:
        tracer.enabled = False

    counts = {}
    if error is None:
        try:
            check_thunks, counts = gate(bundles, out)
            checks = evaluate(check_thunks)
        except Exception:
            checks = {"gate.completed": {"ok": False, "observed": traceback.format_exc(),
                                         "expected": "no exception"}}
    else:
        print(error, file=sys.stderr)
        checks = {"certify.completed": {"ok": False, "observed": error,
                                        "expected": "no exception"}}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "setups": setups,
        "certification": certification,
        "relabel_s": relabel_s,
        "peak_rss_mb": rss,
        "checks": checks,
        "counts": counts,
    }
    if tracer:
        totals = tracer.self_times()
        record["self_s"] = {name: self_s for name, (_, self_s) in totals.items()}
        record["trace_counts"] = dict(tracer.counts)
        record["trace_counts"].update(
            (name + ".calls", calls) for name, (calls, _) in totals.items())
        record["span_count"] = len(tracer.spans)
        record["rss_growth_mb"] = dict(tracer.rss_growth_mb)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
