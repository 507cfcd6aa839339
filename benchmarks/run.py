"""The d4fusion certification benchmark.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload battery|search|fusion --seed N \\
        --seconds S --trace 0|1

Load shape: closed loop, one client.  Each certification runs in a fresh
Python process (``worker.py``) with no worker pools.

Times are reported in seconds at a reference host speed.  The shared host
this was written on ran one certification anywhere from 12 to 21 s within
minutes, so every worker runs beside ``sampler.py``, which measures the host's
speed over each phase on a fixed kernel; a phase's wall and CPU seconds are
multiplied by that speed relative to ``REFERENCE_SPEED``.  The raw seconds
and the speed of each phase are printed and kept in the records.

With ``--trace 0`` the run repeats certifications, each in a new process,
until their set-up and measured phases have taken ``--seconds`` in total (at
least one), and prints the medians of the end-to-end metrics.  With ``--trace 1`` it runs one
traced certification and prints the per-layer metrics that ``BENCHMARK.json``
lists, the traced wall time beside the untraced median, and their difference,
the tracing overhead.

Every certification leaves a record in ``.bench_runs/`` of the checkout.  The
records give the untraced reference of a traced run, and they are how two
runs with the same seed are checked for identical counts: a mismatch ends the
run with exit code 3.  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RECORDS = ROOT / ".bench_runs"
WORKLOADS = ("battery", "search", "fusion")
RUN_LIMIT_S = 170.0
# sampler iterations per CPU second at the reference host speed
REFERENCE_SPEED = 130_000.0


class CountMismatch(Exception):
    """Two runs of the same code and seed disagree on a count."""


def source_digest() -> str:
    """Content hash of the program and the benchmark, which keys the records."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.rglob("*.py"))
    files.append(ROOT / "BENCHMARK.json")
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "revision": git_describe(),
        "source_digest": source_digest(),
    }


def run_worker(workload, seed, trace, deadline) -> dict:
    """One certification in a fresh process, with the host-speed sampler beside it."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    sampler = subprocess.Popen([sys.executable, str(BENCH_DIR / "sampler.py")],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        sampler.terminate()
        samples = [tuple(map(float, line.split()))
                   for line in sampler.communicate(timeout=30)[0].splitlines()]
    if done.returncode != 0:
        raise RuntimeError("worker exited with code %d" % done.returncode)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    normalise(record, samples)
    return record


def speed(samples, start, end) -> float:
    """Host speed over [start, end] as a share of the reference speed."""
    inside = [(cpu, n) for t, cpu, n in samples if start < t <= end + 0.25]
    if not inside or sum(cpu for cpu, _ in inside) <= 0:
        raise RuntimeError("the host-speed sampler got no CPU time during a phase")
    return sum(n for _, n in inside) / sum(cpu for cpu, _ in inside) / REFERENCE_SPEED


def normalise(record, samples):
    """End-to-end times in seconds at the reference host speed.

    A phase that took w seconds while the host ran at f times the reference
    speed would have taken f * w seconds at the reference.  Raw wall and CPU
    seconds stay in the record next to the host speed of each phase.
    """
    setups, cert = record["setups"], record["certification"]
    for p in setups + [cert]:
        p["speed"] = speed(samples, p["start"], p["end"])
    record["setup_s"] = statistics.median(p["wall_s"] * p["speed"] for p in setups)
    record["certify_s"] = cert["wall_s"] * cert["speed"]
    record["cpu_s"] = (statistics.median(p["cpu_s"] * p["speed"] for p in setups)
                       + cert["cpu_s"] * cert["speed"])


def save(record, prov):
    record["provenance"] = prov
    RECORDS.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (record["workload"], record["seed"],
                                          record["trace"], time.time_ns())
    tmp = RECORDS / (name + ".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, RECORDS / name)


def earlier(workload, digest, trace, seed=None):
    if not RECORDS.is_dir():
        return []
    out = []
    for path in sorted(RECORDS.glob("%s-*.json" % workload)):
        rec = json.loads(path.read_text())
        if (rec["provenance"]["source_digest"] == digest and rec["trace"] == trace
                and (seed is None or rec["seed"] == seed)):
            out.append(rec)
    return out


def same_counts(what, reference, record, keys):
    for key in keys:
        if reference.get(key) != record.get(key):
            raise CountMismatch("%s: %s differ between two runs with seed %d:\n%s\n%s" % (
                what, key, record["seed"], reference.get(key), record.get(key)))


def checks_summary(records):
    attempted = sum(len(r["checks"]) for r in records)
    failed = sum(not c["ok"] for r in records for c in r["checks"].values())
    for r in records:
        for name, c in sorted(r["checks"].items()):
            if not c["ok"]:
                print("FAILED %s: observed %s, expected %s" % (name, c["observed"],
                                                              c["expected"]))
    return attempted, failed


def untraced(args, prov, deadline, end_to_end):
    records, measured = [], 0.0
    while not records or measured < args.seconds:
        rec = run_worker(args.workload, args.seed, False, deadline)
        for ref in records + earlier(args.workload, prov["source_digest"], 0, args.seed)[:1]:
            same_counts("untraced run", ref, rec, ("counts",))
        save(rec, prov)
        records.append(rec)
        measured += sum(p["wall_s"] for p in rec["setups"]) + rec["certification"]["wall_s"]
    metrics = {
        "setup_s": statistics.median(p["wall_s"] * p["speed"]
                                     for r in records for p in r["setups"]),
        "certify_s": statistics.median(r["certify_s"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    for r in records:
        print("raw wall: set-up %s s, certification %.3f s; host speed %s and %.3f" % (
            " ".join("%.3f" % p["wall_s"] for p in r["setups"]),
            r["certification"]["wall_s"],
            " ".join("%.3f" % p["speed"] for p in r["setups"]), r["certification"]["speed"]))
    return records, {m["name"]: (metrics[m["name"]], m["unit"]) for m in end_to_end}


def layer_value(name, rec, reference_wall):
    """A per-layer metric of BENCHMARK.json, read off a traced record."""
    if name == "trace.wall_s":
        return rec["setup_s"] + rec["certify_s"]
    if name == "trace.untraced_wall_s":
        return reference_wall
    if name == "trace.overhead_s":
        return rec["setup_s"] + rec["certify_s"] - reference_wall
    if name == "trace.spans":
        return rec["span_count"]
    prefix, _, field = name.rpartition(".")
    if field == "s":
        return rec["self_s"][prefix]
    if field == "rss_growth_mb":
        return rec["rss_growth_mb"][prefix]
    return rec["trace_counts"][name]


def observed(record):
    return {name: check["observed"] for name, check in record["checks"].items()}


def traced(args, prov, deadline, per_layer):
    """One traced certification, checked against untraced ones of the same code.

    The checked values do not depend on the labelling, so any untraced record
    serves for them; the program's counts (search nodes) may, so they are
    compared only with an untraced record of the same seed.  An untraced
    certification is run first only when there is no untraced record at all.
    """
    digest = prov["source_digest"]
    if not earlier(args.workload, digest, 0):
        print("no untraced record of this code yet; running one")
        save(run_worker(args.workload, args.seed, False, deadline), prov)
    references = earlier(args.workload, digest, 0)
    rec = run_worker(args.workload, args.seed, True, deadline)
    if observed(rec) != observed(references[0]):
        raise CountMismatch("the traced run's results differ from the untraced run's")
    same_seed = [r for r in references if r["seed"] == args.seed]
    for ref in same_seed[:1]:
        same_counts("traced against untraced run", ref, rec, ("counts",))
    for ref in earlier(args.workload, digest, 1, args.seed)[:1]:
        same_counts("traced run", ref, rec, ("counts", "trace_counts"))
    save(rec, prov)
    reference_wall = statistics.median(r["setup_s"] + r["certify_s"] for r in references)
    metrics = {m["name"]: (layer_value(m["name"], rec, reference_wall), m["unit"])
               for m in per_layer}
    print("traced wall %.3f s against an untraced median of %.3f s over %d run(s)%s" % (
        rec["setup_s"] + rec["certify_s"], reference_wall, len(references),
        "" if same_seed else "; no untraced record with this seed, counts not compared"))
    return [rec], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="d4fusion certification benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be at least 0 and --seconds positive")
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "d4fusion" / "__init__.py").is_file():
        print("no d4fusion sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    try:
        if args.trace:
            records, metrics = traced(args, prov, deadline, spec["per_layer"])
        else:
            records, metrics = untraced(args, prov, deadline, spec["end_to_end"])
    except CountMismatch as exc:
        print("NONDETERMINISTIC: %s" % exc, file=sys.stderr)
        return 3
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed = checks_summary(records)
    for name, (value, unit) in metrics.items():
        print("%-44s %14.4f %s" % (name, value, unit))
    print("%-44s %14.4f (%d of %d checks failed)" % (
        "check_fail_ratio", failed / attempted, failed, attempted))
    print("verdict: %s" % ("correct" if failed == 0 else "INCORRECT"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
