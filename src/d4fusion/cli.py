"""Command-line surface: construct | verify | fusion | report.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 resource
or configuration trouble.  A certificate JSON is written for outcomes 0
and 1.  The cache directory (flag --cache-dir, else the D4FUSION_CACHE
environment variable, else ./d4fusion-cache) holds the latest
certificate of each command, unless --out names another path.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .perms import ConfigurationError, ResourceError
from .reports import Certificate, LemmaReport, check_timer

MODELS = ("omega8plus2", "affine", "frame")


@dataclass
class RunConfig:
    command: str
    model: str = "all"
    lemma: str = "all"
    variant: str = "O8p2"
    action: str = "build"
    q: int = 3
    cache_dir: Path = None
    budget_secs: float = 7200.0
    out: Path = None

    def __post_init__(self):
        # a NaN budget would switch every deadline off, and neither NaN nor
        # an infinity is JSON
        if not (math.isfinite(self.budget_secs) and self.budget_secs > 0):
            raise ConfigurationError("budgets must be finite and positive, not %r"
                                     % self.budget_secs)
        if self.out is not None and (self.out.is_dir() or not self.out.parent.is_dir()):
            raise ConfigurationError("--out %s must name a file in an existing "
                                     "directory" % self.out)
        # last, so that a refused configuration leaves no directory behind
        if self.cache_dir is not None:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigurationError("cache directory %s is unusable: %s"
                                         % (self.cache_dir, exc)) from exc

    def echo(self) -> dict:
        return {
            "command": self.command,
            "model": self.model,
            "lemma": self.lemma,
            "variant": self.variant,
            "action": self.action,
            "q": self.q,
            "cache_dir": str(self.cache_dir),
            "budget_secs": self.budget_secs,
            "tool_version": __version__,
        }


def resolve_cache_dir(flag_value) -> Path:
    """The cache directory: the flag, else D4FUSION_CACHE, else d4fusion-cache.

    `RunConfig` creates it, once the rest of the configuration has passed.
    """
    if flag_value:
        return Path(flag_value)
    if os.environ.get("D4FUSION_CACHE"):
        return Path(os.environ["D4FUSION_CACHE"])
    return Path("d4fusion-cache")


# ---------------------------------------------------------------------------
# bundle construction


_BUILDERS = {}


def build_bundles(config: RunConfig, models=None):
    """Build (or reuse in-process) the requested model bundles."""
    from .groupmodels import (build_affine_model, build_frame_model_gf3,
                              build_omega8plus2, sylow_via_chamber)
    wanted = models or (MODELS if config.model == "all" else (config.model,))
    out = {}
    for model in wanted:
        if model in _BUILDERS:
            out[model] = _BUILDERS[model]
            continue
        if model == "omega8plus2":
            bundle = sylow_via_chamber(build_omega8plus2())
        elif model == "affine":
            bundle = build_affine_model()
        elif model == "frame":
            bundle = build_frame_model_gf3()
        else:
            raise ConfigurationError("unknown model %r" % model)
        _BUILDERS[model] = bundle
        out[model] = bundle
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(config: RunConfig) -> Certificate:
    cert = Certificate(config=config.echo())
    with check_timer() as t:
        bundles = build_bundles(config)
    for model, bundle in bundles.items():
        cert.add(LemmaReport(
            lemma_id="construct-%s" % model,
            status="pass",
            witnesses={
                "sylow_order": bundle.sylow.n,
                "ambient_order": bundle.ambient.chain.order(),
                "degree": bundle.degree,
                "provenance": bundle.provenance,
            },
            elapsed_ms=t.elapsed_ms,
            claim="model constructed with certified ambient chain and 4096-element "
                  "Sylow enumeration",
        ))
    return cert


def cmd_verify(config: RunConfig) -> Certificate:
    from .structure import (CHECK_ALIASES, CHECKS, StructureContext, check_valuation,
                            model_fingerprint, run_battery)
    cert = Certificate(config=config.echo())
    lemma = CHECK_ALIASES.get(config.lemma, config.lemma)
    if lemma == "valuation":
        cert.add(check_valuation(None, q_values=(config.q,)))
        return cert
    models = MODELS if config.model == "all" else (config.model,)
    bundles = build_bundles(config, models=models)
    contexts = {m: StructureContext(b) for m, b in bundles.items()}
    # run_battery owns the rule that a8 runs on the affine model only
    sel = list(CHECKS) + ["a8"] if lemma == "all" else [lemma]
    for model in models:
        for rep in run_battery(contexts[model], ids=sel):
            rep.lemma_id = "%s@%s" % (rep.lemma_id, model)
            cert.add(rep)
    if not cert.reports:
        raise ConfigurationError("lemma %r selects no check on model %s"
                                 % (config.lemma, ", ".join(models)))
    if lemma == "all":
        cert.add(check_valuation(None))
    if lemma == "all" and config.model == "all":
        fps = {m: model_fingerprint(contexts[m]) for m in MODELS}
        agree = len({str(sorted(fp.items())) for fp in fps.values()}) == 1
        cert.add(LemmaReport(
            lemma_id="cross-model-fingerprints",
            status="pass" if agree else "fail",
            witnesses={m: {k: str(v) for k, v in fp.items()} for m, fp in fps.items()},
            elapsed_ms=0,
            claim="all three Sylow realizations share order histogram, central "
                  "series orders and elementary abelian counts",
        ))
        cert.reports.extend(_isomorphism_reports(config, contexts))
    return cert


def _isomorphism_reports(config: RunConfig, contexts):
    from .automorphisms import find_isomorphism
    out = []
    pairs = [("affine", "omega8plus2"), ("omega8plus2", "frame")]
    for a, b in pairs:
        with check_timer() as t:
            try:
                outcome = find_isomorphism(contexts[a], contexts[b],
                                           budget_secs=config.budget_secs)
            except ResourceError as exc:
                raise ResourceError("isomorphism %s-%s: %s after %d nodes"
                                    % (a, b, exc, exc.stats["nodes"]),
                                    stats=exc.stats) from exc
        out.append(LemmaReport(
            lemma_id="isomorphism-%s-%s" % (a, b),
            status="pass" if outcome.ok else "fail",
            witnesses={"nodes": outcome.nodes, "found": len(outcome.found)},
            elapsed_ms=t.elapsed_ms,
            claim="the two Sylow realizations are isomorphic (verified bijection)",
        ))
    return out


def _build_system(config: RunConfig, variant: str, contexts: dict):
    """Assemble a variant over its model, reusing the model's context from
    `contexts` (model -> StructureContext), which is filled on first use."""
    from .fusion import build_fusion_system
    from .structure import StructureContext
    model = "omega8plus2" if variant.startswith("O8p2") else "frame"
    bundle = build_bundles(config, models=(model,))[model]
    if model not in contexts:
        contexts[model] = StructureContext(bundle)
    return build_fusion_system(variant, bundle, contexts[model],
                               order3_budget=config.budget_secs)


def cmd_fusion(config: RunConfig) -> Certificate:
    from .fusion import fingerprint_fusion, fusion_report
    cert = Certificate(config=config.echo())
    if config.action == "compare":
        fingerprints, contexts = {}, {}
        with check_timer() as t:
            for variant in ("O8p2", "O8p2x3", "PO8p3", "PO8p3x3"):
                fs = _build_system(config, variant, contexts)
                fingerprints[variant] = fingerprint_fusion(fs)
        names = list(fingerprints)
        distinct = all(fingerprints[a] != fingerprints[b]
                       for i, a in enumerate(names) for b in names[i + 1:])
        cert.add(LemmaReport(
            lemma_id="fusion-compare",
            status="pass" if distinct else "fail",
            witnesses={v: {"essentials": fp[0], "class_rows": len(fp[1]),
                           "class_table": [list(row) for row in fp[1]],
                           "autFE": list(fp[2])} for v, fp in fingerprints.items()},
            elapsed_ms=t.elapsed_ms,
            claim="the four variants have pairwise distinct fingerprints",
        ))
        return cert
    with check_timer() as t:
        rep = fusion_report(_build_system(config, config.variant, {}))
    cert.fusion_reports.append(rep)
    cert.add(LemmaReport(
        lemma_id="fusion-%s-%s" % (config.variant, config.action),
        status=rep["status"],
        witnesses={"essential_count": rep["essential_count"],
                   "o2_order": rep["o2_order"]},
        elapsed_ms=t.elapsed_ms,
        claim="fusion system assembled with trivial radical",
    ))
    return cert


def output_path(config: RunConfig) -> Path:
    return config.out or (config.cache_dir / ("certificate-%s.json" % config.command))


def cmd_report(config: RunConfig) -> Certificate:
    """Collect the certificates in the cache, except the report's own."""
    cert = Certificate(config=config.echo())
    own = {(config.cache_dir / "certificate-report.json").resolve(),
           output_path(config).resolve()}
    for path in sorted(config.cache_dir.glob("certificate-*.json")):
        if path.resolve() in own:
            continue
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except ValueError:
            continue
        cert.add(LemmaReport(
            lemma_id="certificate-%s" % path.stem,
            status=doc.get("overall", "fail"),
            witnesses={"path": str(path), "reports": len(doc.get("reports", []))},
            elapsed_ms=0,
            claim="previously written certificate",
        ))
    return cert


# ---------------------------------------------------------------------------
# entry point


def make_parser():
    parser = argparse.ArgumentParser(
        prog="d4fusion",
        description="certified 2-local structure and fusion-system checks for the "
                    "Sylow 2-subgroup shared by O8+(2) and POmega8+(3)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--budget-secs", type=float, default=7200.0)
        p.add_argument("--out", default=None)
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("construct", help="build and certify the models")
    p.add_argument("--model", default="all", choices=MODELS + ("all",))
    common(p)

    p = sub.add_parser("verify", help="run structure checks")
    p.add_argument("--lemma", default="all")
    p.add_argument("--model", default="all", choices=MODELS + ("all",))
    p.add_argument("--q", type=int, default=None,
                   help="field size for --lemma valuation (default 3)")
    common(p)

    p = sub.add_parser("fusion", help="assemble and analyze fusion systems")
    p.add_argument("--variant", default=None,
                   choices=("O8p2", "O8p2x3", "PO8p3", "PO8p3x3"),
                   help="system for --action build (default O8p2)")
    p.add_argument("--action", default="build",
                   choices=("build", "compare"))
    common(p)

    p = sub.add_parser("report", help="collect previously written certificates")
    common(p)
    return parser


def _field_size(args) -> int:
    """The --q value, which only the valuation lemma reads; 3 if not given.
    The valuation tables are defined for odd field sizes q >= 3 only."""
    q = getattr(args, "q", None)
    if q is None:
        return 3
    from .structure import CHECK_ALIASES
    if CHECK_ALIASES.get(args.lemma, args.lemma) != "valuation":
        raise ConfigurationError("--q applies to --lemma valuation only, not %r"
                                 % args.lemma)
    if q < 3 or q % 2 == 0:
        raise ConfigurationError("--q must be an odd integer >= 3, not %d" % q)
    return q


def _variant(args) -> str:
    """The --variant value, which only --action build reads; O8p2 if not given."""
    variant = getattr(args, "variant", None)
    if variant is None:
        return "O8p2"
    if args.action != "build":
        raise ConfigurationError("--variant applies to --action build only, not %r"
                                 % args.action)
    return variant


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING - 10 * min(args.verbose, 2))
    handler = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "fusion": cmd_fusion,
        "report": cmd_report,
    }[args.command]
    try:
        config = RunConfig(
            command=args.command,
            model=getattr(args, "model", "all"),
            lemma=getattr(args, "lemma", "all"),
            variant=_variant(args),
            action=getattr(args, "action", "build"),
            q=_field_size(args),
            cache_dir=resolve_cache_dir(args.cache_dir),
            budget_secs=args.budget_secs,
            out=Path(args.out) if args.out else None,
        )
        cert = handler(config)
    except ResourceError as exc:
        print("resource error: %s" % exc, file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    out_path = output_path(config)
    cert.write(out_path)
    for rep in cert.reports:
        print("%-42s %s  (%d ms)" % (rep.lemma_id, rep.status.upper(), rep.elapsed_ms))
    for frep in cert.fusion_reports:
        print("fusion %-35s %s  essentials=%d o2=%s" % (
            frep["variant"], frep["status"].upper(), frep["essential_count"],
            frep["o2_order"]))
    print("overall: %s  (certificate: %s)" % (cert.overall, out_path))
    return 0 if cert.overall == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
