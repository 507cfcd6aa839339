"""Report and certificate records emitted by checks and the CLI.

Integers that can exceed 2^53 are serialized as decimal strings so the
JSON survives round-trips through double-precision parsers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__


def _encode(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < 2 ** 53 else str(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    import numpy as np
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    return value


@dataclass
class LemmaReport:
    """One verified structural claim: identifier, verdict, witness values."""

    lemma_id: str
    status: str                   # "pass" | "fail"
    witnesses: dict
    elapsed_ms: int
    claim: str = ""

    def to_json(self) -> dict:
        doc = {
            "lemma_id": self.lemma_id,
            "status": self.status,
            "witnesses": _encode(self.witnesses),
            "elapsed_ms": self.elapsed_ms,
        }
        if self.claim:
            doc["claim"] = self.claim
        return doc

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class check_timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed_ms = int(1000 * (time.monotonic() - self.t0))
        return False


@dataclass
class Certificate:
    """Aggregate result document for one CLI run."""

    config: dict
    reports: list = field(default_factory=list)
    fusion_reports: list = field(default_factory=list)
    tool_version: str = __version__

    def add(self, report: LemmaReport):
        self.reports.append(report)

    @property
    def overall(self) -> str:
        ok = all(r.passed for r in self.reports)
        ok = ok and all(fr.get("status", "pass") == "pass" for fr in self.fusion_reports)
        return "pass" if ok else "fail"

    def to_json(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": _encode(self.config),
            "reports": [r.to_json() for r in self.reports],
            "fusion_reports": _encode(self.fusion_reports),
            "overall": self.overall,
        }

    def write(self, path) -> None:
        """Write the JSON to a temporary file beside path, then rename it over
        path: a reader sees the old file or the new one, never a partial one."""
        tmp = Path("%s.tmp" % path)
        try:
            with open(tmp, "w") as fh:
                json.dump(self.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
