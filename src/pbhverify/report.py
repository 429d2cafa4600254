"""Verification reports: named checks with residuals, tolerances and
pass/fail flags, serialized losslessly and deterministically."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import __version__

__all__ = ["CheckRecord", "VerificationReport", "format_residual"]


def format_residual(x: float) -> str:
    """Decimal with 17 significant digits: lossless for float64."""
    return f"{float(x):.17g}"


@dataclass
class CheckRecord:
    name: str
    reference: str
    residual: float
    tolerance: float
    points: int
    passed: bool
    inconclusive: int
    extra: dict

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "reference": self.reference,
            "residual": format_residual(self.residual),
            "tolerance": format_residual(self.tolerance),
            "points": self.points,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "extra": {k: format_residual(v) if isinstance(v, float) else v
                      for k, v in sorted(self.extra.items())},
        }


def _relation(c: CheckRecord) -> str:
    """The measured relation of residual to tolerance, whatever the check's
    pass criterion: ``X <= tol``, ``X > tol`` or ``X (not finite)``."""
    x = format_residual(c.residual)
    if not math.isfinite(c.residual):
        return f"{x} (not finite)"
    rel = "<=" if c.residual <= c.tolerance else ">"
    return f"{x} {rel} {format_residual(c.tolerance)}"


@dataclass
class VerificationReport:
    suite: str
    model: str
    config: dict
    checks: list
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "model": self.model,
            "engine_version": __version__,
            "config": {k: str(v) for k, v in sorted(self.config.items())},
            "verdict": "pass" if self.passed else "fail",
            "checks": [c.to_doc() for c in self.checks],
            "wall_time_s": format_residual(self.wall_time_s),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=False) + "\n"

    def summary(self) -> str:
        lines = [f"suite {self.suite} on model {self.model} "
                 f"({len(self.checks)} checks): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            inc = f" inconclusive={c.inconclusive}" if c.inconclusive else ""
            lines.append(f"  [{mark}] {c.name}: residual {_relation(c)}"
                         f" ({c.points} pts{inc}) -- {c.reference}")
        return "\n".join(lines) + "\n"
