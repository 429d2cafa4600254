"""Chart domains and deterministic sample plans."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["ChartDomain", "SamplePlan", "DomainError"]

DEFAULT_MARGIN = 0.05


class DomainError(ValueError):
    """A point (or requested sampling) violates a chart domain."""


@dataclass(frozen=True)
class ExcludedLocus:
    """Scalar predicate with an exclusion margin: points with
    |predicate| <= margin are rejected."""

    predicate: Callable[[np.ndarray], np.ndarray]
    margin: float = DEFAULT_MARGIN


@dataclass(frozen=True)
class ChartDomain:
    dim: int
    box: tuple  # ((lo, hi), ...) per coordinate
    excluded: tuple = ()
    name: str = field(kw_only=True)  # for DomainError messages

    def __post_init__(self):
        if self.dim not in (4, 6):
            raise DomainError(f"unsupported chart dimension {self.dim}")
        if len(self.box) != self.dim:
            raise DomainError("box must give one interval per coordinate")
        for lo, hi in self.box:
            if not hi > lo:
                raise DomainError("box must have positive volume")

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        ok = np.all((pts >= lo) & (pts <= hi), axis=1)
        for loc in self.excluded:
            ok &= np.abs(loc.predicate(pts)) > loc.margin
        return ok

    def require(self, points: np.ndarray):
        ok = self.contains(points)
        if not np.all(ok):
            bad = np.atleast_2d(points)[~ok][0]
            raise DomainError(f"point outside domain {self.name}: {bad}")


@dataclass(frozen=True)
class SamplePlan:
    count: int
    seed: int

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("sample count must be positive")

    def sample(self, domain: ChartDomain) -> np.ndarray:
        """Uniform-in-box with rejection at excluded loci.  Identical
        (plan, domain) pairs yield identical point sequences."""
        rng = np.random.default_rng(np.random.PCG64(self.seed))
        lo = np.array([b[0] for b in domain.box])
        hi = np.array([b[1] for b in domain.box])
        out = []
        got = 0
        for _ in range(1000):
            draw = rng.uniform(lo, hi, size=(max(2 * self.count, 16), domain.dim))
            keep = np.ones(len(draw), dtype=bool)
            for loc in domain.excluded:
                keep &= np.abs(loc.predicate(draw)) > loc.margin
            acc = draw[keep]
            out.append(acc)
            got += len(acc)
            if got >= self.count:
                break
        else:
            raise DomainError(f"rejection sampling failed on {domain.name}")
        return np.concatenate(out, axis=0)[: self.count]
