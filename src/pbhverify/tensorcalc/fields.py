"""Chart-based tensor fields as pure jet-evaluation maps.

A field is a function from coordinate jets to component jets.  Component
layout by kind:

  scalar    (B,)
  vector    (B, d)          columns of the coordinate frame
  oneform   (B, d)
  form k    (B, C(d,k))     components on sorted index combinations
  endo      (B, d, d)       (A X)^i = A[i, j] X^j
  metric    (B, d, d)       symmetric
  bivector  (B, d, d)       antisymmetric, full storage
  section   (B, 2d)         X + xi in T + T*: vector part, then covector part
  tensor    explicit shape

``cost`` is the number of derivative orders the evaluation consumes
internally (exterior derivatives, Christoffels, flow Jacobians); evaluation
seeds coordinate jets of order ``requested + cost``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ChartDomain
from .jets import Jet, jet_coords

__all__ = ["Field", "lift_to_jets", "scalar_field", "vector_field",
           "oneform_field", "form_field", "endo_field", "metric_field",
           "bivector_field", "constant_endo", "constant_metric",
           "constant_form", "coordinate_vector", "coordinate_oneform",
           "zero_form"]


def memoize_fn(fn):
    """Cache a jet-evaluation closure on the input jet's bytes; evaluation is
    pure, so identical coordinate jets give identical results."""
    cache: dict = {}

    def wrapped(jc):
        key = (jc.c.tobytes(), jc.order)
        hit = cache.get(key)
        if hit is None:
            hit = fn(jc)
            if len(cache) > 32:
                cache.clear()
            cache[key] = hit
        return hit

    return wrapped


@dataclass
class Field:
    chart: ChartDomain
    kind: str
    fn: Callable[[Jet], Jet]
    degree: int = 0  # form degree where applicable
    cost: int = 0
    name: str = ""

    def memoized(self) -> "Field":
        return Field(self.chart, self.kind, memoize_fn(self.fn),
                     degree=self.degree, cost=self.cost, name=self.name)

    def eval_jet(self, points: np.ndarray, order: int = 0) -> Jet:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        jc = jet_coords(self.chart.dim, order + self.cost, pts)
        out = self.fn(jc)
        if out.order < order:
            raise RuntimeError(f"field {self.name or self.kind}: order bookkeeping violated")
        return out

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self.eval_jet(points, 0).value

    def _binop(self, other, op, kind=None):
        if isinstance(other, Field):
            if other.chart is not self.chart:
                raise ValueError("fields on different charts")
            cost = max(self.cost, other.cost)
            return Field(self.chart, kind or self.kind,
                         lambda jc: op(self.fn(jc), other.fn(jc)),
                         degree=self.degree, cost=cost)
        return Field(self.chart, kind or self.kind, lambda jc: op(self.fn(jc), other),
                     degree=self.degree, cost=self.cost)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return Field(self.chart, self.kind, lambda jc: -self.fn(jc),
                     degree=self.degree, cost=self.cost)

    def __mul__(self, other):
        """Scalar multiplication: other is a number or a scalar Field."""
        if isinstance(other, Field):
            if other.kind != "scalar":
                raise ValueError("can only multiply by scalar fields")

            def op(jc):
                return _scale(self.fn(jc), other.fn(jc))

            return Field(self.chart, self.kind, op, degree=self.degree,
                         cost=max(self.cost, other.cost))
        return Field(self.chart, self.kind, lambda jc: self.fn(jc) * other,
                     degree=self.degree, cost=self.cost)

    __rmul__ = __mul__


def lift_to_jets(field: Field, points: np.ndarray, order: int = 3) -> Jet:
    """Component jets of a field at chart points, after checking that the
    points lie in the box and clear the excluded loci."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    field.chart.require(pts)
    return field.eval_jet(pts, order=order)


def _scale(v: Jet, s: Jet) -> Jet:
    """Multiply component jet v (B, ..., n) by scalar jet s (B, n)."""
    extra = v.c.ndim - s.c.ndim
    ss = Jet(s.space, s.c.reshape(s.c.shape[:1] + (1,) * extra + s.c.shape[1:]), s.order)
    return v * ss


def scalar_field(chart, fn, cost=0, name=""):
    return Field(chart, "scalar", fn, cost=cost, name=name)


def vector_field(chart, fn, cost=0, name=""):
    return Field(chart, "vector", fn, cost=cost, name=name)


def oneform_field(chart, fn, cost=0, name=""):
    return Field(chart, "oneform", fn, degree=1, cost=cost, name=name)


def form_field(chart, k, fn, cost=0, name=""):
    return Field(chart, "form", fn, degree=k, cost=cost, name=name)


def endo_field(chart, fn, cost=0, name=""):
    return Field(chart, "endo", fn, cost=cost, name=name)


def metric_field(chart, fn, cost=0, name=""):
    return Field(chart, "metric", fn, cost=cost, name=name)


def bivector_field(chart, fn, cost=0, name=""):
    return Field(chart, "bivector", fn, cost=cost, name=name)


def _broadcast_const(jc, arr):
    b = jc.c.shape[0]
    tiled = np.broadcast_to(arr, (b,) + np.asarray(arr).shape).copy()
    return Jet.constant(jc.space, tiled, jc.order)


def constant_endo(chart, matrix, name=""):
    m = np.asarray(matrix, dtype=np.float64)
    return endo_field(chart, lambda jc: _broadcast_const(jc, m), name=name)


def constant_metric(chart, matrix, name=""):
    m = np.asarray(matrix, dtype=np.float64)
    return metric_field(chart, lambda jc: _broadcast_const(jc, m), name=name)


def constant_form(chart, k, combo_values, name=""):
    v = np.asarray(combo_values)
    return form_field(chart, k, lambda jc: _broadcast_const(jc, v), name=name)


def coordinate_vector(chart, i, name=""):
    e = np.zeros(chart.dim)
    e[i] = 1.0
    return vector_field(chart, lambda jc: _broadcast_const(jc, e), name=name or f"e{i}")


def coordinate_oneform(chart, i, name=""):
    e = np.zeros(chart.dim)
    e[i] = 1.0
    return oneform_field(chart, lambda jc: _broadcast_const(jc, e), name=name or f"dx{i}")


def zero_form(chart, k):
    from .calculus import form_combos
    ncomb = len(form_combos(chart.dim, k))
    return form_field(chart, k, lambda jc: _broadcast_const(jc, np.zeros(ncomb)))
