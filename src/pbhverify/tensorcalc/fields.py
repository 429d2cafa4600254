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
seeds coordinate jets of order ``requested + cost``.  A closure evaluates
an operand it only multiplies, and never differentiates, at the order its
result keeps, ``operand.fn_at(jc, jc.order - cost)``; an inverse or solve
takes its operand's prefix at its partner's order.  Jet kernels commute
with the prefix bitwise (a vector solve cut onto the constant path aside),
so no value moves.  An operand a memo also reads at full order stays there.

Frame constants.  A scalar, an endo, a metric, a bivector or a 2-form may
carry a ``FrameConstant``: its components ``m`` in the frame whose columns are
P(x) = I + x1 E, x1 the first coordinate and E a nilpotent generator
(E^2 = 0; E = 0 is the coordinate frame).  Its kind gives the chart
expression, a polynomial of degree at most two in x1 since P^-1 = I - x1 E:

  scalar    m           (invariant)
  endo      P M P^-1    = M + x1 (EM - ME) - x1^2 EME
  metric    P^-T G P^-1 = G - x1 (E^T G + GE) + x1^2 E^T G E
  bivector  P B P^T     = B + x1 (EB + BE^T) + x1^2 E B E^T, which is the
            inverse of the metric or 2-form P^-T M P^-1 when B = M^-1
  2-form    the metric rule on the matrix F with F(X, Y) = X^T F Y, whose
            entries above the diagonal are the combo components

The coefficients are computed once, when the field is built, and a trailing
coefficient is dropped when it is zero (``.any()`` is False), so each field
knows its degree in x1.  ``frame_field`` evaluates the chart expression by
multiplying the jet of x1 by constant arrays (``_x1_polynomial``); at
degree 0 it is a broadcast constant.  ``+``, ``-``, unary ``-`` and
multiplication by a number between fields of one kind in one frame carry
the combined frame components, and evaluate as their operands do, so their
values are bitwise those of the plain operation; any other operation gives
a plain field.  A scalar or endo built pointwise and frame-equivariantly
from frame constants of one frame is itself one, and ``frame_lift`` reads
its frame components off its chart value at x1 = 0, where P = I.  A 2-form
is not lifted: its combo components are only the upper triangle of F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ChartDomain
from .jets import Jet, jet_coords, jet_prefix, jet_space

__all__ = ["Field", "scalar_field", "vector_field", "oneform_field",
           "form_field", "endo_field", "metric_field", "bivector_field",
           "constant_endo", "constant_metric", "coordinate_vector",
           "zero_form", "FrameConstant", "frame_field", "frame_lift",
           "same_frame"]


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


@dataclass(frozen=True, eq=False)
class FrameConstant:
    """Frame components ``m`` in the frame I + x1 ``e`` and the chart
    expression's coefficients of x1^0, x1^1, ... (see the module notes)."""

    e: np.ndarray
    m: np.ndarray
    coeffs: tuple


@dataclass
class Field:
    chart: ChartDomain
    kind: str
    fn: Callable[[Jet], Jet]
    degree: int = 0  # form degree where applicable
    cost: int = 0
    name: str = ""
    frame: FrameConstant | None = None

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

    def fn_at(self, jc: Jet, order: int) -> Jet:
        """``fn`` at the prefix of ``jc`` that yields a jet valid to ``order``."""
        return self.fn(jet_prefix(jc, jet_space(jc.space.dim, order + self.cost)))

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self.eval_jet(points, 0).value

    def _framed(self, fn, m) -> "Field":
        """A field of this kind, cost and frame evaluated by ``fn``, with the
        frame components ``m``."""
        return Field(self.chart, self.kind, fn, degree=self.degree, cost=self.cost,
                     frame=_frame_constant(self.kind, self.frame.e, m))

    def _binop(self, other, op):
        if isinstance(other, Field):
            if other.chart is not self.chart:
                raise ValueError("fields on different charts")

            def fn(jc):
                return op(self.fn(jc), other.fn(jc))

            if other.kind == self.kind and same_frame(self, other):
                return self._framed(fn, op(self.frame.m, other.frame.m))
            return Field(self.chart, self.kind, fn, degree=self.degree,
                         cost=max(self.cost, other.cost))
        return Field(self.chart, self.kind, lambda jc: op(self.fn(jc), other),
                     degree=self.degree, cost=self.cost)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        def fn(jc):
            return -self.fn(jc)

        if self.frame is not None:
            return self._framed(fn, -self.frame.m)
        return Field(self.chart, self.kind, fn, degree=self.degree, cost=self.cost)

    def __mul__(self, other):
        """Scalar multiplication: other is a number or a scalar Field."""
        if isinstance(other, Field):
            if other.kind != "scalar":
                raise ValueError("can only multiply by scalar fields")

            def op(jc):
                return _scale(self.fn(jc), other.fn(jc))

            return Field(self.chart, self.kind, op, degree=self.degree,
                         cost=max(self.cost, other.cost))

        def fn(jc):
            return self.fn(jc) * other

        if self.frame is not None and np.ndim(other) == 0 and np.isrealobj(other):
            return self._framed(fn, self.frame.m * other)
        return Field(self.chart, self.kind, fn, degree=self.degree, cost=self.cost)

    __rmul__ = __mul__


def same_frame(a: Field, b: Field) -> bool:
    """Both fields carry frame constants in one frame."""
    return (a.frame is not None and b.frame is not None
            and np.array_equal(a.frame.e, b.frame.e))


def _chart_coeffs(kind, e, m):
    """Coefficients of x1^0, x1^1, x1^2 of the chart expression of frame
    components ``m``, through the last nonzero one."""
    if kind == "scalar":
        cs = [m]
    elif kind == "endo":
        cs = [m, e @ m - m @ e, -(e @ m @ e)]
    elif kind in ("metric", "form"):
        cs = [m, -(e.T @ m + m @ e), e.T @ m @ e]
    elif kind == "bivector":
        cs = [m, e @ m + m @ e.T, e @ m @ e.T]
    else:
        raise ValueError(f"no frame conjugation rule for kind {kind!r}")
    if kind == "form":
        upper = np.triu_indices(len(m), 1)  # the sorted 2-combos, in order
        cs = [c[upper] for c in cs]
    while len(cs) > 1 and not cs[-1].any():
        cs.pop()
    return tuple(cs)


def _x1_polynomial(coeffs):
    """Jet evaluation of sum_k x1^k coeffs[k] for constant arrays; x1 may be
    any scalar jet (flowed coordinates included)."""
    c0 = coeffs[0]
    if len(coeffs) == 1:
        return lambda jc: _broadcast_const(jc, c0)
    pad = (slice(None),) + (None,) * c0.ndim

    def fn(jc):
        x1 = jc[:, 0]
        out = x1[pad] * coeffs[1] + c0
        if len(coeffs) == 3:
            out = out + (x1 * x1)[pad] * coeffs[2]
        return out

    return fn


def _frame_constant(kind, e, m) -> FrameConstant:
    e = np.asarray(e, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return FrameConstant(e, m, _chart_coeffs(kind, e, m))


def frame_field(chart, kind, e, m, degree=0, name="") -> Field:
    """The ``kind`` field (for a 2-form, ``m`` is its matrix) whose
    components in the frame I + x1 ``e`` are the constant ``m``."""
    frame = _frame_constant(kind, e, m)
    return Field(chart, kind, _x1_polynomial(frame.coeffs), degree=degree,
                 name=name, frame=frame)


def frame_lift(field: Field, *inputs: Field) -> Field:
    """A scalar or endo ``field`` built pointwise and frame-equivariantly
    from ``inputs`` in one frame, as the frame constant of its value at the
    zero point, order 0 (P = I there); else ``field`` itself."""
    if field.kind not in ("scalar", "endo"):
        raise ValueError(f"no frame lift for kind {field.kind!r}")
    if not all(same_frame(inputs[0], x) for x in inputs):
        return field
    m = field.eval(np.zeros((1, field.chart.dim)))[0]
    return frame_field(field.chart, field.kind, inputs[0].frame.e, m)


def _scale(v: Jet, s: Jet) -> Jet:
    """Multiply component jet v (B, ..., n) by scalar jet s (B, n)."""
    extra = v.c.ndim - s.c.ndim
    ss = Jet(s.space, s.c.reshape(s.c.shape[:1] + (1,) * extra + s.c.shape[1:]))
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
    """Constant jet of ``arr`` at each of jc's points: one zero-filled
    coefficient array, value slot assigned from a broadcast view."""
    arr = np.asarray(arr)
    return Jet.constant(jc.space, np.broadcast_to(arr, jc.c.shape[:1] + arr.shape))


def constant_endo(chart, matrix, name=""):
    return frame_field(chart, "endo", np.zeros((chart.dim,) * 2), matrix, name=name)


def constant_metric(chart, matrix, name=""):
    return frame_field(chart, "metric", np.zeros((chart.dim,) * 2), matrix, name=name)


def coordinate_vector(chart, i, name=""):
    e = np.zeros(chart.dim)
    e[i] = 1.0
    return vector_field(chart, lambda jc: _broadcast_const(jc, e), name=name or f"e{i}")


def zero_form(chart, k):
    from .calculus import form_combos
    ncomb = len(form_combos(chart.dim, k))
    return form_field(chart, k, lambda jc: _broadcast_const(jc, np.zeros(ncomb)))
