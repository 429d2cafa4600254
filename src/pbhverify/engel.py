"""Null-plane distribution machinery on pseudo-bihermitian 4-manifolds.

The nilpotent endomorphisms built from an anticommuting pair, the Lee-form
vector fields spanning the natural null distribution, bracket rank towers
with the Engel/integrable/other trichotomy, and the algebraic identities the
distribution satisfies.  A synthetic-data mode prescribes the structures
locally (without integrability) and verifies the derivation chain, with the
Lee-form derivative rule serving as the covariant-derivative oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import standard_split_quaternion_frame
from .structures import BihermitianData, _branch_root, max_abs, reduce_parts
from .tensorcalc import (ChartDomain, Field, bracket_jets, constant_endo,
                         constant_metric, coordinate_vector, d_scalar,
                         endo_field, jet_inv, jet_prefix, jmatvec, jtranspose,
                         oneform_field, scalar_field, vector_field)
from .tensorcalc.calculus import _stack
from .tensorcalc.fields import _broadcast_const, _scale, memoize_fn

__all__ = ["RankTowerReport", "lee_fields", "LeeFields",
           "LeeValues", "rank_tower", "theorem7_check", "Theorem7Report",
           "canonical_engel_span", "integrable_control_span",
           "other_control_span", "synthetic_data",
           "basis_identity_residuals", "derivative_chain_residuals",
           "derivative_rule_residual"]

RANK_FLOOR = 1e-8  # singular values up to this share of the largest count as 0
THETA_FLOOR = 1e-8  # |theta+|^2 up to this share of max(1, its max): inconclusive
GEODESIC_FLOOR = 1e-8  # relative X-part of nabla_Y Y up to which Y is geodesic
# synthetic p = -(A0 + AMP sin x1 cos x2) keeps |p| in [1.28, 1.52], off |p| = 1
SYNTHETIC_A0, SYNTHETIC_AMP = 1.4, 0.12


def _verdict_counts(report) -> dict:
    """Number of points per verdict, in order of first appearance."""
    out = {}
    for v in report.verdicts:
        out[v] = out.get(v, 0) + 1
    return out


@dataclass
class RankTowerReport:
    ranks: np.ndarray          # (B, 3) ranks of D, D + [D,D], D + [D,[D,D]]
    verdicts: list             # per-point strings
    verdict: str               # aggregate

    counts = _verdict_counts


def _rank_of(cols):
    sv = np.linalg.svd(cols, compute_uv=False)
    scale = np.maximum(sv[:, 0], 1e-300)
    return (sv > RANK_FLOOR * scale[:, None]).sum(axis=1)


def rank_tower(span: tuple[Field, Field], pts) -> RankTowerReport:
    """Pointwise ranks of D, D + [D, D], D + [D, [D, D]] for the plane field
    D spanned by the pair of vector fields ``span``.  Each generator is
    evaluated once, to second order, and the brackets are taken on those
    jets; a point where the pair spans less than a plane raises."""
    x, y = (g.eval_jet(pts, 2) for g in span)
    level1 = [x.value, y.value]
    r1 = _rank_of(np.stack(level1, axis=2))
    if np.any(r1 < 2):
        bad = int(np.argmax(r1 < 2))
        raise ValueError(f"degenerate span at point index {bad}: rank "
                         f"{int(r1[bad])} < 2")
    xy = bracket_jets(x, y)
    level2 = level1 + [xy.value]
    level3 = level2 + [bracket_jets(x, xy).value, bracket_jets(y, xy).value]
    ranks = np.stack([r1, _rank_of(np.stack(level2, axis=2)),
                      _rank_of(np.stack(level3, axis=2))], axis=1)
    verdicts = []
    for a, b, c in ranks:
        if (a, b, c) == (2, 3, 4):
            verdicts.append("engel")
        elif b == 2:
            verdicts.append("integrable")
        else:
            verdicts.append("other")
    uniq = set(verdicts)
    verdict = verdicts[0] if len(uniq) == 1 else "other"
    return RankTowerReport(ranks, verdicts, verdict)


def canonical_engel_span(chart: ChartDomain) -> tuple[Field, Field]:
    """Normal form Span(d_q, d_x + p d_y + q d_p) on coordinates (x,y,p,q)."""
    def gen2(jc):
        one = jc[:, 0] * 0.0 + 1.0
        return _stack([one, jc[:, 2], jc[:, 3], jc[:, 0] * 0.0])

    return coordinate_vector(chart, 3), vector_field(chart, gen2)


def integrable_control_span(chart: ChartDomain) -> tuple[Field, Field]:
    return coordinate_vector(chart, 0), coordinate_vector(chart, 1)


def other_control_span(chart: ChartDomain) -> tuple[Field, Field]:
    def gen2(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, jc[:, 0], z + 1.0, z])

    return coordinate_vector(chart, 0), vector_field(chart, gen2)


# --------------------------------------------------------------------------
# the Lee-form fields


@dataclass
class LeeValues:
    """Values at one point set of every field the identity checks read."""

    g: np.ndarray
    ginv: np.ndarray
    jp: np.ndarray
    jm: np.ndarray
    k: np.ndarray
    theta_p: np.ndarray
    theta_m: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta_norm_sq: np.ndarray
    p: np.ndarray
    f: np.ndarray

    def definitive_mask(self):
        tn = self.theta_norm_sq
        scale = max(1.0, max_abs(tn))
        return np.abs(tn) > THETA_FLOOR * scale

    def frame(self):
        """The frame (X, Y, J+X, J+Y) as columns, (B, 4, 4), and its rank."""
        jx = np.einsum("bij,bj->bi", self.jp, self.x)
        jy = np.einsum("bij,bj->bi", self.jp, self.y)
        frame = np.stack([self.x, self.y, jx, jy], axis=2)
        return frame, _rank_of(frame)


@dataclass
class LeeFields:
    """X = N- theta+#, Y = theta+# - K theta-#, and diagnostics."""

    x: Field
    y: Field
    theta_p: Field
    theta_m: Field
    theta_norm_sq: Field       # |theta+|^2 via g^{-1}
    data: BihermitianData

    def values(self, pts) -> LeeValues:
        """The record the identity checks read, evaluated once at ``pts``."""
        d = self.data
        g = d.g.eval(pts)
        return LeeValues(g, np.linalg.inv(g), d.jp.eval(pts), d.jm.eval(pts),
                         d.k_endo.eval(pts), self.theta_p.eval(pts),
                         self.theta_m.eval(pts), self.x.eval(pts),
                         self.y.eval(pts), self.theta_norm_sq.eval(pts),
                         d.p.eval(pts), d.branch.eval(pts))


def lee_fields(data: BihermitianData, theta_p: Field | None = None,
               theta_m: Field | None = None) -> LeeFields:
    """The Lee-form fields of ``data``; theta± default to the Lee forms of
    its pairs.  g^-1, N-, K and theta± enter at the generators' order."""
    g = data.g
    chart = g.chart
    theta_p = data.pair_plus.theta if theta_p is None else theta_p
    theta_m = data.pair_minus.theta if theta_m is None else theta_m

    def fn(jc):
        """X, Y and |theta+|^2 from one inverse of g."""
        keep = jc.order - cost
        thp = theta_p.fn_at(jc, keep)
        ginv = jet_inv(jet_prefix(g.fn(jc), thp.space))
        tp_sharp = jmatvec(ginv, thp)
        tm_sharp = jmatvec(ginv, theta_m.fn_at(jc, keep))
        x = jmatvec(data.n_minus.fn_at(jc, keep), tp_sharp)
        y = tp_sharp - jmatvec(data.k_endo.fn_at(jc, keep), tm_sharp)
        return x, y, (thp * tp_sharp).sum(axis=-1)

    gens = memoize_fn(fn)
    cost = max(data.n_minus.cost, g.cost, theta_p.cost, theta_m.cost)
    x = vector_field(chart, lambda jc: gens(jc)[0], cost=cost)
    y = vector_field(chart, lambda jc: gens(jc)[1], cost=cost)
    tnorm = scalar_field(chart, lambda jc: gens(jc)[2], cost=cost)
    return LeeFields(x, y, theta_p, theta_m, tnorm, data)


def basis_identity_residuals(lv: LeeValues, mask) -> dict:
    """Null-frame identities of the distribution generators."""
    g, jp, x, y = lv.g, lv.jp, lv.x, lv.y
    tn, p, f = lv.theta_norm_sq, lv.p, lv.f

    def pair(u, v):
        return np.einsum("bi,bij,bj->b", u, g, v)

    jx = np.einsum("bij,bj->bi", jp, x)
    jy = np.einsum("bij,bj->bi", jp, y)
    scale = np.maximum(1.0, np.abs(tn))
    out = {
        "g(X,X)": reduce_parts([pair(x, x) / scale], mask),
        "g(Y,Y)": reduce_parts([pair(y, y) / scale], mask),
        "g(X,Y)": reduce_parts([pair(x, y) / scale], mask),
        "g(X,J+X)": reduce_parts([pair(x, jx) / scale], mask),
        "g(Y,J+Y)": reduce_parts([pair(y, jy) / scale], mask),
        "g(J+X,Y)-2(fp-1)|th|^2":
            reduce_parts([(pair(jx, y) - 2 * (f * p - 1) * tn) / scale], mask),
        "g(J+X,Y)-(f^2-1)|th|^2":
            reduce_parts([(pair(jx, y) - (f * f - 1) * tn) / scale], mask),
    }
    return out


def _nabla_n(lv: LeeValues, u, v):
    """(nabla_u N) v for N = J+ + f J- from the Lee-form derivative rule,
    for u and v of shape (B, ..., d) that broadcast together; u(f) is the
    gradient rule df = -(f/2)(theta+ - theta-) o K, the p-gradient identity
    specialized to f = p - sqrt(p^2 - 1)."""
    at = (slice(None),) + (None,) * (max(u.ndim, v.ndim) - 2)
    gb, fb = lv.g[at], lv.f[at]

    def nabla_j(j, theta):
        """2 (nabla_u J) v."""
        theta_sharp = np.einsum("bij,bj->bi", lv.ginv, theta)[at]
        j, theta = j[at], theta[at]
        guv = np.einsum("...i,...ij,...j->...", u, gb, v)
        ju = np.einsum("...ij,...j->...i", j, u)
        jv = np.einsum("...ij,...j->...i", j, v)
        gjuv = np.einsum("...i,...ij,...j->...", ju, gb, v)
        th_jv = np.einsum("...i,...i->...", theta, jv)
        th_v = np.einsum("...i,...i->...", theta, v)
        jtheta = np.einsum("...ij,...j->...i", j, theta_sharp)
        return (guv[..., None] * jtheta + gjuv[..., None] * theta_sharp
                + th_jv[..., None] * u - th_v[..., None] * ju)

    term = 0.5 * (nabla_j(lv.jp, lv.theta_p) + fb[..., None] * nabla_j(lv.jm, lv.theta_m))
    ku = np.einsum("...ij,...j->...i", lv.k[at], u)
    uf = -0.5 * fb * np.einsum("...i,...i->...", (lv.theta_p - lv.theta_m)[at], ku)
    return term + uf[..., None] * np.einsum("...ij,...j->...i", lv.jm[at], v)


def derivative_chain_residuals(lv: LeeValues, mask) -> dict:
    """Consequences of the Lee-form derivative rule for N = J+ + f J-:

      (nabla_Y N) Y = 0,
      2 (nabla_{J+Y} N) Y = 2 p f |theta+|^2 Y,
      N[X, Y] = f sqrt(p^2-1) |theta+|^2 Y  (so N[X,Y] is parallel to Y).

    Returns each residual, and the part of N[X, Y] off Span(Y), as the
    largest |residual| / max(1, |theta+|^2) over the points of ``mask``.
    The covariant derivative is evaluated from the derivative rule itself
    (the identity chain being tested is algebraic)."""
    x, y, tn, p, f = lv.x, lv.y, lv.theta_norm_sq, lv.p, lv.f
    s = np.sqrt(p * p - 1.0)
    scale = np.maximum(1.0, np.abs(tn))[:, None]
    jy = np.einsum("bij,bj->bi", lv.jp, y)
    r1 = _nabla_n(lv, y, y)
    r2 = 2.0 * _nabla_n(lv, jy, y) - 2.0 * (p * f * tn)[:, None] * y
    nxy = _nabla_n(lv, y, x) - _nabla_n(lv, x, y)   # N[X,Y] via nabla and N X = N Y = 0
    r3 = nxy - (f * s * tn)[:, None] * y
    out = {
        "(nabla_Y N)Y": reduce_parts([r1 / scale], mask),
        "2(nabla_{J+Y} N)Y - 2pf|th|^2 Y": reduce_parts([r2 / scale], mask),
        "N[X,Y] - f sqrt(p^2-1)|th|^2 Y": reduce_parts([r3 / scale], mask),
    }
    # component of N[X,Y] off Span(Y)
    ynorm = np.linalg.norm(y, axis=1, keepdims=True)
    yhat = y / np.maximum(ynorm, 1e-30)
    off = nxy - (np.einsum("bi,bi->b", nxy, yhat))[:, None] * yhat
    out["N[X,Y] off Span(Y)"] = reduce_parts([off / scale], mask)
    return out


def derivative_rule_residual(lv: LeeValues, dn) -> float:
    """The derivative rule at every pair of coordinate vectors against
    ``dn``, the (B, i, j_comp, k_arg) values of
    ``Connection.cov_deriv_endo(N)`` at the same points (honest jet
    differentiation), as the largest |difference| / max(1, |theta+|^2)."""
    e = np.broadcast_to(np.eye(lv.g.shape[-1]), lv.g.shape)
    # rhs[b, i, k] = (nabla_{e_i} N) e_k, against dn[b, i, :, k]
    rhs = _nabla_n(lv, e[:, :, None], e[:, None])
    lhs = np.einsum("bijk->bikj", dn)
    scale = np.maximum(1.0, np.abs(lv.theta_norm_sq))
    return reduce_parts([(lhs - rhs) / scale[:, None, None, None]])


@dataclass
class Theorem7Report:
    verdicts: list
    theta_sum: float           # max |theta+ + theta-|

    counts = _verdict_counts


def theorem7_check(lf: LeeFields, pts) -> Theorem7Report:
    """Pointwise trichotomy: with non-null theta+ the flow of Y is either a
    null geodesic (X-component of nabla_Y Y vanishes in the natural frame) or
    the distribution Span(X, Y) is Engel; degenerate points are reported
    inconclusive, never silently skipped.  Returns the per-point verdicts
    and max |theta+ + theta-|: the opposite-Lee-form hypothesis is
    reported, not enforced.  nabla_Y Y is evaluated only when some point is
    definitive."""
    lv = lf.values(pts)
    frame, fr_rank = lv.frame()
    mask = lv.definitive_mask() & (fr_rank == 4)
    verdicts = ["inconclusive"] * len(pts)
    if mask.any():
        nyy = lf.data.pair_plus.lc.nabla_vector(lf.y, lf.y).eval(pts)
        coeff = np.linalg.solve(frame[mask], nyy[mask][..., None])[..., 0]
        scale = np.maximum(1.0, np.abs(coeff).max(axis=1))
        geo = np.abs(coeff[:, 0]) / scale <= GEODESIC_FLOOR
        idx = np.where(mask)[0]
        for i in idx[geo]:
            verdicts[i] = "geodesic"
        if np.any(~geo):
            tower = rank_tower((lf.x, lf.y), pts[idx[~geo]])
            for i, tv in zip(idx[~geo], tower.verdicts):
                verdicts[i] = "engel" if tv == "engel" else "other"
    return Theorem7Report(verdicts, max_abs(lv.theta_p + lv.theta_m))


# --------------------------------------------------------------------------
# synthetic locally-prescribed data


def synthetic_data(chart: ChartDomain) -> LeeFields:
    """The Lee-form fields of pointwise-valid structures with varying
    p = -a(x) on ``chart``, over the constant split-quaternion frame J1, J2,
    J3 and metric diag(1, 1, -1, -1): J+ = J1, J-(x) = a J1 + b J2 + c J3
    varies, and theta+ is prescribed through the gradient rule
    theta+ = dp o K / sqrt(p^2 - 1), theta- = -theta+, which makes the
    distribution identities exact without global integrability."""
    j1m, j2m, j3m, g_matrix = standard_split_quaternion_frame()

    def a_fn(jc):
        return (jc[:, 0].sin() * jc[:, 1].cos()) * SYNTHETIC_AMP + SYNTHETIC_A0

    def jm_fn(jc):
        a = a_fn(jc)
        r = _branch_root(a)
        psi = jc[:, 2] * 0.5
        b = r * psi.cos()
        c = r * psi.sin()
        out = _scale(_broadcast_const(jc, j1m), a)
        out = out + _scale(_broadcast_const(jc, j2m), b)
        out = out + _scale(_broadcast_const(jc, j3m), c)
        return out

    data = BihermitianData(constant_metric(chart, g_matrix), constant_endo(chart, j1m),
                           endo_field(chart, jm_fn).memoized())
    dp = d_scalar(scalar_field(chart, lambda jc: -a_fn(jc), cost=0))

    def theta_fn(jc):
        # (dp o K)_i = dp_a K^a_i; K and sqrt(p^2 - 1) at dp's order
        keep = jc.order - 1
        comp = jmatvec(jtranspose(data.k_endo.fn_at(jc, keep)), dp.fn(jc))
        return _scale(comp, data.s_root.fn_at(jc, keep).reciprocal())

    theta_p = oneform_field(chart, theta_fn, cost=1).memoized()
    return lee_fields(data, theta_p, -theta_p)
