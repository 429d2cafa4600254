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

from .structures import BihermitianData, Connection, levi_civita, max_abs
from .tensorcalc import (ChartDomain, Field, coordinate_vector, d_scalar,
                         endo_field, jmatvec, jtranspose, lie_bracket,
                         oneform_field, scalar_field, sharp, vector_field)
from .tensorcalc.calculus import _stack
from .tensorcalc.fields import _broadcast_const, _scale

__all__ = ["DistributionSpan", "RankTowerReport", "n_endos", "lee_fields",
           "LeeFields", "rank_tower", "theorem7_check", "Theorem7Report",
           "canonical_engel_span", "integrable_control_span",
           "other_control_span", "SyntheticBihermitian", "synthetic_data",
           "nabla_n_rhs_residuals"]


@dataclass
class DistributionSpan:
    generators: list
    expected_rank: int

    @property
    def chart(self):
        return self.generators[0].chart

    def generator_matrix(self, pts) -> np.ndarray:
        cols = [g.eval(pts) for g in self.generators]
        return np.stack(cols, axis=2)  # (B, d, k)

    def validate(self, pts, rel_floor=1e-8):
        ranks = _rank_of(self.generator_matrix(pts), rel_floor)
        if np.any(ranks < self.expected_rank):
            bad = int(np.argmax(ranks < self.expected_rank))
            raise ValueError(f"degenerate span at point index {bad}: rank "
                             f"{int(ranks[bad])} < {self.expected_rank}")


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


def _rank_of(cols, rel_floor=1e-8):
    sv = np.linalg.svd(cols, compute_uv=False)
    scale = np.maximum(sv[:, 0], 1e-300)
    return (sv > rel_floor * scale[:, None]).sum(axis=1)


def rank_tower(span: DistributionSpan, pts, rel_floor=1e-8) -> RankTowerReport:
    """Pointwise ranks of D, D + [D, D], D + [D, [D, D]]."""
    span.validate(pts, rel_floor)
    gens = span.generators
    level1 = [g.eval(pts) for g in gens]
    br2 = []
    br2_fields = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            f = lie_bracket(gens[i], gens[j])
            br2_fields.append(f)
            br2.append(f.eval(pts))
    br3 = []
    for g in gens:
        for h in br2_fields:
            br3.append(lie_bracket(g, h).eval(pts))
    r1 = _rank_of(np.stack(level1, axis=2), rel_floor)
    r2 = _rank_of(np.stack(level1 + br2, axis=2), rel_floor)
    r3 = _rank_of(np.stack(level1 + br2 + br3, axis=2), rel_floor)
    ranks = np.stack([r1, r2, r3], axis=1)
    verdicts = []
    for a, b, c in ranks:
        if (a, b, c) == (2, 3, 4):
            verdicts.append("engel")
        elif a == 2 and b == 2:
            verdicts.append("integrable")
        else:
            verdicts.append("other")
    uniq = set(verdicts)
    verdict = verdicts[0] if len(uniq) == 1 else "other"
    return RankTowerReport(ranks, verdicts, verdict)


def canonical_engel_span(chart: ChartDomain) -> DistributionSpan:
    """Normal form Span(d_q, d_x + p d_y + q d_p) on coordinates (x,y,p,q)."""
    def gen2(jc):
        one = jc[:, 0] * 0.0 + 1.0
        return _stack([one, jc[:, 2], jc[:, 3], jc[:, 0] * 0.0])

    return DistributionSpan([coordinate_vector(chart, 3),
                             vector_field(chart, gen2)], expected_rank=2)


def integrable_control_span(chart: ChartDomain) -> DistributionSpan:
    return DistributionSpan([coordinate_vector(chart, 0),
                             coordinate_vector(chart, 1)], expected_rank=2)


def other_control_span(chart: ChartDomain) -> DistributionSpan:
    def gen2(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, jc[:, 0], z + 1.0, z])

    return DistributionSpan([coordinate_vector(chart, 0),
                             vector_field(chart, gen2)], expected_rank=2)


# --------------------------------------------------------------------------
# endomorphisms N± and the Lee-form fields


def _branch(p_field: Field, sign: float) -> Field:
    """p + sign sqrt(p^2 - 1); with ``sign=-1.0`` the branch function f."""
    def fn(jc):
        p = p_field.fn(jc)
        return p + (p * p - 1.0).sqrt() * sign

    return scalar_field(p_field.chart, fn, cost=p_field.cost)


def n_endos(jp: Field, jm: Field, p_field: Field):
    """N± = J+ + (p ± sqrt(p^2 - 1)) J-; square-zero of rank two on the
    strict |p| > 1 locus, with kernels the K eigendistributions."""
    return tuple(jp + jm * _branch(p_field, sign) for sign in (1.0, -1.0))


@dataclass
class LeeFields:
    """X = N theta+#, Y = theta+# - K theta-#, and diagnostics."""

    x: Field
    y: Field
    span: DistributionSpan
    theta_p: Field
    theta_m: Field
    theta_norm_sq: Field       # |theta+|^2 via g^{-1}
    data: BihermitianData
    f_field: Field             # f = p - sqrt(p^2 - 1)

    def definitive_mask(self, pts, floor=1e-8):
        tn = self.theta_norm_sq.eval(pts)
        scale = max(1.0, float(np.abs(tn).max()))
        return np.abs(tn) > floor * scale


def lee_fields(g: Field, jp: Field, jm: Field, theta_p: Field | None = None,
               theta_m: Field | None = None, name="") -> LeeFields:
    chart = g.chart
    data = BihermitianData(g, jp, jm, name=name)
    if theta_p is None:
        theta_p = data.pair_plus.theta
    if theta_m is None:
        theta_m = data.pair_minus.theta

    tp_sharp = sharp(g, theta_p)
    tm_sharp = sharp(g, theta_m)
    n = n_endos(jp, jm, data.p)[1]

    def x_fn(jc):
        return jmatvec(n.fn(jc), tp_sharp.fn(jc))

    def y_fn(jc):
        k = data.k_endo.fn(jc)
        return tp_sharp.fn(jc) - jmatvec(k, tm_sharp.fn(jc))

    x = vector_field(chart, x_fn, cost=max(n.cost, tp_sharp.cost)).memoized()
    y = vector_field(chart, y_fn, cost=max(jp.cost, jm.cost, tm_sharp.cost)).memoized()

    def tnorm_fn(jc):
        th = theta_p.fn(jc)
        return (th * tp_sharp.fn(jc)).sum(axis=-1)

    tnorm = scalar_field(chart, tnorm_fn, cost=max(theta_p.cost, tp_sharp.cost))
    span = DistributionSpan([x, y], expected_rank=2)
    return LeeFields(x, y, span, theta_p, theta_m, tnorm, data, _branch(data.p, -1.0))


def basis_identity_residuals(lf: LeeFields, pts, mask=None) -> dict:
    """Null-frame identities of the distribution generators."""
    g = lf.data.g.eval(pts)
    jp = lf.data.jp.eval(pts)
    x = lf.x.eval(pts)
    y = lf.y.eval(pts)
    tn = lf.theta_norm_sq.eval(pts)
    p = lf.data.p.eval(pts)
    f = lf.f_field.eval(pts)
    if mask is None:
        mask = np.ones(len(pts), dtype=bool)

    def pair(u, v):
        return np.einsum("bi,bij,bj->b", u, g, v)

    jx = np.einsum("bij,bj->bi", jp, x)
    jy = np.einsum("bij,bj->bi", jp, y)
    scale = np.maximum(1.0, np.abs(tn))
    out = {
        "g(X,X)": np.abs(pair(x, x) / scale)[mask].max(initial=0.0),
        "g(Y,Y)": np.abs(pair(y, y) / scale)[mask].max(initial=0.0),
        "g(X,Y)": np.abs(pair(x, y) / scale)[mask].max(initial=0.0),
        "g(X,J+X)": np.abs(pair(x, jx) / scale)[mask].max(initial=0.0),
        "g(Y,J+Y)": np.abs(pair(y, jy) / scale)[mask].max(initial=0.0),
        "g(J+X,Y)-2(fp-1)|th|^2":
            np.abs((pair(jx, y) - 2 * (f * p - 1) * tn) / scale)[mask].max(initial=0.0),
        "g(J+X,Y)-(f^2-1)|th|^2":
            np.abs((pair(jx, y) - (f * f - 1) * tn) / scale)[mask].max(initial=0.0),
    }
    return out


def nabla_n_rhs_residuals(lf: LeeFields, pts, connection: Connection | None = None,
                          mask=None) -> dict:
    """Consequences of the Lee-form derivative rule for N = J+ + f J-:

      (nabla_Y N) Y = 0,
      2 (nabla_{J+Y} N) Y = 2 p f |theta+|^2 Y,
      N[X, Y] = f sqrt(p^2-1) |theta+|^2 Y  (so N[X,Y] is parallel to Y).

    The covariant derivative is evaluated from the derivative rule itself
    (the identity chain being tested is algebraic); when ``connection`` is
    given, the rule's left side is instead taken from honest jet
    differentiation and compared.
    """
    g = lf.data.g.eval(pts)
    ginv = np.linalg.inv(g)
    jp = lf.data.jp.eval(pts)
    jm = lf.data.jm.eval(pts)
    thp = lf.theta_p.eval(pts)
    thm = lf.theta_m.eval(pts)
    x = lf.x.eval(pts)
    y = lf.y.eval(pts)
    tn = lf.theta_norm_sq.eval(pts)
    p = lf.data.p.eval(pts)
    f = lf.f_field.eval(pts)
    s = np.sqrt(p * p - 1.0)
    if mask is None:
        mask = np.ones(len(pts), dtype=bool)
    scale = np.maximum(1.0, np.abs(tn))[:, None]

    thp_sharp = np.einsum("bij,bj->bi", ginv, thp)
    thm_sharp = np.einsum("bij,bj->bi", ginv, thm)

    def nabla_j(u, v, j, theta, theta_sharp):
        """2 (nabla_u J) v from the Lee rule."""
        guv = np.einsum("bi,bij,bj->b", u, g, v)
        ju = np.einsum("bij,bj->bi", j, u)
        jv = np.einsum("bij,bj->bi", j, v)
        gjuv = np.einsum("bi,bij,bj->b", ju, g, v)
        th_jv = np.einsum("bi,bi->b", theta, jv)
        th_v = np.einsum("bi,bi->b", theta, v)
        jtheta = np.einsum("bij,bj->bi", j, theta_sharp)
        return (guv[:, None] * jtheta + gjuv[:, None] * theta_sharp
                + th_jv[:, None] * u - th_v[:, None] * ju)

    def df_along(u):
        """u(f) from the gradient rule df = -(f/2)(theta+ - theta-) o K, the
        p-gradient identity specialized to f = p - sqrt(p^2 - 1)."""
        k = lf.data.k_endo.eval(pts)
        ku = np.einsum("bij,bj->bi", k, u)
        return -0.5 * f * np.einsum("bi,bi->b", thp - thm, ku)

    def nabla_n(u, v):
        term = 0.5 * (nabla_j(u, v, jp, thp, thp_sharp)
                      + f[:, None] * nabla_j(u, v, jm, thm, thm_sharp))
        jmv = np.einsum("bij,bj->bi", jm, v)
        return term + df_along(u)[:, None] * jmv

    jy = np.einsum("bij,bj->bi", jp, y)
    r1 = nabla_n(y, y)
    r2 = 2.0 * nabla_n(jy, y) - 2.0 * (p * f * tn)[:, None] * y
    nxy = nabla_n(y, x) - nabla_n(x, y)   # N[X,Y] via nabla and N X = N Y = 0
    r3 = nxy - (f * s * tn)[:, None] * y
    out = {
        "(nabla_Y N)Y": np.abs(r1 / scale)[mask].max(initial=0.0),
        "2(nabla_{J+Y} N)Y - 2pf|th|^2 Y": np.abs(r2 / scale)[mask].max(initial=0.0),
        "N[X,Y] - f sqrt(p^2-1)|th|^2 Y": np.abs(r3 / scale)[mask].max(initial=0.0),
    }
    # component of N[X,Y] off Span(Y)
    ynorm = np.linalg.norm(y, axis=1, keepdims=True)
    yhat = y / np.maximum(ynorm, 1e-30)
    off = nxy - (np.einsum("bi,bi->b", nxy, yhat))[:, None] * yhat
    out["N[X,Y] off Span(Y)"] = np.abs(off / scale)[mask].max(initial=0.0)
    if connection is not None:
        dn = _jet_nabla_n(lf, connection, pts)  # (B, i, j_comp, k_arg)
        lhs = np.einsum("bijk->bikj", dn).reshape(len(pts), 16, 4)
        basis = [np.tile(np.eye(4)[i], (len(pts), 1)) for i in range(4)]
        rhs = np.stack([nabla_n(basis[i], basis[k])
                        for i in range(4) for k in range(4)], axis=1)
        out["derivative-rule vs jets"] = np.abs((lhs - rhs) / scale[:, None])[mask].max(initial=0.0)
    return out


def _jet_nabla_n(lf: LeeFields, connection: Connection, pts) -> np.ndarray:
    """(nabla_{e_i} N) e_j from honest jets, shape (B, i, j, comp)."""
    n_field = n_endos(lf.data.jp, lf.data.jm, lf.data.p)[1]
    return connection.cov_deriv_endo(n_field).eval(pts)  # (B, i, j_comp, k_arg)


@dataclass
class Theorem7Report:
    verdicts: list
    x_components: np.ndarray
    tower: RankTowerReport | None
    extras: dict

    counts = _verdict_counts


def theorem7_check(g: Field, jp: Field, jm: Field, pts,
                   theta_p: Field | None = None, theta_m: Field | None = None,
                   geodesic_floor=1e-8) -> Theorem7Report:
    """Pointwise trichotomy: with non-null theta+ the flow of Y is either a
    null geodesic (X-component of nabla_Y Y vanishes in the natural frame) or
    the distribution Span(X, Y) is Engel; degenerate points are reported
    inconclusive, never silently skipped."""
    lf = lee_fields(g, jp, jm, theta_p, theta_m)
    conn = levi_civita(g)
    mask = lf.definitive_mask(pts)
    x = lf.x.eval(pts)
    y = lf.y.eval(pts)
    jpv = jp.eval(pts)
    jx = np.einsum("bij,bj->bi", jpv, x)
    jy = np.einsum("bij,bj->bi", jpv, y)
    frame = np.stack([x, y, jx, jy], axis=2)
    fr_rank = _rank_of(frame)
    mask = mask & (fr_rank == 4)
    nyy = conn.nabla_vector(lf.y, lf.y).eval(pts)
    xcomp = np.zeros(len(pts))
    verdicts = ["inconclusive"] * len(pts)
    tower = None
    if mask.any():
        coeff = np.linalg.solve(frame[mask], nyy[mask][..., None])[..., 0]
        scale = np.maximum(1.0, np.abs(coeff).max(axis=1))
        xc = np.abs(coeff[:, 0]) / scale
        xcomp[mask] = xc
        geo = xc <= geodesic_floor
        idx = np.where(mask)[0]
        for kk, i in enumerate(idx):
            verdicts[i] = "geodesic" if geo[kk] else "pending"
        if np.any(~geo):
            tower = rank_tower(lf.span, pts[idx[~geo]])
            for kk, i in enumerate(idx[~geo]):
                verdicts[i] = "engel" if tower.verdicts[kk] == "engel" else "other"
    extras = nabla_n_rhs_residuals(lf, pts, connection=conn, mask=mask)
    # the opposite-Lee-form hypothesis is reported, not enforced; the chain
    # consequences above are only expected to vanish when it holds
    extras["theta+ + theta-"] = max_abs(lf.theta_p.eval(pts) + lf.theta_m.eval(pts))
    return Theorem7Report(verdicts, xcomp, tower, extras)


# --------------------------------------------------------------------------
# synthetic locally-prescribed data


@dataclass
class SyntheticBihermitian:
    g: Field
    jp: Field
    jm: Field
    theta_p: Field
    theta_m: Field
    a_field: Field

    def lee(self) -> LeeFields:
        return lee_fields(self.g, self.jp, self.jm, self.theta_p, self.theta_m)


def synthetic_data(chart: ChartDomain, quaternion_frame, g_matrix,
                   a0: float = 1.4, amp: float = 0.12,
                   degenerate: bool = False) -> SyntheticBihermitian:
    """Pointwise-valid structures with varying p = -a(x): J-(x) is a varying
    split-quaternion combination, and theta+ is prescribed through the
    gradient rule theta+ = dp o K / sqrt(p^2 - 1), theta- = -theta+, which
    makes the distribution identities exact without global integrability.
    With ``degenerate`` the Lee forms are prescribed to vanish instead."""
    j1m, j2m, j3m = quaternion_frame

    def a_fn(jc):
        return (jc[:, 0].sin() * jc[:, 1].cos()) * amp + a0

    a_field = scalar_field(chart, a_fn)

    def jm_fn(jc):
        a = a_fn(jc)
        r = (a * a - 1.0).sqrt()
        psi = jc[:, 2] * 0.5
        b = r * psi.cos()
        c = r * psi.sin()
        out = _scale(_broadcast_const(jc, j1m), a)
        out = out + _scale(_broadcast_const(jc, j2m), b)
        out = out + _scale(_broadcast_const(jc, j3m), c)
        return out

    from .tensorcalc import metric_field
    jp = endo_field(chart, lambda jc: _broadcast_const(jc, j1m))
    jm = endo_field(chart, jm_fn)
    g = metric_field(chart, lambda jc: _broadcast_const(jc, np.asarray(g_matrix, float)))
    data = BihermitianData(g, jp, jm)

    if degenerate:
        zero = oneform_field(chart, lambda jc: _stack([jc[:, 0] * 0.0] * chart.dim))
        return SyntheticBihermitian(g, jp, jm, zero, zero, a_field)

    dp = d_scalar(scalar_field(chart, lambda jc: -a_fn(jc), cost=0))

    def theta_fn(jc):
        # (dp o K)_i = dp_a K^a_i
        comp = jmatvec(jtranspose(data.k_endo.fn(jc)), dp.fn(jc))
        return _scale(comp, data.s_root.fn(jc).reciprocal())

    theta_p = oneform_field(chart, theta_fn, cost=1).memoized()
    theta_m = -theta_p
    return SyntheticBihermitian(g, jp, jm, theta_p, theta_m, a_field)
