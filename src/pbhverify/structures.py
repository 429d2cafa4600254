"""Pseudo-Hermitian and para-hyperhermitian structure algebra.

Compatibility and integrability checks, fundamental forms, Lee forms,
Levi-Civita and Chern connections, and the K/S endomorphisms built from an
anticommuting pair of complex structures on a neutral 4-manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensorcalc import (Field, Jet, endo_field, exterior_derivative,
                         form_combos, form_field, form_full, form_full_matrix,
                         jeinsum, jet_inv, jet_solve, jgrad, jmatmul, jmatvec,
                         jtrace, nijenhuis_tensor, oneform_field,
                         pullback_linear, scalar_field, vector_field, wedge)
from .tensorcalc.fields import _scale, _broadcast_const, memoize_fn
from .tensorcalc.calculus import _stack, _wedge_table

__all__ = ["HermitianPair", "ParaHyperTriple", "BihermitianData",
           "DegeneracyError", "BranchError", "nijenhuis", "lee_form",
           "levi_civita", "chern_connection", "d_pm_F",
           "build_parahypercomplex", "check_p_gradient", "Connection",
           "endo_compose", "fundamental_form", "max_abs",
           "trace_pairing", "form3_full"]


class DegeneracyError(ValueError):
    """A metric or fundamental form degenerated at a sampled point."""


class BranchError(ValueError):
    """|p| <= 1 + margin somewhere: the para-hypercomplex branch is invalid."""


def max_abs(x) -> float:
    arr = x.value if isinstance(x, Jet) else np.asarray(x)
    return float(np.abs(arr).max()) if arr.size else 0.0


def endo_compose(a: Field, b: Field) -> Field:
    """Pointwise composition A o B of endomorphism fields."""
    chart = a.chart

    def fn(jc):
        return jmatmul(a.fn(jc), b.fn(jc))

    return endo_field(chart, fn, cost=max(a.cost, b.cost))


def fundamental_form(g: Field, j: Field) -> Field:
    """F(X, Y) = g(JX, Y) as a 2-form field (combo components)."""
    chart = g.chart
    combos = form_combos(chart.dim, 2)

    def fn(jc):
        gv = g.fn(jc)
        jv = j.fn(jc)
        m = jmatmul(Jet(jv.space, np.swapaxes(jv.c, 1, 2), jv.order), gv)  # J^T g
        return _stack([m[:, i, j_] for (i, j_) in combos])

    return form_field(chart, 2, fn, cost=max(g.cost, j.cost)).memoized()


def trace_pairing(a: Field, b: Field) -> Field:
    """Scalar field tr(A o B)."""
    def fn(jc):
        return jtrace(jmatmul(a.fn(jc), b.fn(jc)))

    return scalar_field(a.chart, fn, cost=max(a.cost, b.cost))


@dataclass
class HermitianPair:
    """Metric + compatible (almost) complex structure with derived objects."""

    g: Field
    j: Field
    name: str = ""

    @cached_property
    def f(self) -> Field:
        return fundamental_form(self.g, self.j)

    @cached_property
    def theta(self) -> Field:
        return lee_form(self)

    def compatibility_residual(self, pts) -> float:
        gv = self.g.eval_jet(pts)
        jv = self.j.eval_jet(pts)
        jt = Jet(jv.space, np.swapaxes(jv.c, 1, 2), jv.order)
        return max_abs(jmatmul(jmatmul(jt, gv), jv) - gv)

    def square_residual(self, pts) -> float:
        jv = self.j.eval_jet(pts)
        eye = _broadcast_const(jv, np.eye(self.g.chart.dim))
        return max_abs(jmatmul(jv, jv) + eye)

    def lee_identity_residual(self, pts) -> float:
        """Residual of d F = theta ^ F at the sampled points."""
        df = exterior_derivative(self.f)
        tf = wedge(self.theta, self.f)
        return max_abs(df.eval(pts) - tf.eval(pts))


@dataclass
class ParaHyperTriple:
    """Almost para-hyperhermitian structure {g, J1, J2, J3}."""

    g: Field
    j1: Field
    j2: Field
    j3: Field
    name: str = ""

    @property
    def js(self):
        return (self.j1, self.j2, self.j3)

    @cached_property
    def omegas(self):
        return tuple(fundamental_form(self.g, j) for j in self.js)

    def algebra_residual(self, pts) -> float:
        """Split-quaternion multiplication table residual: all nine products."""
        d = self.g.chart.dim
        jv = [j.eval_jet(pts) for j in self.js]
        eye = _broadcast_const(jv[0], np.eye(d))
        # squares: J1^2 = -Id, J2^2 = J3^2 = +Id
        res = max_abs(jmatmul(jv[0], jv[0]) + eye)
        res = max(res, max_abs(jmatmul(jv[1], jv[1]) - eye))
        res = max(res, max_abs(jmatmul(jv[2], jv[2]) - eye))
        # products: J1J2 = J3 = -J2J1, J2J3 = -J1 = -J3J2, J3J1 = J2 = -J1J3
        res = max(res, max_abs(jmatmul(jv[0], jv[1]) - jv[2]))
        res = max(res, max_abs(jmatmul(jv[1], jv[0]) + jv[2]))
        res = max(res, max_abs(jmatmul(jv[1], jv[2]) + jv[0]))
        res = max(res, max_abs(jmatmul(jv[2], jv[1]) - jv[0]))
        res = max(res, max_abs(jmatmul(jv[2], jv[0]) - jv[1]))
        res = max(res, max_abs(jmatmul(jv[0], jv[2]) + jv[1]))
        return res

    def compatibility_residual(self, pts) -> float:
        """g(J1 X, J1 Y) = -g(J2 X, J2 Y) = -g(J3 X, J3 Y) = g(X, Y)."""
        gv = self.g.eval_jet(pts)
        res = 0.0
        for sign, j in zip((1.0, -1.0, -1.0), self.js):
            jv = j.eval_jet(pts)
            jt = Jet(jv.space, np.swapaxes(jv.c, 1, 2), jv.order)
            res = max(res, max_abs(jmatmul(jmatmul(jt, gv), jv) - gv * sign))
        return res

    def closedness_residual(self, pts) -> float:
        return max(max_abs(exterior_derivative(om).eval(pts)) for om in self.omegas)

    def nijenhuis_residual(self, pts) -> float:
        return max(max_abs(nijenhuis_tensor(j).eval(pts)) for j in self.js)


def nijenhuis(j: Field) -> Field:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] + J^2 [X,Y] on frame pairs."""
    return nijenhuis_tensor(j)


def lee_form(pair: HermitianPair, return_condition=False):
    """The unique 1-form with theta ^ F = dF (dim 4 only), by pointwise
    linear solve; the map theta -> theta ^ F is an isomorphism in dim 4."""
    chart = pair.g.chart
    if chart.dim != 4:
        raise ValueError("Lee form solve is defined in dimension 4 only")
    df = exterior_derivative(pair.f)
    fform = pair.f
    # column l of the solve matrix is dx_l ^ F on 3-combos
    dx_wedge = _wedge_table(4, 1, 2)

    def solve_matrix(jc):
        fv = fform.fn(jc)
        return Jet(fv.space, np.einsum("olb,...br->...olr", dx_wedge, fv.c), fv.order)

    def fn(jc):
        m = solve_matrix(jc)
        rhs = df.fn(jc)
        ranks = np.linalg.matrix_rank(m.value)
        if np.any(ranks < 4):
            bad = int(np.argmax(ranks < 4))
            raise DegeneracyError(
                f"fundamental form degenerate: Lee solve singular at point index {bad}")
        return jet_solve(m, rhs)

    theta = oneform_field(chart, fn, cost=max(pair.f.cost + 1, pair.g.cost)).memoized()
    if not return_condition:
        return theta

    def condition(pts):
        jc_pts = np.atleast_2d(pts)
        from .tensorcalc.jets import jet_coords
        jc = jet_coords(chart.dim, fform.cost, jc_pts)
        m = solve_matrix(jc)
        return float(np.max(np.linalg.cond(m.value)))

    return theta, condition


class Connection:
    """Affine connection given by Christoffel-symbol jets Gamma^k_{ij}."""

    def __init__(self, chart, gamma_fn, cost):
        self.chart = chart
        self.gamma_fn = memoize_fn(gamma_fn)  # jc -> Jet (B, d, d, d) [k, i, j]
        self.cost = cost

    def nabla_vector(self, x: Field, y: Field) -> Field:
        """(nabla_X Y)^k = X^i (d_i Y^k + Gamma^k_{im} Y^m)."""
        def fn(jc):
            xv = x.fn(jc)
            yv = y.fn(jc)
            gam = self.gamma_fn(jc)
            dy = jgrad(yv) + jeinsum("...kim,...m->...ki", gam, yv)
            return jeinsum("...i,...ki->...k", xv, dy)

        return vector_field(self.chart, fn,
                            cost=max(self.cost, x.cost, y.cost + 1))

    def cov_deriv_tensor(self, t_fn, upper, cost) -> Field:
        """(nabla T)[i, j, k] = (nabla_{e_i} T)[j, k] for a (B, d, d) tensor
        jet ``t_fn(jc)``; ``upper`` gives each slot's variance (True for a
        vector slot, False for a covector slot); ``cost`` is T's."""
        def fn(jc):
            tv = t_fn(jc)
            gam = self.gamma_fn(jc)
            dt = jgrad(tv)
            out = Jet(dt.space, np.moveaxis(dt.c, -2, -4), dt.order)
            if upper[0]:
                out = out + jeinsum("...jim,...mk->...ijk", gam, tv)
            else:
                out = out - jeinsum("...mij,...mk->...ijk", gam, tv)
            if upper[1]:
                return out + jeinsum("...kim,...jm->...ijk", gam, tv)
            return out - jeinsum("...mik,...jm->...ijk", gam, tv)

        return Field(self.chart, "tensor", fn, cost=max(self.cost, cost + 1))

    def cov_deriv_endo(self, a: Field) -> Field:
        """(nabla A)[i, j, k] = (nabla_{e_i} A)^j_k."""
        return self.cov_deriv_tensor(a.fn, (True, False), a.cost)

    def cov_deriv_form2(self, f2: Field) -> Field:
        """(nabla F)[i, j, k] = (nabla_{e_i} F)(e_j, e_k) for a 2-form."""
        d = self.chart.dim
        return self.cov_deriv_tensor(lambda jc: form_full_matrix(f2.fn(jc), d),
                                     (False, False), f2.cost)

    def cov_deriv_metric_residual(self, g: Field, pts) -> float:
        return max_abs(self.cov_deriv_tensor(g.fn, (False, False), g.cost).eval(pts))

    def torsion_residual(self, pts) -> float:
        from .tensorcalc.jets import jet_coords
        jc = jet_coords(self.chart.dim, self.cost, np.atleast_2d(pts))
        gam = self.gamma_fn(jc)
        return max_abs(gam.c - np.swapaxes(gam.c, 2, 3))


def levi_civita(g: Field) -> Connection:
    """Christoffel symbols from jet derivatives of g."""
    chart = g.chart

    def gamma_fn(jc):
        gv = g.fn(jc)
        det = np.linalg.det(gv.value)
        if np.any(np.abs(det) < 1e-13):
            bad = int(np.argmin(np.abs(det)))
            raise DegeneracyError(f"metric degenerate at point index {bad}")
        ginv = jet_inv(gv)
        dg = jgrad(gv).c  # dg[i, j, l] = d_l g_ij
        # s[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
        s = (np.einsum("...jlir->...lijr", dg) + np.einsum("...iljr->...lijr", dg)
             - np.einsum("...ijlr->...lijr", dg))
        return jeinsum("...kl,...lij->...kij", ginv, Jet(gv.space, s, gv.order - 1)) * 0.5

    return Connection(chart, gamma_fn, cost=g.cost + 1)


def chern_connection(pair: HermitianPair) -> Connection:
    """g(D_X Y, Z) = g(nabla_X Y, Z) - (1/2) dF(JX, Y, Z)."""
    chart = pair.g.chart
    d = chart.dim
    lc = levi_civita(pair.g)
    df = exterior_derivative(pair.f)

    def gamma_fn(jc):
        gam = lc.gamma_fn(jc)
        ginv = jet_inv(pair.g.fn(jc))
        jv = pair.j.fn(jc)
        dfv = form3_full(df.fn(jc), d)
        # correction^k_{ij} = -1/2 g^{kl} dF(J e_i, e_j, e_l)
        jdf = jeinsum("...ai,...ajl->...ijl", jv, dfv)
        return gam + jeinsum("...kl,...ijl->...kij", ginv, jdf) * (-0.5)

    return Connection(chart, gamma_fn, cost=max(lc.cost, df.cost))


def form3_full(f3_jet: Jet, d: int) -> Jet:
    """3-form combo components -> full antisymmetric (B, d, d, d) jets."""
    return form_full(f3_jet, d, 3)


def d_pm_F(pair: HermitianPair) -> Field:
    """d^c-type 3-form: (d^J F)(X,Y,Z) = -dF(JX, JY, JZ)."""
    df = exterior_derivative(pair.f)
    return -pullback_linear(pair.j, df)


def type_30_03_residual(gamma3: Field, j: Field, pts) -> float:
    """Residual of the no-(3,0)+(0,3) identity for a 3-form:
    gamma(A,B,C) = gamma(JA,JB,C) + gamma(JA,B,JC) + gamma(A,JB,JC)."""
    d = gamma3.chart.dim
    tv = form3_full(gamma3.eval_jet(pts), d).value
    jm = j.eval(pts)
    a1 = np.einsum("bax,bcy,bacz->bxyz", jm, jm, tv)
    a2 = np.einsum("bax,bcz,bayc->bxyz", jm, jm, tv)
    a3 = np.einsum("bdy,bcz,bxdc->bxyz", jm, jm, tv)
    return float(np.abs(tv - a1 - a2 - a3).max())


@dataclass
class BihermitianData:
    """g with two compatible complex structures; K, S on the |p| > 1 locus."""

    g: Field
    jp: Field
    jm: Field
    name: str = ""

    @cached_property
    def p(self) -> Field:
        return scalar_field(self.g.chart,
                            lambda jc: jtrace(jmatmul(self.jp.fn(jc), self.jm.fn(jc))) * 0.25,
                            cost=max(self.jp.cost, self.jm.cost))

    @cached_property
    def pair_plus(self) -> HermitianPair:
        return HermitianPair(self.g, self.jp, name=self.name + "+")

    @cached_property
    def pair_minus(self) -> HermitianPair:
        return HermitianPair(self.g, self.jm, name=self.name + "-")

    @cached_property
    def s_root(self) -> Field:
        """sqrt(p^2 - 1), positive branch."""
        return scalar_field(self.g.chart,
                            lambda jc: (self.p.fn(jc) ** 2 - 1.0).sqrt(),
                            cost=self.p.cost)

    @cached_property
    def k_endo(self) -> Field:
        def fn(jc):
            jpv, jmv = self.jp.fn(jc), self.jm.fn(jc)
            q = jmatmul(jpv, jmv) - jmatmul(jmv, jpv)
            s = self.s_root.fn(jc)
            return _scale(q, (s * 2.0).reciprocal())

        return endo_field(self.g.chart, fn, cost=max(self.jp.cost, self.jm.cost))

    @cached_property
    def s_endo(self) -> Field:
        def fn(jc):
            jpv, jmv = self.jp.fn(jc), self.jm.fn(jc)
            p = self.p.fn(jc)
            s = self.s_root.fn(jc)
            num = jmv + _scale(jpv, p)
            return -_scale(num, s.reciprocal())

        return endo_field(self.g.chart, fn, cost=max(self.jp.cost, self.jm.cost))


def build_parahypercomplex(jp: Field, jm: Field, g: Field, pts,
                           margin: float = 0.05, name: str = "") -> BihermitianData:
    """K = [J+, J-] / (2 sqrt(p^2-1)), S = -(J- + p J+) / sqrt(p^2-1);
    valid only where |p| > 1 (checked on the sampled points)."""
    data = BihermitianData(g, jp, jm, name=name)
    pv = data.p.eval(pts)
    bad = np.abs(pv) <= 1.0 + margin
    if np.any(bad):
        pt = np.atleast_2d(pts)[bad][0]
        raise BranchError(f"|p| <= 1 + {margin} at sampled point {pt} (p={pv[bad][0]:.6g})")
    return data


def check_p_gradient(data: BihermitianData, pts) -> float:
    """Residual of 2 d(g-pairing of J+, J-) + (theta+ - theta-) o [J+, J-]."""
    chart = data.g.chart
    gpair = scalar_field(chart,
                         lambda jc: jtrace(jmatmul(data.jp.fn(jc), data.jm.fn(jc))) * (-0.5),
                         cost=max(data.jp.cost, data.jm.cost))
    from .tensorcalc import d_scalar
    dgp = d_scalar(gpair)
    thp = data.pair_plus.theta
    thm = data.pair_minus.theta

    def fn(jc):
        d2 = dgp.fn(jc) * 2.0
        jpv, jmv = data.jp.fn(jc), data.jm.fn(jc)
        q = jmatmul(jpv, jmv) - jmatmul(jmv, jpv)
        dth = thp.fn(jc) - thm.fn(jc)
        # (theta o Q)_i = theta_a Q^a_i
        comp = jmatvec(Jet(q.space, np.swapaxes(q.c, 1, 2), q.order), dth)
        return d2 + comp

    f = oneform_field(chart, fn, cost=max(dgp.cost, thp.cost, thm.cost))
    return max_abs(f.eval(pts))
