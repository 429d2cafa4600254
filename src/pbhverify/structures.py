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
                         form_field, form_from_matrix, form_full, jeinsum,
                         jet_inv, jet_solve, jgrad, jmatmul, jmatvec, jtrace,
                         jtranspose, nijenhuis_tensor, oneform_field,
                         pullback_linear, scalar_field, vector_field)
from .tensorcalc.fields import _scale, _broadcast_const, memoize_fn
from .tensorcalc.calculus import _wedge_table

__all__ = ["HermitianPair", "ParaHyperTriple", "BihermitianData",
           "DegeneracyError", "BranchError", "lee_form", "levi_civita",
           "chern_connection", "d_pm_F", "build_parahypercomplex",
           "check_p_gradient", "Connection", "fundamental_form", "max_abs",
           "worst", "trace_pairing"]


class DegeneracyError(ValueError):
    """A metric or fundamental form degenerated at a sampled point."""


class BranchError(ValueError):
    """|p| <= 1 + margin somewhere: the para-hypercomplex branch is invalid."""


def max_abs(x) -> float:
    arr = x.value if isinstance(x, Jet) else np.asarray(x)
    return float(np.abs(arr).max()) if arr.size else 0.0


def worst(*xs) -> float:
    """The largest residual, NaN if any is NaN (``max(0.0, nan)`` is 0.0)."""
    return float(np.max(np.asarray(xs, dtype=np.float64)))


def fundamental_form(g: Field, j: Field) -> Field:
    """F(X, Y) = g(JX, Y) as a 2-form field (combo components)."""
    chart = g.chart

    def fn(jc):
        gv = g.fn(jc)
        return form_from_matrix(jmatmul(jtranspose(j.fn(jc)), gv), chart.dim)  # J^T g

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
        return max_abs(jmatmul(jmatmul(jtranspose(jv), gv), jv) - gv)


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
        return worst(
            # squares: J1^2 = -Id, J2^2 = J3^2 = +Id
            max_abs(jmatmul(jv[0], jv[0]) + eye),
            max_abs(jmatmul(jv[1], jv[1]) - eye),
            max_abs(jmatmul(jv[2], jv[2]) - eye),
            # products: J1J2 = J3 = -J2J1, J2J3 = -J1 = -J3J2, J3J1 = J2 = -J1J3
            max_abs(jmatmul(jv[0], jv[1]) - jv[2]),
            max_abs(jmatmul(jv[1], jv[0]) + jv[2]),
            max_abs(jmatmul(jv[1], jv[2]) + jv[0]),
            max_abs(jmatmul(jv[2], jv[1]) - jv[0]),
            max_abs(jmatmul(jv[2], jv[0]) - jv[1]),
            max_abs(jmatmul(jv[0], jv[2]) + jv[1]))

    def compatibility_residual(self, pts) -> float:
        """g(J1 X, J1 Y) = -g(J2 X, J2 Y) = -g(J3 X, J3 Y) = g(X, Y)."""
        gv = self.g.eval_jet(pts)
        return worst(*(max_abs(jmatmul(jmatmul(jtranspose(jv), gv), jv) - gv * sign)
                       for sign, jv in zip((1.0, -1.0, -1.0),
                                           (j.eval_jet(pts) for j in self.js))))

    def closedness_residual(self, pts) -> float:
        return worst(*(max_abs(exterior_derivative(om).eval(pts)) for om in self.omegas))

    def nijenhuis_residual(self, pts) -> float:
        return worst(*(max_abs(nijenhuis_tensor(j).eval(pts)) for j in self.js))


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
        dfv = form_full(df.fn(jc), d, 3)
        # correction^k_{ij} = -1/2 g^{kl} dF(J e_i, e_j, e_l)
        jdf = jeinsum("...ai,...ajl->...ijl", jv, dfv)
        return gam + jeinsum("...kl,...ijl->...kij", ginv, jdf) * (-0.5)

    return Connection(chart, gamma_fn, cost=max(lc.cost, df.cost))


def d_pm_F(pair: HermitianPair) -> Field:
    """d^c-type 3-form: (d^J F)(X,Y,Z) = -dF(JX, JY, JZ)."""
    df = exterior_derivative(pair.f)
    return -pullback_linear(pair.j, df)


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
    from .tensorcalc import d_scalar
    dgp = d_scalar(data.p * (-2.0))  # the g-pairing of J+ and J-
    thp = data.pair_plus.theta
    thm = data.pair_minus.theta

    def fn(jc):
        d2 = dgp.fn(jc) * 2.0
        jpv, jmv = data.jp.fn(jc), data.jm.fn(jc)
        q = jmatmul(jpv, jmv) - jmatmul(jmv, jpv)
        dth = thp.fn(jc) - thm.fn(jc)
        # (theta o Q)_i = theta_a Q^a_i
        comp = jmatvec(jtranspose(q), dth)
        return d2 + comp

    f = oneform_field(chart, fn, cost=max(dgp.cost, thp.cost, thm.cost))
    return max_abs(f.eval(pts))
