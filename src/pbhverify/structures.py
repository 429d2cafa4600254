"""Pseudo-Hermitian and para-hyperhermitian structure algebra.

Compatibility and integrability checks, fundamental forms, Lee forms,
Levi-Civita and Chern connections, and the K/S endomorphisms built from an
anticommuting pair of complex structures on a neutral 4-manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensorcalc import (Field, Jet, d_scalar, exterior_derivative,
                         form_field, form_from_matrix, form_full, frame_field,
                         frame_lift, jeinsum, jet_coords, jet_inv, jet_prefix,
                         jet_solve, jet_space, jgrad, jmatmul, jmatvec, jtrace,
                         jtranspose, nijenhuis_jets, oneform_field, pullback_linear,
                         same_frame, vector_field)
from .tensorcalc.fields import _scale, _broadcast_const, memoize_fn
from .tensorcalc.calculus import _d_table, _stack, _wedge_table

__all__ = ["HermitianPair", "ParaHyperTriple", "BihermitianData",
           "DegeneracyError", "BranchError", "lee_form", "lee_condition",
           "levi_civita", "build_parahypercomplex",
           "check_p_gradient", "Connection", "fundamental_form", "max_abs",
           "reduce_parts"]


class DegeneracyError(ValueError):
    """A metric or fundamental form degenerated at a sampled point."""


class BranchError(ValueError):
    """|p| <= 1 + BRANCH_MARGIN somewhere: the para-hypercomplex branch is
    invalid."""


BRANCH_MARGIN = 0.05  # K and S divide by sqrt(p^2 - 1), which is 0 at |p| = 1


def reduce_parts(parts, mask=None) -> float:
    """The one residual reduction: the largest |entry| of any part, NaN if
    any entry is NaN (``max(0.0, nan)`` is 0.0); an empty part counts as 0
    and a Jet part by its values.  ``mask`` restricts each array and Jet
    part to its True points (the leading axis); a number is a part reduced
    already and no mask applies to it."""
    peaks = []
    for part in parts:
        arr = part.value if isinstance(part, Jet) else np.asarray(part)
        arr = arr[mask] if mask is not None and arr.ndim else arr
        if arr.size:
            peaks.append(float(np.abs(arr).max()))
    return math.nan if any(map(math.isnan, peaks)) else max(peaks, default=0.0)


def max_abs(x) -> float:
    """``reduce_parts`` of the one part ``x``."""
    return reduce_parts([x])


def fundamental_form(g: Field, j: Field) -> Field:
    """F(X, Y) = g(JX, Y) as a 2-form field (combo components); for g and J
    constant in one frame, the frame constant J^T g."""
    chart = g.chart
    if same_frame(g, j):
        return frame_field(chart, "form", g.frame.e, j.frame.m.T @ g.frame.m, degree=2)

    def fn(jc):
        gv = g.fn(jc)
        return form_from_matrix(jmatmul(jtranspose(j.fn(jc)), gv), chart.dim)  # J^T g

    return form_field(chart, 2, fn, cost=max(g.cost, j.cost)).memoized()


@dataclass
class HermitianPair:
    """A metric g with a compatible (almost) complex structure J.  It owns
    the objects they determine, each built once, on first use:

      f        the fundamental form F(X, Y) = g(JX, Y)
      df       its exterior derivative dF
      theta    the Lee form, theta ^ F = dF
      lc       the Levi-Civita connection of g
      chern    the Chern connection, built on ``lc``, with g^-1 and J at dF's
               order: g(D_X Y, Z) = g(nabla_X Y, Z) - (1/2) dF(JX, Y, Z)
      torsion  the 3-form d^J F, (d^J F)(X, Y, Z) = -dF(JX, JY, JZ)"""

    g: Field
    j: Field

    @cached_property
    def f(self) -> Field:
        return fundamental_form(self.g, self.j)

    @cached_property
    def df(self) -> Field:
        return exterior_derivative(self.f)

    @cached_property
    def theta(self) -> Field:
        return lee_form(self)

    @cached_property
    def lc(self) -> Connection:
        return levi_civita(self.g)

    @cached_property
    def chern(self) -> Connection:
        d = self.g.chart.dim

        def gamma_fn(jc):
            gam = self.lc.gamma_fn(jc)
            dfv = form_full(self.df.fn(jc), d, 3)
            ginv = jet_inv(jet_prefix(self.g.fn(jc), dfv.space))
            # correction^k_{ij} = -1/2 g^{kl} dF(J e_i, e_j, e_l)
            jdf = jeinsum("...ai,...ajl->...ijl", self.j.fn_at(jc, dfv.order), dfv)
            return gam + jeinsum("...kl,...ijl->...kij", ginv, jdf) * (-0.5)

        return Connection(self.g.chart, gamma_fn, cost=max(self.lc.cost, self.df.cost))

    @cached_property
    def torsion(self) -> Field:
        return -pullback_linear(self.j, self.df)


# J_a J_b = SIGN[a, b] T[INDEX[a, b]] for T = (J1, J2, J3, I), and J_a^T g J_a = sign_a g
SPLIT_QUATERNION_INDEX = np.array([[3, 2, 1], [2, 3, 0], [1, 0, 3]])
SPLIT_QUATERNION_SIGN = np.array([[-1.0, 1.0, -1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
COMPATIBILITY_SIGN = np.array([1.0, -1.0, -1.0])


@dataclass
class ParaHyperTriple:
    """Almost para-hyperhermitian structure {g, J1, J2, J3}.  The residuals
    read J1-J3 from their fields (not frames) as one order-1 ``stack`` ``js``
    and g at order 0 ``gv``, evaluated once by the caller."""

    g: Field
    j1: Field
    j2: Field
    j3: Field

    @property
    def js(self):
        return (self.j1, self.j2, self.j3)

    @cached_property
    def omegas(self):
        return tuple(fundamental_form(self.g, j) for j in self.js)

    def stack(self, pts, order: int = 0) -> Jet:
        """J1, J2, J3 at ``pts``, valid to ``order``, as one (B, 3, d, d) jet."""
        return _stack([j.eval_jet(pts, order) for j in self.js])

    def algebra_residual(self, js) -> float:
        """All nine products J_a J_b against the split-quaternion table."""
        js = jet_prefix(js, jet_space(js.space.dim, 0))
        eye = _broadcast_const(js, np.eye(js.c.shape[-2])).c[:, None]
        want = np.concatenate([js.c, eye], axis=1)[:, SPLIT_QUATERNION_INDEX]
        return max_abs(jeinsum("...aij,...bjk->...abik", js, js)
                       - Jet(js.space, want * SPLIT_QUATERNION_SIGN[..., None, None, None]))

    def compatibility_residual(self, js, gv) -> float:
        """g(J1 X, J1 Y) = -g(J2 X, J2 Y) = -g(J3 X, J3 Y) = g(X, Y), at g's order."""
        jtgj = jeinsum("...aik,...akl->...ail", jeinsum("...aji,...jk->...aik", js, gv), js)
        want = gv.c[:, None] * COMPATIBILITY_SIGN[:, None, None, None]
        return max_abs(jtgj - Jet(gv.space, want))

    def closedness_residual(self, pts) -> float:
        dw = jgrad(_stack([w.eval_jet(pts, 1) for w in self.omegas]))
        return max_abs(np.einsum("osi,...sir->...or", _d_table(self.g.chart.dim, 2), dw.c))

    def nijenhuis_residual(self, js) -> float:
        return max_abs(nijenhuis_jets(js))


def _lee_solve_matrix(fv: Jet) -> Jet:
    """Column l of the Lee solve matrix is dx_l ^ F on 3-combos."""
    return Jet(fv.space, np.einsum("olb,...br->...olr", _wedge_table(4, 1, 2), fv.c))


def lee_form(pair: HermitianPair) -> Field:
    """The unique 1-form with theta ^ F = dF (dim 4 only), by pointwise
    linear solve; the map theta -> theta ^ F is an isomorphism in dim 4."""
    chart = pair.g.chart
    if chart.dim != 4:
        raise ValueError("Lee form solve is defined in dimension 4 only")

    def fn(jc):
        rhs = pair.df.fn(jc)
        m = _lee_solve_matrix(jet_prefix(pair.f.fn(jc), rhs.space))
        ranks = np.linalg.matrix_rank(m.value)
        if np.any(ranks < 4):
            bad = int(np.argmax(ranks < 4))
            raise DegeneracyError(
                f"fundamental form degenerate: Lee solve singular at point index {bad}")
        return jet_solve(m, rhs)

    return oneform_field(chart, fn, cost=max(pair.f.cost + 1, pair.g.cost)).memoized()


def lee_condition(pair: HermitianPair, pts) -> float:
    """Largest condition number of the Lee solve matrix over the points."""
    f = pair.f
    jc = jet_coords(f.chart.dim, f.cost, np.atleast_2d(pts))
    return float(np.max(np.linalg.cond(_lee_solve_matrix(f.fn(jc)).value)))


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
            out = Jet(dt.space, np.moveaxis(dt.c, -2, -4))
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
    """Christoffel symbols from jet derivatives of g, with g^-1 at dg's order."""
    chart = g.chart

    def gamma_fn(jc):
        gv = g.fn(jc)
        det = np.linalg.det(gv.value)
        if np.any(np.abs(det) < 1e-13):
            bad = int(np.argmin(np.abs(det)))
            raise DegeneracyError(f"metric degenerate at point index {bad}")
        dg = jgrad(gv)  # dg[i, j, l] = d_l g_ij
        ginv = jet_inv(jet_prefix(gv, dg.space))
        # s[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
        s = (np.einsum("...jlir->...lijr", dg.c) + np.einsum("...iljr->...lijr", dg.c)
             - np.einsum("...ijlr->...lijr", dg.c))
        return jeinsum("...kl,...lij->...kij", ginv, Jet(dg.space, s)) * 0.5

    return Connection(chart, gamma_fn, cost=g.cost + 1)


def _pairing(jpjm: Jet) -> Jet:
    """p = tr(J+ J-) / 4 from the product J+ J-."""
    return jtrace(jpjm) * 0.25


def _branch_root(p: Jet) -> Jet:
    """sqrt(p^2 - 1), positive branch."""
    return (p ** 2 - 1.0).sqrt()


@dataclass
class BihermitianData:
    """A metric g with two compatible complex structures J+ and J-.  It owns
    the objects they determine, each built once, on first use:

      pair_plus, pair_minus  the Hermitian pairs (g, J+) and (g, J-), which
                             own F±, the Lee forms theta±, the Levi-Civita
                             and Chern connections and the 3-forms d^J± F±
      p                      the pairing tr(J+ J-) / 4
      s_root                 sqrt(p^2 - 1), positive branch
      branch                 the branch function f = p - sqrt(p^2 - 1)
      n_plus, n_minus        N± = J+ + (p ± sqrt(p^2 - 1)) J-, square-zero
      k_endo, s_endo         K and S, on the |p| > 1 locus
      q                      the commutator Q = [J+, J-]

    K and S take p and sqrt(p^2 - 1) from the J+ and J- they evaluate.  Each
    of p, sqrt(p^2 - 1), f, K, S and Q has one jet formula; when J+ and J-
    are constant in one frame, ``frame_lift`` evaluates it once, at x1 = 0,
    for its frame components, and otherwise it is memoized.  N± are plain
    field algebra, not lifted; N- is memoized, N+ (read once per jet) not."""

    g: Field
    jp: Field
    jm: Field

    def _lifted(self, kind, fn) -> Field:
        """The ``kind`` field evaluated by ``fn`` from J+ and J-, lifted to
        a frame constant when they are constant in one frame, else memoized
        (a frame constant evaluates as a polynomial in x1 already)."""
        field = Field(self.g.chart, kind, fn, cost=max(self.jp.cost, self.jm.cost))
        lifted = frame_lift(field, self.jp, self.jm)
        return field.memoized() if lifted is field else lifted

    @cached_property
    def p(self) -> Field:
        return self._lifted("scalar",
                            lambda jc: _pairing(jmatmul(self.jp.fn(jc), self.jm.fn(jc))))

    @cached_property
    def pair_plus(self) -> HermitianPair:
        return HermitianPair(self.g, self.jp)

    @cached_property
    def pair_minus(self) -> HermitianPair:
        return HermitianPair(self.g, self.jm)

    @cached_property
    def s_root(self) -> Field:
        """sqrt(p^2 - 1), positive branch."""
        return self._lifted("scalar", lambda jc: _branch_root(self.p.fn(jc)))

    @cached_property
    def branch(self) -> Field:
        return _branch(self, -1.0)

    @cached_property
    def n_plus(self) -> Field:
        return self.jp + self.jm * _branch(self, 1.0)

    @cached_property
    def n_minus(self) -> Field:
        return (self.jp + self.jm * self.branch).memoized()

    @cached_property
    def q(self) -> Field:
        """Q = [J+, J-]."""
        def fn(jc):
            a, b = self.jp.fn(jc), self.jm.fn(jc)
            return jmatmul(a, b) - jmatmul(b, a)

        return self._lifted("endo", fn)

    @cached_property
    def k_endo(self) -> Field:
        def fn(jc):
            jpv, jmv = self.jp.fn(jc), self.jm.fn(jc)
            jpjm = jmatmul(jpv, jmv)
            q = jpjm - jmatmul(jmv, jpv)
            s = _branch_root(_pairing(jpjm))
            return _scale(q, (s * 2.0).reciprocal())

        return self._lifted("endo", fn)

    @cached_property
    def s_endo(self) -> Field:
        def fn(jc):
            jpv, jmv = self.jp.fn(jc), self.jm.fn(jc)
            p = _pairing(jmatmul(jpv, jmv))
            s = _branch_root(p)
            num = jmv + _scale(jpv, p)
            return -_scale(num, s.reciprocal())

        return self._lifted("endo", fn)


def _branch(data: BihermitianData, sign: float) -> Field:
    """p + sign sqrt(p^2 - 1) of ``data``; the branch function f at -1."""
    def fn(jc):
        p = data.p.fn(jc)
        return p + _branch_root(p) * sign

    return data._lifted("scalar", fn)


def build_parahypercomplex(jp: Field, jm: Field, g: Field, pts) -> BihermitianData:
    """K = [J+, J-] / (2 sqrt(p^2-1)), S = -(J- + p J+) / sqrt(p^2-1);
    valid only where |p| > 1 (checked on the sampled points)."""
    data = BihermitianData(g, jp, jm)
    pv = data.p.eval(pts)
    bad = np.abs(pv) <= 1.0 + BRANCH_MARGIN
    if np.any(bad):
        pt = np.atleast_2d(pts)[bad][0]
        raise BranchError(f"|p| <= 1 + BRANCH_MARGIN = {1 + BRANCH_MARGIN:g} at sampled "
                          f"point {pt} (p={pv[bad][0]:.6g})")
    return data


def check_p_gradient(data: BihermitianData, pts) -> float:
    """Residual of 2 d(g-pairing of J+, J-) + (theta+ - theta-) o Q."""
    chart = data.g.chart
    dgp = d_scalar(data.p * (-2.0))  # the g-pairing of J+ and J-
    thp = data.pair_plus.theta
    thm = data.pair_minus.theta

    def fn(jc):
        d2 = dgp.fn(jc) * 2.0
        dth = thp.fn(jc) - thm.fn(jc)
        # (theta o Q)_i = theta_a Q^a_i
        comp = jmatvec(jtranspose(data.q.fn_at(jc, dth.order)), dth)
        return d2 + comp

    f = oneform_field(chart, fn, cost=max(dgp.cost, thp.cost, thm.cost))
    return max_abs(f.eval(pts))
