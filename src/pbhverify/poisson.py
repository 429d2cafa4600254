"""Holomorphic Poisson pipeline: the bivector built from an anticommuting
pair, its type and holomorphicity, Schouten brackets by two independent
routes, and the dd^c machinery for commuting holomorphic fields."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .structures import BihermitianData, HermitianPair, max_abs
from .tensorcalc import (Field, Jet, bivector_field, d_scalar,
                         exterior_derivative, form_combos, form_field,
                         form_from_matrix, form_full, form_full_matrix,
                         jeinsum, jet_common, jet_coords, jet_inv, jgrad, jmatmul,
                         jmatvec, jtranspose, oneform_field)
from .tensorcalc.calculus import _full_index
from .tensorcalc.fields import _broadcast_const

__all__ = ["ComplexBivector", "pi_bivector", "check_holomorphic",
           "schouten_bb", "schouten_vb", "cyclic_nabla_q_form",
           "lower_trivector", "ddc_scalar",
           "standard_complex_matrix", "holo_bracket", "holo_apply",
           "dbar_matrix", "holo_realframe_components",
           "ddc_commuting_fields", "sigma_compose_form",
           "type_02_projector_matrix", "theorem4_hypotheses"]


@dataclass
class ComplexBivector:
    """Complex bivector with its g-lowered complex 2-form."""

    bivector: Field   # (B, d, d) complex antisymmetric
    lowered: Field    # complex 2-form (combo components)
    pair: HermitianPair  # (g, J+) of the data it was built from

    def type_20_residual(self, pts) -> float:
        """The lowered form must be (0,2): L(JX, Y) = -i L(X, Y)."""
        d = self.pair.g.chart.dim
        lv = form_full_matrix(self.lowered.eval_jet(pts), d).value
        jv = self.pair.j.eval(pts)
        res = np.einsum("bai,baj->bij", jv, lv) + 1j * lv
        return max_abs(res)

    def omega_11_residual(self, pts) -> float:
        """(1,1)-part of the real part: Omega(JX, JY) + Omega(X, Y) = 0."""
        d = self.pair.g.chart.dim
        lv = form_full_matrix(self.lowered.eval_jet(pts), d).value.real
        jv = self.pair.j.eval(pts)
        res = np.einsum("bai,bcj,bac->bij", jv, jv, lv) + lv
        return max_abs(res)


OPPOSITE_TOL = 1e-8  # pi_bivector warns above this |d^J+ F+ + d^J- F-|
COMMUTE_TOL = 1e-9  # ddc_commuting_fields rejects fields with a larger |[U, V]|


def pi_bivector(data: BihermitianData, check_points=None) -> ComplexBivector:
    """Lowered form L(X,Y) = g(QX,Y) + i g(QX, J+Y); the bivector is of type
    (2,0) for J+ and vanishes exactly when the structures commute.

    With ``check_points`` the opposite-torsion precondition of the pipeline
    (the two 3-forms of the pair sum to zero) is measured and a warning is
    emitted if violated."""
    g, jp, q = data.g, data.jp, data.q
    chart = g.chart
    d = chart.dim
    if check_points is not None:
        res = max_abs(data.pair_plus.torsion.eval(check_points)
                      + data.pair_minus.torsion.eval(check_points))
        if res > OPPOSITE_TOL:
            warnings.warn(f"opposite-torsion precondition violated: residual "
                          f"{res:.3g}; the bivector need not be holomorphic",
                          RuntimeWarning, stacklevel=2)

    def lowered_fn(jc):
        gv = g.fn(jc)
        qv = q.fn(jc)
        jv = jp.fn(jc)
        qtg = jmatmul(jtranspose(qv), gv)
        omega = qtg  # Omega[i, j] = g(Q e_i, e_j)
        omega_j = jmatmul(qtg, jv)  # Omega(Q e_i, J e_j) = (Q^T g J)[i, j]
        omega, omega_j = jet_common(omega, omega_j)
        c = omega.c.astype(np.complex128) + 1j * omega_j.c
        return form_from_matrix(Jet(omega.space, c), d)

    lowered = form_field(chart, 2, lowered_fn,
                         cost=max(g.cost, jp.cost, data.jm.cost)).memoized()

    def biv_fn(jc):
        lv = form_full_matrix(lowered.fn(jc), d)
        ginv = jet_inv(g.fn(jc))
        return jmatmul(ginv, jmatmul(lv, ginv))

    biv = bivector_field(chart, biv_fn, cost=max(lowered.cost, g.cost)).memoized()
    return ComplexBivector(biv, lowered, data.pair_plus)


def type_02_projector_matrix(l_mat: np.ndarray, j_mat: np.ndarray) -> np.ndarray:
    """(0,2)-projector on complex 2-form matrices:
    P(L)(X,Y) = [L(X,Y) - L(JX,JY)]/4 + i [L(JX,Y) + L(X,JY)]/4."""
    ljj = np.einsum("bai,bcj,bac->bij", j_mat, j_mat, l_mat)
    lj_left = np.einsum("bai,baj->bij", j_mat, l_mat)
    lj_right = np.einsum("bcj,bic->bij", j_mat, l_mat)
    return 0.25 * (l_mat - ljj) + 0.25j * (lj_left + lj_right)


def check_holomorphic(pi: ComplexBivector, pts) -> float:
    """Residual of D_{X + i J X} Pi over coordinate X, with D the Chern
    connection of the bivector's pair (g, J+)."""
    pair = pi.pair
    f = pair.chern.cov_deriv_tensor(pi.bivector.fn, (True, True), pi.bivector.cost)
    dcov = f.eval(pts)                       # (B, i, j, k) complex values
    jv = pair.j.eval(pts)
    # contract with V = e_i + i J e_i: D_V = D_i + i J^m_i D_m
    contracted = dcov + 1j * np.einsum("bmi,bmjk->bijk", jv, dcov)
    return max_abs(contracted)


def schouten_bb(p: Field, q: Field) -> Field:
    """Schouten bracket of two bivector fields, as a trivector on sorted
    index triples: [P,Q]^{ijk} = cyclic_(ijk) (P^{il} d_l Q^{jk}
    + Q^{il} d_l P^{jk})."""
    chart = p.chart
    d = chart.dim
    i, j, k = np.array(form_combos(d, 3)).T

    def fn(jc):
        pv = p.fn(jc)
        qv = q.fn(jc)
        t = (jeinsum("...xl,...yzl->...xyz", pv, jgrad(qv))
             + jeinsum("...xl,...yzl->...xyz", qv, jgrad(pv)))
        c = t.c[..., i, j, k, :] + t.c[..., j, k, i, :] + t.c[..., k, i, j, :]
        return Jet(t.space, c)

    return Field(chart, "form", fn, degree=3, cost=max(p.cost, q.cost) + 1)


def schouten_vb(v: Field, p: Field) -> Field:
    """[V, P] = L_V P for a vector field and a bivector field."""
    chart = v.chart

    def fn(jc):
        vv = v.fn(jc)
        pv = p.fn(jc)
        dv = jgrad(vv)  # dv[j, l] = d_l V^j
        return (jeinsum("...l,...jkl->...jk", vv, jgrad(pv))
                - jeinsum("...lk,...jl->...jk", pv, dv)
                - jeinsum("...jl,...kl->...jk", pv, dv))

    return bivector_field(chart, fn, cost=max(v.cost, p.cost) + 1)


def cyclic_nabla_q_form(data: BihermitianData, pts) -> np.ndarray:
    """Cyclic sum over (X,Y,Z) of g((nabla_{QX} Q) Y, Z) as a full 3-tensor
    of values; vanishing is the Levi-Civita route to the Jacobi identity."""
    q = data.q
    dq = data.pair_plus.lc.cov_deriv_endo(q).eval(pts)  # (B, l, j, y)
    qv = q.eval(pts)
    gv = data.g.eval(pts)
    t = np.einsum("blx,bljy,bjz->bxyz", qv, dq, gv)
    return t + np.einsum("bxyz->byzx", t) + np.einsum("bxyz->bzxy", t)


def lower_trivector(tri_vals: np.ndarray, g_vals: np.ndarray, dim: int):
    """Trivector combo values -> lowered full 3-tensor values, contracted
    pairwise (p, then q, then r)."""
    idx, sign = _full_index(dim, 3)
    full = (tri_vals[:, idx] * sign).reshape(tri_vals.shape[:1] + (dim, dim, dim))
    return np.einsum("bpqr,bpx,bqy,brz->bxyz", full, g_vals, g_vals, g_vals,
                     optimize=["einsum_path", (0, 1), (0, 2), (0, 1)])


# --------------------------------------------------------------------------
# complex-coordinate helpers (standard complex structure on C^m charts,
# real coordinates ordered (Re z_1, Im z_1, Re z_2, Im z_2, ...))


def standard_complex_matrix(dim: int) -> np.ndarray:
    j = np.zeros((dim, dim))
    for a in range(dim // 2):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0
    return j


def ddc_scalar(phi: Field) -> Field:
    """dd^c phi with d^c = (i/2)(dbar - d), i.e. d^c phi = -(d phi) o J / 2;
    equals i ddbar phi on a complex chart."""
    chart = phi.chart
    j_std = standard_complex_matrix(chart.dim)
    dphi = d_scalar(phi)

    def dc_fn(jc):
        return jmatvec(_broadcast_const(jc, j_std.T), dphi.fn(jc)) * (-0.5)

    dc = oneform_field(chart, dc_fn, cost=dphi.cost)
    return exterior_derivative(dc)


def holo_realframe_components(xi: Jet) -> Jet:
    """Holomorphic components (B, m) -> real-frame complex components
    (B, 2m) of  sum_a xi^a d/dz_a  with d/dz = (d/dx - i d/dy)/2."""
    b, m = xi.c.shape[0], xi.c.shape[1]
    c = np.zeros((b, 2 * m, xi.space.n), dtype=np.complex128)
    c[:, 0::2] = 0.5 * xi.c
    c[:, 1::2] = -0.5j * xi.c
    return Jet(xi.space, c)


def _wirtinger_matrix(m: int, dim: int, sign: float) -> np.ndarray:
    """Rows b: d/dz_b (sign -1) or d/dzbar_b (sign +1) over the real partials."""
    w = np.zeros((m, dim), dtype=np.complex128)
    for b in range(m):
        w[b, 2 * b], w[b, 2 * b + 1] = 0.5, 0.5j * sign
    return w


def _wirtinger(u: Jet, m: int, sign: float) -> Jet:
    """d u / d z_b (sign -1) or d u / d zbar_b (sign +1), b < m, as a new
    trailing component axis."""
    g = jgrad(u)
    w = _wirtinger_matrix(m, g.space.dim, sign)
    return Jet(g.space, np.einsum("bq,...qr->...br", w, g.c))


def holo_apply(xi: Jet, phi: Jet) -> Jet:
    """Derivative of a scalar jet along a holomorphic field: sum xi^a dphi/dz_a."""
    return jeinsum("...a,...a->...", xi, _wirtinger(phi, xi.c.shape[1], -1.0))


def holo_bracket(xi: Jet, eta: Jet) -> Jet:
    """[U, V]^a = U^b d_b V^a - V^b d_b U^a on holomorphic components."""
    m = xi.c.shape[1]
    return (jeinsum("...b,...ab->...a", xi, _wirtinger(eta, m, -1.0))
            - jeinsum("...b,...ab->...a", eta, _wirtinger(xi, m, -1.0)))


def dbar_matrix(xi: Jet, dim: int) -> np.ndarray:
    """dbar of a (1,0) field, as the real-frame complex matrix M[i, j] of the
    tangent-valued (0,1)-form  sum (d xi^a / d zbar_b) dzbar_b (x) d/dz_a."""
    m = xi.c.shape[1]
    coeffs = _wirtinger(xi, m, 1.0).value
    # d/dz_a = (e_2a - i e_2a+1)/2 and dzbar_b = dx_2b - i dx_2b+1
    dz = _wirtinger_matrix(m, dim, -1.0)
    return np.einsum("xab,ai,bj->xij", coeffs, dz, 2.0 * dz)


def sigma_compose_form(z1_rf: np.ndarray, z2_rf: np.ndarray,
                       form_full: np.ndarray) -> np.ndarray:
    """(Z1 ^ Z2) o B as the real-frame complex matrix
    T[i, j] = B(Z1, e_j) Z2^i - B(Z2, e_j) Z1^i."""
    b1 = np.einsum("bp,bpj->bj", z1_rf, form_full)
    b2 = np.einsum("bp,bpj->bj", z2_rf, form_full)
    return np.einsum("bj,bi->bij", b1, z2_rf) - np.einsum("bj,bi->bij", b2, z1_rf)


def ddc_commuting_fields(u_hol: Field, v_hol: Field, phi: Field, pts) -> dict:
    """Residual of (U ^ V) o dd^c phi = i dbar((U phi) V - (V phi) U) for
    commuting holomorphic fields, plus the commutation precondition."""
    chart = phi.chart
    dim = chart.dim

    def check(jc):
        xi = u_hol.fn(jc)
        eta = v_hol.fn(jc)
        br = holo_bracket(xi, eta)
        return br

    br_field = Field(chart, "tensor", check, cost=max(u_hol.cost, v_hol.cost) + 1)
    commute_res = max_abs(br_field.eval(pts))
    if commute_res > COMMUTE_TOL:
        raise ValueError(f"fields do not commute: residual {commute_res:.3g}")

    ddc = ddc_scalar(phi)

    def lhs_rhs(jc):
        xi = u_hol.fn(jc)
        eta = v_hol.fn(jc)
        z1 = holo_realframe_components(xi)
        z2 = holo_realframe_components(eta)
        ddcv = form_full_matrix(ddc.fn(jc), dim)
        lhs = sigma_compose_form(z1.value, z2.value, ddcv.value.astype(np.complex128))
        phiv = phi.fn(jc)
        uphi = holo_apply(xi, phiv)
        vphi = holo_apply(eta, phiv)
        w = uphi[:, None] * eta - vphi[:, None] * xi
        rhs = 1j * dbar_matrix(w, dim)
        return lhs, rhs

    cost = max(u_hol.cost, v_hol.cost, phi.cost + 2)
    jc = jet_coords(dim, cost, np.atleast_2d(pts))
    lhs, rhs = lhs_rhs(jc)
    return {"commute": commute_res, "residual": max_abs(lhs - rhs)}


def chern_identity_residuals(data: BihermitianData, pts) -> dict:
    """The covariant-derivative identities relating the Chern connection of
    (g, J+) to the second structure, valid when the two 3-forms of the pair
    are opposite (d^J+ F+ = -d^J- F-):

      chern1: 2 g((D_X J-)Y, Z) + dJF(X, J-Y, Z) + dJF(X, Y, J-Z)
              - dJF(X, J+J-Y, J+Z) - dJF(X, J+Y, J+J-Z) = 0
      chern2: 2 g((D_X J-)Y, Z) + dJF(J+X, J-Y, J+Z) + dJF(J+X, J+J-Y, Z)
              + dJF(J+X, Y, J+J-Z) + dJF(J+X, J+Y, J-Z) = 0
      derP:   g((D_X Q)Y, Z) - g((D_{J+X} Q)Y, J+Z) = 0
      nablaQ: 2 g((nabla_X Q)Y, Z) - dJF(X, PY, Z) - dJF(X, Y, PZ)
              - 2 dJF(X, J-Y, J+Z) - 2 dJF(X, J+Y, J-Z) = 0

    with dJF = d^{J+} F+, Q = [J+, J-], P = J+J- + J-J+.
    """
    g, jp, jm, q, pair = data.g, data.jp, data.jm, data.q, data.pair_plus
    chern = pair.chern
    d = g.chart.dim

    gv = g.eval(pts)
    jpv = jp.eval(pts)
    jmv = jm.eval(pts)
    pv = jpv @ jmv + jmv @ jpv
    t = form_full(pair.torsion.eval_jet(pts), d, 3).value

    djm = chern.cov_deriv_endo(jm).eval(pts)       # (B, i, j, k): (D_i J-)^j_k
    # 2 g((D_X J-)Y, Z): contract the component index with g
    lhs = 2.0 * np.einsum("bxjy,bjz->bxyz", djm, gv)

    def dj3(a_mat, b_mat, c_mat):
        """dJF(A X, B Y, C Z) as a full 3-tensor; identity matrices allowed.
        Contracted pairwise (t with A, then B, then C): the four-operand
        loop costs about 40 times as much at 64 points."""
        return np.einsum("pax,pdy,pcz,padc->pxyz", a_mat, b_mat, c_mat, t,
                         optimize=["einsum_path", (0, 3), (0, 2), (0, 1)])

    eye = np.broadcast_to(np.eye(d), gv.shape)
    jj = jpv @ jmv
    res1 = lhs + dj3(eye, jmv, eye) + dj3(eye, eye, jmv) \
        - dj3(eye, jj, jpv) - dj3(eye, jpv, jj)
    res2 = lhs + dj3(jpv, jmv, jpv) + dj3(jpv, jj, eye) \
        + dj3(jpv, eye, jj) + dj3(jpv, jpv, jmv)

    dq = chern.cov_deriv_endo(q).eval(pts)
    gdq = np.einsum("bxjy,bjz->bxyz", dq, gv)        # g((D_x Q) e_y, e_z)
    # (jpv dq)(gv jpv): einsum appends each intermediate to its operands
    gdq_j = np.einsum("bax,bajy,bjm,bmz->bxyz", jpv, dq, gv, jpv,
                      optimize=["einsum_path", (0, 1), (0, 1), (0, 1)])
    res3 = gdq - gdq_j

    dq_lc = pair.lc.cov_deriv_endo(q).eval(pts)
    lhs_q = 2.0 * np.einsum("bxjy,bjz->bxyz", dq_lc, gv)
    res4 = lhs_q - dj3(eye, pv, eye) - dj3(eye, eye, pv) \
        - 2.0 * dj3(eye, jmv, jpv) - 2.0 * dj3(eye, jpv, jmv)

    scale = max(1.0, max_abs(t), max_abs(lhs))
    return {
        "chern1": max_abs(res1) / scale,
        "chern2": max_abs(res2) / scale,
        "derP": max_abs(res3) / scale,
        "nablaQ": max_abs(res4) / scale,
        "dJF_scale": max_abs(t),
    }


def theorem4_hypotheses(flag, pts, pts_ii) -> dict:
    """On the flag-chart bundle: fit lambda from dd^c(ln |tau|^2 o p_k)
    = 3 lambda w_k, build the candidate (1,0) field, then check
      (i)  sigma o F0 = dbar X^{1,0}
      (ii) [Re X^{1,0}, Im sigma] = 0 (Schouten bracket), at ``pts_ii``.
    """
    lam_mean, lam_spread = flag.lambda_fit(pts)
    if lam_spread > 1e-4:
        raise ValueError(f"lambda fit inconsistent: relative spread {lam_spread:.3g}")
    res_i = flag.hypothesis_i_residual(pts, lam_mean)
    res_ii = flag.hypothesis_ii_residual(pts_ii, lam_mean)
    return {"lambda": lam_mean, "lambda_spread": lam_spread,
            "hypothesis_i": res_i, "hypothesis_ii": res_ii}
