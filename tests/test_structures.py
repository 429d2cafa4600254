"""Hermitian pairs, Lee forms, connections and the K/S construction."""

import numpy as np
import pytest

from pbhverify.structures import (BihermitianData, BranchError, HermitianPair,
                                  build_parahypercomplex, check_p_gradient,
                                  lee_condition, lee_form, levi_civita,
                                  max_abs)
from pbhverify.tensorcalc import (SamplePlan, d_scalar, exterior_derivative,
                                  form_full, form_full_matrix, jmatmul, jtrace,
                                  jtranspose, nijenhuis_tensor, pullback_linear,
                                  scalar_field, wedge)
from pbhverify.flagmodel import cp2_charts
from pbhverify.poisson import standard_complex_matrix
from pbhverify.tensorcalc.fields import _broadcast_const, constant_endo
from pbhverify.tensorcalc.jets import jet_coords


# -- oracles: residuals of identities the structures must satisfy ------------

def square_residual(pair, pts) -> float:
    """J^2 = -1."""
    jv = pair.j.eval_jet(pts)
    eye = _broadcast_const(jv, np.eye(pair.g.chart.dim))
    return max_abs(jmatmul(jv, jv) + eye)


def compatibility_residual(pair, pts) -> float:
    """g(JX, JY) = g(X, Y)."""
    gv = pair.g.eval_jet(pts)
    jv = pair.j.eval_jet(pts)
    return max_abs(jmatmul(jmatmul(jtranspose(jv), gv), jv) - gv)


def trace_pairing(a, b):
    """Scalar field tr(A o B)."""
    return scalar_field(a.chart, lambda jc: jtrace(jmatmul(a.fn(jc), b.fn(jc))),
                        cost=max(a.cost, b.cost))


def lee_identity_residual(pair, pts) -> float:
    """d F = theta ^ F."""
    df = exterior_derivative(pair.f)
    tf = wedge(pair.theta, pair.f)
    return max_abs(df.eval(pts) - tf.eval(pts))


def cov_deriv_form2(conn, f2):
    """(nabla F)[i, j, k] = (nabla_{e_i} F)(e_j, e_k) for a 2-form."""
    d = conn.chart.dim
    return conn.cov_deriv_tensor(lambda jc: form_full_matrix(f2.fn(jc), d),
                                 (False, False), f2.cost)


def cov_deriv_metric_residual(conn, g, pts) -> float:
    """nabla g = 0."""
    return max_abs(conn.cov_deriv_tensor(g.fn, (False, False), g.cost).eval(pts))


def torsion_residual(conn, pts) -> float:
    """Gamma^k_{ij} = Gamma^k_{ji}."""
    jc = jet_coords(conn.chart.dim, conn.cost, np.atleast_2d(pts))
    gam = conn.gamma_fn(jc)
    return max_abs(gam.c - np.swapaxes(gam.c, 2, 3))


def type_30_03_residual(gamma3, j, pts) -> float:
    """The no-(3,0)+(0,3) identity for a 3-form:
    gamma(A,B,C) = gamma(JA,JB,C) + gamma(JA,B,JC) + gamma(A,JB,JC)."""
    d = gamma3.chart.dim
    tv = form_full(gamma3.eval_jet(pts), d, 3).value
    jm = j.eval(pts)
    a1 = np.einsum("bax,bcy,bacz->bxyz", jm, jm, tv)
    a2 = np.einsum("bax,bcz,bayc->bxyz", jm, jm, tv)
    a3 = np.einsum("bdy,bcz,bxdc->bxyz", jm, jm, tv)
    return float(np.abs(tv - a1 - a2 - a3).max())


def test_hermitian_pair_validity(torus_model, torus_points):
    pair = HermitianPair(torus_model.triple.g, torus_model.triple.j1)
    assert square_residual(pair, torus_points) == 0.0
    assert compatibility_residual(pair, torus_points) == 0.0
    assert max_abs(pair.theta.eval(torus_points)) == 0.0  # flat: dF = 0


def test_nijenhuis_trivials(torus_model, torus_points):
    assert max_abs(nijenhuis_tensor(torus_model.triple.j1).eval(torus_points)) == 0.0
    z = cp2_charts()["z"]
    pts = SamplePlan(8, 3).sample(z.chart)
    j_std = constant_endo(z.chart, standard_complex_matrix(4))
    assert max_abs(nijenhuis_tensor(j_std).eval(pts)) == 0.0


def test_conformal_lee_form_is_du(torus_model, conformal_metric, torus_points):
    pair = HermitianPair(conformal_metric, torus_model.triple.j1)
    th = pair.theta.eval(torus_points)
    du = np.zeros_like(th)
    du[:, 0] = np.cos(torus_points[:, 0])
    assert np.abs(th - du).max() < 1e-12
    assert lee_identity_residual(pair, torus_points) < 1e-13


def test_lee_form_requires_dim4():
    from pbhverify.flagmodel import flag_charts, FlagParams
    fb = flag_charts(FlagParams(1, -2))
    with pytest.raises(ValueError):
        lee_form(HermitianPair(fb.omega1, fb.omega1))  # wrong kinds, dim 6


def test_levi_civita_flat_and_conformal(torus_model, conformal_metric,
                                        torus_points):
    lc0 = levi_civita(torus_model.triple.g)
    jc = jet_coords(4, 1, torus_points)
    assert np.abs(lc0.gamma_fn(jc).value).max() == 0.0
    lc = levi_civita(conformal_metric)
    assert cov_deriv_metric_residual(lc, conformal_metric, torus_points) < 1e-13
    assert torsion_residual(lc, torus_points) == 0.0


def test_nabla_vector_matches_sympy_christoffel(torus_model, conformal_metric,
                                                torus_points):
    """nabla_X Y of the Levi-Civita connection of e^{sin x1} g equals
    X^i d_i Y^k + Gamma^k_ij X^i Y^j with Gamma from sympy's derivatives of
    the same metric, for polynomial X and Y at two chart points."""
    import sympy
    from pbhverify.tensorcalc import vector_field
    from pbhverify.tensorcalc.calculus import _stack

    xs = sympy.symbols("x1:5")
    pts = torus_points[:2]
    g0 = torus_model.triple.g.eval(pts)
    assert np.array_equal(g0[0], g0[1])  # the flat metric is constant
    g = sympy.exp(sympy.sin(xs[0])) * sympy.Matrix(g0[0])
    ginv = g.inv()
    gamma = [[[sum(ginv[k, m] * (sympy.diff(g[j, m], xs[i]) + sympy.diff(g[i, m], xs[j])
                                 - sympy.diff(g[i, j], xs[m])) for m in range(4)) / 2
               for j in range(4)] for i in range(4)] for k in range(4)]
    x_sym = [xs[1], xs[0] * xs[2], 1, xs[3] ** 2]
    y_sym = [xs[0] * xs[3], xs[2], xs[1] ** 2, xs[0] + xs[1]]
    nabla = [sum(x_sym[i] * (sympy.diff(y_sym[k], xs[i])
                             + sum(gamma[k][i][j] * y_sym[j] for j in range(4)))
                 for i in range(4)) for k in range(4)]
    want = np.array([[float(c.subs(dict(zip(xs, pt)))) for c in nabla] for pt in pts])

    def x_fn(jc):
        return _stack([jc[:, 1], jc[:, 0] * jc[:, 2], jc[:, 0] * 0 + 1.0, jc[:, 3] * jc[:, 3]])

    def y_fn(jc):
        return _stack([jc[:, 0] * jc[:, 3], jc[:, 2], jc[:, 1] * jc[:, 1], jc[:, 0] + jc[:, 1]])

    chart = torus_model.chart
    got = levi_civita(conformal_metric).nabla_vector(vector_field(chart, x_fn),
                                                     vector_field(chart, y_fn)).eval(pts)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_metric_derivative_formula_conformal(torus_model, conformal_metric,
                                             torus_points):
    """(nabla_X F)(Y, Z) from the exterior derivative of F."""
    pair = HermitianPair(conformal_metric, torus_model.triple.j1)
    lc = levi_civita(conformal_metric)
    nf = cov_deriv_form2(lc, pair.f).eval(torus_points)
    dfv = form_full(exterior_derivative(pair.f).eval_jet(torus_points), 4, 3).value
    jv = pair.j.eval(torus_points)
    rhs = 0.5 * (np.einsum("bax,bcz,bayc->bxyz", jv, jv, dfv)
                 + np.einsum("bax,bcy,bacz->bxyz", jv, jv, dfv))
    assert np.abs(nf - rhs).max() < 1e-13


def test_fubini_study_metricity():
    z = cp2_charts()["z"]
    pts = SamplePlan(12, 4).sample(z.chart)
    from pbhverify.tensorcalc import metric_field
    from pbhverify.flagmodel import fs_metric_entries
    from pbhverify.tensorcalc.jets import Jet

    def g_fn(jc):
        z1 = jc[:, 0] + jc[:, 1] * 1j
        z2 = jc[:, 2] + jc[:, 3] * 1j
        h11, h12, h22 = fs_metric_entries(z1, z2)
        b = jc.c.shape[0]
        c = np.zeros((b, 4, 4, jc.space.n))
        # real metric of the Hermitian form: g = 2 Re(h_{ab} dz_a (x) dzbar_b)
        pairs = {(0, 0): h11, (0, 1): h12, (1, 0): h12.conj(), (1, 1): h22}
        for (a, bb), hab in pairs.items():
            re, im = hab.real, hab.imag
            c[:, 2 * a, 2 * bb] += re.c
            c[:, 2 * a + 1, 2 * bb + 1] += re.c
            c[:, 2 * a, 2 * bb + 1] += im.c
            c[:, 2 * a + 1, 2 * bb] += -im.c
        return Jet(jc.space, c, jc.order)

    g = metric_field(z.chart, g_fn)
    sym = g.eval(pts)
    assert np.abs(sym - np.swapaxes(sym, 1, 2)).max() < 1e-14
    lc = levi_civita(g)
    assert cov_deriv_metric_residual(lc, g, pts) < 1e-8
    assert torsion_residual(lc, pts) < 1e-12


def test_chern_connection(torus_model, conformal_metric, torus_points):
    pair0 = HermitianPair(torus_model.triple.g, torus_model.triple.j1)
    ch0 = pair0.chern
    lc0 = levi_civita(torus_model.triple.g)
    jc = jet_coords(4, 1, torus_points)
    # pseudo-Kahler: the Chern connection is the Levi-Civita connection
    assert np.abs(ch0.gamma_fn(jc).value - lc0.gamma_fn(jc).value).max() == 0.0

    pair = HermitianPair(conformal_metric, torus_model.triple.j1)
    ch = pair.chern
    assert max_abs(ch.cov_deriv_endo(pair.j).eval(torus_points)) < 1e-12
    assert cov_deriv_metric_residual(ch, conformal_metric, torus_points) < 1e-12


def test_d_pm_f_identities(torus_model, conformal_metric, torus_points):
    pair0 = HermitianPair(torus_model.triple.g, torus_model.triple.j1)
    assert max_abs(pair0.torsion.eval(torus_points)) == 0.0

    pair = HermitianPair(conformal_metric, torus_model.triple.j1)
    dpf = pair.torsion
    alt = pullback_linear(pair.j, wedge(pair.theta, pair.f)) * (-1.0)
    assert max_abs(dpf.eval(torus_points) - alt.eval(torus_points)) < 1e-12
    assert type_30_03_residual(dpf, pair.j, torus_points) < 1e-12


def test_torus_pair_opposite_torsion(torus_bundle, torus_points):
    dpf = torus_bundle.data.pair_plus.torsion
    dmf = torus_bundle.data.pair_minus.torsion
    assert max_abs(dpf.eval(torus_points) + dmf.eval(torus_points)) < 1e-12


def test_build_parahypercomplex(torus_model, conformal_metric, torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    data = build_parahypercomplex(t.j1, jm, conformal_metric, torus_points)
    assert np.abs(data.p.eval(torus_points) + 1.25).max() < 1e-14
    kv = data.k_endo.eval(torus_points)
    sv = data.s_endo.eval(torus_points)
    jv = t.j1.eval(torus_points)
    assert np.abs(kv @ kv - np.eye(4)).max() < 1e-12
    assert np.abs(sv @ sv - np.eye(4)).max() < 1e-12
    assert np.abs(jv @ kv - sv).max() < 1e-12
    gv = conformal_metric.eval(torus_points)
    assert np.abs(np.swapaxes(kv, 1, 2) @ gv @ kv + gv).max() < 1e-12

    with pytest.raises(BranchError):
        build_parahypercomplex(t.j1, -t.j1, conformal_metric, torus_points)


def test_lemma1_lee_form_equality(torus_model, conformal_metric, torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    data = BihermitianData(conformal_metric, t.j1, jm)
    assert max_abs(nijenhuis_tensor(data.k_endo).eval(torus_points)) < 1e-12
    assert max_abs(nijenhuis_tensor(data.s_endo).eval(torus_points)) < 1e-12
    thp = HermitianPair(conformal_metric, t.j1).theta.eval(torus_points)
    thk = HermitianPair(conformal_metric, data.k_endo).theta.eval(torus_points)
    ths = HermitianPair(conformal_metric, data.s_endo).theta.eval(torus_points)
    assert np.abs(thk - thp).max() < 1e-12
    assert np.abs(ths - thp).max() < 1e-12


def test_p_gradient_cases(torus_model, conformal_metric, torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    data = BihermitianData(conformal_metric, t.j1, jm)
    # constant p: residual vanishes
    assert check_p_gradient(data, torus_points) < 1e-12
    # theta+ = theta- (conformal): the expression collapses to the gradient
    # of the trace pairing alone
    gp = trace_pairing(data.jp, data.jm) * (-0.5)
    dgp = d_scalar(gp).eval(torus_points)
    assert check_p_gradient(data, torus_points) == pytest.approx(
        float(np.abs(2.0 * dgp).max()), abs=1e-15)


def test_lee_condition_number(torus_model, conformal_metric, torus_points):
    pair = HermitianPair(conformal_metric, torus_model.triple.j1)
    assert lee_condition(pair, torus_points) < 1e6
