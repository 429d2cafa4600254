"""The bivector pipeline, Schouten brackets and the complex-Hessian lemma."""

import numpy as np
import pytest

from model_helpers import example2_params
from pbhverify.gencomplex import gcs_from_form, gualtieri_extract
from pbhverify.models import example2_build, hamiltonian_deform
from pbhverify.poisson import (check_holomorphic, chern_identity_residuals,
                               cyclic_nabla_q_form, ddc_commuting_fields,
                               lower_trivector, pi_bivector,
                               schouten_bb, schouten_vb,
                               type_02_projector_matrix)
from pbhverify.structures import BihermitianData, max_abs
from pbhverify.tensorcalc import (Field, bivector_field, form_combos,
                                  form_full_matrix, scalar_field,
                                  vector_field)
from pbhverify.tensorcalc.calculus import _stack


def test_pi_type_and_commuting_control(torus_bundle, torus_points):
    b = torus_bundle
    pi = pi_bivector(b.data)
    assert pi.type_20_residual(torus_points) < 1e-13
    assert pi.omega_11_residual(torus_points) < 1e-13
    assert np.abs(pi.bivector.eval(torus_points)).max() > 0.1
    pi0 = pi_bivector(BihermitianData(b.g, b.data.jp, b.data.jp))
    assert np.abs(pi0.bivector.eval(torus_points)).max() == 0.0


def test_chern_holomorphicity(torus_bundle, torus_points):
    b = torus_bundle
    pi = pi_bivector(b.data)
    assert check_holomorphic(pi, torus_points) < 1e-13


def test_jacobi_both_routes_and_agreement(torus_bundle, torus_points):
    b = torus_bundle
    pi = pi_bivector(b.data)
    br = schouten_bb(pi.bivector, pi.bivector)
    assert max_abs(np.abs(br.eval(torus_points))) < 1e-12
    re_pi = bivector_field(b.chart, lambda jc: pi.bivector.fn(jc).real,
                           cost=pi.bivector.cost)
    br_re = schouten_bb(re_pi, re_pi)
    cyc = cyclic_nabla_q_form(b.data, torus_points)
    assert np.abs(cyc).max() < 1e-12
    low = lower_trivector(br_re.eval(torus_points), b.g.eval(torus_points), 4)
    assert np.abs(low - 2.0 * cyc).max() < 1e-12
    conj_pi = bivector_field(b.chart, lambda jc: pi.bivector.fn(jc).conj(),
                             cost=pi.bivector.cost)
    assert max_abs(np.abs(schouten_bb(conj_pi, pi.bivector).eval(torus_points))) < 1e-12


def test_schouten_properties(torus_model, torus_points):
    chart = torus_model.chart

    def p_fn(jc):
        m = np.zeros((jc.c.shape[0], 4, 4, jc.space.n))
        from pbhverify.tensorcalc.jets import Jet
        out = Jet(jc.space, m, jc.order)
        out.c[:, 0, 1] = (jc[:, 2] * jc[:, 3]).c
        out.c[:, 1, 0] = -out.c[:, 0, 1]
        out.c[:, 2, 3] = (jc[:, 0].sin()).c
        out.c[:, 3, 2] = -out.c[:, 2, 3]
        return out

    def q_fn(jc):
        from pbhverify.tensorcalc.jets import Jet
        m = np.zeros((jc.c.shape[0], 4, 4, jc.space.n))
        out = Jet(jc.space, m, jc.order)
        out.c[:, 0, 2] = (jc[:, 1] * jc[:, 1]).c
        out.c[:, 2, 0] = -out.c[:, 0, 2]
        out.c[:, 1, 3] = (jc[:, 0] + jc[:, 3]).c
        out.c[:, 3, 1] = -out.c[:, 1, 3]
        return out

    p = bivector_field(chart, p_fn)
    q = bivector_field(chart, q_fn)
    # graded symmetry for bivectors
    pq = schouten_bb(p, q).eval(torus_points)
    qp = schouten_bb(q, p).eval(torus_points)
    assert np.abs(pq - qp).max() < 1e-13

    # Leibniz against scalar multiplication:
    # [P, f Q] = f [P, Q] + W ^ Q with W^i = P^{il} (df)_l
    f = scalar_field(chart, lambda jc: jc[:, 0].sin() + jc[:, 1] * jc[:, 2])
    fq = bivector_field(chart, lambda jc: _scale_biv(q_fn(jc), f.fn(jc)))
    lhs = schouten_bb(p, fq).eval(torus_points)
    rhs = f.eval(torus_points)[:, None] * schouten_bb(p, q).eval(torus_points)
    from pbhverify.tensorcalc import d_scalar
    df = d_scalar(f).eval(torus_points)
    w = np.einsum("bil,bl->bi", p.eval(torus_points), df)
    rhs = rhs + wedge_vec_bivec(w, q.eval(torus_points), form_combos(4, 3))
    assert np.abs(lhs - rhs).max() < 1e-12


def wedge_vec_bivec(w_vals, q_vals, triples):
    """(W ^ Q)^{ijk} = W^i Q^{jk} + W^j Q^{ki} + W^k Q^{ij} on value arrays."""
    out = []
    for (i, j, k) in triples:
        out.append(w_vals[:, i] * q_vals[:, j, k] + w_vals[:, j] * q_vals[:, k, i]
                   + w_vals[:, k] * q_vals[:, i, j])
    return np.stack(out, axis=1)


def _scale_biv(m, s):
    from pbhverify.tensorcalc.jets import Jet
    return Jet(m.space, m.c * 0, m.order) + m * Jet(s.space, s.c[:, None, None, :], s.order)


def test_endomorphism_correspondence_and_projector(torus_bundle, torus_points):
    b = torus_bundle
    pi = pi_bivector(b.data)
    gv = b.g.eval(torus_points)
    qv = b.data.q.eval(torus_points)
    lowered_re = np.einsum("bpq,bpi,bqj->bij", pi.bivector.eval(torus_points).real,
                           gv, gv)
    omega = np.swapaxes(qv, 1, 2) @ gv
    assert np.abs(lowered_re - omega).max() < 1e-13
    lv = form_full_matrix(pi.lowered.eval_jet(torus_points), 4).value
    jv = b.data.jp.eval(torus_points)
    p1 = type_02_projector_matrix(lv.astype(np.complex128), jv)
    p2 = type_02_projector_matrix(p1, jv)
    assert np.abs(p2 - p1).max() < 1e-13


def test_ddc_lemma_hand_oracle(torus_model, torus_points):
    chart = torus_model.chart

    def u_fn(jc):
        one = jc[:, 0] * 0.0 + (1.0 + 0j)
        zero = jc[:, 0] * 0.0 * (1 + 0j)
        return _stack([one, zero])

    def v_fn(jc):
        one = jc[:, 0] * 0.0 + (1.0 + 0j)
        zero = jc[:, 0] * 0.0 * (1 + 0j)
        return _stack([zero, one])

    u = Field(chart, "tensor", u_fn)
    v = Field(chart, "tensor", v_fn)
    phi = scalar_field(chart, lambda jc: jc[:, 0] * jc[:, 0] + jc[:, 1] * jc[:, 1])
    res = ddc_commuting_fields(u, v, phi, torus_points)
    assert res["residual"] < 1e-13
    const = scalar_field(chart, lambda jc: jc[:, 0] * 0.0 + 3.0)
    assert ddc_commuting_fields(u, v, const, torus_points)["residual"] == 0.0


def test_ddc_lemma_rejects_noncommuting(torus_model, torus_points):
    chart = torus_model.chart

    def u_fn(jc):
        z1 = jc[:, 0] + jc[:, 1] * 1j
        zero = jc[:, 0] * 0.0 * (1 + 0j)
        return _stack([z1, zero])

    def v_fn(jc):
        z1 = jc[:, 0] + jc[:, 1] * 1j
        zero = jc[:, 0] * 0.0 * (1 + 0j)
        return _stack([zero, z1 * z1])

    phi = scalar_field(chart, lambda jc: jc[:, 0] * jc[:, 0])
    with pytest.raises(ValueError):
        ddc_commuting_fields(Field(chart, "tensor", u_fn),
                             Field(chart, "tensor", v_fn), phi, torus_points)


def test_vector_bivector_bracket_is_lie_derivative(torus_model, torus_points):
    chart = torus_model.chart
    v = vector_field(chart, lambda jc: _stack([jc[:, 1], jc[:, 0] * 0 + 1.0,
                                               jc[:, 3] * jc[:, 0], jc[:, 2]]))

    def p_fn(jc):
        from pbhverify.tensorcalc.jets import Jet
        m = np.zeros((jc.c.shape[0], 4, 4, jc.space.n))
        out = Jet(jc.space, m, jc.order)
        out.c[:, 0, 1] = (jc[:, 2]).c
        out.c[:, 1, 0] = -out.c[:, 0, 1]
        return out

    p = bivector_field(chart, p_fn)
    br = schouten_vb(v, p).eval(torus_points)
    assert np.abs(br + np.swapaxes(br, 1, 2)).max() < 1e-14


def test_chern_identities_deformed(torus_model, plan):
    pts = plan.sample(torus_model.chart)[:8]
    bundle = example2_build(torus_model,
                            example2_params(t=0.1, f_expr="sin2", step=1e-3), plan)
    deformed = hamiltonian_deform(bundle, plan)
    i1 = gcs_from_form(deformed.gamma1)
    i2 = gcs_from_form(deformed.gamma2)
    data, _ = gualtieri_extract(i1, i2)
    res = chern_identity_residuals(data, pts)
    assert res["dJF_scale"] > 1e-3  # genuinely twisted data
    for key in ("chern1", "chern2", "derP", "nablaQ"):
        assert res[key] < 1e-10


def test_full_poisson_pipeline_on_deformed_data(torus_model, plan):
    pts = plan.sample(torus_model.chart)[:8]
    bundle = example2_build(torus_model,
                            example2_params(t=0.1, f_expr="sin2", step=1e-3), plan)
    deformed = hamiltonian_deform(bundle, plan)
    data, _ = gualtieri_extract(gcs_from_form(deformed.gamma1),
                                gcs_from_form(deformed.gamma2))
    pi = pi_bivector(data)
    assert pi.type_20_residual(pts) < 1e-12
    assert check_holomorphic(pi, pts) < 1e-12
    br = schouten_bb(pi.bivector, pi.bivector)
    assert max_abs(np.abs(br.eval(pts))) < 1e-12


@pytest.mark.parametrize("model,f_expr", [("torus", "sin14"), ("kodaira", "sin13"),
                                          ("torus", "sin134"), ("kodaira", "sin134")])
def test_poisson_suite_on_curved_flows(model, f_expr):
    """The poisson suite at t = 0.1 on a Hamiltonian whose flow is curved
    (the default sin2 flows as a shear): every check passes, and
    ``deformed-poisson`` runs the pipeline on the data extracted from the
    deformed pair (measured: 3.6e-14 on torus, 5.7e-14 on kodaira)."""
    from pbhverify.suites import SuiteConfig, run_suite
    report = run_suite(SuiteConfig(suite="poisson", model=model, samples=16,
                                   t=0.1, f_expr=f_expr))
    checks = {c.name: c for c in report.checks}
    assert all(c.passed for c in report.checks)
    deformed = checks["deformed-poisson"]
    assert deformed.points == 10 and 0.0 < deformed.residual
