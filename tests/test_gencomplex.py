"""Split-space sections, Courant brackets, the spinor-line structures and
the block construction/extraction."""

import numpy as np
import pytest

from pbhverify.gencomplex import (apply_endo, b_conjugate_endo, b_transform,
                                  check_gpk_pair, coordinate_sections,
                                  courant_bracket, endo_conditions,
                                  gcs_from_form, gcs_nijenhuis,
                                  gualtieri_build, gualtieri_extract, pairing,
                                  pairing_matrix, random_poly_sections,
                                  random_poly_two_form, section,
                                  validate_twist)
from pbhverify.models import Example2Params, example2_build, hamiltonian_deform
from pbhverify.structures import DegeneracyError, max_abs
from pbhverify.suites import SuiteConfig, run_suite
from pbhverify.tensorcalc import (Field, constant_form, exterior_derivative,
                                  form_field, interior_product, oneform_field,
                                  vector_field, coordinate_vector)
from pbhverify.tensorcalc.calculus import _stack
from pbhverify.tensorcalc.jets import Jet


def test_pairing_trivials(torus_model, torus_points):
    secs = coordinate_sections(torus_model.chart)
    assert np.abs(pairing(secs[0], secs[4]).eval(torus_points) - 0.5).max() == 0.0
    a = secs[0] + secs[5]
    b = secs[1] + secs[4]
    assert np.abs(pairing(a, b).eval(torus_points) - 1.0).max() == 0.0
    p = pairing_matrix(4)
    vals = np.linalg.eigvalsh(p)
    assert (vals > 0).sum() == 4 and (vals < 0).sum() == 4


def test_courant_bracket_oracles(torus_model, torus_points):
    chart = torus_model.chart
    secs = coordinate_sections(chart)
    br0 = courant_bracket(secs[0], secs[1]).eval(torus_points)
    assert max_abs(br0[:, :4]) == 0.0
    assert max_abs(br0[:, 4:]) == 0.0

    def x1dx2(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, jc[:, 0], z, z])

    s2 = section(
        vector_field(chart, lambda jc: _stack([jc[:, 0] * 0.0] * 4)),
        oneform_field(chart, x1dx2))
    br = courant_bracket(secs[0], s2)
    expected = np.zeros(4)
    expected[1] = 1.0
    brv = br.eval(torus_points)
    assert max_abs(brv[:, :4]) == 0.0
    assert np.abs(brv[:, 4:] - expected).max() == 0.0
    # antisymmetry
    rev = courant_bracket(s2, secs[0])
    assert max_abs((br + rev).eval(torus_points)[:, 4:]) == 0.0


def test_twist_validation(torus_model, torus_points):
    b2 = random_poly_two_form(torus_model.chart, 5)
    db = exterior_derivative(b2)
    assert validate_twist(db, torus_points) < 1e-12
    with pytest.raises(ValueError):
        validate_twist(b2, torus_points)  # a generic 2-form-as-3-form is wrong
    # non-closed 3-form rejected
    from pbhverify.tensorcalc import form_field as ff

    def bad(jc):
        z = jc[:, 0] * 0.0
        comps = [z] * 4
        comps[0] = jc[:, 3] * jc[:, 0]
        return _stack(comps)

    with pytest.raises(ValueError):
        validate_twist(ff(torus_model.chart, 3, bad), torus_points)


def test_b_transform_naturality(torus_model, torus_points):
    chart = torus_model.chart
    secs = coordinate_sections(chart)
    worst = 0.0
    for s in range(8):
        b2 = random_poly_two_form(chart, 100 + s)
        db = exterior_derivative(b2)
        for (sa, sb) in [(secs[0], secs[1]), (secs[0], secs[5]),
                         (secs[0] + secs[5], secs[1] + secs[4])]:
            lhs = courant_bracket(b_transform(sa, b2), b_transform(sb, b2))
            rhs = b_transform(courant_bracket(sa, sb, db), b2)
            diff = (lhs - rhs).eval(torus_points)
            worst = max(worst, max_abs(diff[:, :4]), max_abs(diff[:, 4:]))
    assert worst < 1e-9


def test_symplectic_structure_blocks(torus_model, torus_points):
    chart = torus_model.chart
    om = constant_form(chart, 2, [1.0, 0, 0, 0, 0, 1.0])

    def beta_fn(jc):
        v = om.fn(jc)
        return Jet(v.space, v.c.astype(np.complex128) * 1j, v.order)

    i_om = gcs_from_form(form_field(chart, 2, beta_fn))
    sq, pres = endo_conditions(i_om, torus_points)
    assert sq == 0.0 and pres == 0.0
    iv = i_om.eval(torus_points)[0]
    om_full = np.zeros((4, 4))
    om_full[0, 1] = om_full[2, 3] = 1.0
    om_full -= om_full.T
    omap = om_full.T  # X -> i_X om
    assert np.abs(iv[:4, 4:] + np.linalg.inv(omap)).max() < 1e-14
    assert np.abs(iv[4:, :4] - omap).max() < 1e-14
    assert np.abs(iv[:4, :4]).max() == 0.0
    assert gcs_nijenhuis(i_om, None, torus_points[:4]) < 1e-13


def test_degenerate_imaginary_part_rejected(torus_model, torus_points):
    chart = torus_model.chart
    om = constant_form(chart, 2, [1.0, 0, 0, 0, 0, 0.0])  # rank 2 only

    def beta_fn(jc):
        v = om.fn(jc)
        return Jet(v.space, v.c.astype(np.complex128) * 1j, v.order)

    bad = gcs_from_form(form_field(chart, 2, beta_fn))
    with pytest.raises(DegeneracyError):
        bad.eval(torus_points)


def test_example2_pair_and_eigenspace_roundtrip(torus_bundle, torus_points):
    i1 = gcs_from_form(torus_bundle.beta1)
    i2 = gcs_from_form(torus_bundle.beta2)
    assert max(endo_conditions(i1, torus_points)) < 1e-12
    assert max(endo_conditions(i2, torus_points)) < 1e-12
    assert gcs_nijenhuis(i1, None, torus_points[:4]) < 1e-12
    res = check_gpk_pair(i1, i2, torus_points)
    assert res.ok
    assert res.residuals["rank_L+"] == 4.0
    assert res.residuals["min_principal_angle"] > 1e-6
    assert res.residuals["min_pairing_singular_value"] > 1e-8

    chart = torus_bundle.chart
    worst = 0.0
    for i in range(4):
        x = coordinate_vector(chart, i)
        sec = section(x, -interior_product(x, torus_bundle.beta1))
        applied = apply_endo(i1, sec)
        rv = applied.eval(torus_points) - 1j * sec.eval(torus_points)
        worst = max(worst, float(np.abs(rv).max()))
    assert worst < 1e-12


def test_nonclosed_negative_control(torus_bundle, torus_points):
    from pbhverify.models import complex_form
    chart = torus_bundle.chart

    def bad_imag(jc):
        base = torus_bundle.omega_plus.fn(jc)
        pert = base.c.copy()
        pert[:, 0] = (base[:, 0] + jc[:, 2] * 0.5).c
        return Jet(base.space, pert, base.order)

    bad_beta = complex_form(torus_bundle.f_k,
                            form_field(chart, 2, bad_imag))
    i_bad = gcs_from_form(bad_beta)
    assert gcs_nijenhuis(i_bad, None, torus_points[:4]) > 1e-3


def test_nan_in_structure_fails_closed(torus_bundle, torus_points, monkeypatch):
    """A NaN in one entry of I at one point makes the residual NaN, and the
    recorded integrability check fails."""
    from pbhverify import suites
    build = suites.gcs_from_form

    def poisoned(beta):
        i_field = build(beta)

        def fn(jc):
            out = i_field.fn(jc).copy()
            out.c[3, 1, 6, 0] = np.nan
            return out

        return Field(i_field.chart, "tensor", fn, cost=i_field.cost)

    assert np.isnan(gcs_nijenhuis(poisoned(torus_bundle.beta1), None,
                                  torus_points[:4]))
    monkeypatch.setattr(suites, "gcs_from_form", poisoned)
    rep = run_suite(SuiteConfig(suite="courant", model="torus", samples=8, seed=42))
    check = {c.name: c for c in rep.checks}["closed-form-integrability"]
    assert not check.passed


def test_nan_in_pair_fails_closed(torus_bundle, torus_points, monkeypatch):
    """A NaN in one entry of I1 at one of 16 points fails the pair at the
    commutation clause instead of reaching the SVD, and the recorded
    pair-compatibility check fails."""
    from pbhverify import suites
    build = suites.gcs_from_form
    calls = []

    def poisoned(beta):
        i_field = build(beta)
        calls.append(beta)
        if len(calls) > 1:  # only the first structure, built from beta1
            return i_field

        def fn(jc):
            out = i_field.fn(jc).copy()
            out.c[3, 1, 6, 0] = np.nan
            return out

        return Field(i_field.chart, "tensor", fn, cost=i_field.cost)

    assert len(torus_points) == 16
    res = check_gpk_pair(poisoned(torus_bundle.beta1), build(torus_bundle.beta2),
                         torus_points)
    assert not res.ok and res.failed_clause == "commute"
    calls.clear()
    monkeypatch.setattr(suites, "gcs_from_form", poisoned)
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="torus", samples=16,
                                seed=42))
    check = {c.name: c for c in rep.checks}["pair-compatibility"]
    assert not check.passed


def test_integrability_on_polynomial_sections(torus_bundle, torus_points):
    i1 = gcs_from_form(torus_bundle.beta1)
    secs = random_poly_sections(torus_bundle.chart, 8, 17)
    res = gcs_nijenhuis(i1, None, torus_points[:4], extra_sections=secs,
                        include_frame=False)
    assert res < 1e-12
    with pytest.raises(ValueError):
        gcs_nijenhuis(i1, None, torus_points[:4], extra_sections=secs[:1],
                      include_frame=False)


def test_classical_degenerate_case(torus_model, torus_points):
    g = torus_model.triple.g
    j = torus_model.triple.j1
    c1, c2 = gualtieri_build(g, j, j)
    v1 = c1.eval(torus_points)
    # complex-type: diagonal blocks only, untwisted-integrable
    assert np.abs(v1[:, :4, 4:]).max() < 1e-14
    assert np.abs(v1[:, 4:, :4]).max() < 1e-14
    assert gcs_nijenhuis(c1, None, torus_points[:3]) < 1e-13
    v2 = c2.eval(torus_points)
    assert np.abs(v2[:, :4, :4]).max() < 1e-14
    res = check_gpk_pair(c1, c2, torus_points)
    assert res.ok
    # eigenbundles are the +-graphs of the metric
    gmat = g.eval(torus_points)
    gg = v1 @ v2
    a = gg[:, :4, :4]
    bb = gg[:, :4, 4:]
    c_plus = np.linalg.solve(bb, np.eye(4)[None] - a)
    c_minus = np.linalg.solve(bb, -np.eye(4)[None] - a)
    assert np.abs(c_plus + gmat).max() < 1e-13
    assert np.abs(c_minus - gmat).max() < 1e-13


def test_block_construction_and_matched_cross_validation(torus_bundle,
                                                         torus_points):
    b = torus_bundle
    g1, g2 = gualtieri_build(b.g, b.data.jp, b.data.jm)
    assert max(endo_conditions(g1, torus_points)) < 1e-12
    assert gcs_nijenhuis(g1, None, torus_points[:3]) < 1e-12
    assert check_gpk_pair(g1, g2, torus_points).ok
    # round trip through extraction
    ge, jpe, jme, be = gualtieri_extract(g1, g2)
    assert np.abs(ge.eval(torus_points) - b.g.eval(torus_points)).max() < 1e-13
    assert max_abs(be.eval(torus_points)) < 1e-13
    assert np.abs(jpe.eval(torus_points) - b.data.jp.eval(torus_points)).max() < 1e-13
    assert np.abs(jme.eval(torus_points) - b.data.jm.eval(torus_points)).max() < 1e-13

    # the spinor-line pair equals the block pair on the matched quadruple
    a = 1.25
    root = float(np.sqrt(a * a - 1.0))
    i1 = gcs_from_form(b.beta1)
    i2 = gcs_from_form(b.beta2)
    m1, m2 = gualtieri_build(b.g * (-root), b.data.jm * (-1.0),
                             b.data.jp * (-1.0), b.f_k * a)
    assert np.abs(i1.eval(torus_points) - m1.eval(torus_points)).max() < 1e-12
    assert np.abs(i2.eval(torus_points) - m2.eval(torus_points)).max() < 1e-12
    g_beta = i1.eval(torus_points) @ i2.eval(torus_points)
    g_block = m1.eval(torus_points) @ m2.eval(torus_points)
    assert np.abs(g_beta - g_block).max() < 1e-12


def test_conjugation_twist_shift(torus_bundle, torus_points):
    i1 = gcs_from_form(torus_bundle.beta1)
    b2 = random_poly_two_form(torus_bundle.chart, 119)
    db = exterior_derivative(b2)
    conj = b_conjugate_endo(i1, b2, sign=1.0)
    assert gcs_nijenhuis(conj, -db, torus_points[:3]) < 1e-12
    conj2 = b_conjugate_endo(i1, b2, sign=-1.0)
    assert gcs_nijenhuis(conj2, db, torus_points[:3]) < 1e-12


def test_deformed_pair_and_extraction(torus_model, plan):
    pts = plan.sample(torus_model.chart)
    bundle = example2_build(torus_model,
                            Example2Params(t=0.1, f_name="sin2", step=1e-3), plan)
    deformed = hamiltonian_deform(bundle, plan)
    i1 = gcs_from_form(deformed.gamma1)
    i2 = gcs_from_form(deformed.gamma2)
    res = check_gpk_pair(i1, i2, pts, tol_commute=1e-6)
    assert res.ok
    assert gcs_nijenhuis(i1, None, pts[:4]) < 1e-6
    ge, jpe, jme, be = gualtieri_extract(i1, i2)
    p_t = np.trace(jpe.eval(pts) @ jme.eval(pts), axis1=1, axis2=2) / 4.0
    assert p_t.max() < -1.0  # strictly one-sided, nonconstant
    assert p_t.std() > 1e-3
    jv = jpe.eval(pts)
    assert np.abs(jv @ jv + np.eye(4)).max() < 1e-10
    # gradient identity for the trace pairing on the deformed quadruple
    from pbhverify.structures import BihermitianData, check_p_gradient
    data_t = BihermitianData(ge, jpe, jme, name="deformed")
    assert check_p_gradient(data_t, pts[:8]) < 1e-6
