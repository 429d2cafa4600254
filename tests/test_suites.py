"""Suite-level behavior beyond the acceptance runs."""

import warnings

import numpy as np
import pytest

from pbhverify.models import (Example2Params, IntegratorError, example2_build,
                              hamiltonian_deform)
from pbhverify.poisson import pi_bivector
from pbhverify.suites import CATALOG, SuiteConfig, SuiteContext, run_suite


def test_nan_in_frame_endomorphism_fails_closed(torus_model):
    """A NaN in one entry of J2 at one point makes the algebra residual NaN,
    fails certification, and fails the recorded split-quaternion check
    (``max(x, nan)`` is x, so the NaN used to vanish)."""
    from pbhverify import suites
    from pbhverify.models import ModelDescriptor, ModelError
    from pbhverify.structures import ParaHyperTriple
    from pbhverify.tensorcalc import SamplePlan, endo_field
    t = torus_model.triple

    def fn(jc):
        out = t.j2.fn(jc).copy()
        out.c[5, 0, 2, 0] = np.nan
        return out

    bad = ParaHyperTriple(t.g, t.j1, endo_field(t.g.chart, fn), t.j3)
    ctx = SuiteContext(SuiteConfig(suite="parahyperkahler", samples=16))
    pts = ctx.points(torus_model.chart)
    assert np.isnan(bad.algebra_residual(pts))
    model = ModelDescriptor("torus", torus_model.chart, bad, torus_model.lattice)
    with pytest.raises(ModelError):
        model.certify(SamplePlan(16, 42))
    ctx.model = model
    check = {c.name: c for c in suites.suite_parahyperkahler(ctx)}
    assert not check["split-quaternion-relations"].passed


def test_catalog_matches_emitted_checks():
    """Every catalogued check is emitted and every emitted one catalogued,
    each declared once and recorded at its default tolerance; the
    ``"mode": "exceeds"`` extra sits exactly on the catalog's exceeds rows."""
    reports = [run_suite(SuiteConfig(suite="all", model="torus", t=0.1, samples=16)),
               run_suite(SuiteConfig(suite="all", model="kodaira", t=0.0, samples=16)),
               run_suite(SuiteConfig(suite="theorem4", model="flag", samples=16))]
    records = [c for rep in reports for c in rep.checks]
    table = {name: spec for _, checks in CATALOG.values()
             for name, spec in checks.items()}
    assert len(table) == sum(len(checks) for _, checks in CATALOG.values())
    assert {c.name for c in records} == set(table)
    for c in records:
        default, mode = table[c.name]
        assert c.tolerance == default, c.name
        assert (c.extra.get("mode") == "exceeds") == (mode == "exceeds"), c.name


def test_record_fails_non_finite_residuals():
    ctx = SuiteContext(SuiteConfig())
    assert not ctx.record("integrator-order", "", float("inf"), 1).passed
    assert not ctx.record("metric-compatibility", "", float("nan"), 1).passed
    assert ctx.record("integrator-order", "", 16.0, 1).passed
    assert ctx.record("metric-compatibility", "", 0.0, 1).passed


def test_kodaira_gpk_suite_passes():
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="kodaira",
                                samples=16, seed=5))
    assert rep.passed


def test_gauss_hamiltonian_deformation(torus_model, plan):
    b = example2_build(torus_model,
                       Example2Params(t=0.05, f_name="gauss", step=1e-3), plan)
    d = hamiltonian_deform(b, plan)
    pts = plan.sample(torus_model.chart)
    assert np.abs(d.fk_pullback.eval(pts) - b.f_k.eval(pts)).max() < 1e-7


def test_integrator_guard(torus_model, plan):
    # a grossly coarse step on a curved flow trips the preservation guard
    b = example2_build(torus_model,
                       Example2Params(a=1.25, b=0.75, t=0.4, f_name="sin14",
                                      step=0.4), plan)
    with pytest.raises(IntegratorError):
        hamiltonian_deform(b, plan)


def test_pi_bivector_precondition_warning(torus_model, conformal_metric,
                                          torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    # conformal data has equal (not opposite) Lee forms, violating the
    # opposite-torsion precondition
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pi_bivector(conformal_metric, t.j1, jm, check_points=torus_points[:4])
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pi_bivector(t.g, t.j1, jm, check_points=torus_points[:4])
    assert not caught


def test_signature_report_present(torus_bundle, torus_points):
    from pbhverify.gencomplex import check_gpk_pair, gcs_from_form
    res = check_gpk_pair(gcs_from_form(torus_bundle.beta1),
                         gcs_from_form(torus_bundle.beta2), torus_points)
    assert res.ok and len(res.signatures) >= 1


def test_kodaira_engel_suite_passes():
    rep = run_suite(SuiteConfig(suite="engel", model="kodaira", samples=16,
                                seed=5))
    assert rep.passed
    checks = {c.name: c for c in rep.checks}
    assert checks["constant-p-integrable"].residual == 0.0
