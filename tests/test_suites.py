"""Suite-level behavior beyond the acceptance runs."""

import warnings

import numpy as np
import pytest

from pbhverify.models import (Example2Params, IntegratorError, example2_build,
                              hamiltonian_deform)
from pbhverify.poisson import pi_bivector
from pbhverify.suites import SuiteConfig, SuiteContext, run_suite


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
