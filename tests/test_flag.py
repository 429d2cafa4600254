"""Flag-threefold charts: closed-form derivatives, the curvature-ratio fit
and the two deformation hypotheses."""

import numpy as np
import pytest

from pbhverify.flagmodel import (FlagParams, cp2_charts, cp2_transition,
                                 flag_charts, tau_norm_sq)
from pbhverify.poisson import (ddc_commuting_fields, holo_bracket,
                               theorem4_hypotheses)
from pbhverify.structures import max_abs
from pbhverify.tensorcalc import Field, SamplePlan, exterior_derivative
from pbhverify.tensorcalc.jets import jet_coords


@pytest.fixture(scope="module")
def flag_bundle():
    return flag_charts(FlagParams(1, -2))


@pytest.fixture(scope="module")
def flag_points(flag_bundle):
    return SamplePlan(32, 99).sample(flag_bundle.chart)


def test_flag_params_invariants():
    with pytest.raises(ValueError):
        FlagParams(1, 2)     # same sign
    with pytest.raises(ValueError):
        FlagParams(2, -2)    # sum zero
    with pytest.raises(ValueError):
        FlagParams(1.5, -2)  # not integers


def test_closed_forms_vs_jets_three_charts():
    for name, ch in cp2_charts().items():
        pts = SamplePlan(64, 7).sample(ch.chart)
        jc = jet_coords(4, 1, pts)
        assert np.abs(ch.xf_closed(jc).value - ch.xf_jet(jc).value).max() < 1e-9
        assert np.abs(ch.yf_closed(jc).value - ch.yf_jet(jc).value).max() < 1e-9


def test_chart_consistency():
    charts = cp2_charts()
    z = charts["z"]
    pts_z = SamplePlan(32, 8).sample(z.chart)
    jc_z = jet_coords(4, 1, pts_z)
    for nm in ("u", "v"):
        pts_o = cp2_transition("z", nm, pts_z)
        jc_o = jet_coords(4, 1, pts_o)
        assert np.abs(z.xf_closed(jc_z).value
                      - charts[nm].xf_closed(jc_o).value).max() < 1e-9
        assert np.abs(z.yf_closed(jc_z).value
                      - charts[nm].yf_closed(jc_o).value).max() < 1e-9


def test_torus_action_fields_commute(flag_bundle, flag_points):
    z = cp2_charts()["z"]
    pts = SamplePlan(16, 3).sample(z.chart)
    jc = jet_coords(4, 1, pts)
    assert np.abs(holo_bracket(z.x_hol(jc), z.y_hol(jc)).value).max() == 0.0
    assert flag_bundle.bracket_residual(flag_points) == 0.0


def test_section_vanishing_towards_excluded_locus():
    from pbhverify.tensorcalc.charts import ChartDomain, ExcludedLocus
    mins = []
    for margin in (0.3, 0.05):
        loci = (ExcludedLocus(lambda p: np.hypot(p[:, 0], p[:, 1]), margin),
                ExcludedLocus(lambda p: np.hypot(p[:, 2], p[:, 3]), margin))
        dom = ChartDomain(4, tuple((-1.5, 1.5) for _ in range(4)), loci)
        pts = SamplePlan(128, 5).sample(dom)
        jc = jet_coords(4, 0, pts)
        z1 = jc[:, 0] + jc[:, 1] * 1j
        z2 = jc[:, 2] + jc[:, 3] * 1j
        mins.append(float(tau_norm_sq(z1, z2).value.min()))
    assert mins[1] < mins[0]


def test_pullback_forms_closed(flag_bundle, flag_points):
    assert max_abs(exterior_derivative(flag_bundle.omega1).eval(flag_points[:8])) < 1e-12
    assert max_abs(exterior_derivative(flag_bundle.omega2).eval(flag_points[:8])) < 1e-12


def test_form_nondegenerate(flag_bundle, flag_points):
    eig = flag_bundle.f0_eigenvalues(flag_points)
    assert np.abs(eig).min() > 1e-3
    # relative to omega1 + omega2 the spectrum is {a, a, b, b, (a+b)/2, (a+b)/2}
    assert np.abs(eig - np.array([-2, -2, -0.5, -0.5, 1, 1])).max() < 1e-10


def _theorem4(seed):
    from pbhverify.suites import SuiteConfig, run_suite
    rep = run_suite(SuiteConfig(suite="theorem4", model="flag", seed=seed))
    return rep, {c.name: c for c in rep.checks}


def test_form_checks_pass_where_chart_singular_values_were_small():
    """Seed 17 put the smallest chart-coordinate singular value of F0 below
    1e-3; the spectrum relative to omega1 + omega2 does not depend on the
    chart."""
    rep, checks = _theorem4(17)
    assert rep.passed
    assert checks["form-nondegenerate"].residual == pytest.approx(0.5, abs=1e-12)


def test_form_nondegenerate_fails_on_vanishing_sum(monkeypatch):
    """a + b = 0 (which FlagParams rejects) puts a zero in the spectrum."""
    from pbhverify import suites

    def cancelling(a, b):
        params = object.__new__(FlagParams)
        params.a, params.b = 1, -1
        return params

    monkeypatch.setattr(suites, "FlagParams", cancelling)
    rep, checks = _theorem4(42)
    assert not rep.passed
    assert not checks["form-nondegenerate"].passed
    assert checks["form-spectrum"].passed


def test_lambda_fit(flag_bundle, flag_points):
    lam, spread = flag_bundle.lambda_fit(flag_points)
    assert spread < 1e-10
    # with the integral normalization of the reference form, the fitted
    # ratio is -2 pi (negative for the shipped norm convention)
    assert abs(lam + 2.0 * np.pi) < 1e-10


def test_hypotheses(flag_bundle, flag_points):
    res = theorem4_hypotheses(flag_bundle, flag_points, flag_points[:16])
    assert res["lambda_spread"] <= 1e-4
    assert res["hypothesis_i"] <= 1e-6
    assert res["hypothesis_ii"] <= 1e-8


def test_sigma_antiholomorphic_derivative(flag_bundle, flag_points):
    assert flag_bundle.sigma_dbar_residual(flag_points) == 0.0


def test_ddc_lemma_on_flag(flag_bundle, flag_points):
    z1f = Field(flag_bundle.chart, "tensor", flag_bundle.z1_hol)
    z2f = Field(flag_bundle.chart, "tensor", flag_bundle.z2_hol)
    res = ddc_commuting_fields(z1f, z2f, flag_bundle.f_p1, flag_points[:16])
    assert res["residual"] < 1e-8
    res2 = ddc_commuting_fields(z1f, z2f, flag_bundle.f_p2, flag_points[:16])
    assert res2["residual"] < 1e-8
