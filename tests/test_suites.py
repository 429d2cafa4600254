"""Suite-level behavior beyond the acceptance runs."""

import warnings

import numpy as np
import pytest

from pbhverify.cli import main
from pbhverify.models import (Example2Params, IntegratorError, example2_build,
                              hamiltonian_deform)
from pbhverify.poisson import pi_bivector
from pbhverify.report import VerificationReport
from pbhverify.structures import BihermitianData
from pbhverify.suites import (CATALOG, ORDER_ROUNDOFF_FLOOR, SuiteConfig,
                              SuiteContext, run_suite)
from pbhverify.tensorcalc import Jet
from pbhverify.tensorcalc.jets import jet_space


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


def test_closed_form_integrability_is_computed_once_per_context(monkeypatch):
    """An ``all`` run on the torus brackets each structure of the closed pair
    once, and the courant and gpk-example2 records carry that one residual,
    each under its own reference."""
    from pbhverify import suites
    nijenhuis, init = suites.gcs_nijenhuis, SuiteContext.__init__
    structures, contexts = [], []

    def spy(i_field, *args, **kwargs):
        structures.append(i_field)
        return nijenhuis(i_field, *args, **kwargs)

    def tracked(ctx, config):
        init(ctx, config)
        contexts.append(ctx)

    monkeypatch.setattr(suites, "gcs_nijenhuis", spy)
    monkeypatch.setattr(SuiteContext, "__init__", tracked)
    rep = run_suite(SuiteConfig(suite="all", model="torus", samples=16))
    (ctx,) = contexts
    assert [sum(s is i for s in structures) for i in ctx.gcs_pair] == [1, 1]
    first, second = [c for c in rep.checks if c.name == "closed-form-integrability"]
    assert first.passed and first.residual == second.residual
    assert first.reference != second.reference


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_gpk_suite_runs_on_forms_of_cost_1(t):
    """The frame table evaluates the 2-forms' values in its frame's order-0
    jet space, so forms whose evaluation consumes a derivative order no
    longer raise "jets from different spaces": with the torus forms F^K, w'
    and w'' re-declared at cost 1 (same values), gpk-example2 gives the
    shipped residuals."""
    import dataclasses
    from pbhverify.suites import suite_gpk_example2
    cfg = SuiteConfig(suite="gpk-example2", model="torus", samples=16, t=t)
    shipped = [(c.name, c.residual) for c in run_suite(cfg).checks]
    ctx = SuiteContext(cfg)
    bundle = ctx.bundle
    for name in ("f_k", "omega_p", "omega_pp"):  # the forms the others are built from
        setattr(bundle, name, dataclasses.replace(getattr(bundle, name), cost=1))
    assert bundle.beta1.cost == bundle.omega_minus.cost == 1
    assert [(c.name, c.residual) for c in suite_gpk_example2(ctx)] == shipped


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

    # parts: abs-max over every entry of every part; NaN anywhere fails
    part = np.full((4, 3), 1e-13)
    rec = ctx.record("metric-compatibility", "", (part, -2e-12, np.zeros(0)), 4)
    assert rec.passed and rec.residual == 2e-12
    for bad in (float("nan"), np.array([0.0, np.nan])):
        assert not ctx.record("metric-compatibility", "", (part, bad), 4).passed
    spotted = part.copy()
    spotted[3, 2] = np.nan
    rec = ctx.record("metric-compatibility", "", (np.zeros(2), spotted), 4)
    assert np.isnan(rec.residual) and not rec.passed
    # a Jet part contributes its values, not its derivatives
    coeffs = np.zeros(part.shape + (5,))
    coeffs[..., 0], coeffs[..., 1] = part, 1.0
    jet = Jet(jet_space(4, 1), coeffs)
    assert ctx.record("metric-compatibility", "", [jet], 4).residual == 1e-13
    # an empty part reduces to 0
    rec = ctx.record("metric-compatibility", "", [np.zeros((0, 4))], 1)
    assert rec.residual == 0.0 and rec.passed

    # a mask restricts array parts to its points and counts the rest
    # inconclusive
    mask = np.array([True, True, False, True])
    spotted = np.zeros(4)
    spotted[2] = np.nan
    rec = ctx.record("metric-compatibility", "", (spotted,), 4, mask=mask)
    assert rec.passed and rec.residual == 0.0 and rec.inconclusive == 1
    # a mask with no True point fails, whatever the residual ...
    none = np.zeros(4, dtype=bool)
    rec = ctx.record("metric-compatibility", "", (np.zeros(4),), 4, mask=none)
    assert not rec.passed and rec.inconclusive == 4
    assert not ctx.record("theorem7-trichotomy", "", 0.0, 4, mask=none).passed
    # ... except for the check whose outcome is its inconclusive count
    rec = ctx.record("degenerate-inputs-inconclusive", "", 0.0, 4, mask=none)
    assert rec.passed and rec.inconclusive == 4

    # the benchmark's call form: a float and extras, recorded as given
    rec = ctx.record("chart-consistency", "ref", 3e-15, 64, extra={"k": 1.5})
    assert (rec.residual, rec.points, rec.passed, rec.inconclusive) == (3e-15, 64, True, 0)
    assert rec.extra == {"k": 1.5} and rec.reference == "ref"


def test_one_residual_reduction(monkeypatch):
    """``structures.reduce_parts`` is the only implementation of the rule:
    ``max_abs`` and ``worst`` delegate to it, and none of ``suites``,
    ``engel``, ``poisson``, ``flagmodel`` and ``gencomplex`` writes a
    whole-array abs-max reduction of its own."""
    import inspect
    import re
    from pbhverify import engel, flagmodel, gencomplex, poisson, structures, suites
    seen = []
    reduce_parts = structures.reduce_parts
    monkeypatch.setattr(structures, "reduce_parts",
                        lambda *a: seen.append(a) or reduce_parts(*a))
    assert structures.max_abs(np.array([-3.0, 1.0])) == 3.0
    assert np.isnan(structures.worst(1.0, np.nan, 0.0))
    assert len(seen) == 2
    for mod in (suites, engel, poisson, flagmodel, gencomplex):
        src = inspect.getsource(mod)
        assert ".max(initial=" not in src
        assert not re.search(r"np\.abs\([^\n]*\)\[mask\]\.max\(", src)
        assert not re.search(r"np\.abs\([^\n]*\)\.max\(\)", src), mod.__name__
    assert not re.search(r"\b(max_abs|worst)\(", inspect.getsource(suites))


# the engel checks judged only where the synthetic Lee forms are non-null
ZERO_LEE_FAILS = {"null-frame-identities", "gradient-identities",
                  "derivative-chain", "pairing-eigenstructure",
                  "frame-completeness", "theorem7-trichotomy"}


@pytest.mark.parametrize("model", ["torus", "kodaira"])
def test_engel_without_definitive_points_fails_closed(model, monkeypatch):
    """With zero synthetic Lee forms no point is definitive, so every check
    judged at definitive points fails instead of recording 0 over none;
    every other engel check keeps its verdict."""
    from pbhverify import suites
    from pbhverify.engel import lee_fields
    from pbhverify.tensorcalc import zero_form
    synthetic_data = suites.synthetic_data

    def zero_lee(chart):
        zero = zero_form(chart, 1)
        return lee_fields(synthetic_data(chart).data, zero, zero)

    monkeypatch.setattr(suites, "synthetic_data", zero_lee)
    rep = run_suite(SuiteConfig(suite="engel", model=model, samples=16))
    assert {c.name for c in rep.checks if not c.passed} == ZERO_LEE_FAILS
    for c in rep.checks:
        if c.name in ZERO_LEE_FAILS:
            assert c.inconclusive == (16 if c.name != "theorem7-trichotomy" else 12)


def test_kodaira_gpk_suite_passes():
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="kodaira",
                                samples=16, seed=5))
    assert rep.passed


def test_kodaira_flow_suite(tmp_path):
    """The deformed gpk-example2 checks on kodaira pass, the integrator
    calibration included: its flow is sin x1 sin x3, which F^K couples there,
    so both calibration residuals are nonzero."""
    path = tmp_path / "kodaira.json"
    assert main(["--suite", "gpk-example2", "--model", "kodaira", "--t", "0.1",
                 "--samples", "8", "--quiet", "--report", str(path)]) == 0
    checks = {c.name: c for c in VerificationReport.from_json(path.read_text()).checks}
    assert "deformed-forms-closed" in checks
    order = checks["integrator-order"]
    assert order.inconclusive == 0 and "calibration" not in order.extra
    assert order.extra["fine"] > 0.0 and order.residual >= 8.0
    assert all(c.passed for c in checks.values())


def test_zero_calibration_is_inconclusive(monkeypatch):
    """Two exactly zero calibration residuals measure no order: the check is
    inconclusive and fails closed.  sin x1 sin x4 flows exactly on kodaira."""
    from pbhverify import suites
    from pbhverify.models import F_CATALOG
    monkeypatch.setattr(suites, "_sin_products", lambda name, *pairs: F_CATALOG["sin14"])
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="kodaira",
                                samples=8, t=0.1))
    order = {c.name: c for c in rep.checks}["integrator-order"]
    assert not order.passed and order.inconclusive == 8
    assert order.extra["coarse"] == order.extra["fine"] == 0.0
    assert order.extra["calibration"] == "both residuals exactly zero"


@pytest.mark.parametrize("seed", [42, 3])
def test_calibration_skips_a_roundoff_pair(tmp_path, seed):
    """On kodaira at c = 0.75 the first pair F^K couples is (0, 1), and the
    flow sin x1 sin x2 leaves both step sizes' residuals at roundoff (1.1e-16
    and 1.1e-16, or 1.1e-16 and 0 at seed 3).  The calibration moves on to
    the next coupled pair, (0, 3), whose ratio is the fourth-order factor,
    and the suite passes."""
    path = tmp_path / "kodaira.json"
    assert main(["--suite", "gpk-example2", "--model", "kodaira", "--t", "0.1",
                 "--samples", "16", "--a", "1.25", "--b", "0", "--c", "0.75",
                 "--seed", str(seed), "--quiet", "--report", str(path)]) == 0
    checks = {c.name: c for c in VerificationReport.from_json(path.read_text()).checks}
    order = checks["integrator-order"]
    assert all(c.passed for c in checks.values())
    assert order.inconclusive == 0 and 15.5 < order.residual < 16.5
    assert order.extra["fine"] > ORDER_ROUNDOFF_FLOOR
    assert order.extra["calibration"] == "sin14; sin12: both residuals at roundoff"


@pytest.mark.parametrize("seed", [42, 3])
def test_roundoff_calibration_is_inconclusive(monkeypatch, seed):
    """When every coupled pair's calibration flow leaves both residuals at
    roundoff, no ratio measures an order: the check is inconclusive, records
    no ratio and fails closed, and it is the only check that fails.  Here
    every pair flows sin x1 sin x2, which F^K at c = 0.75 preserves to
    roundoff (max|F^K| = 1, so the floor is ORDER_ROUNDOFF_FLOOR)."""
    from pbhverify import models, suites
    monkeypatch.setattr(suites, "_sin_products",
                        lambda name, *pairs: models._sin_products(name, (0, 1)))
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="kodaira", samples=16,
                                seed=seed, a=1.25, b=0.0, c=0.75, t=0.1))
    checks = {c.name: c for c in rep.checks}
    order = checks["integrator-order"]
    assert [c.name for c in checks.values() if not c.passed] == ["integrator-order"]
    assert order.residual == 0.0 and order.inconclusive == 16
    assert 0.0 < order.extra["coarse"] <= ORDER_ROUNDOFF_FLOOR
    assert order.extra["fine"] <= ORDER_ROUNDOFF_FLOOR
    assert order.extra["calibration"].startswith(
        "sin12, sin14, sin23: both residuals at roundoff, at or below")


def test_gauss_hamiltonian_deformation(torus_model, plan):
    b = example2_build(torus_model,
                       Example2Params(t=0.05, f_name="gauss", step=1e-3), plan)
    d = hamiltonian_deform(b, plan)
    assert d.preserve_residual < 1e-7


def test_integrator_guard(torus_model, plan):
    # a grossly coarse step on a curved flow trips the preservation guard
    b = example2_build(torus_model,
                       Example2Params(a=1.25, b=0.75, t=0.4, f_name="sin14",
                                      step=0.4), plan)
    with pytest.raises(IntegratorError):
        hamiltonian_deform(b, plan)


def test_integrator_guard_fails_closed_on_nan(torus_model, plan, monkeypatch):
    """A NaN preservation residual trips the guard: ``nan > PRESERVE_TOL`` is
    False, so the guard reads ``not (guard <= PRESERVE_TOL)``."""
    from pbhverify.models import HamiltonianFlow
    velocity = HamiltonianFlow.velocity
    monkeypatch.setattr(HamiltonianFlow, "velocity",
                        lambda self, y: velocity(self, y) * np.nan)
    monkeypatch.setattr(HamiltonianFlow, "escape_check", lambda self, pts, box: None)
    b = example2_build(torus_model, Example2Params(t=0.1), plan)
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
        pi_bivector(BihermitianData(conformal_metric, t.j1, jm),
                    check_points=torus_points[:4])
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pi_bivector(BihermitianData(t.g, t.j1, jm), check_points=torus_points[:4])
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
