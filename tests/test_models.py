"""Model certification, the anticommuting-pair bundle, and the flow."""

import numpy as np
import pytest

from pbhverify.flagmodel import _flag_domain
from pbhverify.models import (Example2Params, F_CATALOG, HamiltonianFlow,
                              ModelError, example2_build, flow_pullback_form,
                              get_model, hamiltonian_deform, kodaira_phk,
                              torus_phk, unit_spacelike_vector)
from pbhverify.structures import max_abs
from pbhverify.suites import SuiteConfig, run_suite
from pbhverify.tensorcalc import (SamplePlan, evaluate_form,
                                  exterior_derivative, jets, wedge)
from pbhverify.tensorcalc.jets import Jet, jet_coords


def test_certifications(torus_model, kodaira_model):
    assert torus_model.certified and kodaira_model.certified


def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        get_model("nope")


def test_params_invariants():
    with pytest.raises(ValueError):
        Example2Params(a=1.25, b=0.8, c=0.0)   # a^2 - b^2 - c^2 != 1
    with pytest.raises(ValueError):
        Example2Params(a=1.0, b=0.0, c=0.0)    # a must exceed 1
    with pytest.raises(ValueError):
        Example2Params(f_name="nope")
    p = Example2Params(a=1.25, b=0.45, c=0.6)
    assert abs(p.a ** 2 - p.b ** 2 - p.c ** 2 - 1.0) < 1e-12


def _frame(bundle, pts):
    x = unit_spacelike_vector(bundle.g, pts)
    jp = bundle.data.jp.eval(pts)
    k = bundle.data.k_endo.eval(pts)
    sp = bundle.s_plus.eval(pts)
    space = jet_coords(4, 0, pts).space
    return [Jet.constant(space, v) for v in
            (x, np.einsum("bij,bj->bi", jp, x), np.einsum("bij,bj->bi", k, x),
             np.einsum("bij,bj->bi", sp, x))]


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_frame_table_paper_values(model_name, torus_model, kodaira_model, plan):
    model = torus_model if model_name == "torus" else kodaira_model
    a = 1.25
    bundle = example2_build(model, Example2Params(), plan)
    pts = plan.sample(model.chart)
    frame = _frame(bundle, pts)
    wp, wm, fk = bundle.omega_plus, bundle.omega_minus, bundle.f_k

    def val(form, vecs):
        return evaluate_form(form.eval_jet(pts), vecs, 4, len(vecs)).value

    root = np.sqrt(a * a - 1.0)
    assert np.abs(val(wedge(wp, wp), frame) - 4 * (a + 1)).max() < 1e-12
    assert np.abs(val(wedge(wm, wm), frame) + 4 * (a - 1)).max() < 1e-12
    assert np.abs(val(wedge(wp, wm), frame)).max() < 1e-12
    assert np.abs(val(wedge(fk, fk), frame) - 2.0).max() < 1e-12
    assert np.abs(val(wedge(fk, wp), frame)).max() < 1e-12
    assert np.abs(val(wp, frame[:2]) + root).max() < 1e-12
    assert np.abs(val(wm, frame[:2]) - root).max() < 1e-12
    assert np.abs(val(wp, [frame[0], frame[2]])).max() < 1e-12
    assert np.abs(val(wp, [frame[0], frame[3]]) + (a + 1)).max() < 1e-12
    assert np.abs(val(wm, [frame[0], frame[3]]) - (a - 1)).max() < 1e-12


def test_omega_pm_difference_formula(torus_bundle, torus_points):
    a = 1.25
    wp = torus_bundle.omega_plus
    wm = torus_bundle.omega_minus
    fp = torus_bundle.data.pair_plus.f
    fm = torus_bundle.data.pair_minus.f
    r1 = wp - (fp - fm) * float(np.sqrt((a + 1) / (a - 1)))
    r2 = wm - (fp + fm) * float(np.sqrt((a - 1) / (a + 1)))
    assert max_abs(r1.eval(torus_points)) < 1e-12
    assert max_abs(r2.eval(torus_points)) < 1e-12


def test_degeneracy_conditions(torus_bundle, torus_points):
    b = torus_bundle
    assert max_abs(wedge(b.f_k, b.omega_plus).eval(torus_points)) < 1e-12
    assert max_abs(wedge(b.f_k, b.omega_minus).eval(torus_points)) < 1e-12
    assert max_abs(wedge(b.omega_plus, b.omega_minus).eval(torus_points)) < 1e-12
    quad = (wedge(b.omega_plus, b.omega_plus) + wedge(b.omega_minus, b.omega_minus)
            - wedge(b.f_k, b.f_k) * 4.0)
    assert max_abs(quad.eval(torus_points)) < 1e-12
    # the closed complex forms
    assert max_abs(exterior_derivative(b.beta1).eval(torus_points)) < 1e-12
    assert max_abs(exterior_derivative(b.beta2).eval(torus_points)) < 1e-12


def test_invariance_under_rotating_b_c(torus_model, plan):
    """The frame table depends only on the first coefficient."""
    pts = plan.sample(torus_model.chart)
    b1 = example2_build(torus_model, Example2Params(a=1.25, b=0.75, c=0.0), plan)
    b2 = example2_build(torus_model, Example2Params(a=1.25, b=0.45, c=0.6), plan)
    f1 = _frame(b1, pts)
    f2 = _frame(b2, pts)

    def table(bundle, frame):
        out = []
        for form in (wedge(bundle.omega_plus, bundle.omega_plus),
                     wedge(bundle.omega_minus, bundle.omega_minus),
                     wedge(bundle.f_k, bundle.f_k)):
            out.append(evaluate_form(form.eval_jet(pts), frame, 4, 4).value)
        return np.stack(out)

    assert np.abs(table(b1, f1) - table(b2, f2)).max() < 1e-10


def test_lattice_invariance(torus_model, kodaira_model, plan):
    assert torus_model.lattice_residual(plan.sample(torus_model.chart)) == 0.0
    assert kodaira_model.lattice_residual(plan.sample(kodaira_model.chart)) < 1e-13


def test_flow_trivial_cases(torus_model, plan):
    pts = plan.sample(torus_model.chart)
    b0 = example2_build(torus_model, Example2Params(t=0.0), plan)
    d0 = hamiltonian_deform(b0, plan)
    assert max_abs(d0.gamma1.eval(pts) - b0.beta1.eval(pts)) == 0.0
    bc = example2_build(torus_model, Example2Params(t=0.1, f_name="const"), plan)
    dc = hamiltonian_deform(bc, plan)
    assert max_abs(dc.gamma1.eval(pts) - bc.beta1.eval(pts)) == 0.0


def test_flow_preserves_symplectic_form(torus_model, plan):
    pts = plan.sample(torus_model.chart)
    b = example2_build(torus_model, Example2Params(t=0.1, f_name="sin2"), plan)
    d = hamiltonian_deform(b, plan)
    assert max_abs(d.fk_pullback.eval(pts) - b.f_k.eval(pts)) < 1e-7
    assert max_abs(exterior_derivative(d.gamma1).eval(pts)) < 1e-6
    assert max_abs(exterior_derivative(d.gamma2).eval(pts)) < 1e-6


def test_rk4_fourth_order(torus_model, plan):
    pts = plan.sample(torus_model.chart)
    b = example2_build(torus_model, Example2Params(), plan)

    def residual(step):
        flow = HamiltonianFlow(b.f_k, F_CATALOG["sin14"], 0.1, step)
        pb = flow_pullback_form(flow, b.f_k)
        return max_abs(pb.eval(pts) - b.f_k.eval(pts))

    r1, r2 = residual(2e-2), residual(1e-2)
    assert r1 / r2 >= 8.0


def test_flow_determinism(torus_model, plan):
    pts = plan.sample(torus_model.chart)
    vals = []
    for _ in range(2):
        b = example2_build(torus_model, Example2Params(t=0.1, f_name="sin2"), plan)
        d = hamiltonian_deform(b, plan)
        vals.append(d.gamma1.eval(pts).tobytes())
    assert vals[0] == vals[1]


def test_flow_escape_guard(torus_model, plan):
    b = example2_build(torus_model, Example2Params(t=40.0, f_name="sin2"), plan)
    with pytest.raises(ValueError):
        hamiltonian_deform(b, plan)


def test_uncertified_model_rejected(plan):
    fresh = torus_phk()
    with pytest.raises(ModelError):
        example2_build(fresh, Example2Params(), plan)


def test_kodaira_candidate_search_is_exercised():
    """The shipped candidate family contains inadmissible assignments; the
    certified one must still be found."""
    m = kodaira_phk()
    assert m.certify(SamplePlan(8, 2))["closedness"] < 1e-12


# -- one integration per flow -------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_fewer_samples_are_a_prefix(seed, torus_model, kodaira_model):
    """The 8-point plan of a seed is the first 8 rows of its 64-point plan,
    also on a chart whose excluded loci reject draws."""
    for chart in (torus_model.chart, kodaira_model.chart, _flag_domain()):
        small = SamplePlan(8, seed).sample(chart)
        assert np.array_equal(small, SamplePlan(64, seed).sample(chart)[:8])


def _fresh(flow, jc):
    return HamiltonianFlow(flow.f_k, flow.fexpr, flow.t, flow.step).flow_jet(jc)


@pytest.mark.parametrize("model_name,count,step", [("torus", 64, 1e-3),
                                                   ("kodaira", 16, 1e-2)])
def test_one_integration_serves_prefix_queries(model_name, count, step,
                                               torus_model, kodaira_model):
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(count, 42)
    params = Example2Params(t=0.1, f_name="sin2", step=step)
    deformed = hamiltonian_deform(example2_build(model, params, plan), plan)
    flow = deformed.flow
    assert len(flow._cache) == 1
    pts, few = plan.sample(model.chart), SamplePlan(8, 42).sample(model.chart)
    for jc in (jet_coords(4, 1, pts), jet_coords(4, 2, few), jet_coords(4, 0, few)):
        served, fresh = flow.flow_jet(jc), _fresh(flow, jc)
        assert served.space is fresh.space and served.order == fresh.order
        assert np.array_equal(served.c, fresh.c)
    assert len(flow._cache) == 1


def test_other_queries_integrate_anew(torus_bundle, torus_points):
    flow = HamiltonianFlow(torus_bundle.f_k, F_CATALOG["sin2"], 0.1, 1e-2)
    flow.flow_jet(jet_coords(4, 1, torus_points))
    full = jet_coords(4, 2, torus_points[:8])
    for jc in (jet_coords(4, 1, torus_points + 1e-3),   # shifted points
               jet_coords(4, 1, torus_points[1:]),      # not a row prefix
               Jet(full.space, full.c, 1),               # valid to order 1 only
               full):                                    # a higher order
        before = len(flow._cache)
        out = flow.flow_jet(jc)
        assert len(flow._cache) == before + 1
        assert out.order == jc.order
        assert np.array_equal(out.c, _fresh(flow, jc).c)


def test_gpk_flow_work_count(monkeypatch):
    """Deterministic work guard: one RK4 integration of the main flow (100
    steps, 4 velocity calls each, plus the escape check) and the two
    calibration flows (5 and 10 steps)."""
    calls, flows = [], []
    velocity, init = HamiltonianFlow.velocity, HamiltonianFlow.__init__

    def counted(flow, y):
        calls.append(flow)
        return velocity(flow, y)

    def tracked(flow, *args, **kwargs):
        init(flow, *args, **kwargs)
        flows.append(flow)

    monkeypatch.setattr(HamiltonianFlow, "velocity", counted)
    monkeypatch.setattr(HamiltonianFlow, "__init__", tracked)
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="torus", samples=16,
                                t=0.1, f_expr="sin2", step=1e-3))
    assert rep.passed
    assert len(calls) == 461
    main = flows[0]
    assert main.fexpr.name == "sin2" and len(main._cache) == 1


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_torus_velocity_takes_only_constant_products(model_name, torus_model,
                                                     kodaira_model, monkeypatch):
    """Every structure on the torus is constant, so one velocity evaluation
    makes no full jet contraction; on kodaira it does."""
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(8, 3)
    bundle = example2_build(model, Example2Params(t=0.1), plan)
    flow = HamiltonianFlow(bundle.f_k, F_CATALOG["sin2"], 0.1, 1e-3)
    full = []
    leibniz = jets._leibniz_einsum
    monkeypatch.setattr(jets, "_leibniz_einsum",
                        lambda *args: full.append(args) or leibniz(*args))
    flow.velocity(jet_coords(4, 2, plan.sample(model.chart)))
    assert (len(full) == 0) == (model_name == "torus")
