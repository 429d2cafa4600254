"""Model certification, the anticommuting-pair bundle, and the flow."""

import ast
import dataclasses
import hashlib
import math

import numpy as np
import pytest

import jet_helpers
from pbhverify import gencomplex, models, structures, suites
from pbhverify.flagmodel import _flag_domain
from pbhverify.models import (Example2Params, F_CATALOG, FlowTimeError,
                              HamiltonianFlow, ModelDescriptor, ModelError,
                              example2_build, flow_pullback_form, get_model,
                              hamiltonian_deform, kodaira_phk, torus_phk,
                              unit_spacelike_vector)
from pbhverify.structures import BihermitianData, levi_civita, max_abs
from pbhverify.suites import SuiteConfig, run_suite
from pbhverify.tensorcalc import (Field, SamplePlan, evaluate_form,
                                  exterior_derivative, jets, jgrad, metric_field,
                                  wedge)
from pbhverify.tensorcalc.jets import Jet, JetSpace, jet_coords, jet_prefix, jet_space


def test_certifications(torus_model, kodaira_model):
    assert torus_model.certified and kodaira_model.certified


def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        get_model("nope", SamplePlan(8, 2))


def test_params_invariants():
    with pytest.raises(ValueError):
        Example2Params(a=1.25, b=0.8, c=0.0)   # a^2 - b^2 - c^2 != 1
    with pytest.raises(ValueError):
        Example2Params(a=1.0, b=0.0, c=0.0)    # a must exceed 1
    with pytest.raises(ValueError):
        Example2Params(f_name="nope")
    for name in ("a", "b", "c", "t", "step"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
                Example2Params(**{name: bad})
    with pytest.raises(ValueError, match="exceeds the limit"):
        Example2Params(t=0.1, step=1e-12)   # 1e11 RK4 steps
    assert Example2Params(t=-1.0, step=1e-6).step == 1e-6   # at the limit
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
    assert d.preserve_residual < 1e-7
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


# sha256 of the main integration's flowed coefficients (plus 0.0, so the
# sign of a zero is not pinned) at seed 42 with 16 samples, t = 0.1, with
# the sine-product gradients by the angle-sum formula
FLOWED_JET_DIGESTS = {
    ("torus", "sin2"): "9bbd5433d55cb2392dda427948d432081131ec9fc71ef7e6d7c98461172e5c41",
    ("torus", "sin14"): "9524f49892d00ec847f6825ef676cd4586fa6f4d4785f74764f586fddcf701bd",
    ("torus", "sin134"): "eb601bdc0d6739d0081c9c7af8c72a30dcf1168cb547c4f31c18b5439dec953d",
    ("kodaira", "sin13"): "4a8fec2a8f480017933cd5d43bbd01ecd232e7c617320ecbed56c99940da68f3",
    ("kodaira", "sin134"): "1e20f80f137e773c4e7379ba11d5f3f8fb1a643680cd420202b913d6c1cf5c80",
}


@pytest.mark.parametrize("model_name,f_name", sorted(FLOWED_JET_DIGESTS))
def test_flowed_jets_are_pinned(model_name, f_name):
    """Every coefficient of the flowed order-2 jets is pinned: a kernel that
    regroups a sum of the gradient's Taylor composition (its power steps
    are segment sums in ``np.add.reduceat``'s grouping) or of the
    contraction moves the digest, which no full-gradient oracle built on
    the same kernels can see."""
    plan = SamplePlan(16, 42)
    bundle = example2_build(get_model(model_name, plan),
                            Example2Params(t=0.1, f_name=f_name), plan)
    (_, flowed), = hamiltonian_deform(bundle, plan).flow._cache
    assert flowed.c.shape == (16, 4, 15) and flowed.c.dtype == np.float64
    digest = hashlib.sha256((flowed.c + 0.0).tobytes()).hexdigest()
    assert digest == FLOWED_JET_DIGESTS[model_name, f_name]


# Oracles from facts about Hamiltonian flows, not from the engine's kernels.
# The velocity solves i_V F^K = df, so df(V) = F^K(V, V) = 0 and f o Phi_t = f
# as jets, at every order; RK4's drift is O(|t| step^4).  On the curved
# flows (torus sin14, kodaira sin13; t = 0.1, step 1e-3, 64 samples) it
# reads 2.4e-15 to 6.8e-15 at seeds 42 and 7, and an RK4 with update
# weights (1, 3, 1, 1)/6 reads 9.0e-12 to 9.4e-12.  sin134, curved on both
# models, reads 1.1e-14 to 1.7e-14, and 3.0e-11 to 4.1e-11 with those weights.
CONSERVED_BOUND = 1e-13
CURVED = [("torus", "sin14", 42), ("torus", "sin14", 7),
          ("kodaira", "sin13", 42), ("kodaira", "sin13", 7),
          ("torus", "sin134", 42), ("torus", "sin134", 7),
          ("kodaira", "sin134", 42), ("kodaira", "sin134", 7)]


def _deformed_flow(model_name, f_name, seed):
    """The main integration's flow and its order-2 input jet, as a t = 0.1
    ``gpk-example2`` run at ``seed`` builds them."""
    ctx = suites.SuiteContext(SuiteConfig(model=model_name, f_expr=f_name,
                                          seed=seed, t=0.1))
    return ctx.deformed.flow, jet_coords(4, 2, ctx.points())


def _conservation_residual(flow, jc, flowed):
    """max |f o Phi_t - f| over every coefficient of the order-2 jets."""
    return float(np.abs(flow.fexpr.value(flowed).c - flow.fexpr.value(jc).c).max())


def _faulty_rk4(flow, jc):
    """The engine's RK4 schedule with the update weights (1, 3, 1, 1)/6."""
    n = max(1, int(round(abs(flow.t) / flow.step)))
    dt = flow.t / n
    y = jc
    for _ in range(n):
        k1 = flow.velocity(y)
        k2 = flow.velocity(y + k1 * (dt / 2.0))
        k3 = flow.velocity(y + k2 * (dt / 2.0))
        k4 = flow.velocity(y + k3 * dt)
        y = y + (k1 + k2 * 3.0 + k3 + k4) * (dt / 6.0)
    return y


@pytest.mark.parametrize("model_name,f_name,seed", CURVED)
def test_curved_flows_conserve_the_hamiltonian(model_name, f_name, seed):
    flow, jc = _deformed_flow(model_name, f_name, seed)
    assert _conservation_residual(flow, jc, flow.flow_jet(jc)) <= CONSERVED_BOUND


@pytest.mark.parametrize("model_name,f_name,seed", CURVED)
def test_a_wrong_rk4_weight_breaks_conservation(model_name, f_name, seed):
    flow, jc = _deformed_flow(model_name, f_name, seed)
    assert _conservation_residual(flow, jc, _faulty_rk4(flow, jc)) > CONSERVED_BOUND


@pytest.mark.parametrize("model_name,f_name,shear", [
    ("torus", "sin2", True), ("torus", "gauss", True), ("kodaira", "sin2", True),
    ("torus", "sin14", False), ("kodaira", "sin13", False),
    ("torus", "sin134", False), ("kodaira", "sin134", False)])
def test_a_shear_flows_to_the_straight_line(model_name, f_name, shear):
    """A shear's velocity is constant along its flow, so Phi_t = id + t V,
    up to one rounding per RK4 step of the flowed coordinates: within
    n eps max|Phi_t| for n steps (measured 4.4e-14, 4.3e-14 and 5.6e-15
    against 1.4e-13, 1.4e-13 and 2.2e-14).  A curved flow leaves the line
    (by 1.0e-2)."""
    flow, jc = _deformed_flow(model_name, f_name, 42)
    flowed = flow.flow_jet(jc)
    gap = np.abs(flowed.c - (jc + flow.velocity(jc) * flow.t).c).max()
    steps = max(1, int(round(abs(flow.t) / flow.step)))
    bound = steps * np.finfo(np.float64).eps * np.abs(flowed.c).max()
    assert (gap <= bound) == shear
    if not shear:
        assert gap > 1e-3


def test_flow_escape_guard(torus_model, plan):
    b = example2_build(torus_model, Example2Params(t=40.0, f_name="sin2"), plan)
    with pytest.raises(FlowTimeError):
        hamiltonian_deform(b, plan)


@pytest.mark.parametrize("key", sorted(models.CERTIFY_TOLERANCES))
def test_certify_reads_each_tolerance(key, monkeypatch):
    """A tolerance below the residual (0.0 on the shipped torus) fails
    certification."""
    torus_phk().certify(SamplePlan(8, 2))
    monkeypatch.setitem(models.CERTIFY_TOLERANCES, key, -1.0)
    with pytest.raises(ModelError):
        torus_phk().certify(SamplePlan(8, 2))


def test_escape_check_reads_the_escape_fraction(torus_model, plan, monkeypatch):
    b = example2_build(torus_model, Example2Params(t=0.1, f_name="sin2"), plan)
    monkeypatch.setattr(models, "ESCAPE_FRACTION", 1e-6)
    with pytest.raises(FlowTimeError):
        hamiltonian_deform(b, plan)


def test_escape_check_fails_closed_on_nan(torus_model, plan, monkeypatch):
    """A NaN speed fails the escape check: ``t * nan > bound`` is False, so
    the check reads ``not (t * speed <= bound)``."""
    velocity = models.HamiltonianFlow.velocity
    monkeypatch.setattr(models.HamiltonianFlow, "velocity",
                        lambda self, y: velocity(self, y) * np.nan)
    b = example2_build(torus_model, Example2Params(t=0.1), plan)
    with pytest.raises(FlowTimeError):
        hamiltonian_deform(b, plan)


def test_uncertified_model_rejected(plan):
    fresh = torus_phk()
    with pytest.raises(ModelError):
        example2_build(fresh, Example2Params(), plan)


def test_kodaira_candidate_search_is_exercised(monkeypatch):
    """The shipped candidate family contains inadmissible assignments; the
    certified one must still be found.  Candidate 0 fails only metric
    compatibility, candidate 1 closedness and the Nijenhuis condition, and
    candidate 2 passes with every residual exactly zero.  Certification
    stops at the first failing residual, so candidate 0's error names
    algebra and compatibility only and candidate 1's stops at closedness;
    the residuals past the stop are read from the triple and the deck
    check directly."""
    plan = SamplePlan(16, 986)
    m = kodaira_phk(plan)
    assert m.certify(SamplePlan(8, 2))["closedness"] < 1e-12
    pts = plan.sample(m.chart)

    def residuals(cand):
        triple = models._kodaira_triple(m.chart, *cand, m.triple.g.frame.m)
        model = ModelDescriptor("kodaira", m.chart, triple, m.lattice)
        return {"algebra": triple.algebra_residual(pts),
                "compatibility": triple.compatibility_residual(pts),
                "closedness": triple.closedness_residual(pts),
                "nijenhuis": triple.nijenhuis_residual(pts),
                "lattice": model.lattice_residual(pts)}

    def certified_alone(cand):
        monkeypatch.setattr(models, "_kodaira_candidates", lambda: [cand])
        try:
            return kodaira_phk(plan).certify(plan)
        except ModelError as exc:
            return ast.literal_eval(str(exc).split("failed certification: ")[1])

    cands = models._kodaira_candidates()
    bad0, bad1, good = (residuals(c) for c in cands)
    assert bad0 == {"algebra": 0.0, "compatibility": 2.0, "closedness": 0.0,
                    "nijenhuis": 0.0, "lattice": 0.0}
    assert bad1["closedness"] == 1.0 and bad1["nijenhuis"] == 4.0
    assert max(bad1[k] for k in ("algebra", "compatibility", "lattice")) < 1e-12
    assert good == dict.fromkeys(good, 0.0) and len(good) == 5
    msg0, msg1, passed = (certified_alone(c) for c in cands)
    assert list(msg0) == ["algebra", "compatibility"]
    assert list(msg1) == ["algebra", "compatibility", "closedness"]
    assert msg0 == {k: bad0[k] for k in msg0} and msg1 == {k: bad1[k] for k in msg1}
    assert passed == good


def test_failed_recertification_clears_certified(plan, monkeypatch):
    """A model whose latest certification failed is no longer certified, so
    the pair construction refuses it."""
    m = torus_phk()
    m.certify(SamplePlan(8, 2))
    example2_build(m, Example2Params(), plan)
    monkeypatch.setitem(models.CERTIFY_TOLERANCES, "lattice", -1.0)
    with pytest.raises(ModelError, match="failed certification"):
        m.certify(SamplePlan(8, 2))
    assert not m.certified
    with pytest.raises(ModelError, match="must be certified"):
        example2_build(m, Example2Params(), plan)


def test_flipped_shear_generator_fails_the_lattice_check(kodaira_model):
    """(x1, x2, x3, x4) -> (x1 + 1, x2, x3, x4 - x2) does not preserve the
    coframe (it pulls e4 = dx4 - x1 dx2 back to e4 - 2 dx2): with
    it in place of the shipped shear generator the deck residual is 2.0 and
    certification fails on the lattice, the last residual."""
    shear, shift = kodaira_model.lattice[3]
    assert shear[3, 1] == 1.0 and np.array_equal(shift, np.eye(4)[0])
    flipped = shear.copy()
    flipped[3, 1] = -1.0
    mutant = ModelDescriptor("kodaira", kodaira_model.chart, kodaira_model.triple,
                             kodaira_model.lattice[:3] + ((flipped, shift),))
    plan = SamplePlan(16, 986)
    assert mutant.lattice_residual(plan.sample(mutant.chart)) == 2.0
    with pytest.raises(ModelError, match="'nijenhuis': 0.0, 'lattice': 2.0}"):
        mutant.certify(plan)
    assert not mutant.certified


def test_kodaira_certification_work_count(monkeypatch):
    """Deterministic work guard on one ``SuiteContext(kodaira).model``: the
    candidate search is the run's certification, at the run's points
    (16 at seed + 7, drawn once for the three candidates), and nothing
    certifies the model again.  Each certification evaluates the triple
    once, J1-J3 at order 1 and g at order 0 (4 field evaluations), and the
    algebra, compatibility and Nijenhuis residuals read only that.
    Candidate 0 stops after compatibility (4), candidate 1 after
    closedness, which evaluates the three fundamental forms (4 + 3), and
    the full certification of candidate 2 takes 11: those 7 and 4 for the
    deck check, which reuses the values at the points and evaluates J1-J3
    and g once at all deck images (38 when each residual evaluated the
    triple again)."""
    calls, certs = [], []
    eval_jet, certify = Field.eval_jet, ModelDescriptor.certify

    def counted(field, *args, **kwargs):
        calls.append(field)
        return eval_jet(field, *args, **kwargs)

    def counted_certify(model, plan, *pts):
        certs.append(plan)
        return certify(model, plan, *pts)

    monkeypatch.setattr(Field, "eval_jet", counted)
    monkeypatch.setattr(ModelDescriptor, "certify", counted_certify)
    model = suites.SuiteContext(SuiteConfig(model="kodaira", seed=42)).model
    assert model.certified
    assert [(p.count, p.seed) for p in certs] == [(16, 49)] * 3
    assert len(calls) == 4 + 7 + 11


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
    # built valid to order 1, an order-2 jet is stored as its order-1 prefix:
    # a row and coefficient prefix of the stored input, served by slicing
    cut = Jet(full.space, full.c, 1)
    out = flow.flow_jet(cut)
    assert len(flow._cache) == 1
    assert out.space is cut.space and np.array_equal(out.c, _fresh(flow, cut).c)
    for jc in (jet_coords(4, 1, torus_points + 1e-3),   # shifted points
               jet_coords(4, 1, torus_points[1:]),      # not a row prefix
               full):                                    # a higher order
        before = len(flow._cache)
        out = flow.flow_jet(jc)
        assert len(flow._cache) == before + 1
        assert out.order == jc.order
        assert np.array_equal(out.c, _fresh(flow, jc).c)


def test_flow_requires_a_frame_constant(torus_bundle):
    """The velocity applies the inverse of F^K as a bivector frame constant,
    so an F^K without frame components is refused when the flow is built."""
    plain = dataclasses.replace(torus_bundle.f_k, frame=None)
    with pytest.raises(ValueError, match="frame constant"):
        HamiltonianFlow(plain, F_CATALOG["sin2"], 0.1, 1e-2)


def test_gpk_flow_work_count(monkeypatch):
    """Deterministic work guard, on both models and on kodaira at b = 0,
    c = 0.75, where F^K depends on x1: one RK4 integration of the main flow
    (100 steps, 4 velocity calls each, plus the escape check) and two
    calibration flows (5 and 10 steps) per coupled pair the order check
    tries: one pair, or at c = 0.75 two, (1, 2) leaving its residuals at
    roundoff.  F^K is a frame constant on each, so no velocity call solves
    a jet system or evaluates F^K, and each takes one Taylor composition
    (``Jet._compose``), the gradient's sines and cosines.  Each of
    the four ``gcs_nijenhuis`` calls takes two gradients, of the stacked
    sections and of their images under I."""
    calls, flows, inside, inner = [], [], [], []
    velocity, init, solve = HamiltonianFlow.velocity, HamiltonianFlow.__init__, jets.jet_solve
    compose, grad, nijenhuis = Jet._compose, gencomplex.jgrad, suites.gcs_nijenhuis
    compose_calls, nij_calls, grads = [], [], []

    def counted(flow, y):
        calls.append(flow)
        inside.append(flow)
        try:
            return velocity(flow, y)
        finally:
            inside.pop()

    def tracked(flow, *args, **kwargs):
        init(flow, *args, **kwargs)
        flows.append(flow)
        fk_fn = flow.f_k.fn

        def fk_spy(jc):
            if inside:
                inner.append("F^K")
            return fk_fn(jc)

        flow.f_k = dataclasses.replace(flow.f_k, fn=fk_spy)

    def solve_spy(a, b):
        if inside:
            inner.append("jet_solve")
        return solve(a, b)

    def compose_spy(x, derivs):
        if inside:
            compose_calls.append(x)
        return compose(x, derivs)

    def nijenhuis_spy(*args, **kwargs):
        nij_calls.append(len(grads))
        return nijenhuis(*args, **kwargs)

    def grad_spy(a):
        grads.append(a)
        return grad(a)

    monkeypatch.setattr(HamiltonianFlow, "velocity", counted)
    monkeypatch.setattr(HamiltonianFlow, "__init__", tracked)
    monkeypatch.setattr(jets, "jet_solve", solve_spy)
    monkeypatch.setattr(Jet, "_compose", compose_spy)
    monkeypatch.setattr(suites, "gcs_nijenhuis", nijenhuis_spy)
    monkeypatch.setattr(gencomplex, "jgrad", grad_spy)
    for model, pair, n in (("torus", {}, 461), ("kodaira", {}, 461),
                           ("kodaira", dict(b=0.0, c=0.75), 521)):
        calls.clear()
        flows.clear()
        compose_calls.clear()
        nij_calls.clear()
        grads.clear()
        rep = run_suite(SuiteConfig(suite="gpk-example2", model=model, samples=16,
                                    t=0.1, f_expr="sin2", step=1e-3, **pair))
        assert rep.passed
        assert len(calls) == len(compose_calls) == n
        assert inner == []
        # gradients taken before each call: two per call, none outside them
        assert nij_calls == [0, 2, 4, 6] and len(grads) == 8
        main = flows[0]
        assert main.fexpr.name == "sin2" and len(main._cache) == 1


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_torus_velocity_takes_only_constant_products(model_name, torus_model,
                                                     kodaira_model, monkeypatch):
    """F^K is a frame constant on both models, so one velocity evaluation
    makes no ``jeinsum`` contraction (no ``JetSpace.pairs`` lookup).  On
    kodaira with c != 0, where F^K is affine in x1, the x1 term takes one
    ``Jet.__mul__`` by the jet of x1; F^K constant takes none."""
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(8, 3)
    lookups, products = [], []
    pairs, mul = JetSpace.pairs, Jet.__mul__

    def pairs_spy(sp, da, db):
        lookups.append((da, db))
        return pairs(sp, da, db)

    def mul_spy(a, b):
        products.append(a)
        return mul(a, b)

    cases = [(Example2Params(t=0.1), 0)]
    if model_name == "kodaira":
        cases.append((Example2Params(b=0.0, c=0.75, t=0.1), 1))
    for params, n in cases:
        bundle = example2_build(model, params, plan)
        flow = HamiltonianFlow(bundle.f_k, F_CATALOG["sin2"], 0.1, 1e-3)
        y = jet_coords(4, 2, plan.sample(model.chart))
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(JetSpace, "pairs", pairs_spy)
            m.setattr(Jet, "__mul__", mul_spy)
            flow.velocity(y)
        x1_terms = [x for x in products if np.array_equal(x.c, y.c[:, :1])]
        assert lookups == [] and len(x1_terms) == n


def test_sine_product_velocity_makes_no_jet_product(torus_model, monkeypatch):
    """Work pin of one RK4 stage: an order-2 velocity of each sine-product
    Hamiltonian on the torus makes one Taylor composition, the gradient's
    ``sin`` over the coordinate sums and differences, and no Jet x Jet
    product, inside it or outside (powers of du go through
    ``JetSpace.power_pairs``)."""
    plan = SamplePlan(8, 3)
    bundle = example2_build(torus_model, Example2Params(t=0.1), plan)
    y = jet_coords(4, 2, plan.sample(torus_model.chart))
    flows = [HamiltonianFlow(bundle.f_k, F_CATALOG[name], 0.1, 1e-3)
             for name in ("sin2", "sin14", "sin13", "sin134")]
    mul, compose = Jet.__mul__, Jet._compose
    composed, products = [], []

    def mul_spy(a, b):
        if isinstance(b, Jet):
            products.append(b)
        return mul(a, b)

    def compose_spy(x, *lists):
        composed.append(x)
        return compose(x, *lists)

    monkeypatch.setattr(Jet, "__mul__", mul_spy)
    monkeypatch.setattr(Jet, "_compose", compose_spy)
    for flow in flows:
        composed.clear()
        flow.velocity(y)
        assert len(composed) == 1 and products == []
        # the sum and the difference of each coordinate pair, in one series
        assert composed[0].shape == (8, 2 * len(jet_helpers.SIN_PAIRS[flow.fexpr.name]))


def test_curved_flow_timing_prints(capsys, monkeypatch):
    """``python tests/jet_helpers.py ... --f-expr sin134 --time N`` runs the
    configuration N times in one process, with that Hamiltonian, and prints
    the min and median wall seconds."""
    configs, run = [], suites.run_suite

    def run_spy(config):
        configs.append(config)
        return run(config)

    monkeypatch.setattr(suites, "run_suite", run_spy)
    jet_helpers.main(["--suite", "gpk-example2", "--model", "kodaira", "--t", "0.1",
                      "--f-expr", "sin134", "--time", "1"])
    words = capsys.readouterr().out.split()
    assert words[:3] == ["runs", "1", "min"] and words[4:6] == ["s", "median"]
    assert float(words[3]) == float(words[6]) > 0.0
    assert [(c.suite, c.model, c.t, c.f_expr) for c in configs] == [
        ("gpk-example2", "kodaira", 0.1, "sin134")]


def test_certification_timing_prints(capsys, monkeypatch):
    """``python tests/jet_helpers.py --model M --certify --time N`` builds and
    certifies the model N times through ``models.get_model``, at the plan a
    default run certifies at (16 samples at seed 42 + 7), runs no suite, and
    prints the min and median wall seconds; ``--certify`` needs ``--time``."""
    calls, get_model = [], models.get_model

    def get_spy(name, plan):
        calls.append((name, plan.count, plan.seed))
        return get_model(name, plan)

    monkeypatch.setattr(models, "get_model", get_spy)
    monkeypatch.setattr(suites, "run_suite", lambda config: pytest.fail("ran a suite"))
    jet_helpers.main(["--model", "kodaira", "--certify", "--time", "2"])
    words = capsys.readouterr().out.split()
    assert words[:3] == ["runs", "2", "min"] and words[4:6] == ["s", "median"]
    assert 0.0 < float(words[3]) <= float(words[6])
    assert calls == [("kodaira", 16, 49)] * 2
    with pytest.raises(SystemExit):
        jet_helpers.main(["--model", "torus", "--certify"])


@pytest.fixture
def solve_lookups(monkeypatch):
    """The order of the matrix being solved against, with the degrees of
    every ``JetSpace.pairs`` lookup made inside ``jet_solve`` (called from
    ``jets.jet_inv`` or ``structures``)."""
    inside, lookups = [], []
    solve, pairs = jets.jet_solve, JetSpace.pairs

    def solve_spy(a, b):
        inside.append(a.order)
        try:
            return solve(a, b)
        finally:
            inside.pop()

    def pairs_spy(sp, da, db):
        if inside:
            lookups.append((inside[-1], da, db))
        return pairs(sp, da, db)

    for module in (jets, structures):
        monkeypatch.setattr(module, "jet_solve", solve_spy)
    monkeypatch.setattr(JetSpace, "pairs", pairs_spy)
    return lookups


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_velocity_inverts_without_the_degree_recursion(model_name, torus_model,
                                                       kodaira_model, solve_lookups):
    """F^K has constant chart components on both models (on kodaira the x1
    terms of the frame cancel), so the flow inverts it once and one velocity
    evaluation makes no product-table lookup inside ``jet_solve``."""
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(8, 3)
    bundle = example2_build(model, Example2Params(t=0.1), plan)
    flow = HamiltonianFlow(bundle.f_k, F_CATALOG["sin2"], 0.1, 1e-3)
    flow.velocity(jet_coords(4, 2, plan.sample(model.chart)))
    assert solve_lookups == []


def test_kodaira_metric_inverse_runs_the_degree_recursion(kodaira_model, solve_lookups):
    """The kodaira metric depends on x1, so the Christoffel symbols invert
    it through the degree recursion, at the order of its derivative (one
    below the coordinate jet's): one table per degree 1..2 for an order-3
    coordinate jet."""
    plan = SamplePlan(8, 3)
    g = kodaira_model.triple.g
    levi_civita(g).gamma_fn(jet_coords(4, 3, plan.sample(kodaira_model.chart)))
    assert solve_lookups == [(2, 2, d - 1) for d in (1, 2)]


def _counted(field, calls, framed=True):
    def fn(jc):
        calls.append(jc)
        return field.fn(jc)

    if framed:
        return dataclasses.replace(field, fn=fn)
    return dataclasses.replace(field, fn=fn, frame=None)


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_k_and_s_evaluate_each_structure_once(model_name, torus_model, kodaira_model,
                                              plan):
    """K and S take p and sqrt(p^2 - 1) from the J+ and J- they evaluate.
    On the jet path (no frame constants) ``.fn(jc)`` evaluates each once.
    When both are frame constants (copied by ``dataclasses.replace``),
    building K or S evaluates each once, at one point (the zero point, order
    0), and ``.fn(jc)`` evaluates neither."""
    model = torus_model if model_name == "torus" else kodaira_model
    data = example2_build(model, Example2Params(), plan).data
    jc = jet_coords(4, 2, plan.sample(model.chart))
    for name in ("k_endo", "s_endo"):
        for framed in (True, False):
            jp_calls, jm_calls = [], []
            spied = BihermitianData(
                data.g, _counted(data.jp, jp_calls, framed),
                _counted(data.jm, jm_calls, framed))
            field = getattr(spied, name)
            assert (field.frame is not None) == framed
            assert len(jp_calls) == len(jm_calls) == (1 if framed else 0)
            for x in jp_calls + jm_calls:
                assert x.order == 0 and x.c.shape == (1, 4, 1) and not x.c.any()
            jp_calls.clear()
            jm_calls.clear()
            field.fn(jc)
            assert len(jp_calls) == len(jm_calls) == (0 if framed else 1)


def test_conformal_metric_keeps_the_base_metric_cost(torus_model, conformal_metric,
                                                     torus_points):
    """A base metric whose evaluation consumes a derivative order (here the
    torus metric G as the Jacobian of x -> G x, one ``jgrad``) passes that
    cost to its conformal rescaling, which is then seeded deep enough: at
    orders 0-2 it equals the rescaling of the constant G."""
    g0 = torus_model.triple.g.frame.m

    def fn(jc):
        return jgrad(Jet(jc.space, np.einsum("ij,bjr->bir", g0, jc.c), jc.order))

    g = metric_field(torus_model.chart, fn, cost=1)
    model = dataclasses.replace(torus_model,
                                triple=dataclasses.replace(torus_model.triple, g=g))
    rescaled = models.conformal_metric(model)
    assert rescaled.cost == 1
    for order in range(3):
        new, old = (f.eval_jet(torus_points, order) for f in (rescaled, conformal_metric))
        assert new.order == old.order == order
        assert np.array_equal(new.c[..., :old.space.n], old.c)


def _value_gradient(fexpr, pts, k):
    """The jet gradient of ``value`` through degree k, taken one order
    deeper, at every coordinate."""
    return jet_prefix(jgrad(fexpr.value(jet_coords(4, k + 1, pts))), jet_space(4, k))


def _grad_error(grad, fexpr, pts, k):
    """max |grad - jgrad(value)| over the coefficients through degree k at
    the coordinates of ``support``, and max |grad| there."""
    want = _value_gradient(fexpr, pts, k)[:, list(fexpr.support)]
    got = grad(jet_coords(4, k, pts))
    assert got.order == want.order == k and got.shape == want.shape
    return (float(np.abs(got.c - want.c).max(initial=0.0)),
            float(np.abs(want.c).max(initial=0.0)))


GRAD_EPS = 4.0  # the bound, in units of eps * max|grad|


@pytest.mark.parametrize("name", sorted(F_CATALOG))
@pytest.mark.parametrize("k", range(4))
def test_hamiltonian_gradients_match_the_jet_gradient_of_the_value(name, k, torus_points):
    """Each hand-written ``grad`` of the catalog is the jet gradient of its
    ``value`` on its ``support`` through order k, to a few eps of max|grad|
    (measured: exact for const, whose support is empty, at most 1.2e-16 for
    the sine pairs and 7.8e-16 for gauss)."""
    fexpr = F_CATALOG[name]
    err, scale = _grad_error(fexpr.grad, fexpr, torus_points, k)
    assert err <= GRAD_EPS * np.finfo(float).eps * scale


def _off_support(fexpr, pts, k):
    """max |jgrad(value)| through degree k at the coordinates off ``support``."""
    off = [i for i in range(4) if i not in fexpr.support]
    return float(np.abs(_value_gradient(fexpr, pts, k).c[:, off]).max())


@pytest.mark.parametrize("name", sorted(F_CATALOG))
def test_hamiltonian_gradients_vanish_off_their_support(name, torus_points):
    """The jet gradient of each catalog ``value`` is exactly zero off the
    declared ``support`` through order 3, so the flow may contract F^K's
    inverse over the support alone; a support missing any of its
    coordinates fails."""
    fexpr = F_CATALOG[name]
    for k in range(4):
        assert _off_support(fexpr, torus_points, k) == 0.0
    for i in fexpr.support:
        narrowed = dataclasses.replace(fexpr, support=tuple(j for j in fexpr.support if j != i))
        assert _off_support(narrowed, torus_points, 1) > 0.0


@pytest.mark.parametrize("name", sorted(set(F_CATALOG) - {"const"}))
def test_a_sign_flipped_gradient_component_fails_the_bound(name, torus_points):
    """The bound above sees a wrong sign in any component of the gradient
    on its support (const has none)."""
    fexpr = F_CATALOG[name]
    value = fexpr.grad(jet_coords(4, 0, torus_points)).value
    live = np.flatnonzero(np.abs(value).max(axis=0) > 0)
    assert len(live) == len(fexpr.support)
    for i in live:
        def flipped(jc, i=i):
            out = fexpr.grad(jc).copy()
            out.c[:, i] *= -1.0
            return out

        err, scale = _grad_error(flipped, fexpr, torus_points, 1)
        assert err > GRAD_EPS * np.finfo(float).eps * scale


# which catalog Hamiltonians flow as shears, x -> x + t V, on each model
SHEARS = {"torus": {"sin2": "shear", "gauss": "shear", "sin13": "shear",
                    "sin14": "curved", "sin134": "curved", "const": "no flow"},
          "kodaira": {"sin2": "shear", "gauss": "shear", "sin14": "shear",
                      "sin13": "curved", "sin134": "curved", "const": "no flow"}}


@pytest.mark.parametrize("model_name", sorted(SHEARS))
def test_which_catalog_hamiltonians_flow_as_shears(model_name, plan):
    """A shear's velocity does not change when the coordinates it moves are
    shifted: RK4 integrates it exactly.  A curved flow's velocity does."""
    model = get_model(model_name, plan)
    bundle = example2_build(model, Example2Params(), plan)
    pts = plan.sample(model.chart)
    kinds = {}
    for name, fexpr in F_CATALOG.items():
        flow = HamiltonianFlow(bundle.f_k, fexpr, 0.1, 1e-3)
        v = flow.velocity(jet_coords(4, 0, pts)).value
        moved = np.flatnonzero((v != 0.0).any(axis=0))
        shifted = pts.copy()
        shifted[:, moved] += 0.5
        same = np.array_equal(flow.velocity(jet_coords(4, 0, shifted)).value, v)
        kinds[name] = "no flow" if not len(moved) else "shear" if same else "curved"
    assert kinds == SHEARS[model_name]
