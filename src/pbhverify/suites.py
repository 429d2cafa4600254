"""Verification suite catalog and runner.

Each suite is an ordered list of named checks; a check evaluates one family
of identities at sampled points and records the worst residual against its
tolerance.  ``CATALOG`` declares every suite and check once.  Tolerance
overrides must be finite, may only loosen the shipped defaults and never
drop below 1e-14.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property

import numpy as np

from .engel import (basis_identity_residuals, canonical_engel_span,
                    integrable_control_span, lee_fields, n_endos,
                    nabla_n_rhs_residuals, other_control_span, rank_tower,
                    synthetic_data, theorem7_check)
from .flagmodel import (FlagParams, cp2_charts, cp2_transition, flag_charts,
                        tau_norm_sq)
from .gencomplex import (apply_endo, b_conjugate_endo, b_transform,
                         check_gpk_pair, coordinate_sections,
                         courant_bracket, endo_conditions, gcs_from_form,
                         gcs_nijenhuis, gualtieri_build, gualtieri_extract,
                         pairing, random_poly_sections, random_poly_two_form,
                         validate_twist)
from .models import (Example2Params, F_CATALOG, HamiltonianFlow,
                     complex_form, conformal_metric, example2_build,
                     flow_pullback_form, get_model, hamiltonian_deform,
                     j_minus, standard_split_quaternion_frame,
                     unit_spacelike_vector)
from .poisson import (chern_identity_residuals, check_holomorphic,
                      cyclic_nabla_q_form, ddc_commuting_fields, holo_bracket,
                      lower_trivector, pi_bivector, q_endo, schouten_bb,
                      theorem4_hypotheses, type_02_projector_matrix)
from .report import CheckRecord, VerificationReport
from .structures import (BihermitianData, HermitianPair, check_p_gradient,
                         d_pm_F, lee_form, levi_civita, max_abs, worst)
from .tensorcalc import (Field, Jet, SamplePlan, bivector_field, d_scalar,
                         evaluate_form, exterior_derivative, form_field,
                         form_full_matrix, jmatmul, jtranspose,
                         nijenhuis_tensor, wedge)
from .tensorcalc.charts import ChartDomain, ExcludedLocus
from .tensorcalc.fields import _broadcast_const
from .tensorcalc.jets import jet_coords, jet_space

__all__ = ["SuiteConfig", "ConfigError", "run_suite", "list_suites", "CATALOG",
           "check_spec"]


class ConfigError(ValueError):
    """Invalid runner configuration."""


AT_MOST, EXCEEDS = "<=", "exceeds"

# suite -> (reference, {check -> (default tolerance, mode)}), in catalog
# order.  Residuals are absolute unless stated.  A check in mode "<=" passes
# when its residual is at or below the tolerance; one in mode "exceeds"
# passes when the measured value exceeds the threshold (negative controls,
# ratios, floors) and its report carries "mode": "exceeds".  Each check is
# declared once: gpk-example2 also records courant's
# closed-form-integrability.
CATALOG = {
    "parahyperkahler": (
        "split-quaternion frame algebra and closed fundamental forms", {
            "split-quaternion-relations": (1e-12, AT_MOST),
            "metric-compatibility": (1e-10, AT_MOST),
            "fundamental-forms-closed": (1e-10, AT_MOST),
            "nijenhuis-vanishing": (1e-10, AT_MOST),
        }),
    "lemma1": (
        "integrability of the derived product structures and Lee-form equality", {
            "parahypercomplex-algebra": (1e-10, AT_MOST),
            "nijenhuis-K": (1e-9, AT_MOST),
            "nijenhuis-S": (1e-9, AT_MOST),
            "lee-form-equality": (1e-9, AT_MOST),
            "lee-form-conditioning": (1e6, AT_MOST),
            "orientation-agreement": (0.5, AT_MOST),
            "p-gradient-constant": (1e-10, AT_MOST),
        }),
    "courant": (
        "twisted Courant bracket, shear naturality, spinor-line integrability", {
            "b-transform-naturality": (1e-9, AT_MOST),
            "closed-form-integrability": (1e-8, AT_MOST),
            "nonclosed-form-control": (1e-3, EXCEEDS),
            "pairing-preservation": (1e-10, AT_MOST),
            "conjugation-invariance": (1e-8, AT_MOST),
        }),
    "gpk-example2": (
        "commuting pair built from closed complex 2-forms, with flow deformation", {
            "form-conditions": (1e-9, AT_MOST),
            "frame-table": (1e-10, AT_MOST),
            "eigenspace-membership": (1e-9, AT_MOST),
            "pairing-identity": (1e-9, AT_MOST),
            "structure-conditions": (1e-10, AT_MOST),
            "pair-compatibility": (1e-9, AT_MOST),
            "construction-cross-validation": (1e-8, AT_MOST),
            "opposite-torsion-forms": (1e-9, AT_MOST),
            "flow-preserves-reference-form": (1e-7, AT_MOST),
            "integrator-order": (8.0, EXCEEDS),
            "deformed-forms-closed": (1e-6, AT_MOST),
            "deformed-form-degeneracy": (1e-6, AT_MOST),
            "deformed-pair-compatibility": (1e-6, AT_MOST),
            "deformed-integrability": (1e-6, AT_MOST),
        }),
    "poisson": (
        "anticommutator bivector: type, holomorphicity, Jacobi identity", {
            "bivector-type": (1e-10, AT_MOST),
            "anti-invariant-part": (1e-12, AT_MOST),
            "chern-holomorphic": (1e-9, AT_MOST),
            "jacobi-coordinate": (1e-9, AT_MOST),
            "jacobi-cyclic": (1e-9, AT_MOST),
            "jacobi-routes-agree": (1e-9, AT_MOST),
            "commuting-control": (1e-12, AT_MOST),
            "conjugate-reality": (1e-9, AT_MOST),
            "endomorphism-correspondence": (1e-10, AT_MOST),
            "type-projector-idempotent": (1e-12, AT_MOST),
            "chern-connection-identities": (1e-8, AT_MOST),
            "deformed-poisson": (1e-9, AT_MOST),
        }),
    "theorem4": (
        "flag threefold: curvature-ratio fit and deformation hypotheses", {
            "chart-derivative-closed-forms": (1e-9, AT_MOST),
            "chart-consistency": (1e-9, AT_MOST),
            "commuting-fields": (1e-12, AT_MOST),
            "anticanonical-holomorphic": (1e-8, AT_MOST),
            "form-nondegenerate": (1e-3, EXCEEDS),
            "curvature-ratio-fit": (1e-4, AT_MOST),
            "hypothesis-i": (1e-6, AT_MOST),
            "hypothesis-ii": (1e-8, AT_MOST),
            "ddc-commuting-lemma": (1e-8, AT_MOST),
            "section-vanishing-approach": (1.0, AT_MOST),
        }),
    "engel": (
        "null-plane distribution: rank towers and derivative-chain identities", {
            "normal-form-tower": (0.0, AT_MOST),
            "involutive-control": (0.0, AT_MOST),
            "bracket-growth-control": (0.0, AT_MOST),
            "constant-p-integrable": (0.0, AT_MOST),
            "null-frame-identities": (1e-8, AT_MOST),
            "gradient-identities": (1e-8, AT_MOST),
            "derivative-chain": (1e-8, AT_MOST),
            "pairing-eigenstructure": (1e-10, AT_MOST),
            "nilpotent-endos": (1e-10, AT_MOST),
            "frame-completeness": (0.0, AT_MOST),
            "degenerate-inputs-inconclusive": (0.0, AT_MOST),
            "derivative-rule-microscope": (1e-8, AT_MOST),
            "theorem7-trichotomy": (0.0, AT_MOST),
        }),
}


def check_spec(name: str) -> tuple:
    """(default tolerance, mode) of a catalogued check; KeyError if none."""
    for _, checks in CATALOG.values():
        if name in checks:
            return checks[name]
    raise KeyError(name)


@dataclass
class SuiteConfig:
    suite: str = "all"
    model: str = "torus"
    samples: int = 64
    seed: int = 42
    tol: dict = dc_field(default_factory=dict)
    a: float = 1.25
    b: float = 0.75
    c: float = 0.0
    f_expr: str = "sin2"
    t: float = 0.0
    step: float = 1e-3
    fa: int = 1
    fb: int = -2
    report: str = ""

    def validate(self):
        if self.suite != "all" and self.suite not in CATALOG:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.model not in ("torus", "kodaira", "flag"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.samples <= 0:
            raise ConfigError("samples must be positive")
        for name, value in self.tol.items():
            try:
                default, mode = check_spec(name)
            except KeyError:
                raise ConfigError(f"unknown check name in tolerance override: "
                                  f"{name!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"override for {name!r} must be finite")
            if mode == EXCEEDS:
                if value > default:
                    raise ConfigError(f"override for {name!r} may only loosen "
                                      f"(lower) the threshold")
            elif value < default:
                raise ConfigError(f"override for {name!r} may only loosen the tolerance")
            if value < 1e-14:
                raise ConfigError("tolerances must not drop below 1e-14")
        try:
            self.example2_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            FlagParams(self.fa, self.fb)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def tolerance(self, name: str) -> float:
        return float(self.tol.get(name, check_spec(name)[0]))

    def example2_params(self) -> Example2Params:
        return Example2Params(self.a, self.b, self.c, self.f_expr, self.t, self.step)

    def as_echo(self) -> dict:
        echo = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "report"}
        echo["tol"] = ",".join(f"{k}={v:g}" for k, v in sorted(self.tol.items()))
        return echo


class SuiteContext:
    """Shared lazily-built objects for one run, each built at most once."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.plan = SamplePlan(config.samples, config.seed)

    @cached_property
    def model(self):
        if self.config.model == "flag":
            raise ConfigError(
                "the flag model hosts only the theorem4 suite; pick torus "
                "or kodaira for structure suites")
        m = get_model(self.config.model)
        m.certify(SamplePlan(min(16, self.config.samples), self.config.seed + 7))
        return m

    @cached_property
    def bundle(self):
        return example2_build(self.model, self.config.example2_params(), self.plan)

    @cached_property
    def deformed(self):
        return hamiltonian_deform(self.bundle, self.plan)

    @cached_property
    def gcs_pair(self):
        """The generalized complex structures of the closed forms beta1, beta2."""
        return gcs_from_form(self.bundle.beta1), gcs_from_form(self.bundle.beta2)

    @cached_property
    def deformed_pair(self):
        """The generalized complex structures of the deformed gamma1, gamma2."""
        return gcs_from_form(self.deformed.gamma1), gcs_from_form(self.deformed.gamma2)

    def points(self, chart=None, count=None):
        chart = chart or self.model.chart
        plan = self.plan if count is None else SamplePlan(count, self.config.seed)
        return plan.sample(chart)

    def record(self, name, reference, residual, pts_count, inconclusive=0,
               extra=None) -> CheckRecord:
        tol = self.config.tolerance(name)
        exceeds = check_spec(name)[1] == EXCEEDS
        extra = dict(extra or {})
        if exceeds:
            extra["mode"] = EXCEEDS
        if not np.isfinite(residual):
            passed = False
        elif exceeds:
            passed = residual > tol
        else:
            passed = residual <= tol
        return CheckRecord(name, reference, float(residual), tol, pts_count,
                           bool(passed), inconclusive, extra)


# --------------------------------------------------------------------------
# suite: parahyperkahler


def suite_parahyperkahler(ctx: SuiteContext):
    m = ctx.model
    pts = ctx.points()
    t = m.triple
    return [
        ctx.record("split-quaternion-relations",
                   "products of the three frame endomorphisms",
                   t.algebra_residual(pts), len(pts)),
        ctx.record("metric-compatibility",
                   "g(J1 X, J1 Y) = -g(J2 X, J2 Y) = -g(J3 X, J3 Y) = g(X, Y)",
                   t.compatibility_residual(pts), len(pts)),
        ctx.record("fundamental-forms-closed", "d of all three 2-forms",
                   t.closedness_residual(pts), len(pts)),
        ctx.record("nijenhuis-vanishing", "torsion tensors of the frame structures",
                   t.nijenhuis_residual(pts), len(pts)),
    ]


# --------------------------------------------------------------------------
# suite: lemma1 (conformally rescaled constant-p pair)


def suite_lemma1(ctx: SuiteContext):
    m = ctx.model
    pts = ctx.points()
    ghat = conformal_metric(m)
    p = ctx.config.example2_params()
    t = m.triple
    jm = j_minus(t, p)
    data = BihermitianData(ghat, t.j1, jm, name="lemma1")
    d = m.chart.dim

    # algebra of the derived K, S
    kv = data.k_endo.eval_jet(pts)
    sv = data.s_endo.eval_jet(pts)
    jv = t.j1.eval_jet(pts)
    eye = _broadcast_const(kv, np.eye(d))
    gv = ghat.eval_jet(pts)
    alg = worst(max_abs(jmatmul(kv, kv) - eye), max_abs(jmatmul(sv, sv) - eye),
                max_abs(jmatmul(jv, kv) - sv),
                max_abs(data.p.eval(pts) - (-p.a)),
                max_abs(jmatmul(jmatmul(jtranspose(kv), gv), kv) + gv))

    nk = max_abs(nijenhuis_tensor(data.k_endo).eval(pts))
    ns = max_abs(nijenhuis_tensor(data.s_endo).eval(pts))

    pair_p = HermitianPair(ghat, t.j1)
    theta_p, cond_fn = lee_form(pair_p, return_condition=True)
    theta_k = HermitianPair(ghat, data.k_endo).theta
    theta_s = HermitianPair(ghat, data.s_endo).theta
    tp = theta_p.eval(pts)
    lee_eq = worst(max_abs(theta_k.eval(pts) - tp), max_abs(theta_s.eval(pts) - tp))

    # the top forms have a single component
    fp = pair_p.f
    fm = HermitianPair(ghat, jm).f
    top = wedge(fp, fp).eval(pts)[:, 0]
    topm = wedge(fm, fm).eval(pts)[:, 0]
    orient = 0.0 if np.all(np.sign(top) == np.sign(topm)) else 1.0

    pres = check_p_gradient(data, pts)

    return [
        ctx.record("parahypercomplex-algebra",
                   "K and S from the anticommuting pair: squares, J+K = S, "
                   "anti-isometry of K", alg, len(pts)),
        ctx.record("nijenhuis-K", "integrability of the derived K", nk, len(pts)),
        ctx.record("nijenhuis-S", "integrability of the derived S", ns, len(pts)),
        ctx.record("lee-form-equality", "Lee forms of (g,K) and (g,S) equal that "
                   "of (g,J+)", lee_eq, len(pts)),
        ctx.record("lee-form-conditioning", "condition number of the Lee solve",
                   cond_fn(pts), len(pts)),
        ctx.record("orientation-agreement", "top powers of the two fundamental "
                   "forms have one sign", orient, len(pts)),
        ctx.record("p-gradient-constant", "gradient identity for the trace "
                   "pairing at constant p", pres, len(pts)),
    ]


# --------------------------------------------------------------------------
# suite: courant


def _closed_form_integrability(ctx: SuiteContext, reference):
    """Torsion of both structures of ``ctx.gcs_pair`` against the coordinate
    frame and eight random polynomial sections."""
    n_pts = ctx.points(count=min(8, ctx.config.samples))
    extra_secs = random_poly_sections(ctx.model.chart, 8, ctx.config.seed + 31)
    integ = worst(*(gcs_nijenhuis(i, None, n_pts, extra_sections=extra_secs)
                    for i in ctx.gcs_pair))
    return ctx.record("closed-form-integrability", reference, integ, len(n_pts))


def suite_courant(ctx: SuiteContext):
    m = ctx.model
    chart = m.chart
    pts = ctx.points(count=min(12, ctx.config.samples))
    secs = coordinate_sections(chart)
    pair_list = [(secs[0], secs[1]), (secs[0], secs[chart.dim + 1]),
                 (secs[1], secs[chart.dim]),
                 (secs[0] + secs[chart.dim + 1], secs[1] + secs[chart.dim])]

    worst_nat = 0.0
    for s in range(8):
        b2 = random_poly_two_form(chart, ctx.config.seed + 100 + s)
        db = exterior_derivative(b2)
        validate_twist(db, pts)
        for (sa, sb) in pair_list:
            lhs = courant_bracket(b_transform(sa, b2), b_transform(sb, b2))
            rhs = b_transform(courant_bracket(sa, sb, db), b2)
            worst_nat = worst(worst_nat, max_abs((lhs - rhs).eval(pts)))

    bundle = ctx.bundle
    integ_check = _closed_form_integrability(
        ctx, "torsion of the structures built from the closed complex 2-forms")
    i1 = ctx.gcs_pair[0]
    n_pts = ctx.points(count=min(8, ctx.config.samples))

    # negative control: spoil closedness of the imaginary part
    def bad_imag(jc):
        base = bundle.omega_plus.fn(jc)
        pert = base.c.copy()
        pert[:, 0] = (base[:, 0] + jc[:, 2] * 0.5).c
        return Jet(base.space, pert, base.order)

    bad_beta_im = form_field(chart, 2, bad_imag)
    bad_beta = complex_form(bundle.f_k, bad_beta_im)
    i_bad = gcs_from_form(bad_beta)
    control = gcs_nijenhuis(i_bad, None, n_pts[:4])

    pres = 0.0
    applied = [apply_endo(i1, s) for s in secs]
    for a_idx in range(len(secs)):
        for b_idx in range(a_idx, len(secs)):
            lhs = pairing(applied[a_idx], applied[b_idx])
            rhs = pairing(secs[a_idx], secs[b_idx])
            pres = worst(pres, max_abs(lhs.eval(n_pts) - rhs.eval(n_pts)))

    # with the shipped shear action and bracket naturality, the structure
    # integrable for the (H - db)-twist is the e^{+b}-conjugate
    b2 = random_poly_two_form(chart, ctx.config.seed + 77)
    conj = b_conjugate_endo(i1, b2, sign=1.0)
    neg_db = -exterior_derivative(b2)
    conj_res = gcs_nijenhuis(conj, neg_db, n_pts[:4])

    return [
        ctx.record("b-transform-naturality",
                   "bracket of sheared sections equals sheared twisted bracket "
                   "(8 random polynomial 2-forms)", worst_nat, len(pts)),
        integ_check,
        ctx.record("nonclosed-form-control",
                   "negative control: non-closed imaginary part must produce a "
                   "large torsion residual", control, 4),
        ctx.record("pairing-preservation",
                   "the structures preserve the natural split pairing",
                   pres, len(n_pts)),
        ctx.record("conjugation-invariance",
                   "shear-conjugated structure is integrable for the shifted "
                   "twist", conj_res, 4),
    ]


# --------------------------------------------------------------------------
# suite: gpk-example2


def suite_gpk_example2(ctx: SuiteContext):
    bundle = ctx.bundle
    params = ctx.config.example2_params()
    pts = ctx.points()
    d = 4
    checks = []

    fk, wp, wm = bundle.f_k, bundle.omega_plus, bundle.omega_minus
    bih = worst(max_abs(wedge(fk, wp).eval(pts)), max_abs(wedge(fk, wm).eval(pts)),
                max_abs(wedge(wp, wm).eval(pts)),
                max_abs((wedge(wp, wp) + wedge(wm, wm) - wedge(fk, fk) * 4.0).eval(pts)))
    checks.append(ctx.record("form-conditions",
                             "degeneracy conditions for the two closed complex "
                             "2-forms", bih, len(pts)))

    # the frame x, J+ x, K x, S+ x with x a unit spacelike vector
    x = unit_spacelike_vector(bundle.g, pts)
    spv = bundle.s_plus.eval(pts)
    kv = bundle.data.k_endo.eval(pts)
    jpv = bundle.data.jp.eval(pts)
    jpx, spx = np.einsum("bij,bj->bi", jpv, x), np.einsum("bij,bj->bi", spv, x)
    frame = [Jet.constant(jet_space(d, 0), v)
             for v in (x, jpx, np.einsum("bij,bj->bi", kv, x), spx)]
    a = params.a
    root = float(np.sqrt(a * a - 1.0))

    def fval(form, vecs):
        return evaluate_form(form.eval_jet(pts), vecs, d, len(vecs)).value

    table = worst(max_abs(fval(wedge(wp, wp), frame) - 4 * (a + 1)),
                  max_abs(fval(wedge(wm, wm), frame) + 4 * (a - 1)),
                  max_abs(fval(wedge(wp, wm), frame)),
                  max_abs(fval(wedge(fk, fk), frame) - 2.0),
                  max_abs(fval(wedge(fk, wp), frame)),
                  max_abs(fval(wedge(fk, wm), frame)),
                  max_abs(fval(wp, frame[:2]) + root),
                  max_abs(fval(wm, frame[:2]) - root),
                  max_abs(fval(wp, [frame[0], frame[2]])),
                  max_abs(fval(wp, [frame[0], frame[3]]) + (a + 1)),
                  max_abs(fval(wm, [frame[0], frame[3]]) - (a - 1)))
    checks.append(ctx.record("frame-table",
                             "orthonormal-frame evaluation table of the three "
                             "2-forms and their wedges", table, len(pts)))

    # eigenspace membership: U = (X + iY)/2 with Y built from S+, S-
    smv = bundle.s_minus.eval(pts)
    jmv = bundle.data.jm.eval(pts)
    y = (spx - a * np.einsum("bij,bj->bi", smv, x)) / root
    u = 0.5 * (x + 1j * y)
    memb = root * np.einsum("bij,bj->bi", kv, u) \
        + 1j * np.einsum("bij,bj->bi", jpv, u) \
        - 1j * a * np.einsum("bij,bj->bi", jmv, u)
    checks.append(ctx.record("eigenspace-membership",
                             "intersection equation for the common eigenspace "
                             "of the pair", float(np.abs(memb).max()), len(pts)))

    # pairing identity on two constructed sections
    y2 = (np.einsum("bij,bj->bi", spv, jpx) - a * np.einsum("bij,bj->bi", smv, jpx)) / root
    v = 0.5 * (jpx + 1j * y2)
    beta1_full = form_full_matrix(bundle.beta1.eval_jet(pts), d).value
    beta2_full = form_full_matrix(bundle.beta2.eval_jet(pts), d).value

    def pair_sections(uu, vv):
        # <A + conj A, B + conj B> for A = U - i_U beta1, B = V - i_V beta1
        xu, xv = 2 * uu.real, 2 * vv.real
        xiu = -np.einsum("bi,bij->bj", uu, beta1_full)
        xiv = -np.einsum("bi,bij->bj", vv, beta1_full)
        xiu = xiu + np.conj(xiu)
        xiv = xiv + np.conj(xiv)
        return 0.5 * (np.einsum("bi,bi->b", xiu, xv) + np.einsum("bi,bi->b", xiv, xu)).real

    lhs = pair_sections(u, v)
    rhs = -np.real(np.einsum("bi,bij,bj->b", u, beta1_full - np.conj(beta2_full), np.conj(v)))
    checks.append(ctx.record("pairing-identity",
                             "split pairing of lifted sections against the "
                             "difference form", float(np.abs(lhs - rhs).max()),
                             len(pts)))

    i1, i2 = ctx.gcs_pair
    conds = endo_conditions(i1, pts) + endo_conditions(i2, pts)
    checks.append(ctx.record("structure-conditions",
                             "square and pairing conditions for both structures",
                             worst(*conds), len(pts)))
    checks.append(_closed_form_integrability(ctx, "torsion of both structures"))
    checks.append(_record_gpk_pair(ctx, "pair-compatibility",
                                   "commutation, eigenbundle split, "
                                   "transversality and pairing rank",
                                   ctx.gcs_pair, pts, signatures=True))

    gm = bundle.g * (-root)
    jpm = bundle.data.jm * (-1.0)
    jmm = bundle.data.jp * (-1.0)
    bm = bundle.f_k * float(a)
    b1, b2 = gualtieri_build(gm, jpm, jmm, bm)
    cross = worst(float(np.abs(i1.eval(pts) - b1.eval(pts)).max()),
                  float(np.abs(i2.eval(pts) - b2.eval(pts)).max()))
    checks.append(ctx.record("construction-cross-validation",
                             "block construction on the matched quadruple "
                             "reproduces the spinor-line structures", cross,
                             len(pts)))

    dpf = d_pm_F(bundle.data.pair_plus)
    dmf = d_pm_F(bundle.data.pair_minus)
    checks.append(ctx.record("opposite-torsion-forms",
                             "the two torsion 3-forms sum to zero (untwisted "
                             "case)", max_abs(dpf.eval(pts) + dmf.eval(pts)),
                             len(pts)))

    if params.t != 0.0:
        checks.extend(_deformed_checks(ctx))
    return checks


def _record_gpk_pair(ctx: SuiteContext, name, reference, pair, pts,
                     signatures=False):
    """``check_gpk_pair`` on ``pair`` as the check ``name``: the commutation
    residual if every clause holds, else 1.0; the clause residuals (and
    optionally the eigenbundle signatures) as extras."""
    res = check_gpk_pair(*pair, pts, tol_commute=ctx.config.tolerance(name))
    extra = {k: float(v) for k, v in res.residuals.items()}
    if signatures:
        extra["signatures"] = str(res.signatures)
    return ctx.record(name, reference,
                      res.residuals.get("commute", 1.0) if res.ok else 1.0,
                      len(pts), extra=extra)


def _deformed_checks(ctx: SuiteContext):
    bundle = ctx.bundle
    deformed = ctx.deformed
    pts = ctx.points()
    checks = []
    checks.append(ctx.record("flow-preserves-reference-form",
                             "flow pullback of the reference symplectic form",
                             max_abs(deformed.fk_pullback.eval(pts)
                                     - bundle.f_k.eval(pts)), len(pts)))

    # integrator order on a curved calibration flow
    def fk_res(step):
        flow = HamiltonianFlow(bundle.f_k, F_CATALOG["sin14"], 0.1, step)
        pb = flow_pullback_form(flow, bundle.f_k)
        return max_abs(pb.eval(pts) - bundle.f_k.eval(pts))

    r_coarse = fk_res(2e-2)
    r_fine = fk_res(1e-2)
    ratio = r_coarse / max(r_fine, 1e-300)
    checks.append(ctx.record("integrator-order",
                             "halving the step divides the flow residual by the "
                             "fourth-order factor", ratio, len(pts),
                             extra={"coarse": float(r_coarse), "fine": float(r_fine)}))

    closed = worst(max_abs(exterior_derivative(deformed.gamma1).eval(pts)),
                   max_abs(exterior_derivative(deformed.gamma2).eval(pts)))
    checks.append(ctx.record("deformed-forms-closed",
                             "the deformed complex 2-forms stay closed",
                             closed, len(pts)))

    conj2 = form_field(bundle.chart, 2,
                       lambda jc: deformed.gamma2.fn(jc).conj(),
                       cost=deformed.gamma2.cost)
    gd = deformed.gamma1 - deformed.gamma2
    gdc = deformed.gamma1 - conj2
    degen = worst(max_abs(wedge(gd, gd).eval(pts)),
                  max_abs(wedge(gdc, gdc).eval(pts)))
    checks.append(ctx.record("deformed-form-degeneracy",
                             "squares of the difference forms vanish and the "
                             "differences are nowhere zero", degen, len(pts)))

    checks.append(_record_gpk_pair(ctx, "deformed-pair-compatibility",
                                   "deformed pair: commutation, split, "
                                   "transversality, pairing rank",
                                   ctx.deformed_pair, pts))

    n_pts = ctx.points(count=min(8, ctx.config.samples))
    integ = worst(*(gcs_nijenhuis(i, None, n_pts) for i in ctx.deformed_pair))
    checks.append(ctx.record("deformed-integrability",
                             "torsion of the deformed structures", integ,
                             len(n_pts)))
    return checks


# --------------------------------------------------------------------------
# suite: poisson


def _poisson_block(ctx, g, jp, jm, pts):
    pi = pi_bivector(g, jp, jm, check_points=pts[: min(6, len(pts))])
    pair = HermitianPair(g, jp)
    out = {}
    out["type"] = pi.type_20_residual(pts)
    out["anti"] = pi.omega_11_residual(pts)
    out["holo"] = check_holomorphic(pi, pair, pts)
    br = schouten_bb(pi.bivector, pi.bivector)
    out["jacobi"] = max_abs(np.abs(br.eval(pts)))
    re_pi = bivector_field(g.chart, lambda jc: pi.bivector.fn(jc).real,
                           cost=pi.bivector.cost)
    br_re = schouten_bb(re_pi, re_pi)
    cyc = cyclic_nabla_q_form(g, jp, jm, pts)
    out["cyclic"] = float(np.abs(cyc).max())
    low = lower_trivector(br_re.eval(pts), g.eval(pts), g.chart.dim)
    out["agree"] = float(np.abs(low - 2.0 * cyc).max())
    conj_pi = bivector_field(g.chart, lambda jc: pi.bivector.fn(jc).conj(),
                             cost=pi.bivector.cost)
    out["reality"] = max_abs(np.abs(schouten_bb(conj_pi, pi.bivector).eval(pts)))
    return pi, out


def suite_poisson(ctx: SuiteContext):
    bundle = ctx.bundle
    pts = ctx.points()
    g, jp, jm = bundle.g, bundle.data.jp, bundle.data.jm
    d = 4
    pi, res = _poisson_block(ctx, g, jp, jm, pts)
    checks = [
        ctx.record("bivector-type", "the lowered form is pure anti-type",
                   res["type"], len(pts)),
        ctx.record("anti-invariant-part", "the real lowered form has no "
                   "invariant part", res["anti"], len(pts)),
        ctx.record("chern-holomorphic", "antiholomorphic covariant derivative "
                   "vanishes", res["holo"], len(pts)),
        ctx.record("jacobi-coordinate", "coordinate Schouten bracket of the "
                   "bivector with itself", res["jacobi"], len(pts)),
        ctx.record("jacobi-cyclic", "cyclic covariant-derivative route",
                   res["cyclic"], len(pts)),
        ctx.record("jacobi-routes-agree", "the two Jacobi routes agree after "
                   "lowering", res["agree"], len(pts)),
        ctx.record("conjugate-reality", "bracket of the bivector with its "
                   "conjugate", res["reality"], len(pts)),
    ]

    pi0 = pi_bivector(g, jp, jp)
    checks.append(ctx.record("commuting-control", "commuting pair yields the "
                             "zero bivector",
                             max_abs(np.abs(pi0.bivector.eval(pts))), len(pts)))

    qv = q_endo(jp, jm).eval(pts)
    gv = g.eval(pts)
    lowered_re = np.einsum("bpq,bpi,bqj->bij", pi.bivector.eval(pts).real, gv, gv)
    omega = np.swapaxes(qv, 1, 2) @ gv
    checks.append(ctx.record("endomorphism-correspondence",
                             "raising the real lowered form recovers the "
                             "commutator endomorphism",
                             float(np.abs(lowered_re - omega).max()), len(pts)))

    lv = form_full_matrix(pi.lowered.eval_jet(pts), d).value
    jv = jp.eval(pts)
    proj1 = type_02_projector_matrix(lv.astype(np.complex128), jv)
    proj2 = type_02_projector_matrix(proj1, jv)
    checks.append(ctx.record("type-projector-idempotent",
                             "anti-type projector squares to itself",
                             float(np.abs(proj2 - proj1).max()), len(pts)))

    cres = chern_identity_residuals(g, jp, jm, pts)
    checks.append(ctx.record("chern-connection-identities",
                             "derivative identities linking the connection to "
                             "the second structure",
                             worst(cres["chern1"], cres["chern2"], cres["derP"],
                                   cres["nablaQ"]),
                             len(pts), extra=cres))

    if ctx.config.t != 0.0:
        ge, jpe, jme, _ = gualtieri_extract(*ctx.deformed_pair)
        sub = pts[: min(10, len(pts))]
        _, dres = _poisson_block(ctx, ge, jpe, jme, sub)
        checks.append(ctx.record("deformed-poisson",
                                 "full pipeline on the extracted deformed "
                                 "quadruple",
                                 worst(dres["type"], dres["holo"], dres["jacobi"],
                                       dres["agree"]), len(sub), extra=dres))
    return checks


# --------------------------------------------------------------------------
# suite: theorem4


def suite_theorem4(ctx: SuiteContext):
    cfg = ctx.config
    params = FlagParams(cfg.fa, cfg.fb)
    charts = cp2_charts()
    checks = []

    chart_res = 0.0
    for name, ch in charts.items():
        pts = SamplePlan(cfg.samples, cfg.seed + 3).sample(ch.chart)
        jc = jet_coords(4, 1, pts)
        chart_res = worst(chart_res, max_abs(ch.xf_closed(jc) - ch.xf_jet(jc)),
                          max_abs(ch.yf_closed(jc) - ch.yf_jet(jc)))
    checks.append(ctx.record("chart-derivative-closed-forms",
                             "closed-form field derivatives of the log-norm "
                             "against jet differentiation, all three charts",
                             chart_res, cfg.samples))

    z = charts["z"]
    pts_z = SamplePlan(cfg.samples, cfg.seed + 4).sample(z.chart)
    cons = 0.0
    for nm in ("u", "v"):
        pts_o = cp2_transition("z", nm, pts_z)
        jc_z = jet_coords(4, 1, pts_z)
        jc_o = jet_coords(4, 1, pts_o)
        cons = worst(cons, max_abs(z.xf_closed(jc_z) - charts[nm].xf_closed(jc_o)),
                     max_abs(z.yf_closed(jc_z) - charts[nm].yf_closed(jc_o)))
    checks.append(ctx.record("chart-consistency",
                             "the derivative functions glue across charts",
                             cons, len(pts_z)))

    fb = flag_charts(params)
    fpts = SamplePlan(min(32, cfg.samples), cfg.seed + 5).sample(fb.chart)
    jc = jet_coords(4, 1, pts_z)
    comm = float(np.abs(holo_bracket(z.x_hol(jc), z.y_hol(jc)).value).max())
    comm = worst(comm, fb.bracket_residual(fpts))
    checks.append(ctx.record("commuting-fields", "the two torus-action fields "
                             "commute in every chart", comm, len(fpts)))

    checks.append(ctx.record("anticanonical-holomorphic",
                             "antiholomorphic derivative of the bivector "
                             "components", fb.sigma_dbar_residual(fpts), len(fpts)))

    minsv = fb.f0_smallest_singular(fpts)
    checks.append(ctx.record("form-nondegenerate",
                             "smallest singular value of the combined form "
                             "(coefficients admissible)", minsv, len(fpts)))

    hyp = theorem4_hypotheses(fb, fpts, fpts[: max(8, len(fpts) // 2)])
    checks.append(ctx.record("curvature-ratio-fit",
                             "relative spread of the per-point curvature ratio",
                             hyp["lambda_spread"], len(fpts),
                             extra={"lambda": hyp["lambda"]}))
    checks.append(ctx.record("hypothesis-i",
                             "bivector composed with the form equals the "
                             "antiholomorphic derivative of the candidate field",
                             hyp["hypothesis_i"], len(fpts)))
    checks.append(ctx.record("hypothesis-ii",
                             "Schouten bracket of the real part with the "
                             "imaginary bivector", hyp["hypothesis_ii"], len(fpts)))

    z1f = Field(fb.chart, "tensor", fb.z1_hol)
    z2f = Field(fb.chart, "tensor", fb.z2_hol)
    lem = ddc_commuting_fields(z1f, z2f, fb.f_p1, fpts[: min(16, len(fpts))])
    checks.append(ctx.record("ddc-commuting-lemma",
                             "contraction of the complex Hessian against the "
                             "commuting fields", lem["residual"],
                             min(16, len(fpts)), extra=lem))

    mins = []
    for margin in (0.3, 0.05):
        loci = (ExcludedLocus(lambda p: np.hypot(p[:, 0], p[:, 1]), margin),
                ExcludedLocus(lambda p: np.hypot(p[:, 2], p[:, 3]), margin))
        dom = ChartDomain(4, tuple((-1.5, 1.5) for _ in range(4)), loci, name="m")
        ptsm = SamplePlan(128, cfg.seed + 6).sample(dom)
        jcm = jet_coords(4, 0, ptsm)
        z1 = jcm[:, 0] + jcm[:, 1] * 1j
        z2 = jcm[:, 2] + jcm[:, 3] * 1j
        mins.append(float(tau_norm_sq(z1, z2).value.min()))
    checks.append(ctx.record("section-vanishing-approach",
                             "minimum norm of the anticanonical section shrinks "
                             "with the exclusion margin",
                             mins[1] / mins[0], 128,
                             extra={"wide": mins[0], "narrow": mins[1]}))
    return checks


# --------------------------------------------------------------------------
# suite: engel


def suite_engel(ctx: SuiteContext):
    m = ctx.model
    chart = m.chart
    pts = ctx.points()
    checks = []

    # the fraction of points where a span misses its expected verdict
    for name, reference, span, verdict in (
            ("normal-form-tower", "canonical normal form has tower ranks (2,3,4)",
             canonical_engel_span, "engel"),
            ("involutive-control", "coordinate plane field is integrable",
             integrable_control_span, "integrable"),
            ("bracket-growth-control", "rank-(2,3,3) span reports the mixed outcome",
             other_control_span, "other")):
        rep = rank_tower(span(chart), pts)
        extra = {"counts": str(rep.counts())} if name == "normal-form-tower" else None
        checks.append(ctx.record(name, reference,
                                 1.0 - rep.verdicts.count(verdict) / len(pts),
                                 len(pts), extra=extra))

    # constant-p bihermitian data: distribution integrable wherever the
    # generators span a plane (null Lee forms do not obstruct the tower)
    ghat = conformal_metric(m)
    t = m.triple
    lf = lee_fields(ghat, t.j1, j_minus(t, ctx.config.example2_params()))
    gen = np.stack([lf.x.eval(pts), lf.y.eval(pts)], axis=2)
    mask = np.linalg.matrix_rank(gen) == 2
    rep4 = rank_tower(lf.span, pts[mask]) if mask.any() else None
    n_int = rep4.verdicts.count("integrable") if rep4 else 0
    checks.append(ctx.record("constant-p-integrable",
                             "constant anticommutator function makes the "
                             "distribution integrable",
                             1.0 - n_int / max(1, int(mask.sum())),
                             int(mask.sum()), inconclusive=int((~mask).sum())))

    # locally-prescribed data on the standard constant frame (the synthetic
    # mode is model-independent algebra)
    j1m, j2m, j3m, gmat = standard_split_quaternion_frame()
    qf = (j1m, j2m, j3m)
    syn = synthetic_data(chart, qf, gmat)
    slf = syn.lee()
    smask = slf.definitive_mask(pts)
    basis = basis_identity_residuals(slf, pts, smask)
    checks.append(ctx.record("null-frame-identities",
                             "null-frame pairings of the distribution "
                             "generators", worst(*basis.values()), len(pts),
                             inconclusive=int((~smask).sum()),
                             extra=basis))

    df = d_scalar(slf.f_field).eval(pts)
    x = slf.x.eval(pts)
    y = slf.y.eval(pts)
    f = slf.f_field.eval(pts)
    tn = slf.theta_norm_sq.eval(pts)
    scale = np.maximum(1.0, np.abs(tn))
    xf_res = np.abs(np.einsum("bi,bi->b", df, x) / scale)[smask].max(initial=0.0)
    yf_res = np.abs((np.einsum("bi,bi->b", df, y) + f * tn) / scale)[smask].max(initial=0.0)
    checks.append(ctx.record("gradient-identities",
                             "the branch function is constant along one "
                             "generator and scales along the other",
                             worst(xf_res, yf_res), len(pts),
                             inconclusive=int((~smask).sum()),
                             extra={"X(f)": float(xf_res), "Y(f)+f|th|^2": float(yf_res)}))

    chain = nabla_n_rhs_residuals(slf, pts, mask=smask)
    checks.append(ctx.record("derivative-chain",
                             "derivative-rule consequences for the nilpotent "
                             "endomorphism", worst(*chain.values()), len(pts),
                             inconclusive=int((~smask).sum()), extra=chain))

    # Eq-(Y)-type pairing and the anticommutation relation
    gv = syn.g.eval(pts)
    ginv = np.linalg.inv(gv)
    thp = syn.theta_p.eval(pts)
    ths = np.einsum("bij,bj->bi", ginv, thp)
    jpv = syn.jp.eval(pts)
    jmv = syn.jm.eval(pts)
    v = np.einsum("bij,bj->bi", jpv @ jmv, ths)
    pfield = slf.data.p.eval(pts)
    eqy = np.abs((np.einsum("bi,bij,bj->b", ths, gv, v) - pfield * tn) / scale)[smask].max(initial=0.0)
    nmat = jpv + f[:, None, None] * jmv
    anti = np.abs(nmat @ jpv + jpv @ nmat
                  - 2.0 * (pfield * f - 1.0)[:, None, None] * np.eye(4)).max()
    checks.append(ctx.record("pairing-eigenstructure",
                             "dual-vector pairing identity and the "
                             "anticommutation relation of the nilpotent endo",
                             worst(eqy, anti), len(pts),
                             inconclusive=int((~smask).sum())))

    n_plus, n_minus = n_endos(syn.jp, syn.jm, slf.data.p)
    npv = n_plus.eval(pts)
    nmv = n_minus.eval(pts)
    kv = slf.data.k_endo.eval(pts)
    proj_m = 0.5 * (np.eye(4) - kv)
    proj_p = 0.5 * (np.eye(4) + kv)
    ranks = np.linalg.matrix_rank(npv)
    rank_bad = 0.0 if np.all(ranks == 2) else 1.0
    checks.append(ctx.record("nilpotent-endos",
                             "squares vanish, kernels are the eigenplanes of "
                             "the product structure, rank two",
                             worst(max_abs(npv @ npv), max_abs(nmv @ nmv),
                                   max_abs(npv @ proj_m), max_abs(nmv @ proj_p),
                                   rank_bad), len(pts)))

    jx = np.einsum("bij,bj->bi", jpv, x)
    jy = np.einsum("bij,bj->bi", jpv, y)
    fr = np.stack([x, y, jx, jy], axis=2)
    fr_ranks = np.linalg.matrix_rank(fr[smask])
    checks.append(ctx.record("frame-completeness",
                             "the four distribution-frame fields span at "
                             "definitive points",
                             0.0 if np.all(fr_ranks == 4) else 1.0,
                             int(smask.sum()), inconclusive=int((~smask).sum())))

    syn0 = synthetic_data(chart, qf, gmat, degenerate=True)
    rep0 = theorem7_check(syn0.g, syn0.jp, syn0.jm, pts[:8], syn0.theta_p,
                          syn0.theta_m)
    all_inc = rep0.verdicts.count("inconclusive") == len(rep0.verdicts)
    checks.append(ctx.record("degenerate-inputs-inconclusive",
                             "vanishing Lee forms yield inconclusive verdicts, "
                             "never a pass", 0.0 if all_inc else 1.0, 8,
                             inconclusive=rep0.verdicts.count("inconclusive")))

    # the rule-vs-jets comparison is a tensor identity on honest Hermitian
    # data; it needs no non-null Lee forms
    conn = levi_civita(ghat)
    crule = nabla_n_rhs_residuals(lf, pts, connection=conn, mask=None)
    checks.append(ctx.record("derivative-rule-microscope",
                             "derivative rule for the nilpotent endo against "
                             "honest jet differentiation",
                             crule["derivative-rule vs jets"], len(pts)))

    rep7 = theorem7_check(syn.g, syn.jp, syn.jm, pts[:12], syn.theta_p,
                          syn.theta_m)
    checks.append(ctx.record("theorem7-trichotomy",
                             "pointwise trichotomy executes with verdicts "
                             "reported", 0.0, 12,
                             inconclusive=rep7.verdicts.count("inconclusive"),
                             extra={"counts": str(rep7.counts()),
                                    "theta_sum": float(rep7.extras["theta+ + theta-"])}))
    return checks


SUITES = {
    "parahyperkahler": suite_parahyperkahler,
    "lemma1": suite_lemma1,
    "courant": suite_courant,
    "gpk-example2": suite_gpk_example2,
    "poisson": suite_poisson,
    "theorem4": suite_theorem4,
    "engel": suite_engel,
}


def run_suite(config: SuiteConfig) -> VerificationReport:
    config.validate()
    ctx = SuiteContext(config)
    names = tuple(CATALOG) if config.suite == "all" else (config.suite,)
    t0 = time.perf_counter()
    checks = []
    for name in names:
        checks.extend(SUITES[name](ctx))
    wall = time.perf_counter() - t0
    return VerificationReport(config.suite, config.model, config.as_echo(),
                              checks, wall)


def list_suites() -> str:
    lines = ["available suites:"]
    for name, (reference, _) in CATALOG.items():
        lines.append(f"  {name:16s} {reference}")
    lines.append("  all              every suite above, in catalog order")
    return "\n".join(lines) + "\n"
