"""Benchmark workloads and the output check applied to every operation.

A workload is a fixed list of ``run_suite`` configurations.  One operation
runs every configuration in order and serializes each report with
``to_json()``.  The seed is the only input the benchmark varies; it is passed
into ``SuiteConfig.seed``, so the same seed gives the same sample points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

SAMPLES = 64
# Residuals of exactly zero are floored here before taking log10.
RESIDUAL_FLOOR = 1e-300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (suite, model, extra SuiteConfig keyword arguments, expected check names)
    runs: tuple

    def configs(self, seed: int):
        from pbhverify.suites import SuiteConfig
        return [SuiteConfig(suite=suite, model=model, samples=SAMPLES, seed=seed,
                            **dict(kwargs))
                for suite, model, kwargs, _ in self.runs]

    def expected_checks(self):
        return [(suite, name) for suite, _, _, names in self.runs for name in names]


COURANT = ("b-transform-naturality", "closed-form-integrability",
           "nonclosed-form-control", "pairing-preservation",
           "conjugation-invariance")

GPK_FLOW = ("form-conditions", "frame-table", "eigenspace-membership",
            "pairing-identity", "structure-conditions",
            "closed-form-integrability", "pair-compatibility",
            "construction-cross-validation", "opposite-torsion-forms",
            "flow-preserves-reference-form", "integrator-order",
            "deformed-forms-closed", "deformed-form-degeneracy",
            "deformed-pair-compatibility", "deformed-integrability")

PARAHYPERKAHLER = ("split-quaternion-relations", "metric-compatibility",
                   "fundamental-forms-closed", "nijenhuis-vanishing")

LEMMA1 = ("parahypercomplex-algebra", "nijenhuis-K", "nijenhuis-S",
          "lee-form-equality", "lee-form-conditioning",
          "orientation-agreement", "p-gradient-constant")

POISSON = ("bivector-type", "anti-invariant-part", "chern-holomorphic",
           "jacobi-coordinate", "jacobi-cyclic", "jacobi-routes-agree",
           "conjugate-reality", "commuting-control",
           "endomorphism-correspondence", "type-projector-idempotent",
           "chern-connection-identities")

ENGEL = ("normal-form-tower", "involutive-control", "bracket-growth-control",
         "constant-p-integrable", "null-frame-identities",
         "gradient-identities", "derivative-chain", "pairing-eigenstructure",
         "nilpotent-endos", "frame-completeness",
         "degenerate-inputs-inconclusive", "derivative-rule-microscope",
         "theorem7-trichotomy")

# The checks of the ``theorem4`` suite except ``form-nondegenerate``, which
# the program fails on about one seed in six (README, "Known defect").
FLAG_MODEL = ("chart-derivative-closed-forms", "chart-consistency",
              "commuting-fields", "anticanonical-holomorphic",
              "curvature-ratio-fit", "hypothesis-i", "hypothesis-ii",
              "ddc-commuting-lemma", "section-vanishing-approach")

WORKLOADS = {w.name: w for w in (
    Workload("courant-torus",
             "deep Courant-bracket closure trees on small batches: per-call "
             "overhead in fields, calculus, gencomplex and jets; no flow",
             (("courant", "torus", (), COURANT),)),
    Workload("gpk-flow-torus",
             "the only workload that integrates the Hamiltonian flow (RK4, "
             "t=0.1); gcs_nijenhuis dominates",
             (("gpk-example2", "torus",
               (("t", 0.1), ("f_expr", "sin2"), ("step", 1e-3)), GPK_FLOW),)),
    Workload("breadth-kodaira",
             "four kodaira suites and the flag-model checks, 64-point batches: "
             "array-bound jet products, low closure redundancy; structures, "
             "poisson, engel, flagmodel",
             (("parahyperkahler", "kodaira", (), PARAHYPERKAHLER),
              ("lemma1", "kodaira", (), LEMMA1),
              ("poisson", "kodaira", (), POISSON),
              ("engel", "kodaira", (), ENGEL),
              ("flag-model", "flag", (), FLAG_MODEL))),
)}


def build_models(workload: Workload, seed: int):
    """Build and certify every model the workload's suites run on, the way a
    ``pbh-verify`` invocation does before its first check.  The flag model
    is the flag chart bundle and the three CP2 charts that the flag-model
    checks build."""
    from pbhverify.flagmodel import FlagParams, cp2_charts, flag_charts
    from pbhverify.suites import SuiteContext
    built = {}
    for cfg in workload.configs(seed):
        if cfg.model in built:
            continue
        if cfg.model == "flag":
            built[cfg.model] = flag_charts(FlagParams(cfg.fa, cfg.fb)), cp2_charts()
        else:
            built[cfg.model] = SuiteContext(cfg).model
    return built


def run_operation(workload: Workload, seed: int):
    """One operation: every suite of the workload, each report serialized."""
    from pbhverify.suites import run_suite
    return [(flag_model_report if cfg.suite == "flag-model" else run_suite)(cfg).to_json()
            for cfg in workload.configs(seed)]


def flag_model_report(cfg):
    """The ``theorem4`` suite's work and checks on the flag model, through
    the package's public functions, except ``form-nondegenerate``.  Sample
    points, tolerances and residuals are those of ``run_suite`` with
    ``suite="theorem4"`` on the same seed."""
    import time

    import numpy as np
    from pbhverify.flagmodel import (FlagParams, cp2_charts, cp2_transition,
                                     flag_charts, tau_norm_sq)
    from pbhverify.poisson import (ddc_commuting_fields, holo_bracket,
                                   theorem4_hypotheses)
    from pbhverify.report import VerificationReport
    from pbhverify.suites import SuiteContext
    from pbhverify.tensorcalc import Field, SamplePlan
    from pbhverify.tensorcalc.charts import ChartDomain, ExcludedLocus
    from pbhverify.tensorcalc.jets import jet_coords

    t0 = time.perf_counter()
    ctx = SuiteContext(cfg)
    charts = cp2_charts()
    checks = []

    worst = 0.0
    for ch in charts.values():
        jc = jet_coords(4, 1, SamplePlan(cfg.samples, cfg.seed + 3).sample(ch.chart))
        worst = max(worst,
                    float(np.abs(ch.xf_closed(jc).value - ch.xf_jet(jc).value).max()),
                    float(np.abs(ch.yf_closed(jc).value - ch.yf_jet(jc).value).max()))
    checks.append(ctx.record("chart-derivative-closed-forms", "closed-form field "
                             "derivatives against jet differentiation", worst,
                             cfg.samples))

    z = charts["z"]
    pts_z = SamplePlan(cfg.samples, cfg.seed + 4).sample(z.chart)
    jc_z = jet_coords(4, 1, pts_z)
    cons = 0.0
    for nm in ("u", "v"):
        jc_o = jet_coords(4, 1, cp2_transition("z", nm, pts_z))
        cons = max(cons,
                   float(np.abs(z.xf_closed(jc_z).value
                                - charts[nm].xf_closed(jc_o).value).max()),
                   float(np.abs(z.yf_closed(jc_z).value
                                - charts[nm].yf_closed(jc_o).value).max()))
    checks.append(ctx.record("chart-consistency", "the derivative functions "
                             "glue across charts", cons, len(pts_z)))

    fb = flag_charts(FlagParams(cfg.fa, cfg.fb))
    fpts = SamplePlan(min(32, cfg.samples), cfg.seed + 5).sample(fb.chart)
    comm = float(np.abs(holo_bracket(z.x_hol(jc_z), z.y_hol(jc_z)).value).max())
    checks.append(ctx.record("commuting-fields", "the two torus-action fields "
                             "commute in every chart",
                             max(comm, fb.bracket_residual(fpts)), len(fpts)))
    checks.append(ctx.record("anticanonical-holomorphic", "antiholomorphic "
                             "derivative of the bivector components",
                             fb.sigma_dbar_residual(fpts), len(fpts)))

    hyp = theorem4_hypotheses(fb, fpts, fpts[: max(8, len(fpts) // 2)])
    checks.append(ctx.record("curvature-ratio-fit", "relative spread of the "
                             "per-point curvature ratio", hyp["lambda_spread"],
                             len(fpts), extra={"lambda": hyp["lambda"]}))
    checks.append(ctx.record("hypothesis-i", "bivector composed with the form "
                             "against dbar of the candidate field",
                             hyp["hypothesis_i"], len(fpts)))
    checks.append(ctx.record("hypothesis-ii", "Schouten bracket of the real "
                             "part with the imaginary bivector",
                             hyp["hypothesis_ii"], len(fpts)))

    lem_pts = fpts[: min(16, len(fpts))]
    lem = ddc_commuting_fields(Field(fb.chart, "tensor", fb.z1_hol),
                               Field(fb.chart, "tensor", fb.z2_hol), fb.f_p1, lem_pts)
    checks.append(ctx.record("ddc-commuting-lemma", "complex Hessian against "
                             "the commuting fields", lem["residual"], len(lem_pts),
                             extra=lem))

    mins = []
    for margin in (0.3, 0.05):
        loci = (ExcludedLocus(lambda p: np.hypot(p[:, 0], p[:, 1]), margin),
                ExcludedLocus(lambda p: np.hypot(p[:, 2], p[:, 3]), margin))
        dom = ChartDomain(4, tuple((-1.5, 1.5) for _ in range(4)), loci, name="m")
        jcm = jet_coords(4, 0, SamplePlan(128, cfg.seed + 6).sample(dom))
        mins.append(float(tau_norm_sq(jcm[:, 0] + jcm[:, 1] * 1j,
                                      jcm[:, 2] + jcm[:, 3] * 1j).value.min()))
    checks.append(ctx.record("section-vanishing-approach", "minimum norm of the "
                             "anticanonical section shrinks with the margin",
                             mins[1] / mins[0], 128,
                             extra={"wide": mins[0], "narrow": mins[1]}))
    return VerificationReport(cfg.suite, cfg.model, cfg.as_echo(), checks,
                              time.perf_counter() - t0)


@dataclass
class Outcome:
    ok: bool
    reason: str
    # (suite, check, residual string, tolerance string, exceeds-mode)
    checks: tuple = ()

    def residuals(self):
        return [(suite, name, res) for suite, name, res, _, _ in self.checks]


def check_output(workload: Workload, texts) -> Outcome:
    """Judge one operation from its serialized reports alone.

    The operation fails when a verdict is not ``pass``, when the list of
    check names differs from the workload's expected list, when a residual
    is not finite, or when a residual does not meet its tolerance by this
    function's own comparison (which does not read the ``passed`` flags).
    """
    checks = []
    verdicts = []
    for text in texts:
        doc = json.loads(text)
        verdicts.append((doc["suite"], doc["verdict"]))
        for c in doc["checks"]:
            checks.append((doc["suite"], c["name"], c["residual"], c["tolerance"],
                           c["extra"].get("mode") == "exceeds"))
    bad = [suite for suite, verdict in verdicts if verdict != "pass"]
    if bad:
        misses = [f"{suite}/{name} {res} (tolerance {tol})"
                  for suite, name, res, tol, exceeds in checks
                  if not _meets(float(res), float(tol), exceeds)]
        return Outcome(False, f"verdict not pass: {bad}; missing their "
                              f"tolerance: {misses}", tuple(checks))
    names = [(suite, name) for suite, name, _, _, _ in checks]
    if names != workload.expected_checks():
        missing = sorted(set(workload.expected_checks()) - set(names))
        extra = sorted(set(names) - set(workload.expected_checks()))
        return Outcome(False, f"check names differ: missing {missing}, "
                              f"unexpected {extra}", tuple(checks))
    for suite, name, res, tol, exceeds in checks:
        r, t = float(res), float(tol)
        if not math.isfinite(r):
            return Outcome(False, f"{suite}/{name}: residual {res} not finite",
                           tuple(checks))
        if not _meets(r, t, exceeds):
            return Outcome(False, f"{suite}/{name}: residual {res} misses "
                                  f"tolerance {tol}", tuple(checks))
    return Outcome(True, "", tuple(checks))


def _meets(residual: float, tolerance: float, exceeds: bool) -> bool:
    return residual > tolerance if exceeds else residual <= tolerance


def headroom(check) -> float | None:
    """log10(residual / tolerance), inverted for exceeds-mode checks.

    Checks with tolerance 0 are exact counts (a mismatch count must be 0)
    and have no margin to measure; they give None."""
    _, _, res, tol, exceeds = check
    r, t = max(float(res), RESIDUAL_FLOOR), float(tol)
    if t <= 0.0:
        return None
    return math.log10(t / r) if exceeds else math.log10(r / t)
