"""Acceptance suite: every shipped claim at its stated tolerance and time
budget, one pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.
"""

import json
import time

from pbhverify.suites import ORDER_ROUNDOFF_FLOOR, SuiteConfig, run_suite


def _crit(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _by_name(report):
    return {c.name: c for c in report.checks}


def test_criterion_1_parahyperkahler_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for model in ("torus", "kodaira"):
        rep = run_suite(SuiteConfig(suite="parahyperkahler", model=model,
                                    samples=64, seed=42))
        assert rep.passed
        worst = max(worst, max(c.residual for c in rep.checks))
    elapsed = time.perf_counter() - t0
    _crit("criterion-1 para-hyperkahler certification (both models)",
          worst <= 1e-10 and elapsed < 5.0,
          f"worst residual {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_lemma1_suite():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="lemma1", samples=64, seed=42,
                                a=1.25, b=0.75, c=0.0))
    elapsed = time.perf_counter() - t0
    checks = _by_name(rep)
    ok = (rep.passed
          and checks["nijenhuis-K"].residual <= 1e-9
          and checks["nijenhuis-S"].residual <= 1e-9
          and checks["lee-form-equality"].residual <= 1e-9
          and elapsed < 10.0)
    _crit("criterion-2 derived-structure integrability and Lee-form equality",
          ok, f"{elapsed:.2f}s")


def test_criterion_3_courant_suite():
    rep = run_suite(SuiteConfig(suite="courant", samples=64, seed=42))
    checks = _by_name(rep)
    ok = (rep.passed
          and checks["b-transform-naturality"].residual <= 1e-9
          and checks["closed-form-integrability"].residual <= 1e-8
          and checks["nonclosed-form-control"].residual > 1e-3)
    _crit("criterion-3 Courant bracket suite", ok,
          f"control residual {checks['nonclosed-form-control'].residual:.3g}")


def test_criterion_4_poisson_suite():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="poisson", samples=64, seed=42))
    elapsed = time.perf_counter() - t0
    checks = _by_name(rep)
    ok = (rep.passed
          and checks["bivector-type"].residual <= 1e-10
          and checks["chern-holomorphic"].residual <= 1e-9
          and checks["jacobi-coordinate"].residual <= 1e-9
          and checks["jacobi-cyclic"].residual <= 1e-9
          and checks["jacobi-routes-agree"].residual <= 1e-9
          and checks["commuting-control"].residual <= 1e-12
          and elapsed < 30.0)
    _crit("criterion-4 holomorphic Poisson pipeline", ok, f"{elapsed:.2f}s")


def test_criterion_5_frame_table():
    rep = run_suite(SuiteConfig(suite="gpk-example2", samples=64, seed=42,
                                a=1.25, b=0.75, c=0.0, t=0.0))
    checks = _by_name(rep)
    ok = checks["frame-table"].residual <= 1e-10 and rep.passed
    _crit("criterion-5 closed-form frame table at a = 5/4", ok,
          f"residual {checks['frame-table'].residual:.3g}")


def test_criterion_6_gpk_suite_with_deformation():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="gpk-example2", samples=64, seed=42,
                                a=1.25, b=0.75, c=0.0, t=0.1,
                                f_expr="sin2", step=1e-3))
    elapsed = time.perf_counter() - t0
    checks = _by_name(rep)
    ok = (rep.passed
          and checks["form-conditions"].residual <= 1e-9
          and checks["deformed-pair-compatibility"].residual <= 1e-6
          and checks["flow-preserves-reference-form"].residual <= 1e-7
          and checks["integrator-order"].residual >= 8.0
          # two decades above the roundoff floor (measured 1.18e-11)
          and checks["integrator-order"].extra["fine"] >= 100 * ORDER_ROUNDOFF_FLOOR
          and elapsed < 60.0)
    _crit("criterion-6 generalized pseudo-Kahler suite with flow deformation",
          ok, f"order ratio {checks['integrator-order'].residual:.1f}, {elapsed:.2f}s")


def test_criterion_7_flag_hypotheses():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="theorem4", samples=64, seed=42,
                                fa=1, fb=-2))
    elapsed = time.perf_counter() - t0
    checks = _by_name(rep)
    ok = (rep.passed
          and checks["chart-derivative-closed-forms"].residual <= 1e-9
          and checks["hypothesis-i"].residual <= 1e-6
          and checks["hypothesis-i"].points >= 32
          and checks["hypothesis-ii"].residual <= 1e-8
          and checks["curvature-ratio-fit"].residual <= 1e-4
          and elapsed < 60.0)
    lam = checks["curvature-ratio-fit"].extra.get("lambda", 0.0)
    _crit("criterion-7 flag-threefold deformation hypotheses", ok,
          f"fitted ratio {float(lam):.6f}, {elapsed:.2f}s")


def test_criterion_8_engel_suite():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="engel", samples=64, seed=42))
    elapsed = time.perf_counter() - t0
    checks = _by_name(rep)
    ok = (rep.passed
          and checks["normal-form-tower"].residual == 0.0
          and checks["involutive-control"].residual == 0.0
          and checks["null-frame-identities"].residual <= 1e-8
          and checks["gradient-identities"].residual <= 1e-8
          and checks["derivative-chain"].residual <= 1e-8
          and checks["degenerate-inputs-inconclusive"].residual == 0.0
          and elapsed < 10.0)
    _crit("criterion-8 null-plane distribution suite", ok, f"{elapsed:.2f}s")


def test_criterion_9_determinism():
    docs = []
    for _ in range(2):
        rep = run_suite(SuiteConfig(suite="all", samples=24, seed=42, t=0.1))
        doc = rep.to_doc()
        doc.pop("wall_time_s")
        docs.append(json.dumps(doc, sort_keys=True))
    _crit("criterion-9 byte-identical replay modulo wall time",
          docs[0] == docs[1])
