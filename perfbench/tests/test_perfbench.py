"""Tests of the benchmark harness itself, on small fast workloads.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import FLAG_MODEL, LEMMA1, PARAHYPERKAHLER, Workload  # noqa: E402

SMALL = Workload("small", "fast suites for harness tests",
                 (("parahyperkahler", "torus", (), PARAHYPERKAHLER),
                  ("lemma1", "torus", (), LEMMA1)))


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLES", 8)


def traced_counts(seed):
    import pbhverify.suites  # noqa: F401
    tracer = Tracer()
    tracer.install()
    try:
        texts = workloads.run_operation(SMALL, seed)
    finally:
        tracer.uninstall()
    assert workloads.check_output(SMALL, texts).ok
    return {name: tracer.value(source, key)
            for name, _, _, source, key in PER_LAYER
            if source in ("count", "derived")}


def current(owner, name):
    if isinstance(owner, dict):
        return owner[name]
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_uninstall_restores_every_original():
    import pbhverify.suites as suites
    from pbhverify.tensorcalc import fields, jets
    mul = jets.Jet.__dict__["__mul__"]
    init = fields.Field.__dict__["__init__"]
    jmatmul = jets.jmatmul
    table = dict(suites.SUITES)
    tracer = Tracer()
    tracer.install()
    patches = tracer.patched()
    try:
        assert jets.Jet.__dict__["__mul__"] is not mul
        workloads.run_operation(SMALL, 1)
    finally:
        tracer.uninstall()
    assert len(patches) > 50
    assert jets.Jet.__dict__["__mul__"] is mul
    assert fields.Field.__dict__["__init__"] is init
    assert jets.jmatmul is jmatmul
    assert suites.SUITES == table
    for owner, name, original in patches:
        assert current(owner, name) is original, (owner, name)
    assert not tracer.patched()


def test_traced_counters_repeat_exactly():
    first, second = traced_counts(3), traced_counts(3)
    assert first == second
    assert first["jets.mul_calls"] > 0
    assert first["fields.closure_calls"] >= first["fields.distinct_evals"] > 0


def test_every_per_layer_metric_is_in_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [row[0] for row in PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [row[1] for row in PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_missing_check_fails_the_operation(monkeypatch):
    missing = Workload("missing", "expects a check the suite does not run",
                       (("parahyperkahler", "torus", (),
                         PARAHYPERKAHLER + ("no-such-check",)),))
    monkeypatch.setattr(run, "setup_seconds", lambda *args: [(0.1, 0.1)])
    lines, attempted, failed, metrics, good = run.run_timed(ROOT, missing, 1, 0.0)
    assert (attempted, failed, good) == (1, 1, None)
    assert any("fail_ratio    1/1" in line for line in lines)
    assert any("no-such-check" in line for line in lines)
    # the failed operation's reports still give its margins
    assert metrics["roundoff_margin"]["value"] > 0


@pytest.mark.parametrize("seed", [42, 17])
def test_flag_model_checks_repeat_the_theorem4_suite(seed):
    from pbhverify.suites import SuiteConfig, run_suite
    flag = Workload("flag", "flag-model checks", (("flag-model", "flag", (), FLAG_MODEL),))
    doc = json.loads(workloads.run_operation(flag, seed)[0])
    suite = run_suite(SuiteConfig(suite="theorem4", model="flag",
                                  samples=workloads.SAMPLES, seed=seed))
    expected = {c.name: c.to_doc() for c in suite.checks}
    assert [c["name"] for c in doc["checks"]] == list(FLAG_MODEL)
    for check in doc["checks"]:
        for key in ("residual", "tolerance", "points", "passed", "extra"):
            assert check[key] == expected[check["name"]][key], (check["name"], key)


def test_nonfinite_residual_fails_even_if_marked_passed():
    texts = workloads.run_operation(SMALL, 1)
    doc = json.loads(texts[0])
    doc["checks"][0]["residual"] = "nan"
    outcome = workloads.check_output(SMALL, [json.dumps(doc)] + texts[1:])
    assert not outcome.ok and "not finite" in outcome.reason


def test_passing_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "setup_seconds", lambda *args: [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
    lines, attempted, failed, metrics, good = run.run_timed(ROOT, SMALL, 1, 0.0)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert (attempted, failed) == (1, 0)
    assert sorted(metrics) == sorted(m["name"] for m in doc["end_to_end"])
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["roundoff_margin"]["value"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "breadth-kodaira", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_high_percentile_needs_ten_samples_above():
    assert run.high_percentile(list(range(10))) is None
    pct, value = run.high_percentile(list(range(20)))
    assert pct == pytest.approx(50.0) and value == 9
