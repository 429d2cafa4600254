"""Report round-trips, configuration handling and the exit-status contract."""

import json

import numpy as np
import pytest

from pbhverify.cli import main, parse_config_file
from pbhverify.report import CheckRecord, VerificationReport
from pbhverify.suites import (ConfigError, SuiteConfig, list_suites,
                              run_suite)


def test_report_round_trip(tmp_path):
    rep = VerificationReport(
        "demo", "torus", {"seed": 42},
        [CheckRecord("a-check", "what it verifies", 1.2345678901234567e-11,
                     1e-9, 64, True, 0, {"detail": 0.25}),
         CheckRecord("b-check", "another", 2.0, 1e-9, 8, False, 3)],
        wall_time_s=1.5)
    text = rep.to_json()
    back = VerificationReport.from_json(text)
    assert back.to_json() == text
    assert back.checks[0].residual == rep.checks[0].residual
    assert not back.passed


def test_residual_serialization_is_lossless():
    values = [1.2345678901234567e-11, np.pi, 2.0 ** -52, 6.02e23]
    for v in values:
        assert float(f"{v:.17g}") == v


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = torus\nsuite = parahyperkahler\nsamples = 8\n"
                   "# comment\nseed = 3\ntol = nijenhuis-vanishing=1e-8\n")
    raw = parse_config_file(str(cfg))
    assert raw["model"] == "torus"
    assert raw["samples"] == "8"
    assert raw["tol"] == "nijenhuis-vanishing=1e-8"


def test_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = kodaira\nsuite = parahyperkahler\nsamples = 8\n")
    rc = main(["--config", str(cfg), "--model", "torus", "--quiet",
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["model"] == "torus"


def test_unknown_names_rejected_before_compute():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="nope"))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(model="nope"))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(tol={"no-such-check": 1.0}))


def test_tolerance_overrides_only_loosen():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="parahyperkahler",
                    tol={"metric-compatibility": 1e-12}).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suite="parahyperkahler",
                    tol={"metric-compatibility": 1e-15}).validate()
    SuiteConfig(suite="parahyperkahler",
                tol={"metric-compatibility": 1e-8}).validate()
    # an exceeds-mode threshold loosens downward
    with pytest.raises(ConfigError):
        SuiteConfig(suite="gpk-example2", tol={"integrator-order": 9.0}).validate()
    SuiteConfig(suite="gpk-example2", tol={"integrator-order": 4.0}).validate()


@pytest.mark.parametrize("name", ["metric-compatibility", "integrator-order"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_overrides_rejected(name, value):
    """A NaN override makes every comparison false, +inf makes a <= check
    impossible to fail and -inf does the same to an exceeds check."""
    with pytest.raises(ConfigError):
        SuiteConfig(tol={name: float(value)}).validate()
    assert main(["--suite", "parahyperkahler", "--samples", "8", "--quiet",
                 "--tol", f"{name}={value}"]) == 2


def test_config_keys_are_the_config_fields(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = parahyperkahler\nsamples = 8\nvalidate = 1\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2


def test_exit_codes(tmp_path, monkeypatch):
    assert main(["--list-suites"]) == 0
    assert main(["--suite", "parahyperkahler", "--samples", "8", "--quiet"]) == 0
    assert main(["--suite", "nope"]) == 2
    assert main(["--tol", "malformed"]) == 2
    # a genuinely failing check exits 1: force an impossible default
    import pbhverify.suites as suites_mod
    monkeypatch.setitem(suites_mod.CATALOG["parahyperkahler"][1],
                        "split-quaternion-relations", (-1.0, suites_mod.AT_MOST))
    assert main(["--suite", "parahyperkahler", "--samples", "8", "--quiet"]) == 1


def test_model_error_exit_code(monkeypatch):
    import pbhverify.suites as suites_mod
    from pbhverify.models import ModelError

    def boom(name):
        raise ModelError("forced failure")

    monkeypatch.setattr(suites_mod, "get_model", boom)
    assert main(["--suite", "parahyperkahler", "--samples", "8", "--quiet"]) == 3


def test_env_seed_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("PBH_SEED", "11")
    rc = main(["--suite", "parahyperkahler", "--samples", "8", "--quiet",
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["config"]["seed"] == "11"


def test_list_suites_catalog():
    text = list_suites()
    for name in ("parahyperkahler", "lemma1", "courant", "gpk-example2",
                 "poisson", "theorem4", "engel", "all"):
        assert name in text


def test_report_determinism_small():
    cfg1 = SuiteConfig(suite="lemma1", samples=8, seed=42)
    cfg2 = SuiteConfig(suite="lemma1", samples=8, seed=42)
    r1 = run_suite(cfg1).to_doc()
    r2 = run_suite(cfg2).to_doc()
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert json.dumps(r1) == json.dumps(r2)


def test_flag_model_scoping():
    assert main(["--model", "flag", "--suite", "theorem4", "--samples", "16",
                 "--quiet"]) == 0
    assert main(["--model", "flag", "--suite", "poisson", "--quiet"]) == 2


def test_summary_prints_the_measured_relation():
    """A failing check reads as the relation that holds, not as the pass
    criterion it missed."""
    nan = float("nan")
    rep = VerificationReport("demo", "torus", {}, [
        CheckRecord("le-pass", "ref", 1e-12, 1e-9, 8, True),
        CheckRecord("le-fail", "ref", 2e-9, 1e-9, 8, False),
        CheckRecord("exceeds-pass", "ref", 16.0, 8.0, 8, True, 0, {"mode": "exceeds"}),
        CheckRecord("exceeds-fail", "ref", 4.5e-4, 1e-3, 8, False, 0, {"mode": "exceeds"}),
        CheckRecord("le-nan", "ref", nan, 1e-9, 8, False),
        CheckRecord("exceeds-nan", "ref", nan, 1e-3, 8, False, 0, {"mode": "exceeds"}),
        CheckRecord("le-inf", "ref", float("inf"), 1e-9, 8, False),
    ])
    lines = {line.split("]")[1].split(":")[0].strip(): line
             for line in rep.summary().splitlines()[1:]}
    assert "residual 9.9999999999999998e-13 <= 1.0000000000000001e-09" in lines["le-pass"]
    assert "residual 2.0000000000000001e-09 > 1.0000000000000001e-09" in lines["le-fail"]
    assert "residual 16 > 8" in lines["exceeds-pass"]
    assert "residual 0.00044999999999999999 <= 0.001" in lines["exceeds-fail"]
    assert "residual nan (not finite)" in lines["le-nan"]
    assert "residual nan (not finite)" in lines["exceeds-nan"]
    assert "residual inf (not finite)" in lines["le-inf"]
    assert all(lines[k].lstrip().startswith("[FAIL]")
               for k in ("le-fail", "exceeds-fail", "le-nan", "exceeds-nan", "le-inf"))
