"""Each derived object of a bihermitian structure is built once per run: the
``BihermitianData`` and ``HermitianPair`` that own Q, the connections, the
Lee forms and the torsion forms are shared by every check that reads them.

The counts are of constructions and of evaluations that miss the memo, so
they are exact and do not depend on timing."""

from collections import Counter

import pytest

from pbhverify import structures, suites


@pytest.fixture
def counts(monkeypatch):
    """Connections built and Christoffel symbols evaluated (by kind), Lee
    forms solved, and conformal metrics built, during the runs of a test."""
    out = Counter()
    base = structures.Connection

    class Counted(base):
        def __init__(self, chart, gamma_fn, cost):
            kind = ("levi_civita" if gamma_fn.__qualname__.startswith("levi_civita.")
                    else "chern")
            out[kind] += 1

            def counted(jc):
                out["christoffel"] += 1
                return gamma_fn(jc)

            super().__init__(chart, counted, cost)

    def counter(key, fn):
        def counted(*args):
            out[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(structures, "Connection", Counted)
    monkeypatch.setattr(structures, "lee_form", counter("lee_form", structures.lee_form))
    monkeypatch.setattr(suites, "conformal_metric",
                        counter("conformal_metric", suites.conformal_metric))
    return out


def run(**config):
    report = suites.run_suite(suites.SuiteConfig(samples=16, seed=42, **config))
    assert all(c.passed for c in report.checks)


def test_poisson_builds_one_levi_civita_and_one_chern_connection(counts):
    """The bivector's holomorphicity, the cyclic Jacobi route and the Chern
    identities read the connections of one pair (4 Levi-Civita and 2 Chern
    connections, 6 Christoffel evaluations, when each built its own)."""
    run(suite="poisson", model="kodaira")
    assert (counts["levi_civita"], counts["chern"], counts["christoffel"]) == (1, 1, 2)


def test_lemma1_solves_each_lee_form_once(counts):
    """theta+ of the conformal pair, read by lee-form-equality and
    p-gradient-constant, is solved once: theta+, theta-, theta_K and theta_S
    (5 solves when the check wrapped (g, J+) again)."""
    run(suite="lemma1", model="kodaira")
    assert counts["lee_form"] == 4


def test_lemma1_and_engel_share_one_conformal_pair(counts):
    """An ``all`` run builds the conformal metric once, for both suites."""
    run(suite="all", model="torus", t=0.1)
    assert counts["conformal_metric"] == 1


@pytest.mark.parametrize("model", ["torus", "kodaira"])
def test_engel_differentiates_n_and_y_once(model, monkeypatch):
    """A 64-sample ``engel`` run differentiates N once, for the
    derivative-rule microscope, and Y along itself once, for the synthetic
    trichotomy (3 and 2 when the trichotomy also compared the derivative
    rule, whose result no check read, and the control with vanishing Lee
    forms took nabla_Y Y at no definitive point)."""
    out = Counter()
    for name in ("cov_deriv_endo", "nabla_vector"):
        def counted(self, *args, _name=name, _fn=getattr(structures.Connection, name)):
            out[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(structures.Connection, name, counted)
    report = suites.run_suite(suites.SuiteConfig(suite="engel", model=model,
                                                 samples=64, seed=42))
    assert all(c.passed for c in report.checks)
    assert (out["cov_deriv_endo"], out["nabla_vector"]) == (1, 1)
