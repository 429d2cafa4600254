"""Each derived object of a bihermitian structure is built once per run: the
``BihermitianData`` and ``HermitianPair`` that own Q, the connections, the
Lee forms, the torsion forms, the branch function and N± are shared by every
check that reads them.

The counts are of constructions and of evaluations that miss the memo, so
they are exact and do not depend on timing.  The audit wraps every Field
builder in every module that binds it, and fails when a run calls one
builder twice on the same inputs outside the allowlist."""

import sys
from collections import Counter, defaultdict
from functools import cached_property

import pytest

from pbhverify import structures, suites
from pbhverify.tensorcalc import Field

# module under pbhverify -> the Field builders it defines
BUILDERS = {
    "tensorcalc.calculus": ("exterior_derivative", "d_scalar", "wedge",
                            "interior_product", "pullback_linear", "nijenhuis_tensor"),
    "gencomplex": ("pairing", "courant_bracket", "apply_endo", "gcs_from_form",
                   "b_transform", "b_conjugate_endo", "gualtieri_build",
                   "gualtieri_extract"),
    "structures": ("fundamental_form", "lee_form", "levi_civita", "_branch"),
    "poisson": ("pi_bivector", "schouten_bb", "schouten_vb", "ddc_scalar"),
    "engel": ("lee_fields",),
    "models": ("complex_form", "j_minus", "conformal_metric", "flow_pullback_form"),
}
AUDIT_RUNS = (("all", "torus"), ("all", "kodaira"), ("engel", "kodaira"))

# (builder, calling function) -> why it may build twice on the same inputs
_DDC = ("theorem4's lambda fit and its ddc-commuting lemma each build dd^c of "
        "f o p1; perfbench/workloads.py calls the (u, v, phi, pts) signature of "
        "ddc_commuting_fields, so it cannot take the built form")
_OMEGA = "two owners of one frame constant: F of (g, J1) in the triple and in the pair"
ALLOWED = {
    ("ddc_scalar", "FlagBundle.lambda_fit"): _DDC,
    ("ddc_scalar", "ddc_commuting_fields"): _DDC,
    ("d_scalar", "ddc_scalar"): _DDC,
    ("fundamental_form", "ParaHyperTriple.omegas"): _OMEGA,
    ("fundamental_form", "HermitianPair.f"): _OMEGA,
}


def _caller(frame):
    """The function running ``frame``, past comprehensions and lambdas, as
    ``Class.method`` or ``function``."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    owner = frame.f_locals.get("self")
    name = frame.f_code.co_name
    return name if owner is None else f"{type(owner).__name__}.{name}"


def _key(value):
    """Numbers and strings by value, every other input by identity."""
    return value if isinstance(value, (int, float, str, type(None))) else id(value)


@pytest.fixture(scope="module")
def builds():
    """For each of ``AUDIT_RUNS`` (t = 0.1), the callers of each builder
    call, by (builder, inputs).  Every argument is held until the runs end,
    so no freed id is reused by a later, different input."""
    out, held, now = {}, [], None

    def wrap(name, fn):
        def built(*args, **kwargs):
            held.append((args, kwargs))
            key = (name, tuple(map(_key, args)),
                   tuple((k, _key(v)) for k, v in sorted(kwargs.items())))
            out[now][key].append(_caller(sys._getframe(1)))
            return fn(*args, **kwargs)

        return built

    modules = [m for name, m in sys.modules.items() if name.startswith("pbhverify")]
    with pytest.MonkeyPatch.context() as mp:
        for module, names in BUILDERS.items():
            for name in names:
                fn = getattr(sys.modules["pbhverify." + module], name)
                wrapped = wrap(name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            mp.setattr(m, attr, wrapped)
        for now in AUDIT_RUNS:
            out[now] = defaultdict(list)
            run(suite=now[0], model=now[1], t=0.1)
    return out


def _repeats(calls):
    """(builder, caller) for each caller of a build made twice on the same
    inputs."""
    return {(key[0], c) for key, callers in calls.items() if len(callers) > 1
            for c in callers}


def _count(calls, builder):
    return sum(len(callers) for key, callers in calls.items() if key[0] == builder)


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


def test_no_builder_repeats_an_input_outside_the_allowlist(builds):
    """The branch function, N± and the Example-2 wedges used to be built
    again by each reader (11 branch functions for 4 inputs, 16 wedges for
    10 in one ``all`` run)."""
    for run_key in (("all", "torus"), ("all", "kodaira")):
        bad = sorted(_repeats(builds[run_key]) - set(ALLOWED))
        assert not bad, (run_key, bad)


def test_the_allowlist_is_needed(builds):
    """Each allowlisted repeat still happens."""
    seen = _repeats(builds["all", "torus"]) | _repeats(builds["all", "kodaira"])
    assert set(ALLOWED) <= seen


def test_branch_functions_and_wedges_are_built_once_per_input(builds):
    """An ``all`` run builds 3 branch functions (f of the conformal and of
    the synthetic data, and p + sqrt(p^2 - 1) for the synthetic N+) and 10
    wedges; a kodaira ``engel`` run builds the same 3 branch functions."""
    torus = builds["all", "torus"]
    assert (_count(torus, "_branch"), _count(torus, "wedge")) == (3, 10)
    assert _count(builds["engel", "kodaira"], "_branch") == 3


FORMULAS = ("p", "branch", "k_endo", "q", "n_minus")


def test_derived_pair_fields_run_once_per_jet(monkeypatch):
    """In 64-sample kodaira ``engel`` and ``poisson`` runs, p, f, K, Q and
    N- of each pair run their jet formula once per distinct coordinate jet
    (p ran 20 times on 9 jets, f 11 on 8, K 13 on 8, Q 8 on 3 and N- 9 on
    8 when each read evaluated it again).  The count wraps the formula itself, beneath any memo or frame
    lift: the first field that ``frame_lift`` or ``memoized`` takes inside
    the owner's property, else the field the property returns.  A frame
    constant runs its formula once, at the zero point."""
    runs = Counter()  # (formula, owner, input jet) -> runs
    held = []  # every owner, so no freed id is reused
    building = []  # [formula name or None once counted, owner], innermost last
    memoized, frame_lift = Field.memoized, structures.frame_lift

    def count_formula(field):
        if building and building[-1][0] is not None:
            (name, data), fn = building[-1], field.fn
            building[-1][0] = None
            held.append(data)

            def counted(jc):
                runs[name, id(data), jc.order, jc.c.tobytes()] += 1
                return fn(jc)

            field.fn = counted
        return field

    def built(name, prop):
        def build(data):
            building.append([name, data])
            try:
                return count_formula(prop(data))
            finally:
                building.pop()

        wrapped = cached_property(build)
        wrapped.__set_name__(structures.BihermitianData, name)
        return wrapped

    monkeypatch.setattr(Field, "memoized", lambda f: memoized(count_formula(f)))
    monkeypatch.setattr(structures, "frame_lift",
                        lambda f, *inputs: frame_lift(count_formula(f), *inputs))
    for name in FORMULAS:
        prop = vars(structures.BihermitianData)[name].func
        monkeypatch.setattr(structures.BihermitianData, name, built(name, prop))
    for suite in ("engel", "poisson"):
        report = suites.run_suite(suites.SuiteConfig(suite=suite, model="kodaira",
                                                     samples=64, seed=42))
        assert all(c.passed for c in report.checks)
    assert {key[0] for key in runs} == set(FORMULAS)
    repeated = sorted({key[0] for key, n in runs.items() if n > 1})
    assert not repeated, repeated
