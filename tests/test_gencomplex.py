"""Split-space sections, Courant brackets, the spinor-line structures and
the block construction/extraction."""

import numpy as np
import pytest

from model_helpers import example2_params
from pbhverify.gencomplex import (_join, apply_endo, b_conjugate_endo,
                                  b_transform, check_gpk_pair,
                                  coordinate_sections, courant_bracket,
                                  endo_conditions, gcs_from_form, gcs_nijenhuis,
                                  gualtieri_build, gualtieri_extract, pairing,
                                  pairing_matrix, random_poly_sections,
                                  random_poly_two_form, validate_twist)
from pbhverify.models import example2_build, hamiltonian_deform
from pbhverify.structures import DegeneracyError, max_abs
from pbhverify.suites import SuiteConfig, run_suite
from pbhverify.tensorcalc import (DomainError, Field, exterior_derivative,
                                  form_field, interior_product, oneform_field,
                                  vector_field, coordinate_vector)
from pbhverify.tensorcalc.calculus import _stack
from pbhverify.tensorcalc.fields import _broadcast_const
from pbhverify.tensorcalc.jets import Jet


def constant_form(chart, k, combo_values):
    v = np.asarray(combo_values)
    return form_field(chart, k, lambda jc: _broadcast_const(jc, v))


def section(vec, form):
    """The section X + xi of T + T* from a vector field and a 1-form field."""
    return Field(vec.chart, "section", lambda jc: _join(vec.fn(jc), form.fn(jc)),
                 cost=max(vec.cost, form.cost))


def test_pairing_trivials(torus_model, torus_points):
    secs = coordinate_sections(torus_model.chart)
    assert np.abs(pairing(secs[0], secs[4]).eval(torus_points) - 0.5).max() == 0.0
    a = secs[0] + secs[5]
    b = secs[1] + secs[4]
    assert np.abs(pairing(a, b).eval(torus_points) - 1.0).max() == 0.0
    p = pairing_matrix(4)
    vals = np.linalg.eigvalsh(p)
    assert (vals > 0).sum() == 4 and (vals < 0).sum() == 4


def test_courant_bracket_oracles(torus_model, torus_points):
    chart = torus_model.chart
    secs = coordinate_sections(chart)
    br0 = courant_bracket(secs[0], secs[1]).eval(torus_points)
    assert max_abs(br0[:, :4]) == 0.0
    assert max_abs(br0[:, 4:]) == 0.0

    def x1dx2(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, jc[:, 0], z, z])

    s2 = section(
        vector_field(chart, lambda jc: _stack([jc[:, 0] * 0.0] * 4)),
        oneform_field(chart, x1dx2))
    br = courant_bracket(secs[0], s2)
    expected = np.zeros(4)
    expected[1] = 1.0
    brv = br.eval(torus_points)
    assert max_abs(brv[:, :4]) == 0.0
    assert np.abs(brv[:, 4:] - expected).max() == 0.0
    # antisymmetry
    rev = courant_bracket(s2, secs[0])
    assert max_abs((br + rev).eval(torus_points)[:, 4:]) == 0.0


def test_twist_validation(torus_model, torus_points):
    b2 = random_poly_two_form(torus_model.chart, 5)
    db = exterior_derivative(b2)
    assert validate_twist(db, torus_points) < 1e-12
    with pytest.raises(ValueError):
        validate_twist(b2, torus_points)  # a generic 2-form-as-3-form is wrong
    # non-closed 3-form rejected
    from pbhverify.tensorcalc import form_field as ff

    def bad(jc):
        z = jc[:, 0] * 0.0
        comps = [z] * 4
        comps[0] = jc[:, 3] * jc[:, 0]
        return _stack(comps)

    with pytest.raises(ValueError):
        validate_twist(ff(torus_model.chart, 3, bad), torus_points)


def test_b_transform_naturality(torus_model, torus_points):
    chart = torus_model.chart
    secs = coordinate_sections(chart)
    worst = 0.0
    for s in range(8):
        b2 = random_poly_two_form(chart, 100 + s)
        db = exterior_derivative(b2)
        for (sa, sb) in [(secs[0], secs[1]), (secs[0], secs[5]),
                         (secs[0] + secs[5], secs[1] + secs[4])]:
            lhs = courant_bracket(b_transform(sa, b2), b_transform(sb, b2))
            rhs = b_transform(courant_bracket(sa, sb, db), b2)
            diff = (lhs - rhs).eval(torus_points)
            worst = max(worst, max_abs(diff[:, :4]), max_abs(diff[:, 4:]))
    assert worst < 1e-9


def test_symplectic_structure_blocks(torus_model, torus_points):
    chart = torus_model.chart
    om = constant_form(chart, 2, [1.0, 0, 0, 0, 0, 1.0])

    def beta_fn(jc):
        v = om.fn(jc)
        return Jet(v.space, v.c.astype(np.complex128) * 1j, v.order)

    i_om = gcs_from_form(form_field(chart, 2, beta_fn))
    sq, pres = endo_conditions(i_om, torus_points)
    assert sq == 0.0 and pres == 0.0
    iv = i_om.eval(torus_points)[0]
    om_full = np.zeros((4, 4))
    om_full[0, 1] = om_full[2, 3] = 1.0
    om_full -= om_full.T
    omap = om_full.T  # X -> i_X om
    assert np.abs(iv[:4, 4:] + np.linalg.inv(omap)).max() < 1e-14
    assert np.abs(iv[4:, :4] - omap).max() < 1e-14
    assert np.abs(iv[:4, :4]).max() == 0.0
    assert gcs_nijenhuis(i_om, None, torus_points[:4]) < 1e-13


def test_degenerate_imaginary_part_rejected(torus_model, torus_points):
    chart = torus_model.chart
    om = constant_form(chart, 2, [1.0, 0, 0, 0, 0, 0.0])  # rank 2 only

    def beta_fn(jc):
        v = om.fn(jc)
        return Jet(v.space, v.c.astype(np.complex128) * 1j, v.order)

    bad = gcs_from_form(form_field(chart, 2, beta_fn))
    with pytest.raises(DegeneracyError):
        bad.eval(torus_points)


def test_gcs_nijenhuis_refuses_points_outside_the_chart(torus_bundle, torus_points):
    """``gcs_nijenhuis`` checks its points against the chart box first."""
    i1 = gcs_from_form(torus_bundle.beta1)
    outside = np.array([[99.0, 0.0, 0.0, 0.0]])
    assert not torus_bundle.chart.contains(outside).any()
    with pytest.raises(DomainError):
        gcs_nijenhuis(i1, None, np.concatenate([torus_points[:2], outside]))


def test_example2_pair_and_eigenspace_roundtrip(torus_bundle, torus_points):
    i1 = gcs_from_form(torus_bundle.beta1)
    i2 = gcs_from_form(torus_bundle.beta2)
    assert max(endo_conditions(i1, torus_points)) < 1e-12
    assert max(endo_conditions(i2, torus_points)) < 1e-12
    assert gcs_nijenhuis(i1, None, torus_points[:4]) < 1e-12
    res = check_gpk_pair(i1, i2, torus_points, 1e-9)
    assert res.ok
    assert res.residuals["rank_L+"] == 4.0
    assert res.residuals["min_principal_angle"] > 1e-6
    assert res.residuals["min_pairing_singular_value"] > 1e-8

    chart = torus_bundle.chart
    worst = 0.0
    for i in range(4):
        x = coordinate_vector(chart, i)
        sec = section(x, -interior_product(x, torus_bundle.beta1))
        applied = apply_endo(i1, sec)
        rv = applied.eval(torus_points) - 1j * sec.eval(torus_points)
        worst = max(worst, float(np.abs(rv).max()))
    assert worst < 1e-12


def test_nonclosed_negative_control(torus_bundle, torus_points):
    from pbhverify.models import complex_form
    chart = torus_bundle.chart

    def bad_imag(jc):
        base = torus_bundle.omega_plus.fn(jc)
        pert = base.c.copy()
        pert[:, 0] = (base[:, 0] + jc[:, 2] * 0.5).c
        return Jet(base.space, pert, base.order)

    bad_beta = complex_form(torus_bundle.f_k,
                            form_field(chart, 2, bad_imag))
    i_bad = gcs_from_form(bad_beta)
    assert gcs_nijenhuis(i_bad, None, torus_points[:4]) > 1e-3


def test_nan_in_structure_fails_closed(torus_bundle, torus_points, monkeypatch):
    """A NaN in one entry of I at one point makes the residual NaN, and the
    recorded integrability check fails."""
    from pbhverify import suites
    build = suites.gcs_from_form

    def poisoned(beta):
        i_field = build(beta)

        def fn(jc):
            out = i_field.fn(jc).copy()
            out.c[3, 1, 6, 0] = np.nan
            return out

        return Field(i_field.chart, "tensor", fn, cost=i_field.cost)

    assert np.isnan(gcs_nijenhuis(poisoned(torus_bundle.beta1), None,
                                  torus_points[:4]))
    monkeypatch.setattr(suites, "gcs_from_form", poisoned)
    rep = run_suite(SuiteConfig(suite="courant", model="torus", samples=8, seed=42))
    check = {c.name: c for c in rep.checks}["closed-form-integrability"]
    assert not check.passed


def test_nan_in_pair_fails_closed(torus_bundle, torus_points, monkeypatch):
    """A NaN in one entry of I1 at one of 16 points fails the pair at the
    commutation clause instead of reaching the SVD, and the recorded
    pair-compatibility check fails."""
    from pbhverify import suites
    build = suites.gcs_from_form
    calls = []

    def poisoned(beta):
        i_field = build(beta)
        calls.append(beta)
        if len(calls) > 1:  # only the first structure, built from beta1
            return i_field

        def fn(jc):
            out = i_field.fn(jc).copy()
            out.c[3, 1, 6, 0] = np.nan
            return out

        return Field(i_field.chart, "tensor", fn, cost=i_field.cost)

    assert len(torus_points) == 16
    res = check_gpk_pair(poisoned(torus_bundle.beta1), build(torus_bundle.beta2),
                         torus_points, 1e-9)
    assert not res.ok and res.failed_clause == "commute"
    calls.clear()
    monkeypatch.setattr(suites, "gcs_from_form", poisoned)
    rep = run_suite(SuiteConfig(suite="gpk-example2", model="torus", samples=16,
                                seed=42))
    check = {c.name: c for c in rep.checks}["pair-compatibility"]
    assert not check.passed


def test_failed_pair_reports_its_clause_and_point(monkeypatch):
    """I1 perturbed at one of 16 points no longer commutes with I2 there:
    the pair-compatibility record names the commutation clause and that
    point, and both survive the JSON round trip.  A passing record carries
    neither."""
    from pbhverify import suites
    from report_helpers import report_from_json
    build = suites.gcs_from_form
    config = SuiteConfig(suite="gpk-example2", model="torus", samples=16, seed=42)
    passing = {c.name: c for c in run_suite(config).checks}["pair-compatibility"]
    assert passing.passed
    assert "failed_clause" not in passing.extra and "point_index" not in passing.extra
    calls = []

    def skewed(beta):
        i_field = build(beta)
        calls.append(beta)
        if len(calls) > 1:  # only the first structure, built from beta1
            return i_field

        def fn(jc):
            out = i_field.fn(jc).copy()
            out.c[5, 0, 1, 0] += 0.5
            return out

        return Field(i_field.chart, "tensor", fn, cost=i_field.cost)

    monkeypatch.setattr(suites, "gcs_from_form", skewed)
    rep = run_suite(config)
    check = {c.name: c for c in rep.checks}["pair-compatibility"]
    assert not check.passed and check.extra["commute"] > 0.1
    assert check.extra["failed_clause"] == "commute"
    assert check.extra["point_index"] == 5
    back = {c.name: c for c in report_from_json(rep.to_json()).checks}
    assert back["pair-compatibility"].extra == check.extra


def test_integrability_on_polynomial_sections(torus_bundle, torus_points):
    i1 = gcs_from_form(torus_bundle.beta1)
    secs = random_poly_sections(torus_bundle.chart, 8, 17)
    assert gcs_nijenhuis(i1, None, torus_points[:4], extra_sections=secs) < 1e-12


def test_classical_degenerate_case(torus_model, torus_points):
    g = torus_model.triple.g
    j = torus_model.triple.j1
    c1, c2 = gualtieri_build(g, j, j)
    v1 = c1.eval(torus_points)
    # complex-type: diagonal blocks only, untwisted-integrable
    assert np.abs(v1[:, :4, 4:]).max() < 1e-14
    assert np.abs(v1[:, 4:, :4]).max() < 1e-14
    assert gcs_nijenhuis(c1, None, torus_points[:3]) < 1e-13
    v2 = c2.eval(torus_points)
    assert np.abs(v2[:, :4, :4]).max() < 1e-14
    res = check_gpk_pair(c1, c2, torus_points, 1e-9)
    assert res.ok
    # eigenbundles are the +-graphs of the metric
    gmat = g.eval(torus_points)
    gg = v1 @ v2
    a = gg[:, :4, :4]
    bb = gg[:, :4, 4:]
    c_plus = np.linalg.solve(bb, np.eye(4)[None] - a)
    c_minus = np.linalg.solve(bb, -np.eye(4)[None] - a)
    assert np.abs(c_plus + gmat).max() < 1e-13
    assert np.abs(c_minus - gmat).max() < 1e-13


def test_block_construction_and_matched_cross_validation(torus_bundle,
                                                         torus_points):
    b = torus_bundle
    g1, g2 = gualtieri_build(b.g, b.data.jp, b.data.jm)
    assert max(endo_conditions(g1, torus_points)) < 1e-12
    assert gcs_nijenhuis(g1, None, torus_points[:3]) < 1e-12
    assert check_gpk_pair(g1, g2, torus_points, 1e-9).ok
    # round trip through extraction
    data, be = gualtieri_extract(g1, g2)
    ge, jpe, jme = data.g, data.jp, data.jm
    assert np.abs(ge.eval(torus_points) - b.g.eval(torus_points)).max() < 1e-13
    assert max_abs(be.eval(torus_points)) < 1e-13
    assert np.abs(jpe.eval(torus_points) - b.data.jp.eval(torus_points)).max() < 1e-13
    assert np.abs(jme.eval(torus_points) - b.data.jm.eval(torus_points)).max() < 1e-13

    # the spinor-line pair equals the block pair on the matched quadruple
    a = 1.25
    root = float(np.sqrt(a * a - 1.0))
    i1 = gcs_from_form(b.beta1)
    i2 = gcs_from_form(b.beta2)
    m1, m2 = (b_conjugate_endo(m, b.f_k * a) for m in
              gualtieri_build(b.g * (-root), b.data.jm * (-1.0), b.data.jp * (-1.0)))
    assert np.abs(i1.eval(torus_points) - m1.eval(torus_points)).max() < 1e-12
    assert np.abs(i2.eval(torus_points) - m2.eval(torus_points)).max() < 1e-12
    g_beta = i1.eval(torus_points) @ i2.eval(torus_points)
    g_block = m1.eval(torus_points) @ m2.eval(torus_points)
    assert np.abs(g_beta - g_block).max() < 1e-12


def test_conjugation_twist_shift(torus_bundle, torus_points):
    i1 = gcs_from_form(torus_bundle.beta1)
    b2 = random_poly_two_form(torus_bundle.chart, 119)
    db = exterior_derivative(b2)
    conj = b_conjugate_endo(i1, b2)
    assert gcs_nijenhuis(conj, -db, torus_points[:3]) < 1e-12
    conj2 = b_conjugate_endo(i1, -b2)
    assert gcs_nijenhuis(conj2, db, torus_points[:3]) < 1e-12


def test_gcs_nijenhuis_brackets_at_degree_0(torus_bundle, torus_points, monkeypatch):
    """Every operand of every Courant bracket in ``gcs_nijenhuis``, twisted
    and untwisted, is a jet of ``jet_space(d, 0)``: the residual reads only
    values, so the brackets run on the values of the prepared stacks."""
    from pbhverify import gencomplex
    from pbhverify.tensorcalc import jet_space
    courant, calls = gencomplex._courant, []

    def spy(pa, pb, h, d):
        calls.append((*pa, *pb, h))
        return courant(pa, pb, h, d)

    monkeypatch.setattr(gencomplex, "_courant", spy)
    chart = torus_bundle.chart
    i1 = gcs_from_form(torus_bundle.beta1)
    b2 = random_poly_two_form(chart, 119)
    secs = random_poly_sections(chart, 2, 31)
    for i_field, h in ((i1, None),
                       (b_conjugate_endo(i1, b2), -exterior_derivative(b2))):
        calls.clear()
        gcs_nijenhuis(i_field, h, torus_points[:3], secs)
        assert len(calls) == 4  # four brackets, all 45 pairs in each
        operands = [x for call in calls for x in call if x is not None]
        assert len(operands) == len(calls) * (6 if h is None else 7)
        assert all(x.space is jet_space(4, 0) and x.order == 0 for x in operands)


@pytest.mark.parametrize("coeff", [0, 1, 3])
def test_nan_in_a_section_reaches_the_residual(torus_bundle, torus_points, coeff):
    """A NaN in one section's value (coefficient 0) or first partial
    (d_1, d_3) at one point makes the residual NaN: the degree-0 brackets
    read both."""
    i1 = gcs_from_form(torus_bundle.beta1)
    base = random_poly_sections(torus_bundle.chart, 1, 31)[0]

    def fn(jc):
        out = base.fn(jc).copy()
        out.c[1, 5, coeff] = np.nan
        return out

    sec = Field(base.chart, "section", fn)
    assert np.isnan(gcs_nijenhuis(i1, None, torus_points[:3], [sec]))


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("coeff", [0, 1, 3])
def test_nan_in_the_last_section_reaches_the_residual(torus_bundle, torus_points,
                                                      coeff, twisted):
    """A NaN in only the last of eleven sections, in its value (coefficient
    0) or a first partial (d_1, d_3) at one point, makes the residual NaN,
    untwisted and twisted by -d b: the one batch over the pairs i < j
    reaches the last section, which only the pairs (i, S - 1) hold."""
    chart = torus_bundle.chart
    i_field, h = gcs_from_form(torus_bundle.beta1), None
    if twisted:
        b2 = random_poly_two_form(chart, 119)
        i_field, h = b_conjugate_endo(i_field, b2), -exterior_derivative(b2)
    *secs, last = random_poly_sections(chart, 3, 31)

    def fn(jc):
        out = last.fn(jc).copy()
        out.c[1, 5, coeff] = np.nan
        return out

    pts = torus_points[:3]
    assert gcs_nijenhuis(i_field, h, pts, [*secs, last]) < 1e-12
    assert np.isnan(gcs_nijenhuis(i_field, h, pts, [*secs, Field(chart, "section", fn)]))


def test_gcs_nijenhuis_memory_guard():
    """Each bracket gathers its two prepared stacks over the section pairs
    when it runs: the traced peak of one 16-section, 8-point torus
    closed-form-integrability call stays under 2 MiB (gathering all four
    stacks up front peaks at about 2.4 MiB)."""
    import tracemalloc
    from pbhverify.suites import SuiteContext
    ctx = SuiteContext(SuiteConfig(suite="courant", model="torus", seed=42))
    secs = random_poly_sections(ctx.model.chart, 8, 42 + 31)
    tracemalloc.start()
    try:
        gcs_nijenhuis(ctx.gcs_pair[0], None, ctx.points()[:8], extra_sections=secs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_deformed_pair_and_extraction(torus_model, plan):
    pts = plan.sample(torus_model.chart)
    bundle = example2_build(torus_model,
                            example2_params(t=0.1, f_expr="sin2", step=1e-3), plan)
    deformed = hamiltonian_deform(bundle, plan)
    i1 = gcs_from_form(deformed.gamma1)
    i2 = gcs_from_form(deformed.gamma2)
    res = check_gpk_pair(i1, i2, pts, tol_commute=1e-6)
    assert res.ok
    assert gcs_nijenhuis(i1, None, pts[:4]) < 1e-6
    data_t, _ = gualtieri_extract(i1, i2)
    jpe, jme = data_t.jp, data_t.jm
    p_t = np.trace(jpe.eval(pts) @ jme.eval(pts), axis1=1, axis2=2) / 4.0
    assert p_t.max() < -1.0  # strictly one-sided, nonconstant
    assert p_t.std() > 1e-3
    jv = jpe.eval(pts)
    assert np.abs(jv @ jv + np.eye(4)).max() < 1e-10
    # gradient identity for the trace pairing on the deformed quadruple
    from pbhverify.structures import check_p_gradient
    assert check_p_gradient(data_t, pts[:8]) < 1e-6


# -- the stacked courant-suite checks: mutants and work count ----------------


def courant_run(monkeypatch, seed=42, **patches):
    from pbhverify import suites
    for name, value in patches.items():
        monkeypatch.setattr(suites, name, value)
    rep = run_suite(SuiteConfig(suite="courant", model="torus", seed=seed))
    return {c.name: c for c in rep.checks}


@pytest.mark.parametrize("seed, reading", [(42, 1.9433), (7, 1.6466)])
def test_naturality_check_sees_a_flipped_shear(monkeypatch, seed, reading):
    """A b_transform that adds -i_X b is natural for the twist -db, not db:
    the batched b-transform-naturality check fails, and nothing else."""
    checks = courant_run(monkeypatch, seed,
                         b_transform=lambda a, b2: b_transform(a, -b2))
    nat = checks.pop("b-transform-naturality")
    assert not nat.passed and nat.residual == pytest.approx(reading, abs=1e-4)
    assert all(c.passed for c in checks.values())


@pytest.mark.parametrize("seed", [42, 7])
def test_pairing_check_sees_a_scaled_structure(monkeypatch, seed):
    """Scaling I(A) by 1.001 scales the pairing of the images by 1.001^2:
    the batched pairing-preservation check reads 0.5 * 0.002001 and fails."""
    checks = courant_run(monkeypatch, seed,
                         apply_endo=lambda i, a: apply_endo(i, a) * 1.001)
    pres = checks.pop("pairing-preservation")
    assert not pres.passed and pres.residual == pytest.approx(1.0005e-3, rel=1e-9)
    assert all(c.passed for c in checks.values())


def test_courant_suite_work_count(monkeypatch):
    """Deterministic work guard on one torus ``courant`` run: the
    naturality check evaluates once per random 2-form (8 stacked brackets
    of four section pairs, plus 8 twist validations) and the pairing check
    once for all frame-section pairs.  Of the 32 field evaluations, the
    model's certification takes 11 (see
    ``test_kodaira_certification_work_count``; 21 when each residual
    evaluated the triple again)."""
    from pbhverify import gencomplex
    evals, brackets = [], []
    eval_jet, courant = Field.eval_jet, gencomplex._courant

    def counted_eval(field, *args, **kwargs):
        evals.append(field)
        return eval_jet(field, *args, **kwargs)

    def counted_courant(*args):
        brackets.append(args)
        return courant(*args)

    monkeypatch.setattr(Field, "eval_jet", counted_eval)
    monkeypatch.setattr(gencomplex, "_courant", counted_courant)
    assert all(c.passed for c in courant_run(monkeypatch).values())
    assert (len(evals), len(brackets)) == (32, 32)
