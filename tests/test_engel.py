"""Rank towers, the nilpotent endomorphisms and the distribution identities."""

import dataclasses

import numpy as np
import pytest

import jet_helpers
from jet_helpers import direction_audit, order_cuts
from pbhverify import engel, models, suites
from pbhverify.engel import (basis_identity_residuals, canonical_engel_span,
                             integrable_control_span, lee_fields,
                             nabla_n_rhs_residuals, other_control_span,
                             rank_tower, synthetic_data, theorem7_check)
from pbhverify.structures import BihermitianData, levi_civita
from pbhverify.tensorcalc import (Field, coordinate_vector, d_scalar,
                                  jet_coords, jet_prefix, jet_space, lie_bracket,
                                  zero_form)


@pytest.fixture(scope="module")
def synthetic(torus_model):
    return synthetic_data(torus_model.chart)


def test_rank_tower_controls(torus_model, torus_points):
    chart = torus_model.chart
    rep = rank_tower(canonical_engel_span(chart), torus_points)
    assert rep.verdict == "engel"
    assert np.all(rep.ranks == np.array([2, 3, 4]))
    rep2 = rank_tower(integrable_control_span(chart), torus_points)
    assert rep2.verdict == "integrable"
    assert np.all(rep2.ranks[:, :2] == 2)
    rep3 = rank_tower(other_control_span(chart), torus_points)
    assert rep3.verdict == "other"
    assert np.all(rep3.ranks == np.array([2, 3, 3]))


def test_degenerate_span_rejected(torus_model, torus_points):
    chart = torus_model.chart
    e1 = coordinate_vector(chart, 0)
    with pytest.raises(ValueError, match="degenerate span at point index 0"):
        rank_tower((e1, e1 * 2.0), torus_points)


def _lee_cases(model):
    """The conformally rescaled pair at constant p, and synthetic data."""
    t = model.triple
    return (lee_fields(BihermitianData(models.conformal_metric(model), t.j1,
                                       t.j1 * 1.25 + t.j2 * 0.75)),
            synthetic_data(model.chart))


def _spans(model, pts):
    """Every control span, and the Lee-field generators at the points where
    they span a plane."""
    out = [(span(model.chart), pts) for span in
           (canonical_engel_span, integrable_control_span, other_control_span)]
    for lf in _lee_cases(model):
        v = lf.values(pts)
        out.append(((lf.x, lf.y), pts[engel._rank_of(np.stack([v.x, v.y], axis=2)) == 2]))
    return out


@pytest.mark.parametrize("model_name", ["torus_model", "kodaira_model"])
def test_rank_tower_stacks_match_lie_bracket_fields(model_name, request, plan,
                                                    monkeypatch):
    """The columns rank_tower ranks, bracketed on one second-order jet per
    generator, equal bitwise the values of lie_bracket fields."""
    model = request.getfixturevalue(model_name)
    stacks, rank_of = [], engel._rank_of
    monkeypatch.setattr(engel, "_rank_of", lambda cols: stacks.append(cols) or rank_of(cols))
    for (x, y), pts in _spans(model, plan.sample(model.chart)):
        assert len(pts) > 8
        stacks.clear()
        rank_tower((x, y), pts)
        xy = lie_bracket(x, y)
        level1 = [x.eval(pts), y.eval(pts)]
        level2 = level1 + [xy.eval(pts)]
        level3 = level2 + [lie_bracket(x, xy).eval(pts), lie_bracket(y, xy).eval(pts)]
        assert len(stacks) == 3
        for got, want in zip(stacks, (level1, level2, level3)):
            assert np.array_equal(got, np.stack(want, axis=2))


def test_rank_tower_evaluates_each_generator_once(torus_model, torus_points):
    def counted(field, name, calls):
        def fn(jc):
            calls.append(name)
            return field.fn(jc)

        return Field(field.chart, field.kind, fn, cost=field.cost)

    for (x, y), pts in _spans(torus_model, torus_points):
        calls = []
        rank_tower((counted(x, "x", calls), counted(y, "y", calls)), pts)
        assert sorted(calls) == ["x", "y"]


def test_generators_invert_g_once(torus_model, kodaira_model, plan, monkeypatch):
    """X, Y and |theta+|^2 at one coordinate jet invert g once between them,
    at the generators' order: the inverse's argument is g's prefix there."""
    calls, inv = [], engel.jet_inv
    monkeypatch.setattr(engel, "jet_inv", lambda m: calls.append(m) or inv(m))
    for model in (torus_model, kodaira_model):
        jc = jet_coords(4, 3, plan.sample(model.chart))
        for lf in _lee_cases(model):
            calls.clear()
            for field in (lf.x, lf.y, lf.theta_norm_sq):
                field.fn(jc)
            assert len(calls) == 1
            want = jet_prefix(lf.data.g.fn(jc), jet_space(4, 3 - lf.x.cost))
            assert calls[0].space is want.space
            assert np.array_equal(calls[0].c, want.c)


def test_constant_p_near_degenerate_generators_inconclusive(monkeypatch):
    """Generators X and X + 1e-10 e2 have rank two for np.linalg.matrix_rank
    but rank one under the floor rank_tower applies: every point is
    inconclusive, and the suite does not raise."""
    make = suites.lee_fields

    def near_degenerate(*args, **kwargs):
        lf = make(*args, **kwargs)
        return dataclasses.replace(lf, y=lf.x + coordinate_vector(lf.x.chart, 1) * 1e-10)

    monkeypatch.setattr(suites, "lee_fields", near_degenerate)
    rep = suites.run_suite(suites.SuiteConfig(suite="engel", model="torus",
                                              samples=16, seed=42))
    check = next(c for c in rep.checks if c.name == "constant-p-integrable")
    assert (check.points, check.inconclusive) == (0, 16)


def test_frame_lift_falls_back_on_varying_structures(synthetic):
    """The synthetic J- varies and carries no frame constant, so p,
    sqrt(p^2 - 1), f, K and S keep their jet formulas although J+ is a
    frame constant."""
    data = synthetic.data
    assert data.jp.frame is not None and data.jm.frame is None
    for field in (data.p, data.s_root, data.branch, data.k_endo, data.s_endo):
        assert field.frame is None


def test_nilpotent_endos(torus_model, torus_points, synthetic):
    lf = synthetic
    n_plus, n_minus = lf.data.n_plus, lf.data.n_minus
    npv = n_plus.eval(torus_points)
    nmv = n_minus.eval(torus_points)
    # square-zero, rank two
    assert np.abs(npv @ npv).max() < 1e-12
    assert np.abs(nmv @ nmv).max() < 1e-12
    assert np.all(np.linalg.matrix_rank(npv) == 2)
    assert np.all(np.linalg.matrix_rank(nmv) == 2)
    # kernels are the eigenplanes of K
    kv = lf.data.k_endo.eval(torus_points)
    assert np.abs(npv @ (0.5 * (np.eye(4) - kv))).max() < 1e-12
    assert np.abs(nmv @ (0.5 * (np.eye(4) + kv))).max() < 1e-12
    # the eigenplanes meet trivially
    stacked = np.concatenate([0.5 * (np.eye(4) + kv), 0.5 * (np.eye(4) - kv)], axis=1)
    assert np.all(np.linalg.matrix_rank(stacked) == 4)


def test_basis_identities_synthetic(synthetic, torus_points):
    v = synthetic.values(torus_points)
    mask = v.definitive_mask()
    assert mask.sum() > 0
    res = basis_identity_residuals(v, mask)
    assert max(res.values()) < 1e-12


def test_gradient_identities_synthetic(synthetic, torus_points):
    lf = synthetic
    v = lf.values(torus_points)
    mask = v.definitive_mask()
    df = d_scalar(lf.data.branch).eval(torus_points)
    x, y, f, tn = v.x, v.y, v.f, v.theta_norm_sq
    assert np.abs(np.einsum("bi,bi->b", df, x))[mask].max() < 1e-12
    assert np.abs(np.einsum("bi,bi->b", df, y) + f * tn)[mask].max() < 1e-12


def test_generators_in_kernel(synthetic, torus_points):
    v = synthetic.values(torus_points)
    mask = v.definitive_mask()
    n_mat = (synthetic.data.jp.eval(torus_points)
             + v.f[:, None, None] * synthetic.data.jm.eval(torus_points))
    x, y = v.x, v.y
    assert np.abs(np.einsum("bij,bj->bi", n_mat, x))[mask].max() < 1e-12
    assert np.abs(np.einsum("bij,bj->bi", n_mat, y))[mask].max() < 1e-12


def test_derivative_chain_synthetic(synthetic, torus_points):
    v = synthetic.values(torus_points)
    res = nabla_n_rhs_residuals(v, mask=v.definitive_mask())
    assert res["(nabla_Y N)Y"] < 1e-12
    assert res["2(nabla_{J+Y} N)Y - 2pf|th|^2 Y"] < 1e-12
    assert res["N[X,Y] - f sqrt(p^2-1)|th|^2 Y"] < 1e-12
    assert res["N[X,Y] off Span(Y)"] < 1e-12


def test_derivative_rule_against_jets_conformal(torus_model, conformal_metric,
                                                torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    lf = lee_fields(BihermitianData(conformal_metric, t.j1, jm))
    v = lf.values(torus_points)
    dn = levi_civita(conformal_metric).cov_deriv_endo(lf.data.n_minus).eval(torus_points)
    res = nabla_n_rhs_residuals(v, mask=v.definitive_mask(), dn=dn)
    assert res["derivative-rule vs jets"] < 1e-12


def test_constant_p_distribution_integrable(torus_model, conformal_metric,
                                            torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    lf = lee_fields(BihermitianData(conformal_metric, t.j1, jm))
    mask = lf.values(torus_points).definitive_mask()
    rep = rank_tower((lf.x, lf.y), torus_points[mask])
    assert rep.verdict == "integrable"


def test_degenerate_theta_inconclusive(torus_model, torus_points, synthetic):
    zero = zero_form(torus_model.chart, 1)
    rep = theorem7_check(lee_fields(synthetic.data, zero, zero), torus_points[:8])
    assert rep.counts() == {"inconclusive": 8}


def test_theorem7_reports_hypothesis_residual(synthetic, torus_points):
    rep = theorem7_check(synthetic, torus_points[:8])
    assert rep.theta_sum < 1e-12
    assert len(rep.verdicts) == 8
    assert set(rep.verdicts) <= {"geodesic", "engel", "other", "inconclusive"}


def test_frame_completeness(synthetic, torus_points):
    v = synthetic.values(torus_points)
    mask = v.definitive_mask()
    x, y = v.x, v.y
    jp = synthetic.data.jp.eval(torus_points)
    frame = np.stack([x, y, np.einsum("bij,bj->bi", jp, x),
                      np.einsum("bij,bj->bi", jp, y)], axis=2)
    assert np.all(np.linalg.matrix_rank(frame[mask]) == 4)
    assert np.array_equal(v.frame()[0], frame)
    assert np.all(v.frame()[1][mask] == 4)


def test_derivative_chain_evaluates_k_once(synthetic, torus_points, monkeypatch):
    """The record and the chain with the jet comparison evaluate K once
    (each nabla_n used to evaluate it again, 20 times per call)."""
    lf = synthetic
    k, calls = lf.data.k_endo, []
    field_eval = Field.eval

    def spy(field, pts):
        if field is k:
            calls.append(len(pts))
        return field_eval(field, pts)

    monkeypatch.setattr(Field, "eval", spy)
    dn = levi_civita(lf.data.g).cov_deriv_endo(lf.data.n_minus).eval(torus_points)
    nabla_n_rhs_residuals(lf.values(torus_points), dn=dn)
    assert calls == [len(torus_points)]


def test_synthetic_j_minus_is_evaluated_once_per_coordinate_jet(monkeypatch):
    """A kodaira ``engel`` run evaluates the synthetic J- closure once per
    distinct coordinate jet: 6 times (47 before it was memoized, 8 while the
    degenerate control built a J- of its own, 7 while the Lee-form
    generators and theta+ evaluated K at the order-3 coordinate jet)."""
    calls = []
    make = engel.endo_field

    def spy(chart, fn, *args, **kwargs):
        if fn.__name__ == "jm_fn":
            inner = fn

            def fn(jc):
                calls.append((jc.c.shape, jc.order))
                return inner(jc)
        return make(chart, fn, *args, **kwargs)

    monkeypatch.setattr(engel, "endo_field", spy)
    suites.run_suite(suites.SuiteConfig(suite="engel", model="kodaira", seed=42))
    assert len(calls) == 6


# the closures that multiply operands they never differentiate: each
# evaluates those at the order its result keeps (``Field.fn_at``)
OPERAND_SITES = {"engel:lee_fields.<locals>.fn",
                 "engel:synthetic_data.<locals>.theta_fn",
                 "structures:levi_civita.<locals>.gamma_fn",
                 "structures:HermitianPair.chern.<locals>.gamma_fn"}


def test_operands_are_evaluated_at_the_order_they_keep():
    """In a kodaira ``engel`` run no jet product of the Lee-form generators,
    of the synthetic theta+ or of the Christoffel symbols cuts an operand
    that is not constant (they used to evaluate g^-1, N- and K at order 3
    for an order-2 result); the brackets of the rank tower still cut, since
    they differentiate the generators they multiply."""
    with order_cuts() as cuts:
        suites.run_suite(suites.SuiteConfig(suite="engel", model="kodaira", seed=42))
    callers = {caller for caller, _, _ in cuts}
    assert "calculus:bracket_jets" in callers
    assert not callers & OPERAND_SITES


def test_order_cut_table_prints(capsys):
    """``python tests/jet_helpers.py --suite engel --model kodaira`` prints
    the cut table of that run, one (caller, from, to) row with its count."""
    jet_helpers.main(["--suite", "engel", "--model", "kodaira"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["caller", "from", "to", "cuts"]
    assert rows and all(len(row.split()) == 4 for row in rows)
    assert any(row.split()[:3] == ["calculus:bracket_jets", "2", "1"] for row in rows)


def test_wide_products_take_the_rows_of_their_directions():
    """Every field of the kodaira conformal pair depends on x1 alone, so in
    a kodaira ``engel`` run the two order-3 ``J^T g`` products of
    ``fundamental_form`` take the x1 rows of ``pairs(1, 3)``, 7 of 95, and
    the ``_scale`` product of the conformal metric the x1 rows of the full
    table, 10 of 165.  Torus ``courant`` and ``gpk-example2`` at t = 0.1
    multiply no order-3 jets, and take no cut table."""
    with direction_audit() as records:
        suites.run_suite(suites.SuiteConfig(suite="engel", model="kodaira", seed=42))
    used = [r[:7] for r in records if r[7]]
    assert used.count(("jeinsum", "structures:fundamental_form.<locals>.fn",
                       4, 3, 1, 7, 95)) == 2
    assert used.count(("mul", "models:conformal_metric.<locals>.fn", 4, 3, 1, 10, 165)) == 1
    for suite, t in (("courant", 0.0), ("gpk-example2", 0.1)):
        with direction_audit() as records:
            suites.run_suite(suites.SuiteConfig(suite=suite, model="torus", seed=42, t=t))
        assert records and not any(r[7] for r in records)


def test_direction_table_prints(capsys):
    """``python tests/jet_helpers.py --suite engel --model kodaira
    --directions`` prints the direction audit of that run, one (kernel,
    caller, dim, order, bits, kept, rows, used) row with its count."""
    jet_helpers.main(["--suite", "engel", "--model", "kodaira", "--directions"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["kernel", "caller", "dim", "order", "bits", "kept",
                              "rows", "used", "products"]
    assert rows and all(len(row.split()) == 9 for row in rows)
    assert ["jeinsum", "structures:fundamental_form.<locals>.fn", "4", "3", "1", "7",
            "95", "True", "2"] in [row.split() for row in rows]
