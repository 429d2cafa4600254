"""Rank towers, the nilpotent endomorphisms and the distribution identities."""

import numpy as np
import pytest

from pbhverify.engel import (DistributionSpan, basis_identity_residuals,
                             canonical_engel_span, integrable_control_span,
                             lee_fields, n_endos, nabla_n_rhs_residuals,
                             other_control_span, rank_tower, synthetic_data,
                             theorem7_check)
from pbhverify.structures import levi_civita
from pbhverify.tensorcalc import Field, coordinate_vector, d_scalar


@pytest.fixture(scope="module")
def synthetic(torus_model, torus_points):
    t = torus_model.triple
    qf = (t.j1.eval(torus_points[:1])[0], t.j2.eval(torus_points[:1])[0],
          t.j3.eval(torus_points[:1])[0])
    return synthetic_data(torus_model.chart, qf, np.diag([1.0, 1.0, -1.0, -1.0]))


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
    span = DistributionSpan([e1, e1 * 2.0], expected_rank=2)
    with pytest.raises(ValueError):
        rank_tower(span, torus_points)


def test_nilpotent_endos(torus_model, torus_points, synthetic):
    lf = synthetic.lee()
    n_plus, n_minus = n_endos(synthetic.jp, synthetic.jm, lf.data.p)
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
    lf = synthetic.lee()
    mask = lf.definitive_mask(torus_points)
    assert mask.sum() > 0
    res = basis_identity_residuals(lf, torus_points, mask)
    assert max(res.values()) < 1e-12


def test_gradient_identities_synthetic(synthetic, torus_points):
    lf = synthetic.lee()
    mask = lf.definitive_mask(torus_points)
    df = d_scalar(lf.f_field).eval(torus_points)
    x = lf.x.eval(torus_points)
    y = lf.y.eval(torus_points)
    f = lf.f_field.eval(torus_points)
    tn = lf.theta_norm_sq.eval(torus_points)
    assert np.abs(np.einsum("bi,bi->b", df, x))[mask].max() < 1e-12
    assert np.abs(np.einsum("bi,bi->b", df, y) + f * tn)[mask].max() < 1e-12


def test_generators_in_kernel(synthetic, torus_points):
    lf = synthetic.lee()
    mask = lf.definitive_mask(torus_points)
    f = lf.f_field.eval(torus_points)
    n_mat = synthetic.jp.eval(torus_points) + f[:, None, None] * synthetic.jm.eval(torus_points)
    x = lf.x.eval(torus_points)
    y = lf.y.eval(torus_points)
    assert np.abs(np.einsum("bij,bj->bi", n_mat, x))[mask].max() < 1e-12
    assert np.abs(np.einsum("bij,bj->bi", n_mat, y))[mask].max() < 1e-12


def test_derivative_chain_synthetic(synthetic, torus_points):
    lf = synthetic.lee()
    mask = lf.definitive_mask(torus_points)
    res = nabla_n_rhs_residuals(lf, torus_points, mask=mask)
    assert res["(nabla_Y N)Y"] < 1e-12
    assert res["2(nabla_{J+Y} N)Y - 2pf|th|^2 Y"] < 1e-12
    assert res["N[X,Y] - f sqrt(p^2-1)|th|^2 Y"] < 1e-12
    assert res["N[X,Y] off Span(Y)"] < 1e-12


def test_derivative_rule_against_jets_conformal(torus_model, conformal_metric,
                                                torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    lf = lee_fields(conformal_metric, t.j1, jm)
    mask = lf.definitive_mask(torus_points)
    conn = levi_civita(conformal_metric)
    res = nabla_n_rhs_residuals(lf, torus_points, connection=conn, mask=mask)
    assert res["derivative-rule vs jets"] < 1e-12


def test_constant_p_distribution_integrable(torus_model, conformal_metric,
                                            torus_points):
    t = torus_model.triple
    jm = t.j1 * 1.25 + t.j2 * 0.75
    lf = lee_fields(conformal_metric, t.j1, jm)
    mask = lf.definitive_mask(torus_points)
    rep = rank_tower(lf.span, torus_points[mask])
    assert rep.verdict == "integrable"


def test_degenerate_theta_inconclusive(torus_model, torus_points):
    t = torus_model.triple
    qf = (t.j1.eval(torus_points[:1])[0], t.j2.eval(torus_points[:1])[0],
          t.j3.eval(torus_points[:1])[0])
    syn0 = synthetic_data(torus_model.chart, qf, np.diag([1.0, 1.0, -1.0, -1.0]),
                          degenerate=True)
    rep = theorem7_check(syn0.lee(), torus_points[:8])
    assert rep.counts() == {"inconclusive": 8}


def test_theorem7_reports_hypothesis_residual(synthetic, torus_points):
    rep = theorem7_check(synthetic.lee(), torus_points[:8])
    assert rep.extras["theta+ + theta-"] < 1e-12
    assert len(rep.verdicts) == 8
    assert set(rep.verdicts) <= {"geodesic", "engel", "other", "inconclusive"}


def test_frame_completeness(synthetic, torus_points):
    lf = synthetic.lee()
    mask = lf.definitive_mask(torus_points)
    x = lf.x.eval(torus_points)
    y = lf.y.eval(torus_points)
    jp = synthetic.jp.eval(torus_points)
    frame = np.stack([x, y, np.einsum("bij,bj->bi", jp, x),
                      np.einsum("bij,bj->bi", jp, y)], axis=2)
    assert np.all(np.linalg.matrix_rank(frame[mask]) == 4)


def test_derivative_chain_evaluates_k_once(synthetic, torus_points, monkeypatch):
    """With a connection, one call evaluates K once (each nabla_n used to
    evaluate it again, 20 times per call)."""
    lf = synthetic.lee()
    k, calls = lf.data.k_endo, []
    field_eval = Field.eval

    def spy(field, pts):
        if field is k:
            calls.append(len(pts))
        return field_eval(field, pts)

    monkeypatch.setattr(Field, "eval", spy)
    nabla_n_rhs_residuals(lf, torus_points, connection=levi_civita(lf.data.g))
    assert calls == [len(torus_points)]
