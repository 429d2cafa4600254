"""Exterior calculus, brackets and the finite-difference harness for the
shipped fields."""

import numpy as np

from pbhverify.flagmodel import cp2_charts
from pbhverify.tensorcalc import (SamplePlan, coordinate_vector, d_scalar,
                                  evaluate_form, exterior_derivative,
                                  form_combos, form_field, interior_product,
                                  lie_bracket, oneform_field, pullback_linear,
                                  scalar_field, vector_field, wedge)
from pbhverify.tensorcalc.calculus import _stack
from pbhverify.tensorcalc.fields import _broadcast_const

from jet_helpers import partials


def max_abs(a):
    return float(np.abs(a).max())


def constant_form(chart, k, combo_values):
    v = np.asarray(combo_values)
    return form_field(chart, k, lambda jc: _broadcast_const(jc, v))


def coordinate_oneform(chart, i):
    e = np.zeros(chart.dim)
    e[i] = 1.0
    return oneform_field(chart, lambda jc: _broadcast_const(jc, e))


def test_d_of_x1_dx2(torus_model, torus_points):
    chart = torus_model.chart

    def fn(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, jc[:, 0], z, z])

    om = oneform_field(chart, fn)
    v = exterior_derivative(om).eval(torus_points)
    expected = np.zeros(len(form_combos(4, 2)))
    expected[0] = 1.0  # dx1 ^ dx2
    assert max_abs(v - expected) == 0.0


def test_d_of_flat_kahler_form(torus_model, torus_points):
    om = torus_model.triple.omegas[0]
    assert max_abs(exterior_derivative(om).eval(torus_points)) == 0.0


def test_kodaira_coframe_structure_equation(kodaira_model, torus_points):
    chart = kodaira_model.chart

    def e4(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, -jc[:, 0], z, z + 1.0])

    de4 = exterior_derivative(oneform_field(chart, e4)).eval(torus_points % 1.0)
    expected = np.zeros(6)
    expected[0] = -1.0  # -e1 ^ e2
    assert max_abs(de4 - expected) < 1e-15


def test_d_squared_zero_polynomial_and_curved(torus_model, torus_points):
    chart = torus_model.chart
    f = scalar_field(chart, lambda jc: (jc[:, 0].sin() * jc[:, 1]).exp())
    ddf = exterior_derivative(d_scalar(f))
    assert max_abs(ddf.eval(torus_points)) < 1e-12

    def fn(jc):
        z = jc[:, 0] * 0.0
        return _stack([jc[:, 1] * jc[:, 2], (jc[:, 0] ** 3), z, jc[:, 3] * jc[:, 0]])

    om = oneform_field(chart, fn)
    ddo = exterior_derivative(exterior_derivative(om))
    assert max_abs(ddo.eval(torus_points)) < 1e-12


def test_d_squared_zero_fubini_study():
    z = cp2_charts()["z"]
    pts = SamplePlan(16, 9).sample(z.chart)
    f = z.f_field()
    ddf = exterior_derivative(d_scalar(f))
    assert max_abs(ddf.eval(pts)) < 1e-9


def test_wedge_and_interior_trivials(torus_model, torus_points):
    chart = torus_model.chart
    dx1 = coordinate_oneform(chart, 0)
    dx2 = coordinate_oneform(chart, 1)
    w = wedge(dx1, dx2)
    e1 = coordinate_vector(chart, 0)
    e2 = coordinate_vector(chart, 1)
    val = evaluate_form(w.eval_jet(torus_points),
                        [e1.eval_jet(torus_points), e2.eval_jet(torus_points)],
                        4, 2)
    assert max_abs(val.value - 1.0) == 0.0
    i1 = interior_product(e1, w)
    expected = np.zeros(4)
    expected[1] = 1.0
    assert max_abs(i1.eval(torus_points) - expected) == 0.0
    # iota_X iota_X = 0
    assert max_abs(interior_product(e1, interior_product(e1, w)).eval(torus_points)) == 0.0


def test_wedge_graded_commutative_and_associative(torus_model, torus_points):
    chart = torus_model.chart

    def fn1(jc):
        return _stack([jc[:, 0].sin(), jc[:, 1], jc[:, 2] * jc[:, 0], jc[:, 3] * 0])

    def fn2(jc):
        return _stack([jc[:, 1] * jc[:, 1], jc[:, 0] * 0 + 1.0, jc[:, 3], jc[:, 0]])

    a = oneform_field(chart, fn1)
    b = oneform_field(chart, fn2)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert max_abs(ab.eval(torus_points) + ba.eval(torus_points)) < 1e-14
    c = coordinate_oneform(chart, 2)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert max_abs(left.eval(torus_points) - right.eval(torus_points)) < 1e-14


def test_interior_antiderivation(torus_model, torus_points):
    chart = torus_model.chart

    def fn1(jc):
        return _stack([jc[:, 0].sin(), jc[:, 1], jc[:, 2] * jc[:, 0], jc[:, 3] * 0])

    a = oneform_field(chart, fn1)
    b = coordinate_oneform(chart, 3)
    x = vector_field(chart, lambda jc: _stack([jc[:, 1], jc[:, 0] * 0 + 1.0,
                                               jc[:, 2], jc[:, 0]]))
    lhs = interior_product(x, wedge(a, b))
    ia = interior_product(x, a)
    ib = interior_product(x, b)
    rhs = b * ia - a * ib
    assert max_abs(lhs.eval(torus_points) - rhs.eval(torus_points)) < 1e-13


def test_lie_bracket_oracles(torus_model, torus_points):
    chart = torus_model.chart
    e1 = coordinate_vector(chart, 0)
    e2 = coordinate_vector(chart, 1)
    assert max_abs(lie_bracket(e1, e2).eval(torus_points)) == 0.0

    def fn(jc):
        z = jc[:, 0] * 0.0
        return _stack([z, jc[:, 0], z, z])

    x1e2 = vector_field(chart, fn)
    expected = np.zeros(4)
    expected[1] = 1.0
    assert max_abs(lie_bracket(e1, x1e2).eval(torus_points) - expected) == 0.0

    # antisymmetry and Jacobi on polynomial fields
    def fn2(jc):
        return _stack([jc[:, 1] * jc[:, 2], jc[:, 3], jc[:, 0] * jc[:, 0], jc[:, 1]])

    y = vector_field(chart, fn2)
    anti = lie_bracket(x1e2, y) + lie_bracket(y, x1e2)
    assert max_abs(anti.eval(torus_points)) < 1e-13
    z = vector_field(chart, lambda jc: _stack([jc[:, 2], jc[:, 0], jc[:, 1] * 0 + 1.0,
                                               jc[:, 0] * jc[:, 1]]))
    jac = (lie_bracket(x1e2, lie_bracket(y, z))
           + lie_bracket(y, lie_bracket(z, x1e2))
           + lie_bracket(z, lie_bracket(x1e2, y)))
    assert max_abs(jac.eval(torus_points)) < 1e-12


def test_pullback_linear(torus_model, torus_points):
    chart = torus_model.chart
    j = torus_model.triple.j1
    om = constant_form(chart, 2, [1.0, 0, 0, 0, 0, 0])  # dx1 ^ dx2
    pb = pullback_linear(j, om)
    # (J* om)(e1, e2) = om(J e1, J e2) = om(e2, -e1) = 1
    v = pb.eval(torus_points)
    assert abs(v[0][0] - 1.0) < 1e-15


def test_jets_vs_finite_differences_shipped_fields(torus_model, kodaira_model):
    """Order-1 jet partials against central differences for shipped fields.

    The log-norm potential is compared on a wider exclusion margin so the
    difference quotient itself stays in its asymptotic regime (its truncation
    error grows like the third derivative near the excluded loci)."""
    from pbhverify.tensorcalc.charts import ChartDomain, ExcludedLocus
    h = 1e-4
    plan = SamplePlan(64, 123)

    cases = []
    cases.append((kodaira_model.triple.g, kodaira_model.chart))
    cases.append((kodaira_model.triple.j2, kodaira_model.chart))
    zchart = cp2_charts()["z"]
    wide = ChartDomain(4, zchart.chart.box,
                       tuple(ExcludedLocus(l.predicate, 0.2)
                             for l in zchart.chart.excluded), name="cp2-wide")
    cases.append((zchart.f_field(), wide))

    for field, chart in cases:
        pts = plan.sample(chart)
        jet = field.eval_jet(pts, order=1)
        for i in range(chart.dim):
            e = np.zeros(chart.dim)
            e[i] = h
            fd = (field.eval(pts + e) - field.eval(pts - e)) / (2 * h)
            alpha = tuple(1 if k == i else 0 for k in range(chart.dim))
            scale = np.maximum(1.0, np.abs(fd))
            assert np.abs((partials(jet, alpha) - fd) / scale).max() < 1e-6


def test_sample_plan_deterministic(torus_model):
    a = SamplePlan(32, 7).sample(torus_model.chart)
    b = SamplePlan(32, 7).sample(torus_model.chart)
    assert a.tobytes() == b.tobytes()
    z = cp2_charts()["z"].chart
    assert SamplePlan(16, 5).sample(z).tobytes() == SamplePlan(16, 5).sample(z).tobytes()
    # excluded loci respected
    pts = SamplePlan(200, 3).sample(z)
    assert np.hypot(pts[:, 0], pts[:, 1]).min() > 0.05
