"""The jet contraction primitives against per-component loop references.

``loop_jmatvec``, ``loop_jmatmul`` and the ``loop_*`` connection and
Nijenhuis routines below are the per-component implementations that
``jeinsum``/``jgrad`` replaced; the ``ref_*`` routines are the Field-level
Courant bracket (Lie bracket plus Cartan formula on separate vector and
1-form fields) and the per-pair ``gcs_nijenhuis`` loop that the jet-level
bracket on stacked sections replaced.  All are kept here as oracles.  Sums
run in a different order, so agreement is to a tolerance fixed from float64
roundoff.  The last section keeps the second copies of single operations
(transpose, Wirtinger derivative, antisymmetrization, N±, block assembly)
that were deleted in favour of one implementation.  ``leibniz_jeinsum`` and
``leibniz_mul`` are the full gather/``reduceat`` products,
``reduceat_leibniz`` the gather/``reduceat`` kernel of one table (the
oracle of the segment sums of ``Jet.__mul__`` and the power steps, and
with ``pairs_jeinsum`` of the direction rule of the wide tables), and
``neumann_inv`` and ``full_table_compose`` the Neumann series that
``jet_inv`` used and the full-table Taylor composition, kept as the oracles
of the degree rule, of the degree-recursive ``jet_solve`` and of the power
tables.  ``ref_constant_velocity`` is the broadcast ``jmatvec`` that the
flow's velocity replaced, and ``ref_unprepped_courant``
and ``ref_gcs_residual_jets`` the bracket and ``gcs_nijenhuis`` loop that
took every section's gradient in each bracket; the package must match them
bitwise.  ``ref_product_form_grad`` is the product form cos x_i sin x_j,
sin x_i cos x_j that the angle-sum sine gradients replaced, matched to
8 eps.  ``ref_lattice_residual`` is the per-transformation deck check
that the batched one replaced, and ``ref_algebra_residual``,
``ref_compatibility_residual``, ``ref_closedness_residual`` and
``ref_nijenhuis_residual`` the per-product triple residuals that the
stacked ones replaced, all matched bitwise, and
``ref_b_transform_naturality`` and ``ref_pairing_preservation`` are the
per-pair loops of the ``courant`` suite that its stacked evaluations
replaced, matched bitwise too.  The storage rule (every result lives in
the space of its order) is checked against the full-space loop oracles of
``jet_helpers``: the kernel's coefficients must be the oracle's valid
prefix.
"""

import dataclasses
import functools
import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pbhverify import suites
from pbhverify.gencomplex import (_courant, _prep, apply_endo, b_transform,
                                  coordinate_sections, courant_bracket,
                                  gcs_nijenhuis, pairing, random_poly_sections,
                                  random_poly_two_form, stack_axes, validate_twist)
from pbhverify.models import F_CATALOG, HamiltonianFlow, example2_build
from pbhverify.structures import HermitianPair, levi_civita, max_abs, reduce_parts
from pbhverify.tensorcalc import (ChartDomain, Field, SamplePlan, coordinate_vector,
                                  d_scalar, exterior_derivative, form_combos,
                                  form_field, form_from_matrix, form_full,
                                  form_full_matrix, frame_field, interior_product,
                                  jeinsum, jet_coords, jet_inv, jet_prefix, jet_solve,
                                  jet_space, jgrad, jmatmul, jmatvec,
                                  jtrace, jtranspose, lie_bracket, metric_field,
                                  nijenhuis_tensor, oneform_field,
                                  scalar_field, vector_field)
from pbhverify.tensorcalc.calculus import _stack
from pbhverify.tensorcalc.fields import _broadcast_const
from pbhverify.tensorcalc.fields import _scale
from pbhverify.tensorcalc.jets import Jet, JetSpace, _next_power

from jet_helpers import (SIN_PAIRS, embed, leibniz, leibniz_mul as full_mul,
                         loop_partial, neumann_solve, pairs_jeinsum, reduceat_leibniz,
                         ref_cos, ref_flow, ref_full_gradient, ref_inverse_coeffs,
                         ref_sin, ref_velocity, taylor)
from model_helpers import (KODAIRA_FRAME_METRIC, certified_residuals,
                           example2_params, kodaira_candidate_models,
                           kodaira_candidates, kodaira_triples, lattice_residual)

RTOL = ATOL = 1e-12
SPACES = [(4, 3), (6, 3)]
# (leading shape of a, leading shape of b); the last pair broadcasts
LEADING = [((8,), (8,)), ((64,), (64,)), ((8, 4, 4), (1, 4, 4))]


def loop_jmatvec(a, v):
    k = v.c.shape[-2]
    out = None
    for j in range(k):
        vj = Jet(v.space, v.c[..., j, :][..., None, :], v.order)
        t = a[..., :, j] * vj
        out = t if out is None else out + t
    return out


def loop_jmatmul(a, b):
    k = a.c.shape[-2]
    out = None
    for j in range(k):
        ta = Jet(a.space, a.c[..., :, j, :][..., :, None, :], a.order)
        tb = Jet(b.space, b.c[..., j, :, :][..., None, :, :], b.order)
        t = ta * tb
        out = t if out is None else out + t
    return out


def stacked_partials(a, space):
    """The loop partials of ``a`` in ``space`` stacked on a trailing axis."""
    parts = [loop_partial(a, i, space) for i in range(a.space.dim)]
    return Jet(parts[0].space, np.stack([p.c for p in parts], axis=-2))


def random_jet(rng, space, shape, complex_coeffs, order):
    c = rng.normal(size=shape + (space.n,))
    if complex_coeffs:
        c = c + 1j * rng.normal(size=c.shape)
    c[..., space.degree > order] = 0.0
    return Jet(space, c, order)


def assert_jets_close(new, old):
    """``new`` is stored in the space of its order and agrees with ``old``
    through that order (``old`` may keep higher coefficients)."""
    assert new.order == old.order
    assert new.space is jet_space(new.space.dim, new.order)
    ref = old.c[..., :new.space.n]
    assert new.c.shape == ref.shape
    np.testing.assert_allclose(new.c, ref, rtol=RTOL, atol=ATOL)


cases = st.tuples(st.sampled_from(SPACES), st.sampled_from(LEADING),
                  st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))


@settings(max_examples=20, deadline=None)
@given(cases, st.integers(2, 5))
def test_jmatmul_and_jmatvec_match_loops(case, k):
    (dim, order), (lead_a, lead_b), cplx_a, cplx_b, seed = case
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = random_jet(rng, sp, lead_a + (3, k), cplx_a, int(rng.integers(0, order + 1)))
    b = random_jet(rng, sp, lead_b + (k, 2), cplx_b, order)
    v = random_jet(rng, sp, lead_b + (k,), cplx_b, order)
    assert_jets_close(jmatmul(a, b), loop_jmatmul(a, b))
    assert_jets_close(jmatvec(a, v), loop_jmatvec(a, v))
    assert_jets_close(jeinsum("...ij,...kj->...ik", a, a), loop_jmatmul(
        a, Jet(a.space, np.swapaxes(a.c, -2, -3))))


@settings(max_examples=20, deadline=None)
@given(cases)
def test_jgrad_matches_stacked_partials(case):
    (dim, order), (lead, _), cplx, _, seed = case
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = random_jet(rng, sp, lead + (3,), cplx, int(rng.integers(1, order + 1)))
    g = jgrad(a)
    assert g.c.shape == a.c.shape[:-1] + (dim, jet_space(dim, a.order - 1).n)
    assert_jets_close(g, stacked_partials(a, sp))


def test_mismatched_spaces_and_exhausted_order_raise():
    rng = np.random.default_rng(0)
    a = random_jet(rng, jet_space(4, 3), (8, 4), False, 3)
    b = random_jet(rng, jet_space(6, 3), (8, 4), False, 3)
    with pytest.raises(ValueError):
        jeinsum("...i,...i->...", a, b)
    with pytest.raises(ValueError):
        jgrad(Jet(a.space, a.c, 0))
    with pytest.raises(ValueError, match="cannot be valid"):
        Jet(a.space, a.c, 4)


# -- removed loop versions of the connection and Nijenhuis contractions -------


def loop_christoffel(gv):
    d = gv.c.shape[-2]
    ginv = jet_inv(gv)
    dg = [[[gv[:, i, j].partial(l) for j in range(d)] for i in range(d)]
          for l in range(d)]
    rows = []
    for k in range(d):
        mat = []
        for i in range(d):
            row = []
            for j in range(d):
                t = None
                for l in range(d):
                    s = dg[i][j][l] + dg[j][i][l] - dg[l][i][j]
                    s = ginv[:, k, l] * s * 0.5
                    t = s if t is None else t + s
                row.append(t)
            mat.append(row)
        rows.append(mat)
    c = np.stack([np.stack([np.stack([t.c for t in row], axis=1)
                            for row in mat], axis=1) for mat in rows], axis=1)
    return Jet(gv.space, c, rows[0][0][0].order)


def loop_chern(gv, jv, dfv):
    d = gv.c.shape[-2]
    ginv = jet_inv(gv)
    rows = []
    for k in range(d):
        mat = []
        for i in range(d):
            row = []
            for j in range(d):
                t = None
                for l in range(d):
                    s = None
                    for a in range(d):
                        u = jv[:, a, i] * dfv[:, a, j, l]
                        s = u if s is None else s + u
                    s = ginv[:, k, l] * s * (-0.5)
                    t = s if t is None else t + s
                row.append(t)
            mat.append(row)
        rows.append(mat)
    c = np.stack([np.stack([np.stack([t.c for t in row], axis=1)
                            for row in mat], axis=1) for mat in rows], axis=1)
    gam = loop_christoffel(gv)
    return Jet(gv.space, gam.c + c, min(rows[0][0][0].order, gam.order))


def loop_bracket_comp(xv, yv, d, coord=None):
    comps = []
    for i in range(d):
        term = None
        if xv is not None and yv is not None:
            for j in range(d):
                t = xv[:, j] * yv[:, i].partial(j) - yv[:, j] * xv[:, i].partial(j)
                term = t if term is None else term + t
        elif yv is None:
            term = -xv[:, i].partial(coord)
        else:
            term = yv[:, i].partial(coord)
        comps.append(term)
    return _stack(comps)


def loop_nijenhuis(jv):
    d = jv.c.shape[-2]
    cols = []
    for i in range(d):
        for jx in range(i + 1, d):
            ji, jj = jv[:, :, i], jv[:, :, jx]
            term = (loop_bracket_comp(ji, jj, d)
                    - loop_jmatvec(jv, loop_bracket_comp(ji, None, d, jx))
                    - loop_jmatvec(jv, loop_bracket_comp(None, jj, d, i)))
            cols.append(term)
    c = np.stack([t.c for t in cols], axis=2)
    return Jet(jv.space, c, min(t.order for t in cols))


@pytest.fixture(scope="module")
def kodaira_jets(kodaira_model, plan):
    pts = plan.sample(kodaira_model.chart)
    return kodaira_model, jet_coords(4, 3, pts)


@pytest.fixture(scope="module")
def kodaira_pairs(kodaira_model):
    """A pair of the model, and the same pair with the metric rescaled by
    exp(sin x1) so that dF and the Chern correction are nonzero."""
    t = kodaira_model.triple

    def rescaled(jc):
        return _scale(t.g.fn(jc), jc[:, 0].sin().exp())

    g2 = metric_field(t.g.chart, rescaled)
    return HermitianPair(t.g, t.j1), HermitianPair(g2, t.j1)


def test_levi_civita_matches_loop(kodaira_jets, kodaira_pairs):
    _, jc = kodaira_jets
    for pair in kodaira_pairs:
        assert_jets_close(levi_civita(pair.g).gamma_fn(jc), loop_christoffel(pair.g.fn(jc)))


def test_chern_connection_matches_loop(kodaira_jets, kodaira_pairs):
    _, jc = kodaira_jets
    df_sizes = []
    for pair in kodaira_pairs:
        dfv = form_full(exterior_derivative(pair.f).fn(jc), 4, 3)
        old = loop_chern(pair.g.fn(jc), pair.j.fn(jc), dfv)
        assert_jets_close(pair.chern.gamma_fn(jc), old)
        df_sizes.append(np.abs(dfv.value).max())
    assert max(df_sizes) > 0.1


def test_nijenhuis_tensor_matches_loop(kodaira_jets):
    model, jc = kodaira_jets
    # the frame structures are integrable; J1 + x1 J2 is not
    t = model.triple
    j_mixed = t.j1 + t.j2 * scalar_field(t.g.chart, lambda jc: jc[:, 0])
    for j in t.js + (j_mixed,):
        assert_jets_close(nijenhuis_tensor(j).fn(jc), loop_nijenhuis(j.fn(jc)))
    assert np.abs(nijenhuis_tensor(j_mixed).fn(jc).value).max() > 0.1



# -- removed Field-level Courant bracket and per-pair Nijenhuis loop ----------


def ref_poly_comps(chart, const, lin):
    """Closure with components const[i] + sum_j lin[i, j] x_j."""
    def fn(jc):
        comps = []
        for i in range(len(const)):
            t = jc[:, 0] * 0.0 + const[i]
            for j in range(chart.dim):
                t = t + jc[:, j] * lin[i, j]
            comps.append(t)
        return _stack(comps)

    return fn


def ref_poly_sections(chart, count, seed):
    """(vector field, 1-form field) pairs with the draws of
    ``random_poly_sections``."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    out = []
    d = chart.dim
    for _ in range(count):
        cv, lv = rng.normal(size=d) * 0.5, rng.normal(size=(d, d)) * 0.2
        cf, lf = rng.normal(size=d) * 0.5, rng.normal(size=(d, d)) * 0.2
        out.append((vector_field(chart, ref_poly_comps(chart, cv, lv)),
                    oneform_field(chart, ref_poly_comps(chart, cf, lf))))
    return out


def ref_poly_two_form(chart, seed):
    rng = np.random.default_rng(np.random.PCG64(seed))
    ncomb = chart.dim * (chart.dim - 1) // 2
    const = rng.normal(size=ncomb) * 0.5
    lin = rng.normal(size=(ncomb, chart.dim)) * 0.2
    return form_field(chart, 2, ref_poly_comps(chart, const, lin))


def ref_coordinate_oneform(chart, i):
    e = np.zeros(chart.dim)
    e[i] = 1.0
    return oneform_field(chart, lambda jc: _broadcast_const(jc, e))


def ref_coordinate_sections(chart):
    d = chart.dim
    zero_vec = vector_field(chart, lambda jc: _broadcast_const(jc, np.zeros(d)))
    zero_one = oneform_field(chart, lambda jc: _broadcast_const(jc, np.zeros(d)))
    out = [(coordinate_vector(chart, i), zero_one) for i in range(d)]
    return out + [(zero_vec, ref_coordinate_oneform(chart, i)) for i in range(d)]


def ref_lie_derivative_form(x, omega):
    """Cartan: L_X omega = i_X d omega + d(i_X omega)."""
    return (interior_product(x, exterior_derivative(omega))
            + exterior_derivative(interior_product(x, omega)))


def ref_courant(a, b, h=None):
    """[X+xi, Y+eta]_H = [X,Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2
    + i_Y i_X H on (vector field, 1-form field) pairs."""
    (x, xi), (y, eta) = a, b
    form = (ref_lie_derivative_form(x, eta) - ref_lie_derivative_form(y, xi)
            - d_scalar(interior_product(x, eta) - interior_product(y, xi)) * 0.5)
    if h is not None:
        form = form + interior_product(y, interior_product(x, h))
    return lie_bracket(x, y), form


def ref_apply_endo(i_field, a):
    chart = i_field.chart
    d = chart.dim

    def full(jc):
        return jmatvec(i_field.fn(jc), joined(a[0].fn(jc), a[1].fn(jc)))

    cost = max(i_field.cost, a[0].cost, a[1].cost)
    return (vector_field(chart, lambda jc: full(jc)[:, :d], cost=cost),
            oneform_field(chart, lambda jc: full(jc)[:, d:], cost=cost))


def ref_gcs_nijenhuis(i_field, h, pts, sections):
    applied = [ref_apply_endo(i_field, s) for s in sections]
    worst = 0.0
    for i in range(len(sections)):
        for j in range(i + 1, len(sections)):
            a, b = sections[i], sections[j]
            ia, ib = applied[i], applied[j]
            t1 = ref_courant(a, b, h)
            t2 = ref_courant(ia, ib, h)
            t3 = ref_apply_endo(i_field, ref_courant(ia, b, h))
            t4 = ref_apply_endo(i_field, ref_courant(a, ib, h))
            res_v = t1[0] - t2[0] + t3[0] + t4[0]
            res_f = t1[1] - t2[1] + t3[1] + t4[1]
            worst = max(worst, max_abs(res_v.eval(pts)), max_abs(res_f.eval(pts)))
    return worst


def joined(vec_jet, form_jet):
    return Jet(vec_jet.space, np.concatenate([vec_jet.c, form_jet.c], axis=-2),
               min(vec_jet.order, form_jet.order))


def random_affine_endo(chart, rng):
    """A generic (non-integrable) endomorphism field of T + T* with affine
    entries."""
    dd = 2 * chart.dim
    const = rng.normal(size=(dd, dd))
    lin = rng.normal(size=(dd, dd, chart.dim)) * 0.3

    def fn(jc):
        c = np.einsum("ijk,...kr->...ijr", lin, jc.c)
        c[..., 0] += const
        return Jet(jc.space, c, jc.order)

    return Field(chart, "tensor", fn)


section_cases = st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
                          st.booleans(), st.integers(1, 2))


@settings(max_examples=20, deadline=None)
@given(section_cases)
def test_section_constructors_keep_draws(torus_model, case):
    seed, b_seed, _, order = case
    chart = torus_model.chart
    pts = SamplePlan(8, seed % 1000).sample(chart)
    for new, old in zip(random_poly_sections(chart, 3, seed),
                        ref_poly_sections(chart, 3, seed)):
        assert_jets_close(new.eval_jet(pts, order),
                          joined(old[0].eval_jet(pts, order), old[1].eval_jet(pts, order)))
    assert_jets_close(random_poly_two_form(chart, b_seed).eval_jet(pts, order),
                      ref_poly_two_form(chart, b_seed).eval_jet(pts, order))


@settings(max_examples=20, deadline=None)
@given(section_cases)
def test_section_ops_match_field_tree(torus_model, case):
    """Leading shape (8,): courant_bracket, b_transform and pairing against
    the Field-level formulas, with and without the twist h = d b2."""
    seed, b_seed, twisted, order = case
    chart = torus_model.chart
    pts = SamplePlan(8, seed % 1000).sample(chart)
    (a, b), (ra, rb) = random_poly_sections(chart, 2, seed), ref_poly_sections(chart, 2, seed)
    b2, rb2 = random_poly_two_form(chart, b_seed), ref_poly_two_form(chart, b_seed)
    h, rh = (exterior_derivative(b2), exterior_derivative(rb2)) if twisted else (None, None)

    def pair_jet(p):
        return joined(p[0].eval_jet(pts, order), p[1].eval_jet(pts, order))

    assert_jets_close(courant_bracket(a, b, h).eval_jet(pts, order),
                      pair_jet(ref_courant(ra, rb, rh)))
    assert_jets_close(b_transform(a, b2).eval_jet(pts, order),
                      pair_jet((ra[0], ra[1] + interior_product(ra[0], rb2))))
    ref_pair = (interior_product(ra[0], rb[1]) + interior_product(rb[0], ra[1])) * 0.5
    assert_jets_close(pairing(a, b).eval_jet(pts, order), ref_pair.eval_jet(pts, order))


@settings(max_examples=20, deadline=None)
@given(section_cases, st.integers(2, 5))
def test_batched_courant_matches_per_pair(torus_model, case, n):
    """Leading shape (8, n), and (8, 1) against (8, n) as ``gcs_nijenhuis``
    batches a row: the stacked-jet bracket equals the Field-level bracket of
    each pair."""
    seed, b_seed, twisted, order = case
    chart = torus_model.chart
    d = chart.dim
    pts = SamplePlan(8, seed % 1000).sample(chart)
    jc = jet_coords(d, order + 1, pts)
    new, ref = random_poly_sections(chart, 2 * n, seed), ref_poly_sections(chart, 2 * n, seed)
    rb2 = ref_poly_two_form(chart, b_seed)
    h = exterior_derivative(random_poly_two_form(chart, b_seed)) if twisted else None
    rh = exterior_derivative(rb2) if twisted else None
    hv = None if h is None else form_full(h.fn(jc), d, 3)[:, None]
    sa = _stack([s.fn(jc) for s in new[:n]])
    sb = _stack([s.fn(jc) for s in new[n:]])

    def ref_stack(pairs):
        return _stack([joined(*(f.fn(jc) for f in ref_courant(p, q, rh))) for p, q in pairs])

    assert_jets_close(_courant(_prep(sa, d), _prep(sb, d), hv, d),
                      ref_stack(zip(ref[:n], ref[n:])))
    assert_jets_close(_courant(_prep(sa[:, :1], d), _prep(sb, d), hv, d),
                      ref_stack((ref[0], q) for q in ref[n:]))


@settings(max_examples=5, deadline=None)
@given(section_cases)
def test_gcs_nijenhuis_matches_per_pair_loop(torus_model, case):
    """A generic affine endomorphism, with and without twist: the batched
    residual equals the per-pair Field-tree residual."""
    seed, b_seed, twisted, _ = case
    chart = torus_model.chart
    rng = np.random.default_rng(seed)
    i_field = random_affine_endo(chart, rng)
    pts = SamplePlan(4, seed % 1000).sample(chart)
    h = exterior_derivative(random_poly_two_form(chart, b_seed)) if twisted else None
    rh = exterior_derivative(ref_poly_two_form(chart, b_seed)) if twisted else None
    new = gcs_nijenhuis(i_field, h, pts, random_poly_sections(chart, 3, seed))
    old = ref_gcs_nijenhuis(i_field, rh, pts,
                            ref_coordinate_sections(chart) + ref_poly_sections(chart, 3, seed))
    assert old > 0.1
    np.testing.assert_allclose(new, old, rtol=RTOL, atol=ATOL)


def test_gcs_nijenhuis_matches_per_pair_loop_on_model(torus_bundle, torus_points):
    """Structures built from 2-forms (closed, not closed, b-conjugated with a
    twist) on the torus model."""
    from pbhverify.gencomplex import b_conjugate_endo, gcs_from_form
    from pbhverify.models import complex_form
    chart = torus_bundle.chart

    def bad_imag(jc):
        base = torus_bundle.omega_plus.fn(jc)
        pert = base.c.copy()
        pert[:, 0] = (base[:, 0] + jc[:, 2] * 0.5).c
        return Jet(base.space, pert, base.order)

    i1 = gcs_from_form(torus_bundle.beta1)
    i_bad = gcs_from_form(complex_form(torus_bundle.f_k, form_field(chart, 2, bad_imag)))
    b2 = random_poly_two_form(chart, 119)
    conj = b_conjugate_endo(i1, b2)
    pts = torus_points[:3]
    secs = random_poly_sections(chart, 2, 31)
    frame = ref_coordinate_sections(chart) + ref_poly_sections(chart, 2, 31)
    for i_field, h, rh in ((i1, None, None), (i_bad, None, None),
                           (conj, -exterior_derivative(b2),
                            -exterior_derivative(ref_poly_two_form(chart, 119)))):
        np.testing.assert_allclose(gcs_nijenhuis(i_field, h, pts, secs),
                                   ref_gcs_nijenhuis(i_field, rh, pts, frame),
                                   rtol=RTOL, atol=ATOL)


def ref_unprepped_courant(a, b, h, d):
    """The jet-level Courant bracket that took the gradient and the
    half-swapped copy of both sections at every call."""
    ga, gb = jgrad(a), jgrad(b)
    x, y = a[..., :d], b[..., :d]
    out = jeinsum("...j,...kj->...k", x, gb) - jeinsum("...j,...kj->...k", y, ga)
    sa = Jet(a.space, np.roll(a.c, d, axis=-2), a.order)
    sb = Jet(b.space, np.roll(b.c, d, axis=-2), b.order)
    form = out[..., d:] + (jeinsum("...k,...ki->...i", sb, ga)
                           - jeinsum("...k,...ki->...i", sa, gb)) * 0.5
    if h is not None:
        form = form + jeinsum("...ab,...abi->...i", jeinsum("...a,...b->...ab", x, y), h)
    return joined(out[..., :d], form)


def ref_gcs_residual_jets(i_field, h, pts, extra_sections=()):
    """The residual jet of each iteration of the ``gcs_nijenhuis`` loop that
    bracketed unprepared slices of the section stacks (frame included)."""
    from pbhverify.gencomplex import coordinate_sections
    chart = i_field.chart
    d = chart.dim
    sections = coordinate_sections(chart) + list(extra_sections)
    order = max(1 + max(f.cost for f in [i_field, *sections]),
                0 if h is None else h.cost)
    jc = jet_coords(d, order, pts)
    iv = i_field.fn(jc)[:, None]
    hv = None if h is None else form_full(h.fn(jc), d, 3)[:, None]
    s = _stack([sec.fn(jc) for sec in sections])
    isec = jmatvec(iv, s)
    out = []
    for i in range(len(sections) - 1):
        a, ia = s[:, i:i + 1], isec[:, i:i + 1]
        b, ib = s[:, i + 1:], isec[:, i + 1:]
        out.append(ref_unprepped_courant(a, b, hv, d) - ref_unprepped_courant(ia, ib, hv, d)
                   + jmatvec(iv, ref_unprepped_courant(ia, b, hv, d)
                             + ref_unprepped_courant(a, ib, hv, d)))
    return out


@pytest.mark.parametrize("seed", [42, 7])
def test_gcs_nijenhuis_equals_the_unprepped_loop(seed, monkeypatch):
    """``gcs_nijenhuis`` on prepared section stacks, bracketing all section
    pairs in one degree-0 batch, gives bitwise each pair's residual value,
    and so the residual, of the full-order row loop that took every
    section's gradient in each bracket: its one residual table is the loop's
    rows concatenated in ``np.triu_indices`` order.  This holds for
    the gpk-example2 suite's calls on the torus at t = 0.1, namely the
    closed-form pair with 16 sections, the b-conjugated structure twisted by
    -d b, and the deformed pair.  The higher coefficients of the residual
    jets are neither computed nor read."""
    from pbhverify import gencomplex
    from pbhverify.gencomplex import b_conjugate_endo
    from pbhverify.suites import SuiteConfig, SuiteContext
    ctx = SuiteContext(SuiteConfig(suite="gpk-example2", model="torus", t=0.1,
                                   seed=seed))
    chart = ctx.model.chart
    pts = ctx.points()[:8]
    b2 = random_poly_two_form(chart, seed + 77)
    cases = [(i, None, pts, random_poly_sections(chart, 8, seed + 31))
             for i in ctx.gcs_pair]
    cases.append((b_conjugate_endo(ctx.gcs_pair[0], b2),
                  -exterior_derivative(b2), pts[:4], ()))
    cases += [(i, None, pts, ()) for i in ctx.deformed_pair]
    seen = []

    def max_abs_spy(x):
        seen.append(x)
        return max_abs(x)

    monkeypatch.setattr(gencomplex, "max_abs", max_abs_spy)
    for i_field, h, p, extra in cases:
        seen.clear()
        new = gcs_nijenhuis(i_field, h, p, extra_sections=extra)
        old = ref_gcs_residual_jets(i_field, h, p, extra)
        assert len(seen) == 1 and len(old) == 7 + len(extra)
        rows = np.concatenate([o.value for o in old], axis=1)
        assert np.array_equal(seen[0].value, rows)
        assert new == max(max_abs(o) for o in old)


@pytest.mark.parametrize("model_name,f_expr", [("torus", "sin14"), ("kodaira", "sin13"),
                                               ("torus", "sin134"), ("kodaira", "sin134")])
def test_curved_flow_deformed_integrability_equals_the_full_order_loop(model_name, f_expr):
    """gpk-example2 at t = 0.1 on a Hamiltonian whose flow is curved (the
    default ``sin2`` flows as a shear, which RK4 integrates exactly): every
    check passes, ``flow-preserves-reference-form`` is off exact zero, and
    ``deformed-integrability`` is bitwise the residual of the full-order loop
    on the deformed pair."""
    from pbhverify.suites import SuiteConfig, SuiteContext, suite_gpk_example2
    ctx = SuiteContext(SuiteConfig(suite="gpk-example2", model=model_name, samples=16,
                                   t=0.1, f_expr=f_expr))
    checks = {c.name: c for c in suite_gpk_example2(ctx)}
    assert all(c.passed for c in checks.values())
    assert checks["flow-preserves-reference-form"].residual > 0.0
    pts = ctx.points()[:8]
    ref = reduce_parts(max(max_abs(r) for r in ref_gcs_residual_jets(i, None, pts))
                       for i in ctx.deformed_pair)
    assert checks["deformed-integrability"].residual == ref


# -- removed copies of one operation ------------------------------------------
# Each ``ref_*`` below is a copy that was deleted in favour of the one
# implementation now in the package.  Where that implementation keeps the
# arithmetic (operand order and association) the two must agree exactly; the
# Wirtinger route contracts a constant matrix instead of combining two
# partials, so it agrees to roundoff.


def assert_jets_equal(new, old):
    assert new.order == old.order
    assert new.c.shape == old.c.shape
    assert np.array_equal(new.c, old.c)


def ref_wirtinger_d(u, alpha):
    """d/dz_alpha = (d/da - i d/db)/2 on a scalar jet."""
    return (u.partial(2 * alpha) - u.partial(2 * alpha + 1) * 1j) * 0.5


def ref_wirtinger_dbar(u, alpha):
    """d/dzbar_alpha = (d/da + i d/db)/2 on a scalar jet."""
    return (u.partial(2 * alpha) + u.partial(2 * alpha + 1) * 1j) * 0.5


def ref_xf_jet(ch, jc, hol):
    f = ch.f_field().fn(jc)
    xi = hol(jc)
    return xi[:, 0] * ref_wirtinger_d(f, 0) + xi[:, 1] * ref_wirtinger_d(f, 1)


def ref_sigma_dbar_components(zz1, zz2):
    """The 27 per-component passes: dbar_c (Z1^a Z2^b - Z1^b Z2^a)."""
    out = np.zeros(zz1.c.shape[:1] + (3, 3, 3), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            comp = zz1[:, a] * zz2[:, b] - zz1[:, b] * zz2[:, a]
            for c in range(3):
                out[:, a, b, c] = ref_wirtinger_dbar(comp, c).value
    return out


def ref_xf_yf_at(zeta1, zeta2):
    """Closed-form Xf, Yf of the z-chart data at a factor point."""
    denom = (zeta1 * zeta1.conj() + zeta2 * zeta2.conj() + 1.0).reciprocal()
    d1 = zeta1.conj() * denom * (-3.0)
    d2 = zeta2.conj() * denom * (-3.0)
    xf = zeta1 * d1 * (-2.0) + zeta2 * d2 * (-1.0) - 3.0
    yf = zeta2 * d2 * (-1.0) - 1.0
    return xf, yf


def ref_kodaira_frame(jc, sign):
    p = _broadcast_const(jc, np.eye(4)).c.copy()
    pj = Jet(jc.space, p, jc.order)
    pj.c[:, 3, 1, :] = jc[:, 0].c if sign > 0 else -jc[:, 0].c
    return pj


def ref_fundamental_form(gv, jv):
    """F = J^T g read off component by component."""
    m = jmatmul(Jet(jv.space, np.swapaxes(jv.c, 1, 2), jv.order), gv)
    return _stack([m[:, i, j] for (i, j) in form_combos(gv.c.shape[1], 2)])


def ref_lower_trivector(tri_vals, g_vals, dim, triples, optimize=False):
    """The full 3-tensor by a loop over permutations, lowered by one
    einsum: the four-operand loop, or contracted along ``optimize``."""
    full = np.zeros(tri_vals.shape[:1] + (dim, dim, dim), dtype=tri_vals.dtype)
    import itertools as it
    for ci, combo in enumerate(triples):
        for perm in it.permutations(range(3)):
            sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
            idx = tuple(combo[p] for p in perm)
            full[(slice(None),) + idx] = sign * tri_vals[:, ci]
    return np.einsum("bpqr,bpx,bqy,brz->bxyz", full, g_vals, g_vals, g_vals,
                     optimize=optimize)


def ref_engel(lf, jc):
    """X = N theta+#, Y = theta+# - K theta-#, |theta+|^2, f and
    N = J+ + f J- as lee_fields and the jet derivative rule built them, with
    g inverted once per dual vector, and N± = J+ + (p ± sqrt(p^2 - 1)) J-."""
    data = lf.data
    f_field = data.p.fn(jc) - (data.p.fn(jc) ** 2 - 1.0).sqrt()
    p = data.p.fn(jc)
    f = p - (p * p - 1.0).sqrt()
    n = data.jp.fn(jc) + _scale(data.jm.fn(jc), f)
    tp_sharp = jmatvec(jet_inv(data.g.fn(jc)), lf.theta_p.fn(jc))
    tm_sharp = jmatvec(jet_inv(data.g.fn(jc)), lf.theta_m.fn(jc))
    y = tp_sharp - jmatvec(data.k_endo.fn(jc), tm_sharp)
    tnorm = (lf.theta_p.fn(jc) * jmatvec(jet_inv(data.g.fn(jc)), lf.theta_p.fn(jc))).sum(axis=-1)
    s = (p * p - 1.0).sqrt()
    n_pm = [data.jp.fn(jc) + _scale(data.jm.fn(jc), p + s * sign) for sign in (1.0, -1.0)]
    return jmatvec(n, tp_sharp), y, tnorm, f_field, n, n_pm


def ref_form_as_map(form_jet, d):
    m = form_full(form_jet, d, 2)
    return Jet(m.space, np.swapaxes(m.c, 1, 2), m.order)


def ref_gcs_from_form(bv, d):
    b_map = ref_form_as_map(Jet(bv.space, bv.c.real.copy(), bv.order), d)
    w_map = ref_form_as_map(Jet(bv.space, bv.c.imag.copy(), bv.order), d)
    w_inv = jet_inv(w_map)
    blocks = np.zeros((bv.c.shape[0], 2 * d, 2 * d, bv.space.n))
    out = Jet(bv.space, blocks, min(b_map.order, w_inv.order))
    out.c[:, :d, :d] = (jmatmul(w_inv, b_map) * (-1.0)).c
    out.c[:, :d, d:] = -w_inv.c
    out.c[:, d:, :d] = (w_map + jmatmul(b_map, jmatmul(w_inv, b_map))).c
    out.c[:, d:, d:] = jmatmul(b_map, w_inv).c
    return out


def ref_b_conjugate(iv, b2v, d, sign):
    bmap = ref_form_as_map(b2v, d) * sign
    ep = np.zeros((iv.c.shape[0], 2 * d, 2 * d, iv.space.n), dtype=bmap.c.dtype)
    ep[..., 0] = np.eye(2 * d)
    em = ep.copy()
    ep[:, d:, :d] = bmap.c
    em[:, d:, :d] = -bmap.c
    return jmatmul(Jet(iv.space, ep, bmap.order),
                   jmatmul(iv, Jet(iv.space, em, bmap.order)))


def ref_gualtieri_block(jpv, jmv, fpv, fmv, d, s):
    fpm, fmm = ref_form_as_map(fpv, d), ref_form_as_map(fmv, d)
    fp_inv, fm_inv = jet_inv(fpm), jet_inv(fmm)
    blocks = np.zeros((jpv.c.shape[0], 2 * d, 2 * d, jpv.space.n))
    top_left = (jpv + jmv * s) * 0.5
    top_right = (fp_inv - fm_inv * s) * (-0.5)
    jp_t = Jet(jpv.space, np.swapaxes(jpv.c, 1, 2), jpv.order)
    jm_t = Jet(jpv.space, np.swapaxes(jmv.c, 1, 2), jmv.order)
    blocks[:, :d, :d] = top_left.c
    blocks[:, :d, d:] = top_right.c
    blocks[:, d:, :d] = ((fpm - fmm * s) * 0.5).c
    blocks[:, d:, d:] = ((jp_t + jm_t * s) * (-0.5)).c
    return Jet(jpv.space, blocks, min(top_left.order, top_right.order))


@pytest.fixture(scope="module")
def flag_data():
    from pbhverify.flagmodel import FlagParams, flag_charts
    fb = flag_charts(FlagParams(1, -2))
    return fb, SamplePlan(16, 47).sample(fb.chart)


def test_wirtinger_matches_partials(flag_data):
    """On a non-holomorphic potential of the flag chart, both signs."""
    from pbhverify.poisson import _wirtinger
    fb, pts = flag_data
    u = fb.f_p1.fn(jet_coords(6, 2, pts))
    for sign, ref in ((-1.0, ref_wirtinger_d), (1.0, ref_wirtinger_dbar)):
        new = _wirtinger(u, 3, sign)
        for b in range(3):
            assert_jets_close(new[:, b], ref(u, b))
    assert np.abs(_wirtinger(u, 3, 1.0).value).max() > 0.1


def test_chart_derivatives_match_partial_route():
    from pbhverify.flagmodel import cp2_charts
    for name, ch in cp2_charts().items():
        jc = jet_coords(4, 1, SamplePlan(16, 45).sample(ch.chart))
        for new, hol in ((ch.xf_jet, ch.x_hol), (ch.yf_jet, ch.y_hol)):
            assert_jets_close(new(jc), ref_xf_jet(ch, jc, hol))


def test_sigma_dbar_matches_per_component_loop(flag_data):
    """The stacked sigma against the 27 passes, for the holomorphic fields
    and for their conjugates (where dbar does not vanish)."""
    from pbhverify.poisson import _wirtinger
    fb, pts = flag_data
    jc = jet_coords(6, 1, pts)
    for zz1, zz2 in ((fb.z1_hol(jc), fb.z2_hol(jc)),
                     (fb.z1_hol(jc).conj(), fb.z2_hol(jc) + fb.z2_hol(jc).conj())):
        prod = jeinsum("...p,...q->...pq", zz1, zz2)
        new = _wirtinger(prod - jtranspose(prod), 3, 1.0).value
        np.testing.assert_allclose(new, ref_sigma_dbar_components(zz1, zz2),
                                   rtol=RTOL, atol=ATOL)
    assert np.abs(new).max() > 0.1
    old = np.abs(ref_sigma_dbar_components(fb.z1_hol(jc), fb.z2_hol(jc))).max()
    np.testing.assert_allclose(fb.sigma_dbar_residual(pts), old, rtol=RTOL, atol=ATOL)


def test_x10_factor_derivatives_match_removed_copy(flag_data):
    from pbhverify.flagmodel import cp2_charts
    fb, pts = flag_data
    jc = jet_coords(6, 1, pts)
    z_chart = cp2_charts()["z"]
    for zeta in (fb._z(jc), fb._w(jc)):
        for new, old in zip(z_chart.field_derivatives(*zeta), ref_xf_yf_at(*zeta)):
            assert_jets_equal(new, old)


def test_fundamental_form_matches_per_combo_stack(kodaira_jets, kodaira_pairs):
    from pbhverify.structures import fundamental_form
    model, jc = kodaira_jets
    for pair in kodaira_pairs + tuple(HermitianPair(model.triple.g, j)
                                      for j in model.triple.js[1:]):
        assert_jets_equal(fundamental_form(pair.g, pair.j).fn(jc),
                          ref_fundamental_form(pair.g.fn(jc), pair.j.fn(jc)))


def test_top_form_component_matches_frame_evaluation(kodaira_jets, kodaira_pairs):
    from pbhverify.tensorcalc import evaluate_form, wedge
    model, jc = kodaira_jets
    pts = jc.value
    for pair in kodaira_pairs:
        top = wedge(pair.f, pair.f)
        frame = [Jet.constant(jet_space(4, 0), np.tile(np.eye(4)[i], (len(pts), 1)))
                 for i in range(4)]
        old = evaluate_form(top.eval_jet(pts), frame, 4, 4).value
        assert np.array_equal(top.eval(pts)[:, 0], old)
        assert np.abs(old).min() > 0.1


def test_lower_trivector_matches_permutation_loop(kodaira_model, torus_model, plan):
    """Bitwise the permutation loop contracted pairwise (p, then q, then
    r), and the four-operand loop to roundoff."""
    from pbhverify.poisson import lower_trivector
    rng = np.random.default_rng(5)
    pairwise = ["einsum_path", (0, 1), (0, 2), (0, 1)]
    for model in (torus_model, kodaira_model):
        pts = plan.sample(model.chart)
        tri = rng.normal(size=(len(pts), 4))
        g = model.triple.g.eval(pts)
        new = lower_trivector(tri, g, 4)
        assert np.array_equal(new, ref_lower_trivector(tri, g, 4, form_combos(4, 3), pairwise))
        np.testing.assert_allclose(new, ref_lower_trivector(tri, g, 4, form_combos(4, 3)),
                                   rtol=RTOL, atol=ATOL)


def test_engel_fields_match_removed_copies(kodaira_jets, kodaira_pairs):
    """Constant p on the rescaled kodaira pair; varying p on synthetic data
    over the kodaira chart.  The generators X, Y and |theta+|^2 share one
    inverse of g."""
    from pbhverify.engel import lee_fields, synthetic_data
    from pbhverify.structures import BihermitianData
    model, jc = kodaira_jets
    t = model.triple
    g2 = kodaira_pairs[1].g
    lfs = [lee_fields(BihermitianData(g2, t.j1, t.j1 * 1.25 + t.j2 * 0.75)),
           synthetic_data(model.chart)]
    for lf in lfs:
        x, y, tnorm, f, n, n_pm = ref_engel(lf, jc)
        assert_jets_equal(lf.x.fn(jc), x)
        assert_jets_equal(lf.y.fn(jc), y)
        assert_jets_equal(lf.theta_norm_sq.fn(jc), tnorm)
        assert_jets_equal(lf.data.branch.fn(jc), f)
        assert_jets_equal(lf.data.n_minus.fn(jc), n)
        for new, old in zip((lf.data.n_plus, lf.data.n_minus), n_pm):
            assert_jets_equal(new.fn(jc), old)
    assert np.abs(lfs[1].data.branch.fn(jc).c[..., 1:]).max() > 0.01  # p varies
    # the jet derivative rule differentiates the same N
    lf = lfs[1]
    conn = levi_civita(lf.data.g)
    pts = jc.value[:4]
    old_n = Field(model.chart, "endo", lambda c: ref_engel(lf, c)[4],
                  cost=max(lf.data.jp.cost, lf.data.jm.cost, lf.data.p.cost))
    assert np.array_equal(conn.cov_deriv_endo(lf.data.n_minus).eval(pts),
                          conn.cov_deriv_endo(old_n).eval(pts))


def ref_check_p_gradient(data, pts):
    """The p-gradient residual with the g-pairing of J+ and J- written out."""
    chart = data.g.chart
    gpair = scalar_field(chart,
                         lambda jc: jtrace(jmatmul(data.jp.fn(jc),
                                                   data.jm.fn(jc))) * (-0.5),
                         cost=max(data.jp.cost, data.jm.cost))
    dgp = d_scalar(gpair)
    thp = data.pair_plus.theta
    thm = data.pair_minus.theta

    def fn(jc):
        jpv, jmv = data.jp.fn(jc), data.jm.fn(jc)
        q = jmatmul(jpv, jmv) - jmatmul(jmv, jpv)
        comp = jmatvec(Jet(q.space, np.swapaxes(q.c, 1, 2), q.order),
                       thp.fn(jc) - thm.fn(jc))
        return dgp.fn(jc) * 2.0 + comp

    return oneform_field(chart, fn, cost=max(dgp.cost, thp.cost, thm.cost)).eval(pts)


def test_p_gradient_matches_written_out_pairing(kodaira_jets, monkeypatch):
    """Synthetic data with varying p over the kodaira chart, compared
    pointwise (``max_abs`` passes the residual values through)."""
    from pbhverify import structures
    from pbhverify.engel import synthetic_data
    model, jc = kodaira_jets
    data = synthetic_data(model.chart).data
    pts = jc.value
    old = ref_check_p_gradient(data, pts)
    monkeypatch.setattr(structures, "max_abs", np.asarray)
    assert np.array_equal(structures.check_p_gradient(data, pts), old)
    assert np.abs(d_scalar(data.p).eval(pts)).max() > 0.01


def ref_derivative_rule_table(lv):
    """(nabla_{e_i} N) e_k from the Lee rule for each of the 16 pairs of
    coordinate vectors, one call per pair on tiled basis vectors, stacked
    as (B, 16, 4) with pair index 4 i + k."""
    g, ginv, jp, jm, kv = lv.g, lv.ginv, lv.jp, lv.jm, lv.k
    thp, thm, f = lv.theta_p, lv.theta_m, lv.f
    thp_sharp = np.einsum("bij,bj->bi", ginv, thp)
    thm_sharp = np.einsum("bij,bj->bi", ginv, thm)

    def nabla_j(u, v, j, theta, theta_sharp):
        guv = np.einsum("bi,bij,bj->b", u, g, v)
        ju = np.einsum("bij,bj->bi", j, u)
        jv = np.einsum("bij,bj->bi", j, v)
        gjuv = np.einsum("bi,bij,bj->b", ju, g, v)
        th_jv = np.einsum("bi,bi->b", theta, jv)
        th_v = np.einsum("bi,bi->b", theta, v)
        jtheta = np.einsum("bij,bj->bi", j, theta_sharp)
        return (guv[:, None] * jtheta + gjuv[:, None] * theta_sharp
                + th_jv[:, None] * u - th_v[:, None] * ju)

    def df_along(u):
        ku = np.einsum("bij,bj->bi", kv, u)
        return -0.5 * f * np.einsum("bi,bi->b", thp - thm, ku)

    def nabla_n(u, v):
        term = 0.5 * (nabla_j(u, v, jp, thp, thp_sharp)
                      + f[:, None] * nabla_j(u, v, jm, thm, thm_sharp))
        jmv = np.einsum("bij,bj->bi", jm, v)
        return term + df_along(u)[:, None] * jmv

    basis = [np.tile(np.eye(4)[i], (len(g), 1)) for i in range(4)]
    return np.stack([nabla_n(basis[i], basis[k])
                     for i in range(4) for k in range(4)], axis=1)


@pytest.mark.parametrize("model", ["torus", "kodaira"])
def test_derivative_rule_table_equals_the_pair_loop(model):
    """The broadcast coordinate-frame table of derivative_rule_residual
    equals the per-pair loop bitwise, on the conformal pair and on synthetic
    data: given the loop's table as the jet side, the residual is exactly 0,
    which holds only if every entry agrees."""
    from pbhverify.engel import derivative_rule_residual, lee_fields, synthetic_data
    ctx = suites.SuiteContext(suites.SuiteConfig(suite="engel", model=model))
    pts = ctx.points()
    for lf in (lee_fields(ctx.conformal), synthetic_data(ctx.model.chart)):
        lv = lf.values(pts)
        old = ref_derivative_rule_table(lv).reshape(len(pts), 4, 4, 4)
        assert np.abs(old).max() > 0.1
        dn = np.einsum("bikj->bijk", old)
        assert derivative_rule_residual(lv, dn) == 0.0
        assert derivative_rule_residual(lv, dn * (1.0 + 1e-15)) > 0.0


def test_block_assemblies_match_removed_copies(torus_bundle, kodaira_jets):
    """gcs_from_form, b_conjugate_endo and gualtieri_build against their
    hand-assembled blocks, on the torus bundle's forms at kodaira-chart
    points of the same box."""
    from pbhverify.gencomplex import b_conjugate_endo, gcs_from_form, gualtieri_build
    _, jc = kodaira_jets
    b = torus_bundle
    i1 = gcs_from_form(b.beta1)
    assert_jets_equal(i1.fn(jc), ref_gcs_from_form(b.beta1.fn(jc), 4))
    b2 = random_poly_two_form(b.chart, 77)
    for sign in (1.0, -1.0):
        assert_jets_equal(b_conjugate_endo(i1, b2 * sign).fn(jc),
                          ref_b_conjugate(i1.fn(jc), b2.fn(jc), 4, sign))
    g, jp, jm = b.g * (-1.5), b.data.jm * (-1.0), b.data.jp * (-1.0)
    from pbhverify.structures import fundamental_form
    fpv, fmv = fundamental_form(g, jp).fn(jc), fundamental_form(g, jm).fn(jc)
    for new, s in zip(gualtieri_build(g, jp, jm), (1.0, -1.0)):
        assert_jets_equal(new.fn(jc), ref_gualtieri_block(jp.fn(jc), jm.fn(jc),
                                                          fpv, fmv, 4, s))


# -- the degree rule against the full Leibniz product --------------------------


def higher(a, b):
    return max(a.space, b.space, key=lambda s: s.order)


def leibniz_jeinsum(spec, a, b):
    """The full-table product in the higher of the operands' spaces."""
    return leibniz(spec, a, b, higher(a, b))


def leibniz_mul(a, b):
    return full_mul(a, b, higher(a, b))


CONST_SPACES = [(4, 1), (4, 2), (4, 3), (6, 3)]
DEGREE_SPACES = [(4, 1), (4, 2), (4, 3), (4, 4), (6, 3)]
# (spec, shape of a, shape of b); the last case is the broadcast of the
# structure against the stacked sections in gcs_nijenhuis
CONST_CONTRACTIONS = [("...ij,...jk->...ik", (8, 3, 4), (8, 4, 2)),
                      ("...ij,...jk->...ik", (64, 4, 4), (64, 4, 4)),
                      ("...ij,...j->...i", (8, 1, 8, 8), (8, 7, 8))]
CONST_PRODUCTS = [((8,), (8,)), ((64, 4, 4), (64, 4, 4)), ((8, 1, 8), (8, 7, 8))]


def constant_jet(jet):
    c = jet.c.copy()
    c[..., 1:] = 0.0
    return Jet(jet.space, c, jet.order)


def const_operands(rng, sp, shape_a, shape_b, which, cplx_a, cplx_b):
    a = random_jet(rng, sp, shape_a, cplx_a, sp.order)
    b = random_jet(rng, sp, shape_b, cplx_b, int(rng.integers(0, sp.order + 1)))
    if which in ("a", "both"):
        a = constant_jet(a)
    if which in ("b", "both"):
        b = constant_jet(b)
    return a, b


def degree_jet(rng, sp, shape, cplx, top):
    """A jet valid to the space's order whose coefficients above degree
    ``top`` are zero."""
    jet = random_jet(rng, sp, shape, cplx, sp.order)
    jet.c[..., sp.degree > top] = 0.0
    return jet


@contextmanager
def pairs_spy():
    """Record the (space, da, db) of every ``JetSpace.pairs`` lookup."""
    calls = []
    pairs = JetSpace.pairs

    def spy(space, da, db):
        calls.append((space, da, db))
        return pairs(space, da, db)

    with mock.patch.object(JetSpace, "pairs", spy):
        yield calls


def assert_constant_rule(calls, which):
    """One lookup, of a table with one coefficient-1 pair per output, with
    degree 0 on the constant side."""
    (space, da, db), = calls
    assert space.pairs(da, db).trivial
    if which in ("a", "both"):
        assert da == 0
    if which in ("b", "both"):
        assert db == 0


const_draws = st.tuples(st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("which", ["a", "b", "both"])
@pytest.mark.parametrize("contraction", CONST_CONTRACTIONS)
@pytest.mark.parametrize("dim,order", CONST_SPACES)
@settings(max_examples=4, deadline=None)
@given(const_draws)
def test_constant_jeinsum_matches_leibniz(dim, order, contraction, which, draw):
    cplx_a, cplx_b, seed = draw
    spec, shape_a, shape_b = contraction
    rng = np.random.default_rng(seed)
    a, b = const_operands(rng, jet_space(dim, order), shape_a, shape_b,
                          which, cplx_a, cplx_b)
    with pairs_spy() as calls:
        new = jeinsum(spec, a, b)
    assert_constant_rule(calls, which)
    assert_jets_close(new, leibniz_jeinsum(spec, a, b))


@pytest.mark.parametrize("contraction", CONST_CONTRACTIONS)
@pytest.mark.parametrize("dim,order", DEGREE_SPACES)
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_degree_jeinsum_matches_leibniz(dim, order, contraction, data):
    """Factors of every pair of top degrees take the table of exactly those
    degrees and agree with the full product to roundoff, bitwise where each
    output keeps at most two terms."""
    spec, shape_a, shape_b = contraction
    da, db = data.draw(st.tuples(st.integers(0, order), st.integers(0, order)))
    cplx_a, cplx_b, seed = data.draw(const_draws)
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = degree_jet(rng, sp, shape_a, cplx_a, da)
    b = degree_jet(rng, sp, shape_b, cplx_b, db)
    with pairs_spy() as calls:
        new = jeinsum(spec, a, b)
    assert calls == [(sp, da, db)]
    old = leibniz_jeinsum(spec, a, b)
    assert_jets_close(new, old)
    if min(da, db) == 0 or max(da, db) <= 1:
        assert np.array_equal(new.c, old.c)


def test_degree_tables_are_subsequences_of_the_full_table():
    """pairs(0, order) and pairs(order, order) are the constant and full
    products; every table keeps its rows in the full table's order."""
    for dim, order in DEGREE_SPACES:
        sp = jet_space(dim, order)
        full = sp.pairs(order, order)
        assert np.array_equal(full.a, sp.prod_a) and np.array_equal(full.b, sp.prod_b)
        assert np.array_equal(full.starts, sp.prod_starts) and not full.trivial
        assert sp.pairs(0, order).trivial and sp.pairs(order, 0).trivial
        assert np.array_equal(sp.pairs(0, order).b, np.arange(sp.n))
        rows = {(int(x), int(y)): i for i, (x, y) in enumerate(zip(sp.prod_a, sp.prod_b))}
        for da in range(order + 1):
            for db in range(order + 1):
                t = sp.pairs(da, db)
                idx = [rows[int(x), int(y)] for x, y in zip(t.a, t.b)]
                assert idx == sorted(idx)
                assert np.array_equal(t.c, sp.prod_c[idx])
                assert len(t.starts) == sp.deg_starts[min(da + db, order) + 1]


@pytest.mark.parametrize("which", ["a", "b", "both"])
@pytest.mark.parametrize("shapes", CONST_PRODUCTS)
@pytest.mark.parametrize("dim,order", CONST_SPACES)
@settings(max_examples=4, deadline=None)
@given(const_draws)
def test_constant_mul_equals_leibniz(dim, order, shapes, which, draw):
    """No sum is reassociated in the elementwise product, so the rule is
    exact."""
    cplx_a, cplx_b, seed = draw
    rng = np.random.default_rng(seed)
    a, b = const_operands(rng, jet_space(dim, order), *shapes, which, cplx_a, cplx_b)
    new, old = a * b, leibniz_mul(a, b)
    assert new.order == old.order
    assert np.array_equal(new.c, old.c)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["a", "b"])
def test_nonfinite_constant_value_fails_closed(bad, which):
    rng = np.random.default_rng(5)
    sp = jet_space(4, 2)
    spec, shape_a, shape_b = CONST_CONTRACTIONS[0]
    a, b = const_operands(rng, sp, shape_a, shape_b, which, False, True)
    const = a if which == "a" else b
    const.c[3, 1, 1, 0] = bad
    with np.errstate(invalid="ignore"), pairs_spy() as calls:
        prod = jeinsum(spec, a, b)
        elem = a[:, 1, :] * b[:, :, 1]
    assert_constant_rule(calls, which)
    assert not np.isfinite(prod.value).all()
    assert not np.isfinite(elem.value).all()
    assert np.isfinite(prod.value[:3]).all() and np.isfinite(elem.value[:3]).all()


def test_nan_derivative_takes_full_product():
    """A NaN in one derivative coefficient of an otherwise constant factor
    is not a zero: it sets that factor's top degree, so a NaN of top degree
    selects the full table ``pairs(order, order)``, and the NaN reaches the
    result."""
    rng = np.random.default_rng(6)
    sp = jet_space(4, 3)
    spec, shape_a, shape_b = CONST_CONTRACTIONS[2]
    for pos in (sp.n - 1, 7):
        a = constant_jet(random_jet(rng, sp, shape_a, True, sp.order))
        b = random_jet(rng, sp, shape_b, False, sp.order)
        a.c[2, 0, 3, 5, pos] = np.nan
        with pairs_spy() as calls:
            new = jeinsum(spec, a, b)
        assert calls == [(sp, sp.degree[pos], sp.order)]
        assert np.isnan(new.c).any()
        np.testing.assert_allclose(new.c, leibniz_jeinsum(spec, a, b).c,
                                   rtol=RTOL, atol=ATOL, equal_nan=True)
        x, y = a[:, :, 3, 5], b[:, :, 5]
        assert np.array_equal((x * y).c, leibniz_mul(x, y).c, equal_nan=True)
        assert np.isnan((x * y).c).any()


@pytest.mark.parametrize("dim,order", CONST_SPACES)
def test_one_derivative_coefficient_is_not_constant(dim, order):
    """A factor whose only nonzero derivative coefficient is the first or
    the last one of a degree block is not constant: it takes the table of
    that block's degree."""
    sp = jet_space(dim, order)
    spec, shape_a, shape_b = CONST_CONTRACTIONS[0]
    for d in range(1, order + 1):
        for pos in (sp.deg_starts[d], sp.deg_starts[d + 1] - 1):
            rng = np.random.default_rng(pos)
            a = constant_jet(random_jet(rng, sp, shape_a, False, order))
            a.c[..., pos] = rng.normal(size=shape_a)
            b = random_jet(rng, sp, shape_b, True, order)
            with pairs_spy() as calls:
                assert_jets_close(jeinsum(spec, a, b), leibniz_jeinsum(spec, a, b))
            assert calls == [(sp, d, order)]
            x, y = a[:, 0], b[:, :, 0]
            assert np.array_equal((x * y).c, leibniz_mul(x, y).c)


@pytest.mark.parametrize("seed", [42, 7])
def test_kodaira_structures_equal_the_frame_products(seed, kodaira_model):
    """J1, J2, J3 and g of every kodaira candidate, evaluated as polynomials
    in x1, are bitwise (sign bits included) the jet products P M P^-1 and
    P^-T G P^-1 of the frame matrix, at orders 0-4, on coordinate jets and
    on flowed ones (x1 a general jet); the evaluation looks up no Leibniz
    table."""
    chart = kodaira_model.chart
    cands = kodaira_candidates()
    triples = kodaira_triples(chart)
    bundle = example2_build(kodaira_model, example2_params(), SamplePlan(8, seed))
    flow = HamiltonianFlow(bundle.f_k, F_CATALOG["sin14"], 0.1, 2e-2)
    pts = SamplePlan(8, seed).sample(chart)
    for order in range(5):
        jc = jet_coords(4, order, pts)
        for x in (jc, flow.flow_jet(jc)):
            p, pinv = ref_kodaira_frame(x, 1.0), ref_kodaira_frame(x, -1.0)
            for (j1f, j2f), triple in zip(cands, triples):
                mats = (KODAIRA_FRAME_METRIC, j1f, j2f, j1f @ j2f)
                with pairs_spy() as calls:
                    new = [f.fn(x) for f in (triple.g,) + triple.js]
                assert calls == []
                old = [jmatmul(jmatmul(jtranspose(pinv),
                                       _broadcast_const(x, mats[0])), pinv)]
                old += [jmatmul(jmatmul(p, _broadcast_const(x, m)), pinv)
                        for m in mats[1:]]
                for a, b in zip(new, old):
                    assert_jets_equal(a, b)
                    assert np.array_equal(np.signbit(a.c), np.signbit(b.c))


# -- the degree rule at degree 0 in jet_solve and Taylor composition -----------


def neumann_inv(m):
    """The inverse by the exactly truncated Neumann series around the value
    part, always, with no constant rule."""
    sp = m.space
    d = m.c.shape[-2]
    m0inv_j = Jet.constant(sp, np.linalg.inv(m.value))
    pert = m.c.copy()
    pert[..., 0] = 0
    e = jmatmul(m0inv_j, Jet(sp, pert, m.order))
    eye = Jet.constant(sp, np.broadcast_to(np.eye(d), m.value.shape).copy())
    acc = term = eye
    for k in range(1, m.order + 1):
        term = jmatmul(term, e)
        acc = acc + term * ((-1.0) ** k)
    return jmatmul(acc, m0inv_j)


def full_table_compose(self, derivs):
    """``Jet._compose`` as the full-table ``taylor`` oracle, with no
    constant rule and no power tables."""
    return taylor(self, list(derivs), self.space)


ELEMENTARY = ["reciprocal", "sqrt", "exp", "log", "sin", "cos"]


def invertible_jet(rng, sp, cplx, order, k=3, batch=8):
    """A (batch, k, k) jet whose value part is well conditioned."""
    m = random_jet(rng, sp, (batch, k, k), cplx, order)
    m.c[..., 0] += 4.0 * np.eye(k)
    return m


def positive_jet(rng, sp, cplx, order, batch=8):
    """A (batch,) jet with value real part in [0.5, 2], inside the domain
    of every elementary function."""
    x = random_jet(rng, sp, (batch,), cplx, order)
    x.c[..., 0] = rng.uniform(0.5, 2.0, size=batch) + (0.3j * x.c[..., 0].imag
                                                         if cplx else 0.0)
    return x


@contextmanager
def inv_matmul_spy():
    """Count the ``jmatmul`` calls made in ``jets``."""
    calls = []

    def spy(a, b):
        calls.append(1)
        return jmatmul(a, b)

    with mock.patch("pbhverify.tensorcalc.jets.jmatmul", spy):
        yield calls


inv_draws = st.tuples(st.booleans(), st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("dim,order", DEGREE_SPACES)
@settings(max_examples=8, deadline=None)
@given(inv_draws)
def test_constant_jet_inv_equals_neumann(dim, order, draw):
    """A constant matrix skips the series; the result equals the series'
    (``array_equal`` counts -0.0 and 0.0 as equal)."""
    cplx, seed = draw
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    m = constant_jet(invertible_jet(rng, sp, cplx, int(rng.integers(0, order + 1))))
    with inv_matmul_spy() as calls:
        new = jet_inv(m)
    assert calls == []
    old = neumann_inv(m)
    assert new.order == old.order and new.c.dtype == old.c.dtype
    assert np.array_equal(new.c, old.c)


def recursion_lookups(sp):
    """The product tables one non-constant ``jet_solve`` reads: degree d
    takes the rows of pairs(order, d - 1) with an output of degree d."""
    return [(sp, sp.order, d - 1) for d in range(1, sp.order + 1)]


@pytest.mark.parametrize("rhs", [(3,), (3, 2)], ids=["vector", "matrix"])
@pytest.mark.parametrize("dim,order", DEGREE_SPACES)
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_jet_solve_matches_neumann(dim, order, rhs, data):
    """For ``a`` of every top degree, the degree recursion agrees with the
    Neumann series applied to ``b`` and ``a @ x`` reproduces ``b``, both to
    roundoff of the terms summed (|a| |x|; derivative coefficients of x
    reach 1e6 at order 3).  The solve runs in the space of ``b``'s order,
    the lower one, where ``a`` is its prefix.  A prefix of ``a`` that is not
    constant reads one table per degree; a constant one takes the constant
    rule and is bitwise its constant inverse applied to ``b``."""
    top = data.draw(st.integers(0, order))
    cplx_a, cplx_b, seed = data.draw(const_draws)
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = degree_jet(rng, sp, (8, 3, 3), cplx_a, top)
    a.c[..., 0] += 4.0 * np.eye(3)
    b = random_jet(rng, sp, (8,) + rhs, cplx_b, int(rng.integers(0, order + 1)))
    apply = jmatvec if len(rhs) == 1 else jmatmul
    with pairs_spy() as calls:
        x = jet_solve(a, b)
    assert x.space is b.space
    if min(top, b.order):
        assert calls == recursion_lookups(b.space)
    else:
        assert_constant_rule(calls, "a")
        old = apply(Jet.constant(b.space, np.linalg.inv(a.value)), b)
        assert x.order == old.order and x.c.dtype == old.c.dtype
        assert np.array_equal(x.c, old.c)
    atol = ATOL * max(1.0, np.abs(a.c).max() * np.abs(x.c).max())
    for new, old in ((x, apply(neumann_inv(a), b)), (apply(a, x), b)):
        assert new.order == old.order
        np.testing.assert_allclose(new.c, old.c, rtol=RTOL, atol=atol)


@pytest.mark.parametrize("rhs", [(3,), (3, 2)], ids=["vector", "matrix"])
@pytest.mark.parametrize("dim,order", DEGREE_SPACES)
@settings(max_examples=16, deadline=None)
@given(const_draws)
def test_constant_solve_agrees_with_the_recursion(dim, order, rhs, draw):
    """A constant ``a`` takes the constant path, one ``jeinsum`` of
    inv(a0) with ``b``; the degree recursion forced on the same operands
    agrees with it to roundoff.  For a matrix ``b`` the two are equal
    (``array_equal``); for a vector ``b`` they may differ in the last bits,
    since ``np.einsum`` contracts the constant path's gathered operands in
    another loop than the recursion's."""
    cplx_a, cplx_b, seed = draw
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = constant_jet(invertible_jet(rng, sp, cplx_a, order))
    b = degree_jet(rng, sp, (8,) + rhs, cplx_b, order)
    fast = jet_solve(a, b)
    with mock.patch("pbhverify.tensorcalc.jets._is_constant", lambda x: False):
        full = jet_solve(a, b)
    assert fast.space is full.space and fast.c.dtype == full.c.dtype
    np.testing.assert_allclose(fast.c, full.c, rtol=RTOL, atol=ATOL)
    if len(rhs) == 2:
        assert np.array_equal(fast.c, full.c)


def _solvable(rng, sp, cplx):
    m = degree_jet(rng, sp, (8, 3, 3), cplx, int(rng.integers(0, sp.order + 1)))
    m.c[..., 0] += 4.0 * np.eye(3)
    return m


def _drawn(rng, sp, cplx, shape):
    return degree_jet(rng, sp, shape, cplx, int(rng.integers(0, sp.order + 1)))


def _positive(rng, sp, cplx):
    x = _drawn(rng, sp, cplx, (8,))
    x.c[..., 0] = rng.uniform(0.5, 2.0, size=8) + (0.3j * x.c[..., 0].imag if cplx else 0.0)
    return x


# name -> (kernel, its operands in a space, the lowest order a cut goes to)
PREFIX_KERNELS = {
    "jet_inv": (jet_inv, lambda rng, sp, cplx: [_solvable(rng, sp, cplx)], 0),
    "jet_solve-vector": (jet_solve, lambda rng, sp, cplx: [
        _solvable(rng, sp, cplx), _drawn(rng, sp, cplx, (8, 3))], 1),
    "jet_solve-matrix": (jet_solve, lambda rng, sp, cplx: [
        _solvable(rng, sp, cplx), _drawn(rng, sp, cplx, (8, 3, 2))], 1),
    "jmatmul": (jmatmul, lambda rng, sp, cplx: [
        _drawn(rng, sp, cplx, (8, 3, 4)), _drawn(rng, sp, cplx, (8, 4, 2))], 0),
    "jmatvec": (jmatvec, lambda rng, sp, cplx: [
        _drawn(rng, sp, cplx, (8, 3, 4)), _drawn(rng, sp, cplx, (8, 4))], 0),
    "mul": (Jet.__mul__, lambda rng, sp, cplx: [
        _drawn(rng, sp, cplx, (8, 3)), _drawn(rng, sp, cplx, (8, 3))], 0),
    "reciprocal": (Jet.reciprocal, lambda rng, sp, cplx: [_positive(rng, sp, cplx)], 0),
    "sqrt": (Jet.sqrt, lambda rng, sp, cplx: [_positive(rng, sp, cplx)], 0),
}
PREFIX_CASES = [(dim, order, name)
                for dim, order in [(4, 1), (4, 2), (4, 3), (4, 4), (6, 3), (2, 2)]
                for name, (_, _, lowest) in PREFIX_KERNELS.items() if lowest < order]


@pytest.mark.parametrize("dim,order,kernel", PREFIX_CASES)
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_kernels_commute_with_the_prefix(dim, order, kernel, data):
    """A kernel on its operands' prefixes of a lower order is bitwise the
    prefix of its result, sign bits included: it computes each coefficient
    of degree k from those of degree <= k only, in one order.  Field
    closures rely on this to evaluate an operand at the order their result
    keeps (the ``cost`` notes of ``tensorcalc.fields``).  Each operand has a
    drawn top degree.  ``jet_solve`` cut to order 0 is left out: a constant
    matrix takes the constant path, which for a vector ``b`` agrees with the
    recursion only to roundoff (the test above)."""
    cplx, seed = data.draw(inv_draws)
    fn, make, lowest = PREFIX_KERNELS[kernel]
    low = jet_space(dim, data.draw(st.integers(lowest, order - 1)))
    args = make(np.random.default_rng(seed), jet_space(dim, order), cplx)
    want = jet_prefix(fn(*args), low)
    got = fn(*(jet_prefix(a, low) for a in args))
    assert got.space is low and got.c.dtype == want.c.dtype
    assert got.c.tobytes() == np.ascontiguousarray(want.c).tobytes()


@pytest.mark.parametrize("fn", ELEMENTARY)
@pytest.mark.parametrize("dim,order", DEGREE_SPACES)
@settings(max_examples=6, deadline=None)
@given(inv_draws)
def test_constant_compose_equals_taylor(dim, order, fn, draw):
    cplx, seed = draw
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    x = constant_jet(positive_jet(rng, sp, cplx, int(rng.integers(0, order + 1))))
    new = getattr(x, fn)()
    with mock.patch.object(Jet, "_compose", full_table_compose):
        old = getattr(x, fn)()
    assert new.order == old.order and new.c.dtype == old.c.dtype
    assert np.array_equal(new.c, old.c)


POWER_SPACES = [(4, 2), (4, 3), (4, 4), (6, 3)]


@pytest.mark.parametrize("fn", ELEMENTARY + ["sincos"])
@pytest.mark.parametrize("dim,order", POWER_SPACES)
@settings(max_examples=6, deadline=None)
@given(inv_draws, st.integers(1, 4))
def test_power_tables_compose_as_the_full_table(dim, order, fn, draw, low):
    """Powers of du through ``JetSpace.power_pairs`` give every composition
    the full-table ``taylor`` gives, up to the sign of a zero, also when
    du has no coefficient below degree ``low`` (so high powers vanish)."""
    cplx, seed = draw
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    x = positive_jet(rng, sp, cplx, order)
    x.c[..., 1:sp.deg_starts[min(low, order)]] = 0.0
    new = getattr(x, fn)()
    with mock.patch.object(Jet, "_compose", full_table_compose):
        old = getattr(x, fn)()
    for a, b in zip(*((new, old) if fn == "sincos" else ((new,), (old,)))):
        assert a.order == b.order and a.c.dtype == b.c.dtype
        assert np.array_equal(a.c, b.c)


def test_power_tables_are_the_nonzero_rows_of_the_full_table():
    """Table m holds the full table's rows with deg a >= m and deg b >= 1
    (a power of du has no coefficient below degree m, du none at degree 0),
    and the whole segment of an output with three or more of those rows,
    in the full table's order, with one ``reduceat`` segment per output of
    degree >= m + 1."""
    for dim, order in DEGREE_SPACES:
        sp = jet_space(dim, order)
        rows = {(int(x), int(y)): i for i, (x, y) in enumerate(zip(sp.prod_a, sp.prod_b))}
        for m in range(1, order):
            live = [i for i in range(len(sp.prod_out))
                    if sp.degree[sp.prod_a[i]] >= m and sp.degree[sp.prod_b[i]] >= 1]
            many = {g for g in sp.prod_out[live] if list(sp.prod_out[live]).count(g) > 2}
            want = sorted(set(live) | {i for i, g in enumerate(sp.prod_out) if g in many})
            t = sp.power_pairs(m)
            idx = [rows[int(x), int(y)] for x, y in zip(t.a, t.b)]
            assert idx == want
            assert np.array_equal(t.c, sp.prod_c[idx])
            outs = sp.prod_out[idx]
            assert np.array_equal(outs[t.starts], np.arange(sp.deg_starts[m + 1], sp.n))
            assert np.array_equal(np.unique(outs), outs[t.starts])
        assert sorted(sp._powers) == list(range(1, order))


# the float64 spaces of the segment-sum oracle; (4, 4) and complex
# operands are drawn as well, whichever kernel they take
KERNEL_SPACES = [(4, 1), (4, 2), (4, 3), (6, 3), (2, 3)]
kernel_draws = st.tuples(st.sampled_from(LEADING), st.booleans(), st.integers(0, 2**32 - 1))


def test_segments_lay_out_the_table_rows():
    """``JetSpace.product`` and every power table carry segments exactly
    when no output has more than 4 rows (every space of order <= 2 here);
    output i's rows sit in column i in the table's order, and a shorter
    segment repeats its first row with coefficient 0."""
    for dim, order in KERNEL_SPACES + [(4, 4), (6, 2), (1, 3)]:
        sp = jet_space(dim, order)
        for t in [sp.product] + [sp.power_pairs(m) for m in range(1, order)]:
            counts = np.diff(np.append(t.starts, len(t.a)))
            seg = t.segments
            assert (seg is not None) == (counts.max() <= 4)
            if seg is None:
                continue
            assert seg.a.shape == seg.b.shape == seg.c.shape == (seg.width, len(t.starts))
            assert seg.width == counts.max()
            for i, (start, count) in enumerate(zip(t.starts, counts)):
                rows = slice(start, start + count)
                assert np.array_equal(seg.a[:count, i], t.a[rows])
                assert np.array_equal(seg.b[:count, i], t.b[rows])
                assert np.array_equal(seg.c[:count, i], t.c[rows])
                assert (seg.a[count:, i] == t.a[start]).all() and (seg.b[count:, i] == t.b[start]).all()
                assert (seg.c[count:, i] == 0.0).all()
        assert (sp.product.segments is not None) == (order <= 2 or dim == 1 and order <= 3)


@pytest.mark.parametrize("dim,order", KERNEL_SPACES + [(4, 4)])
@settings(max_examples=8, deadline=None)
@given(st.data(), kernel_draws)
def test_product_matches_the_reduceat_kernel(dim, order, data, draw):
    """``Jet.__mul__`` of two non-constant factors, at drawn top degrees,
    equals the ``reduceat`` kernel over the full table bitwise up to the
    sign of a zero (``array_equal`` counts -0.0 and 0.0 as equal): in
    float64 through the segment sums where the table has them, and for
    complex operands and (4, 4) too, whichever kernel they take."""
    (shape_a, shape_b), cplx, seed = draw
    da, db = data.draw(st.tuples(st.integers(1, order), st.integers(1, order)))
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = degree_jet(rng, sp, shape_a, cplx, da)
    b = degree_jet(rng, sp, shape_b, data.draw(st.booleans()) and cplx, db)
    new, old = (a * b).c, reduceat_leibniz(sp.product, a.c, b.c)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(new, old)
    assert new.flags.c_contiguous


def test_product_of_integer_coefficients_is_float():
    """Integer coefficient arrays multiply to the float64 Leibniz sums,
    through the segment sums and through ``reduceat``."""
    for dim, order in ((2, 2), (2, 3)):
        sp = jet_space(dim, order)
        a = Jet(sp, np.arange(2 * sp.n).reshape(2, sp.n))
        new = (a * a).c
        assert new.dtype == np.float64
        assert np.array_equal(new, reduceat_leibniz(sp.product, a.c * 1.0, a.c * 1.0))


@pytest.mark.parametrize("dim,order", [(4, 2), (4, 3), (6, 3), (2, 3), (4, 4), (1, 3)])
@settings(max_examples=6, deadline=None)
@given(kernel_draws)
def test_powers_match_the_reduceat_kernel(dim, order, draw):
    """Every power step of ``_compose`` (``_next_power`` through
    ``power_pairs(m)``) equals the ``reduceat`` kernel over the full table
    bitwise up to the sign of a zero, for float64 and complex du."""
    (shape, _), cplx, seed = draw
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    du = random_jet(rng, sp, shape, cplx, order).c
    du[..., 0] = 0
    power = du
    for m in range(1, order):
        new = _next_power(sp, power, du, m)
        old = reduceat_leibniz(sp.product, power, du)
        assert new.dtype == old.dtype and np.array_equal(new, old)
        power = old


@pytest.mark.parametrize("dim,order", KERNEL_SPACES + [(4, 4)])
def test_nan_derivative_reaches_the_product_and_powers(dim, order):
    """A NaN in one derivative coefficient of a factor reaches exactly the
    outputs the ``reduceat`` kernel of the same table gives NaN, in
    products and in powers, through the segment sums and through
    ``reduceat``; the finite ones agree as above."""
    rng = np.random.default_rng(12)
    sp = jet_space(dim, order)
    for pos in (1, sp.deg_starts[order] - 1, sp.n - 1):
        for cplx in (False, True):
            a = random_jet(rng, sp, (8,), cplx, order)
            b = random_jet(rng, sp, (8,), False, order)
            a.c[3, pos] = np.nan
            for x, y in ((a, b), (b, a)):
                new, old = (x * y).c, reduceat_leibniz(sp.product, x.c, y.c)
                assert np.isnan(new[3, 1:]).any() and np.isfinite(np.delete(new, 3, axis=0)).all()
                assert np.array_equal(new, old, equal_nan=True)
            du = a.c.copy()
            du[..., 0] = 0
            power = du
            for m in range(1, order):
                # the power table's own rows: the full table also multiplies
                # the NaN by the structural zeros of du^m
                old = np.zeros_like(power)
                old[..., sp.deg_starts[m + 1]:] = reduceat_leibniz(sp.power_pairs(m), power, du)
                power = _next_power(sp, power, du, m)
                assert np.array_equal(power, old, equal_nan=True)
                if sp.degree[pos] + m <= order:  # du^(m+1) has a term in it
                    assert np.isnan(power[3]).any()


# the spaces of the direction rule (full tables without segments), and the
# products it covers: (spec, None for ``*``; shape of a; shape of b)
DIRECTION_SPACES = [(4, 3), (4, 4), (6, 3), (2, 3)]
DIRECTION_PRODUCTS = [(None, (8, 4, 4), (8, 4, 4)), (None, (8, 1, 3), (8, 2, 3)),
                      ("...ij,...jk->...ik", (8, 3, 4), (8, 4, 2)),
                      ("...ij,...jk->...ik", (8, 4, 4), (1, 4, 4)),
                      ("...ij,...j->...i", (8, 3, 4), (8, 4)),
                      ("...p,...q->...pq", (8, 3), (8, 2))]


def direction_operands(data, dim, order, product):
    """Two jets of ``jet_space(dim, order)``, real or complex, each zero at
    every multi-index that uses a coordinate outside its drawn bit set and
    above its drawn top degree (at least 1 for ``*``, whose constant
    factors take a broadcast multiply instead of a table)."""
    spec, *shapes = product
    sp, low = jet_space(dim, order), 1 if spec is None else 0
    cplx_a, cplx_b, seed = data.draw(const_draws)
    rng = np.random.default_rng(seed)
    out = []
    for shape, cplx in zip(shapes, (cplx_a, cplx_b)):
        bits = data.draw(st.integers(1, (1 << dim) - 1))
        jet = degree_jet(rng, sp, shape, cplx, data.draw(st.integers(low, order)))
        jet.c[..., (sp.bits & ~bits) != 0] = 0.0
        out.append(jet)
    return out


def direction_products(spec, a, b):
    """The kernel's product of a and b and the full path's: ``*`` against
    ``reduceat_leibniz`` over the full table, ``jeinsum`` against
    ``pairs_jeinsum``."""
    if spec is None:
        return (a * b).c, reduceat_leibniz(a.space.product, a.c, b.c)
    return jeinsum(spec, a, b).c, pairs_jeinsum(spec, a, b)


@contextmanager
def within_spy():
    """Record the direction bits of every ``JetSpace.within`` lookup."""
    calls = []
    within = JetSpace.within

    def spy(space, da, db, bits):
        calls.append(bits)
        return within(space, da, db, bits)

    with mock.patch.object(JetSpace, "within", spy):
        yield calls


def test_direction_tables_are_the_rows_in_their_directions():
    """``within(da, db, bits)`` keeps, in order, exactly the rows of
    ``pairs(da, db)`` whose output uses only the coordinates in ``bits``
    (so do its ``a`` and ``b``), with each kept output's whole segment; an
    x1-only product at (4, 3) keeps 10 of the full table's 165 rows and 7
    of the 95 of ``pairs(1, 3)``."""
    for dim, order in DIRECTION_SPACES:
        sp = jet_space(dim, order)
        for (da, db), bits in itertools.product(
                [(order, order), (1, order), (0, order), (2, 1)], range(1 << dim)):
            t = sp.pairs(da, db)
            new, outs = sp.within(da, db, bits)
            out = np.repeat(np.arange(len(t.starts)), np.diff(t.starts, append=len(t.a)))
            keep = (sp.bits[out] & ~bits) == 0
            assert np.array_equal(outs, np.flatnonzero((sp.bits[:len(t.starts)] & ~bits) == 0))
            for name in "abc":
                assert np.array_equal(getattr(new, name), getattr(t, name)[keep])
            assert np.array_equal(new.starts, np.searchsorted(out[keep], outs))
            assert ((sp.bits[new.a] | sp.bits[new.b]) & ~bits == 0).all()
            assert new.trivial == t.trivial and sp.within(da, db, bits)[0] is new
    sp = jet_space(4, 3)
    assert (len(sp.within(3, 3, 1)[0].a), len(sp.prod_a)) == (10, 165)
    assert (len(sp.within(1, 3, 1)[0].a), len(sp.pairs(1, 3).a)) == (7, 95)


@pytest.mark.parametrize("product", DIRECTION_PRODUCTS)
@pytest.mark.parametrize("dim,order", DIRECTION_SPACES)
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_direction_rule_matches_the_full_rows(dim, order, product, data):
    """``Jet.__mul__`` and ``jeinsum`` of factors that depend on some of the
    coordinates equal the products over every row of their tables bitwise
    up to the sign of a zero (``array_equal`` counts -0.0 and 0.0 as
    equal), and take ``within`` exactly when the factors' directions are
    neither empty nor every coordinate."""
    a, b = direction_operands(data, dim, order, product)
    sp = a.space
    union = 0
    for x in (a, b):
        for k in np.flatnonzero(np.any(x.c != 0, axis=tuple(range(x.c.ndim - 1)))):
            union |= int(sp.bits[k])
    with within_spy() as calls:
        new, old = direction_products(product[0], a, b)
    assert calls == ([union] if 0 < union < (1 << dim) - 1 else [])
    assert new.dtype == old.dtype and np.array_equal(new, old)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("product", DIRECTION_PRODUCTS)
@pytest.mark.parametrize("dim,order", DIRECTION_SPACES)
@settings(max_examples=4, deadline=None)
@given(st.data())
def test_nonfinite_factor_takes_the_full_rows(dim, order, product, bad, data):
    """A NaN or inf at any coefficient of a factor sends both kernels
    through every row of their tables, so it spreads through ``0 * inf``
    and ``NaN * 0`` as the full path spreads it."""
    a, b = direction_operands(data, dim, order, product)
    x = data.draw(st.sampled_from([a, b]))
    x.c[(0,) * (x.c.ndim - 1) + (data.draw(st.integers(0, a.space.n - 1)),)] = bad
    with np.errstate(invalid="ignore"), within_spy() as calls:
        new, old = direction_products(product[0], a, b)
    assert not calls
    assert not np.isfinite(new).all()
    assert np.array_equal(new, old, equal_nan=True)


@pytest.mark.parametrize("dim,order", POWER_SPACES)
def test_nan_derivative_reaches_every_composition(dim, order):
    """A NaN in one derivative coefficient of a general input reaches the
    result's derivative coefficients through the power tables."""
    rng = np.random.default_rng(10)
    sp = jet_space(dim, order)
    for pos in (1, sp.deg_starts[order] - 1, sp.n - 1):
        x = positive_jet(rng, sp, False, order)
        x.c[5, pos] = np.nan
        for fn in ELEMENTARY + ["sincos"]:
            outs = getattr(x, fn)()
            for out in (outs if fn == "sincos" else (outs,)):
                assert np.isnan(out.c[5, 1:]).any() and np.isfinite(out.value).all()
                assert np.isfinite(np.delete(out.c, 5, axis=0)).all()


@pytest.mark.parametrize("dim,order", DEGREE_SPACES)
def test_nan_derivative_takes_the_full_inverse_and_composition(dim, order):
    """A NaN in one derivative coefficient of an otherwise constant input
    is not a zero: the degree recursion and every power of du run, and the
    NaN reaches the result's derivative coefficients."""
    rng = np.random.default_rng(8)
    sp = jet_space(dim, order)
    for pos in (1, sp.n - 1):
        m = constant_jet(invertible_jet(rng, sp, True, order))
        m.c[2, 1, 0, pos] = np.nan
        with pairs_spy() as calls:
            new = jet_inv(m)
        assert calls == recursion_lookups(sp)
        assert np.isnan(new.c[2, ..., 1:]).any() and np.isfinite(new.value).all()
        # NaN in the same entries as the series, the rest equal to roundoff
        np.testing.assert_allclose(new.c, neumann_inv(m).c, rtol=RTOL, atol=ATOL,
                                   equal_nan=True)
        x = constant_jet(positive_jet(rng, sp, False, order))
        x.c[5, pos] = np.nan
        for fn in ELEMENTARY:
            new = getattr(x, fn)()
            with mock.patch.object(Jet, "_compose", full_table_compose):
                old = getattr(x, fn)()
            assert np.isnan(new.c[5, 1:]).any()
            assert np.array_equal(new.c, old.c, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_constant_value_stays_nonfinite(bad):
    """A non-finite value of a constant input leaves a non-finite value at
    the points where the full path leaves one (1 / inf is 0), and the
    finite entries agree.  The full path may turn an inf into a NaN through
    0 * inf and spreads it into other entries and coefficients."""
    sp = jet_space(4, 3)
    x = constant_jet(positive_jet(np.random.default_rng(9), sp, False, 3))
    x.c[4, 0] = bad
    m = constant_jet(invertible_jet(np.random.default_rng(9), sp, False, 3))
    m.c[4, 0, 0, 0] = bad
    with np.errstate(invalid="ignore", divide="ignore"):
        for fn in ELEMENTARY:
            new = getattr(x, fn)()
            with mock.patch.object(Jet, "_compose", full_table_compose):
                old = getattr(x, fn)()
            assert_same_finite_values(new, old)
        new, old = jet_inv(m), neumann_inv(m)
    assert np.array_equal(new.value, np.linalg.inv(m.value), equal_nan=True)
    assert_same_finite_values(new, old)


def assert_same_finite_values(new, old):
    """The same points hold a non-finite value entry, only point 4 may, and
    entries finite in both are equal."""
    fin_new, fin_old = np.isfinite(new.value), np.isfinite(old.value)
    per_point = [f.reshape(len(f), -1).all(axis=1) for f in (fin_new, fin_old)]
    assert np.array_equal(*per_point) and per_point[0][:4].all()
    both = fin_new & fin_old
    assert np.array_equal(new.value[both], old.value[both])


# -- the storage rule: a result lives in the space of its order ---------------


def oracle_results(a, b, v, x, sp):
    """(kernel result, full-space oracle in ``sp``) for each kernel on the
    (8, 3, 3) jets a (invertible) and b, the (8, 3) jet v and the (8,) jet
    x (inside every elementary function's domain)."""
    low = min(a.order, b.order)
    xv = x.value
    recip = [(-1.0) ** m * math.factorial(m) / xv ** (m + 1) for m in range(sp.order + 1)]
    sins = [np.sin(xv), np.cos(xv), -np.sin(xv), -np.cos(xv)] * 2
    eye = Jet.constant(sp, np.broadcast_to(np.eye(3), a.value.shape))
    pairs = [(a * b, full_mul(a, b, sp)),
             (a + b, Jet(sp, embed(a, sp) + embed(b, sp), low)),
             (a - b, Jet(sp, embed(a, sp) - embed(b, sp), low)),
             (jeinsum("...ij,...kj->...ik", a, b), leibniz("...ij,...kj->...ik", a, b, sp)),
             (jet_solve(a, v), neumann_solve(a, v, sp)),
             (jet_inv(a), neumann_solve(a, eye, sp)),
             (x.exp(), taylor(x, [np.exp(xv)] * (sp.order + 1), sp)),
             (x.reciprocal(), taylor(x, recip, sp))]
    pairs += zip(x.sincos(), (taylor(x, sins[:sp.order + 1], sp),
                              taylor(x, sins[1:sp.order + 2], sp)))
    if a.order:
        pairs.append((jgrad(a), stacked_partials(a, sp)))
        pairs += [(a.partial(i), loop_partial(a, i, sp)) for i in range(sp.dim)]
    return pairs


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("dim,order", [(4, 3), (4, 4), (6, 3)])
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_results_live_in_the_space_of_their_order(dim, order, mixed, data):
    """Every kernel, on operands valid to equal or to different orders,
    returns a jet stored in ``jet_space(dim, order)`` of its own order whose
    coefficients are the valid prefix of a full-space loop oracle, to
    roundoff of the largest oracle coefficient times the largest of ``a``
    (|a| |x| bounds the roundoff of the solves)."""
    ka = data.draw(st.integers(0, order))
    kb = data.draw(st.integers(0, order).filter(lambda k: (k != ka) == mixed))
    cplx, seed = data.draw(inv_draws)
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = invertible_jet(rng, sp, cplx, ka)
    b = random_jet(rng, sp, (8, 3, 3), cplx, kb)
    v = random_jet(rng, sp, (8, 3), cplx, kb)
    x = positive_jet(rng, sp, cplx, ka)
    for new, old in oracle_results(a, b, v, x, sp):
        assert new.space is jet_space(dim, new.order)
        scale = max(1.0, np.abs(old.c).max() * np.abs(a.c).max())
        assert new.order == old.order and new.c.shape == old.c.shape
        np.testing.assert_allclose(new.c, old.c, rtol=RTOL, atol=ATOL * scale)


def ref_p(data, jc):
    return jtrace(jmatmul(data.jp.fn(jc), data.jm.fn(jc))) * 0.25


def ref_s_root(data, jc):
    return (ref_p(data, jc) ** 2 - 1.0).sqrt()


def ref_k_endo(data, jc):
    jpv, jmv = data.jp.fn(jc), data.jm.fn(jc)
    q = jmatmul(jpv, jmv) - jmatmul(jmv, jpv)
    return _scale(q, (ref_s_root(data, jc) * 2.0).reciprocal())


def ref_s_endo(data, jc):
    jpv, jmv = data.jp.fn(jc), data.jm.fn(jc)
    num = jmv + _scale(jpv, ref_p(data, jc))
    return -_scale(num, ref_s_root(data, jc).reciprocal())


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_pair_fields_equal_removed_formulas(model_name, seed, torus_model, kodaira_model):
    """p, sqrt(p^2 - 1), K and S equal the formulas they replace, which
    took p and sqrt(p^2 - 1) from the p and s_root fields and multiplied
    the chart components, run with the full Taylor composition.  On the
    torus the chart is the frame and all four are bitwise equal.  On
    kodaira K is conjugated from its frame components, and the chart
    products round differently: it is within one ulp of the formula
    (measured: 1.1e-16 at seeds 42, 7 and 3) and bitwise the frame
    oracle's P K P^-1."""
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(16, seed)
    data = example2_build(model, example2_params(), plan).data
    jc = jet_coords(4, 3, plan.sample(model.chart))
    for field, ref in ((data.p, ref_p), (data.s_root, ref_s_root),
                       (data.k_endo, ref_k_endo), (data.s_endo, ref_s_endo)):
        with mock.patch.object(Jet, "_compose", full_table_compose):
            old = ref(data, jc)
        new = field.fn(jc)
        if model_name == "torus" or field is not data.k_endo:
            assert_jets_equal(new, old)
            continue
        assert new.order == old.order
        ulp = np.spacing(np.maximum(np.abs(new.c), np.abs(old.c)))
        assert np.all(np.abs(new.c - old.c) <= ulp)
        kf = ref_frame_constants(data.jp.frame.m, data.jm.frame.m)[2]
        assert_jets_equal(new, ref_frame_endo(jc, kf))


def ref_frame_pairing(jpjm):
    """p = tr(J+ J-) / 4 on frame components, summed along the diagonal."""
    tr = jpjm[0, 0]
    for i in range(1, len(jpjm)):
        tr = tr + jpjm[i, i]
    return tr * 0.25


def ref_frame_constants(mp, mm):
    """p, sqrt(p^2 - 1), K and S from the frame components of J+ and J-,
    in the jet formulas' order of operations."""
    jpjm = mp @ mm
    p = ref_frame_pairing(jpjm)
    root = np.sqrt(p * p - 1.0)
    k = (jpjm - mm @ mp) * (1.0 / (root * 2.0))
    s = -((mm + mp * p) * (1.0 / root))
    return p, root, k, s


def assert_bitwise(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old))


LIFT_PARAMS = [example2_params(), example2_params(a=1.25, b=0.0, c=0.75),
               example2_params(a=2.0, b=1.0, c=float(np.sqrt(2.0)))]


@pytest.mark.parametrize("params", LIFT_PARAMS, ids=["default", "b0", "a2"])
def test_lifted_frame_constants_equal_the_frame_formulas(params, torus_model,
                                                         kodaira_model):
    """The frame components that ``frame_lift`` reads off the jet formulas at
    x1 = 0 are bitwise, sign bits included, those of the numpy formulas on
    the 4x4 frame components, for the torus triple and every kodaira
    candidate."""
    from pbhverify.models import j_minus
    from pbhverify.structures import BihermitianData
    triples = [torus_model.triple] + kodaira_triples(kodaira_model.chart)
    for t in triples:
        data = BihermitianData(t.g, t.j1, j_minus(t, params))
        refs = ref_frame_constants(data.jp.frame.m, data.jm.frame.m)
        for field, ref in zip((data.p, data.s_root, data.k_endo, data.s_endo), refs):
            assert_bitwise(field.frame.m, ref)
            assert np.array_equal(field.frame.e, data.jp.frame.e)


def test_frame_lift_refuses_forms_and_metrics(kodaira_model):
    """A 2-form's combo components are only the upper triangle of its
    matrix, so the lift takes scalars and endos only."""
    from pbhverify.structures import fundamental_form
    from pbhverify.tensorcalc import frame_lift
    t = kodaira_model.triple
    plain = dataclasses.replace(fundamental_form(t.g, t.j1), frame=None)
    for field in (plain, t.g):
        with pytest.raises(ValueError, match="no frame lift"):
            frame_lift(field, t.j1, t.j2)


# -- frame constants against the jet products of the kodaira frame ------------


def ref_frame_endo(x, m):
    return jmatmul(jmatmul(ref_kodaira_frame(x, 1.0), _broadcast_const(x, m)),
                   ref_kodaira_frame(x, -1.0))


def ref_frame_metric(x, m):
    pinv = ref_kodaira_frame(x, -1.0)
    return jmatmul(jmatmul(jtranspose(pinv), _broadcast_const(x, m)), pinv)


FRAME_PARAMS = [example2_params(), example2_params(b=0.0, c=0.75)]


@pytest.mark.parametrize("seed", [42, 7])
def test_frame_constants_equal_the_frame_products(seed, kodaira_model):
    """For every kodaira candidate, at the default pair parameters and at
    b = 0, c = 0.75, the chart components that J1-J3, g, K, S and F^K take
    from their frame constants are bitwise the jet products P M P^-1 (endos)
    and P^-T M P^-1 (metric, and F^K read above the diagonal) of their
    frame components, at orders 0-3 on coordinate and flowed jets; the
    frame components of K and S are those of the frame formulas; and the
    bivector frame constant of the inverse of F^K's frame matrix times F^K's
    chart matrix is exactly I there.  F^K of
    the certified candidate is constant at the default parameters and of
    degree 1 in x1 (coefficient 1.0) at c = 0.75; j1_open keeps its x1^2
    term."""
    from pbhverify.models import j_minus
    from pbhverify.structures import BihermitianData, fundamental_form
    chart = kodaira_model.chart
    pts = SamplePlan(8, seed).sample(chart)
    bundle = example2_build(kodaira_model, example2_params(), SamplePlan(8, seed))
    flow = HamiltonianFlow(bundle.f_k, F_CATALOG["sin14"], 0.1, 2e-2)
    triples = kodaira_triples(chart)
    degrees = {}
    for params in FRAME_PARAMS:
        for ci, t in enumerate(triples):
            data = BihermitianData(t.g, t.j1, j_minus(t, params))
            f_k = fundamental_form(t.g, data.k_endo)
            _, _, kf, sf = ref_frame_constants(data.jp.frame.m, data.jm.frame.m)
            np.testing.assert_allclose(data.k_endo.frame.m, kf, rtol=0, atol=1e-15)
            np.testing.assert_allclose(data.s_endo.frame.m, sf, rtol=0, atol=1e-15)
            degrees[params.c, ci] = len(f_k.frame.coeffs) - 1
            fk0 = form_full_matrix(f_k.eval_jet(np.zeros((1, 4))), 4).value[0]
            fk_inv = frame_field(chart, "bivector", f_k.frame.e, np.linalg.inv(fk0))
            endos = t.js + (data.k_endo, data.s_endo)
            for order in range(4):
                jc = jet_coords(4, order, pts)
                for x in (jc, flow.flow_jet(jc)):
                    for e in endos:
                        assert_jets_equal(e.fn(x), ref_frame_endo(x, e.frame.m))
                    assert_jets_equal(t.g.fn(x), ref_frame_metric(x, t.g.frame.m))
                    assert_jets_equal(f_k.fn(x), form_from_matrix(
                        ref_frame_metric(x, f_k.frame.m), 4))
                    assert_jets_equal(jmatmul(fk_inv.fn(x), form_full_matrix(f_k.fn(x), 4)),
                                      _broadcast_const(x, np.eye(4)))
    assert degrees[0.0, 2] == 0 and degrees[0.75, 2] == 1
    certified = fundamental_form(
        kodaira_model.triple.g,
        example2_build(kodaira_model, FRAME_PARAMS[1], SamplePlan(8, seed)).data.k_endo)
    assert np.abs(certified.frame.coeffs[1]).max() == 1.0
    assert len(triples[1].j1.frame.coeffs) == 3


KODAIRA_E = np.zeros((4, 4))
KODAIRA_E[3, 1] = 1.0
SMALL_INTS = st.integers(-2, 2)


@st.composite
def rank_one_nilpotent(draw):
    """u v^T with v = (u.u) w - (u.w) u, so v^T u = 0, in small integers."""
    u, w = (np.array(draw(st.lists(SMALL_INTS, min_size=4, max_size=4)), dtype=float)
            for _ in range(2))
    return np.outer(u, (u @ u) * w - (u @ w) * u)


@st.composite
def rank_two_nilpotent(draw):
    """Q N Q^-1 with N^2 = 0 of rank up to two and Q a permuted integer
    shear, whose inverse is integer too."""
    n = np.zeros((4, 4))
    n[2, 0], n[3, 1] = draw(SMALL_INTS), draw(SMALL_INTS)
    i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    k = draw(SMALL_INTS)
    perm = np.eye(4)[draw(st.permutations(range(4)))]
    shear, unshear = np.eye(4), np.eye(4)
    shear[i, j], unshear[i, j] = k, -k
    return perm @ shear @ n @ unshear @ perm.T


RANK_TWO_E = np.zeros((4, 4))
RANK_TWO_E[2, 0] = RANK_TWO_E[3, 1] = 1.0


@settings(max_examples=60, deadline=None)
@example(RANK_TWO_E, [1.0, 0.0, 0.0, 0.0, 0.0, 1.0])  # both x1^2 terms nonzero
@example(np.zeros((4, 4)), [1e-05, 3.0, 3.0, 1.0, 1.0, 1.0])  # |inv(F) F - I| ~ 1e-5
@given(st.one_of(st.just(np.zeros((4, 4))), st.just(KODAIRA_E), rank_one_nilpotent(),
                 rank_two_nilpotent()),
       st.lists(st.floats(-3, 3), min_size=6, max_size=6))
def test_bivector_frame_constant_inverts_the_form(e, upper):
    """For a nilpotent E (E^2 = 0) and an invertible antisymmetric F, the
    chart matrix of the 2-form frame constant of F times the bivector frame
    constant of F^-1 is I at orders 0-3: P^-T F P^-1 P F^-1 P^T.  Each
    chart entry grows with (1 + x1 max|E|)^2, so roundoff is bounded by
    eps cond(F) (1 + max|E|)^4 on the unit box, times a small constant.
    The product is taken in this order because ``np.linalg.inv`` solves
    F X = I: the right residual F X - I is within eps cond(F), while the
    left one X F - I is only within eps cond(F)^2.  An F whose entries
    are all below 1e-150 (subnormal ones, say) is left out: cond(F) does
    not see the scale, but F^-1 overflows."""
    assert not (e @ e).any()
    f = np.zeros((4, 4))
    f[np.triu_indices(4, 1)] = upper
    f = f - f.T
    cond = np.linalg.cond(f)
    assume(cond < 1e8 and np.abs(f).max() > 1e-150)
    chart = ChartDomain(4, ((0.0, 1.0),) * 4, name="unit")
    inverse = frame_field(chart, "bivector", e, np.linalg.inv(f))
    form = frame_field(chart, "form", e, f, degree=2)
    tol = 16 * np.finfo(float).eps * cond * (1.0 + np.abs(e).max()) ** 4
    pts = SamplePlan(8, 1).sample(chart)
    for order in range(4):
        jc = jet_coords(4, order, pts)
        prod = jmatmul(form_full_matrix(form.fn(jc), 4), inverse.fn(jc))
        assert np.abs(prod.c - _broadcast_const(jc, np.eye(4)).c).max() <= tol


def ref_constant_velocity(flow, grad, y):
    """The constant-F^K velocity as a broadcast constant jet times the
    gradient, through ``jmatvec``, with the inverse of F^K's chart value."""
    fk = form_full_matrix(flow.f_k.eval_jet(y.value[:1]), 4).value[0]
    return jmatvec(_broadcast_const(y, np.linalg.inv(fk.T)), grad(y))


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_velocity_equals_the_removed_contraction(model_name, torus_model, kodaira_model):
    """At the default pair parameters the gradients of every sine-product
    Hamiltonian (on their supports) and the flow's velocity are bitwise the
    full-gradient oracle of ``jet_helpers`` and the broadcast ``jmatvec``
    they replace, on coordinate and flowed jets of orders 0-3."""
    from pbhverify.models import F_CATALOG, HamiltonianFlow
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(8, 42)
    f_k = example2_build(model, example2_params(), plan).f_k
    mover = HamiltonianFlow(f_k, F_CATALOG["sin14"], 0.1, 2e-2)
    for name, pairs in SIN_PAIRS.items():
        fexpr = F_CATALOG[name]
        ref = functools.partial(ref_full_gradient, name)
        support = list(dict.fromkeys(k for pair in pairs for k in pair))
        flow = HamiltonianFlow(f_k, fexpr, 0.1, 1e-3)
        for order in range(4):
            jc = jet_coords(4, order, plan.sample(model.chart))
            for y in (jc, mover.flow_jet(jc)):
                assert list(fexpr.support) == support
                assert_jets_equal(fexpr.grad(y), ref(y)[:, support])
                assert_jets_equal(flow.velocity(y), ref_constant_velocity(flow, ref, y))


def ref_product_form_grad(pairs, y):
    """cos x_i sin x_j and sin x_i cos x_j from the reference series and
    ``*``, summed per coordinate over ``pairs``, on the support in order."""
    support = list(dict.fromkeys(k for pair in pairs for k in pair))
    out = np.zeros(y.c.shape)
    for i, j in pairs:
        out[:, i] += (ref_cos(y[:, i]) * ref_sin(y[:, j])).c
        out[:, j] += (ref_sin(y[:, i]) * ref_cos(y[:, j])).c
    return Jet(y.space, out[:, support])


SINE_PRODUCT_EPS = 8.0  # the bound, in units of eps * max(1, max|coefficient|)


def _sine_product_errors(model, grad_of):
    """(error, bound) of ``grad_of(name)`` against the product form for
    every sine-product Hamiltonian, on coordinate and flowed jets of orders
    0-3 at the default pair parameters."""
    plan = SamplePlan(8, 42)
    f_k = example2_build(model, example2_params(), plan).f_k
    mover = HamiltonianFlow(f_k, F_CATALOG["sin134"], 0.1, 2e-2)
    out = []
    for name, pairs in SIN_PAIRS.items():
        for order in range(4):
            jc = jet_coords(4, order, plan.sample(model.chart))
            for y in (jc, mover.flow_jet(jc)):
                got, want = grad_of(name)(y), ref_product_form_grad(pairs, y)
                assert got.order == want.order and got.shape == want.shape
                scale = max(1.0, float(np.abs(want.c).max()))
                out.append((float(np.abs(got.c - want.c).max()),
                            SINE_PRODUCT_EPS * np.finfo(float).eps * scale))
    return out


@pytest.mark.parametrize("model_name", ["torus", "kodaira"])
def test_sine_product_gradients_equal_the_product_form(model_name, torus_model,
                                                       kodaira_model):
    """Every sine-product gradient, composed by the angle-sum formula, is
    the product form cos x_i sin x_j, sin x_i cos x_j (summed per
    coordinate for sin134) to SINE_PRODUCT_EPS eps max(1, max|coefficient|)
    on coordinate and flowed jets of orders 0-3 (measured: at most 2.5)."""
    model = torus_model if model_name == "torus" else kodaira_model
    for err, bound in _sine_product_errors(model, lambda name: F_CATALOG[name].grad):
        assert err <= bound


def test_a_sign_flipped_difference_sine_fails_the_product_form_bound(torus_model,
                                                                     monkeypatch):
    """The bound above sees S- = sin(x_i - x_j) with its sign flipped, in
    every sine-product gradient on every jet order."""
    sin = Jet.sin

    def flipped_sin(x):
        s = sin(x)
        half = s.c.shape[1] // 2
        s.c[:, half:] *= -1.0
        return s

    def flipped(name):
        def grad(y):
            with monkeypatch.context() as m:
                m.setattr(Jet, "sin", flipped_sin)
                return F_CATALOG[name].grad(y)

        return grad

    errors = _sine_product_errors(torus_model, flipped)
    assert len(errors) == 2 * 4 * len(SIN_PAIRS)
    assert all(err > bound for err, bound in errors)


def full_gradient(fexpr, y):
    """``fexpr.grad(y)`` at every coordinate, zero off its support."""
    grad = fexpr.grad(y)
    out = np.zeros(y.c.shape, dtype=grad.c.dtype)
    out[:, list(fexpr.support)] = grad.c
    return Jet(y.space, out)


@pytest.mark.parametrize("model_name,params", [("torus", FRAME_PARAMS[0]),
                                               ("kodaira", FRAME_PARAMS[0]),
                                               ("kodaira", FRAME_PARAMS[1]),
                                               ("kodaira", LIFT_PARAMS[2])])
def test_velocity_equals_the_jet_solve(model_name, params, torus_model, kodaira_model,
                                       monkeypatch):
    """The flow's velocity is the jet solve it replaces, of F^K's transpose
    against the full gradient, on coordinate and
    flowed jets of orders 0-3, for F^K constant and for F^K of degree 1 in
    x1 (c != 0 on kodaira), for every named Hamiltonian.  It inverts no jet
    and evaluates no F^K.  The results are bitwise equal except where the
    x1 term, nonzero in rows and columns 3 and 4, meets a nonzero gradient
    component (``sin14``, ``sin13`` and ``sin134`` at c != 0): the sums then
    run in another order, and agree to roundoff."""
    from pbhverify.models import F_CATALOG, HamiltonianFlow
    from pbhverify.tensorcalc import jets
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(8, 42)
    bundle = example2_build(model, params, plan)
    f_k = bundle.f_k
    mover = HamiltonianFlow(f_k, F_CATALOG["sin14"], 0.1, 2e-2)
    calls = []
    fk_fn = f_k.fn

    def solve_spy(a, b):
        calls.append("solve")
        return jet_solve(a, b)

    def fk_spy(jc):
        calls.append("F^K")
        return fk_fn(jc)

    flows = {name: HamiltonianFlow(f_k, fexpr, 0.1, 1e-3)
             for name, fexpr in F_CATALOG.items()}
    monkeypatch.setattr(jets, "jet_solve", solve_spy)
    monkeypatch.setattr(f_k, "fn", fk_spy)
    for order in range(4):
        jc = jet_coords(4, order, plan.sample(model.chart))
        for y in (jc, mover.flow_jet(jc)):
            for name, flow in flows.items():
                calls.clear()
                new = flow.velocity(y)
                assert calls == []
                old = jet_solve(jtranspose(form_full_matrix(fk_fn(y), 4)),
                                full_gradient(flow.fexpr, y))
                if params.c and {2, 3} & set(flow.fexpr.support):
                    err = np.abs(new.c - old.c).max()
                    assert err <= 4 * np.finfo(float).eps * np.abs(old.c).max()
                else:
                    assert_jets_equal(new, old)
    assert len(f_k.frame.coeffs) == (2 if params.c else 1)


FLOW_CASES = ([("torus", FRAME_PARAMS[0], name)
               for name in ("sin2", "sin14", "sin134", "gauss", "const")]
              + [("kodaira", FRAME_PARAMS[0], name) for name in ("sin13", "sin134")]
              + [("kodaira", params, name) for params in (FRAME_PARAMS[1], LIFT_PARAMS[2])
                 for name in sorted(F_CATALOG)])


@pytest.mark.parametrize("model_name,params,name", FLOW_CASES,
                         ids=[f"{m}-c{p.c:g}-{n}" for m, p, n in FLOW_CASES])
def test_flow_equals_the_full_gradient_oracle(model_name, params, name, torus_model,
                                              kodaira_model):
    """The velocity contracted over the gradient's support and its RK4 flow
    equal the full-gradient velocity and RK4 of ``jet_helpers`` bitwise
    (``array_equal``), on coordinate and flowed jets of orders 0-3.  At
    c != 0 on kodaira F^K's inverse has an x1 term; it meets the support of
    sin14, sin13 and sin134 only, and is zero on the supports of the
    others."""
    model = torus_model if model_name == "torus" else kodaira_model
    plan = SamplePlan(8, 42)
    f_k = example2_build(model, params, plan).f_k
    mover = HamiltonianFlow(f_k, F_CATALOG["sin14"], 0.1, 2e-2)
    fexpr = F_CATALOG[name]
    flow = HamiltonianFlow(f_k, fexpr, 0.1, 2e-2)
    assert len(ref_inverse_coeffs(f_k)) == len(flow._inv_coeffs) == (2 if params.c else 1)
    for order in range(4):
        jc = jet_coords(4, order, plan.sample(model.chart))
        for y in (jc, mover.flow_jet(jc)):
            assert_jets_equal(flow.velocity(y), ref_velocity(f_k, name, y))
            assert_jets_equal(flow.flow_jet(y), ref_flow(f_k, name, y, 0.1, 2e-2))


# -- the batched deck check against the per-transformation loop ---------------


def ref_lattice_residual(model, pts):
    """Deck invariance by the loop that the batched check replaced: per deck
    transformation, each of J1-J3 and g evaluated at the points and at their
    images, and inv(lin) taken again."""
    res = 0.0
    for lin, shift in model.lattice:
        moved = pts @ lin.T + shift
        lin_inv = np.linalg.inv(lin)
        for j in model.triple.js:
            a = j.eval(moved)
            b = np.einsum("ij,bjk,kl->bil", lin, j.eval(pts), lin_inv)
            res = reduce_parts([res, max_abs(a - b)])
        ga = model.triple.g.eval(moved)
        gb = np.einsum("ji,bjk,kl->bil", lin_inv, model.triple.g.eval(pts), lin_inv)
        res = reduce_parts([res, max_abs(ga - gb)])
    return res


def ref_algebra_residual(triple, pts):
    """The split-quaternion table product by product, each J evaluated on
    its own."""
    d = triple.g.chart.dim
    jv = [j.eval_jet(pts) for j in triple.js]
    eye = _broadcast_const(jv[0], np.eye(d))
    return reduce_parts([
        max_abs(jmatmul(jv[0], jv[0]) + eye),
        max_abs(jmatmul(jv[1], jv[1]) - eye),
        max_abs(jmatmul(jv[2], jv[2]) - eye),
        max_abs(jmatmul(jv[0], jv[1]) - jv[2]),
        max_abs(jmatmul(jv[1], jv[0]) + jv[2]),
        max_abs(jmatmul(jv[1], jv[2]) + jv[0]),
        max_abs(jmatmul(jv[2], jv[1]) - jv[0]),
        max_abs(jmatmul(jv[2], jv[0]) - jv[1]),
        max_abs(jmatmul(jv[0], jv[2]) + jv[1])])


def ref_compatibility_residual(triple, pts):
    """J^T g J - sign g per J, with J and g evaluated again for each."""
    gv = triple.g.eval_jet(pts)
    return reduce_parts(max_abs(jmatmul(jmatmul(jtranspose(jv), gv), jv) - gv * sign)
                        for sign, jv in zip((1.0, -1.0, -1.0),
                                            (j.eval_jet(pts) for j in triple.js)))


def ref_closedness_residual(triple, pts):
    """d of each fundamental form through its own ``exterior_derivative``."""
    return reduce_parts(max_abs(exterior_derivative(om).eval(pts)) for om in triple.omegas)


def ref_nijenhuis_residual(triple, pts):
    """Each J's own ``nijenhuis_tensor`` field."""
    return reduce_parts(max_abs(nijenhuis_tensor(j).eval(pts)) for j in triple.js)


REF_TRIPLE_RESIDUALS = {"algebra": ref_algebra_residual,
                        "compatibility": ref_compatibility_residual,
                        "closedness": ref_closedness_residual,
                        "nijenhuis": ref_nijenhuis_residual}


@pytest.mark.parametrize("seed", [42, 7])
def test_lattice_residual_equals_the_loop(seed, torus_model, kodaira_model):
    """The batched deck check is bitwise the per-transformation loop on the
    torus and on every kodaira candidate (j1_open's residual is roundoff,
    not zero)."""
    residuals = []
    for model in [torus_model] + kodaira_candidate_models(kodaira_model):
        pts = SamplePlan(16, seed).sample(model.chart)
        residuals.append(lattice_residual(model, pts))
        assert_bitwise(residuals[-1], ref_lattice_residual(model, pts))
    assert residuals[2] > 0.0


@pytest.mark.parametrize("seed", [42, 7])
def test_stacked_triple_residuals_equal_the_loops(seed, torus_model, kodaira_model):
    """Each stacked residual is bitwise the per-product loop on the torus,
    the shipped kodaira model and every kodaira candidate: given the shared
    stack, and in ``certify``, which lists all five passed or failed."""
    models_ = [torus_model, kodaira_model] + kodaira_candidate_models(kodaira_model)
    for model in models_:
        plan = SamplePlan(16, seed)
        pts = plan.sample(model.chart)
        t = model.triple
        js, gv = t.stack(pts, 1), t.g.eval_jet(pts)
        ref = {key: fn(t, pts) for key, fn in REF_TRIPLE_RESIDUALS.items()}
        ref["lattice"] = ref_lattice_residual(model, pts)
        shared = {"algebra": t.algebra_residual(js),
                  "compatibility": t.compatibility_residual(js, gv),
                  "closedness": t.closedness_residual(pts),
                  "nijenhuis": t.nijenhuis_residual(js),
                  "lattice": model.lattice_residual(pts, js, gv)}
        certified = certified_residuals(model, plan)
        assert list(shared) == list(certified) == list(ref)
        for got in (shared, certified):
            for key, value in got.items():
                assert_bitwise(value, ref[key])


def poisoned_j2_model(model):
    """``model`` with J2's closure NaN in its [0, 2] entry at every point
    and every coefficient, and J2's frame components kept: a residual that
    read the frame instead of evaluating J2 would not see it."""
    j2 = model.triple.j2

    def poisoned(jc):
        out = j2.fn(jc).copy()
        out.c[:, 0, 2] = np.nan
        return out

    triple = dataclasses.replace(model.triple, j2=dataclasses.replace(j2, fn=poisoned))
    assert triple.j2.frame is j2.frame
    return type(model)(model.name, model.chart, triple, model.lattice)


def test_poisoned_closure_reaches_every_stacked_residual(torus_model, kodaira_model):
    """Every residual that reads the stack of J1-J3 is NaN when J2's closure
    is, and certification fails listing each of them.  Closedness reads the
    fundamental forms, which are frame constants of (g, J), so it stays 0."""
    from pbhverify.models import ModelError
    plan = SamplePlan(16, 42)
    for model in (poisoned_j2_model(torus_model), poisoned_j2_model(kodaira_model)):
        pts = plan.sample(model.chart)
        t = model.triple
        js, gv = t.stack(pts, 1), t.g.eval_jet(pts)
        stacked = [t.algebra_residual(js), t.compatibility_residual(js, gv),
                   t.nijenhuis_residual(js), model.lattice_residual(pts, js, gv)]
        assert all(np.isnan(stacked))
        assert np.isnan(ref_algebra_residual(t, pts))
        assert t.closedness_residual(pts) == 0.0 == ref_closedness_residual(t, pts)
        with pytest.raises(ModelError, match=r"\{'algebra': nan, 'compatibility': nan, "
                                             r"'closedness': 0.0, 'nijenhuis': nan, "
                                             r"'lattice': nan\}"):
            model.certify(plan)
        assert not model.certified


@pytest.mark.parametrize("name", ["SPLIT_QUATERNION_SIGN", "COMPATIBILITY_SIGN"])
def test_a_flipped_sign_fails_certification(name, torus_model, kodaira_model, monkeypatch):
    """With any one sign of the split-quaternion table, or of the metric
    compatibility, flipped, the shipped models fail certification there:
    the residual compares some T with -T, for T one of J1-J3, I or g, whose
    entries include a 1, so it reads at least 2."""
    from pbhverify import structures
    from pbhverify.models import ModelDescriptor
    key = "algebra" if name == "SPLIT_QUATERNION_SIGN" else "compatibility"
    shipped = getattr(structures, name)
    for at in np.ndindex(shipped.shape):
        flipped = shipped.copy()
        flipped[at] = -flipped[at]
        monkeypatch.setattr(structures, name, flipped)
        for model in (torus_model, kodaira_model):
            fresh = ModelDescriptor(model.name, model.chart, model.triple, model.lattice)
            assert certified_residuals(fresh, SamplePlan(16, 42))[key] >= 2.0, at
            assert not fresh.certified


def test_nan_at_one_deck_image_fails_certification(kodaira_model):
    """A NaN in J2 at one point, the image of the first sample under the
    shear generator, makes the deck residual NaN in the batch as in the
    loop, and certification fails there, on the last residual."""
    from pbhverify.models import ModelDescriptor, ModelError
    plan = SamplePlan(16, 42)
    pts = plan.sample(kodaira_model.chart)
    lin, shift = kodaira_model.lattice[-1]
    target = (pts[:1] @ lin.T + shift)[0]
    j2 = kodaira_model.triple.j2

    def poisoned(jc):
        out = j2.fn(jc)
        c = out.c.copy()
        c[np.all(jc.value == target, axis=-1), 0, 0, 0] = np.nan
        return Jet(out.space, c, out.order)

    triple = dataclasses.replace(kodaira_model.triple,
                                 j2=dataclasses.replace(j2, fn=poisoned))
    model = ModelDescriptor("kodaira", kodaira_model.chart, triple, kodaira_model.lattice)
    assert np.isnan(lattice_residual(model, pts))
    assert np.isnan(ref_lattice_residual(model, pts))
    with pytest.raises(ModelError, match="'nijenhuis': 0.0, 'lattice': nan}"):
        model.certify(plan)
    assert not model.certified


def test_empty_lattice_has_zero_residual(torus_model, plan):
    from pbhverify.models import ModelDescriptor
    model = ModelDescriptor("open box", torus_model.chart, torus_model.triple, ())
    pts = plan.sample(model.chart)
    assert lattice_residual(model, pts) == 0.0 == ref_lattice_residual(model, pts)
    assert model.certify(plan)["lattice"] == 0.0 and model.certified


# -- the stacked courant-suite checks against the per-pair loops --------------


def ref_b_transform_naturality(chart, pts, seed):
    """b-transform naturality by the loop that the stacked check replaced:
    per random 2-form, one evaluation per section pair."""
    secs = coordinate_sections(chart)
    d = chart.dim
    pair_list = [(secs[0], secs[1]), (secs[0], secs[d + 1]), (secs[1], secs[d]),
                 (secs[0] + secs[d + 1], secs[1] + secs[d])]
    res = 0.0
    for s in range(8):
        b2 = random_poly_two_form(chart, seed + 100 + s)
        db = exterior_derivative(b2)
        validate_twist(db, pts)
        for sa, sb in pair_list:
            lhs = courant_bracket(b_transform(sa, b2), b_transform(sb, b2))
            rhs = b_transform(courant_bracket(sa, sb, db), b2)
            res = reduce_parts([res, max_abs((lhs - rhs).eval(pts))])
    return res


def ref_pairing_preservation(i_field, pts):
    """Pairing preservation by the loop over the frame-section pairs a <= b
    that the stacked check replaced."""
    secs = coordinate_sections(i_field.chart)
    applied = [apply_endo(i_field, s) for s in secs]
    res = 0.0
    for a in range(len(secs)):
        for b in range(a, len(secs)):
            lhs = pairing(applied[a], applied[b])
            rhs = pairing(secs[a], secs[b])
            res = reduce_parts([res, max_abs(lhs.eval(pts) - rhs.eval(pts))])
    return res


@pytest.mark.parametrize("model", ["torus", "kodaira"])
@pytest.mark.parametrize("seed", [42, 7])
def test_courant_suite_checks_equal_the_loops(model, seed):
    """Both stacked checks are bitwise the per-pair loops, on the run's own
    model, structure and points."""
    ctx = suites.SuiteContext(suites.SuiteConfig(suite="courant", model=model, seed=seed))
    got = {c.name: c.residual for c in suites.suite_courant(ctx)}
    chart = ctx.model.chart
    assert_bitwise(got["b-transform-naturality"],
                   ref_b_transform_naturality(chart, ctx.points()[:12], seed))
    assert_bitwise(got["pairing-preservation"],
                   ref_pairing_preservation(ctx.gcs_pair[0], ctx.points()[:8]))
    assert got["b-transform-naturality"] > 0.0 and got["pairing-preservation"] > 0.0


def stacked_sections(fields, pad):
    """The section ``fields`` stacked on axis 1 as one field, indexed by
    ``pad`` to place length-1 stack axes."""
    return Field(fields[0].chart, "section",
                 lambda jc: _stack([f.fn(jc) for f in fields])[pad],
                 cost=max(f.cost for f in fields))


@settings(max_examples=20, deadline=None)
@given(section_cases, st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_section_ops_broadcast_over_leading_axes(torus_model, case, n, m, outer):
    """``courant_bracket`` (with and without a twist), ``b_transform``,
    ``apply_endo`` and ``pairing`` on stacked sections, either zipped
    (B, n) with (B, n) or outer (B, n, 1) with (B, 1, m), the 2-form, twist
    and endomorphism given the stack axes by ``stack_axes``: each slice is
    bitwise the evaluation on that one pair.  ``validate_twist`` reads the
    same residual from the stacked twist."""
    seed, b_seed, twisted, order = case
    chart = torus_model.chart
    pts = SamplePlan(8, seed % 1000).sample(chart)
    m = m if outer else n
    secs = random_poly_sections(chart, n + m, seed)
    b2 = random_poly_two_form(chart, b_seed)
    h = exterior_derivative(b2) if twisted else None
    i_field = random_affine_endo(chart, np.random.default_rng(seed))
    axes = 2 if outer else 1
    pad_a = (slice(None), slice(None), None) if outer else (slice(None),)
    pad_b = (slice(None), None) if outer else (slice(None),)
    sa, sb = stacked_sections(secs[:n], pad_a), stacked_sections(secs[n:], pad_b)
    hs = None if h is None else stack_axes(h, axes)
    b2s, i_s = stack_axes(b2, axes), stack_axes(i_field, axes)
    assert validate_twist(hs, pts) == validate_twist(h, pts)
    ops = [(courant_bracket(sa, sb, hs), lambda a, b: courant_bracket(a, b, h)),
           (b_transform(sa, b2s), lambda a, b: b_transform(a, b2)),
           (apply_endo(i_s, sb), lambda a, b: apply_endo(i_field, b)),
           (pairing(sa, sb), pairing)]
    pairs = list(itertools.product(range(n), range(m)) if outer else zip(range(n), range(n)))
    for new, per_item in ops:
        got = new.eval_jet(pts, order)
        for i, j in pairs:
            # a stack axis of length 1 broadcasts: index it at 0
            idx = tuple(k if size > 1 else 0
                        for k, size in zip((i, j)[:axes], got.c.shape[1:]))
            want = per_item(secs[i], secs[n + j]).eval_jet(pts, order)
            assert_jets_equal(got[(slice(None),) + idx], want)
