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
that were deleted in favour of one implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbhverify.gencomplex import (_courant, b_transform, courant_bracket,
                                  gcs_nijenhuis, pairing, random_poly_sections,
                                  random_poly_two_form)
from pbhverify.structures import (HermitianPair, chern_connection, levi_civita,
                                  max_abs)
from pbhverify.tensorcalc import (Field, SamplePlan, coordinate_oneform,
                                  coordinate_vector, d_scalar,
                                  exterior_derivative, form_combos,
                                  form_field, form_full,
                                  interior_product, jeinsum, jet_coords,
                                  jet_inv, jet_space, jgrad, jmatmul, jmatvec,
                                  jtrace, lie_bracket, metric_field,
                                  nijenhuis_tensor, oneform_field,
                                  scalar_field, vector_field)
from pbhverify.tensorcalc.calculus import _stack
from pbhverify.tensorcalc.fields import _broadcast_const
from pbhverify.tensorcalc.fields import _scale
from pbhverify.tensorcalc.jets import Jet

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


def stacked_partials(a):
    parts = [a.partial(i) for i in range(a.space.dim)]
    return Jet(a.space, np.stack([p.c for p in parts], axis=-2), parts[0].order)


def random_jet(rng, space, shape, complex_coeffs, order):
    c = rng.normal(size=shape + (space.n,))
    if complex_coeffs:
        c = c + 1j * rng.normal(size=c.shape)
    c[..., space.degree > order] = 0.0
    return Jet(space, c, order)


def assert_jets_close(new, old):
    assert new.order == old.order
    assert new.c.shape == old.c.shape
    np.testing.assert_allclose(new.c, old.c, rtol=RTOL, atol=ATOL)


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
        a, Jet(sp, np.swapaxes(a.c, -2, -3), a.order)))


@settings(max_examples=20, deadline=None)
@given(cases)
def test_jgrad_matches_stacked_partials(case):
    (dim, order), (lead, _), cplx, _, seed = case
    rng = np.random.default_rng(seed)
    sp = jet_space(dim, order)
    a = random_jet(rng, sp, lead + (3,), cplx, int(rng.integers(1, order + 1)))
    g = jgrad(a)
    assert g.c.shape == a.c.shape[:-1] + (dim, sp.n)
    assert_jets_close(g, stacked_partials(a))


def test_mismatched_spaces_and_exhausted_order_raise():
    rng = np.random.default_rng(0)
    a = random_jet(rng, jet_space(4, 3), (8, 4), False, 3)
    b = random_jet(rng, jet_space(6, 3), (8, 4), False, 3)
    with pytest.raises(ValueError):
        jeinsum("...i,...i->...", a, b)
    with pytest.raises(ValueError):
        jgrad(Jet(a.space, a.c, 0))


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
        assert_jets_close(chern_connection(pair).gamma_fn(jc), old)
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


def ref_coordinate_sections(chart):
    d = chart.dim
    zero_vec = vector_field(chart, lambda jc: _broadcast_const(jc, np.zeros(d)))
    zero_one = oneform_field(chart, lambda jc: _broadcast_const(jc, np.zeros(d)))
    out = [(coordinate_vector(chart, i), zero_one) for i in range(d)]
    return out + [(zero_vec, coordinate_oneform(chart, i)) for i in range(d)]


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

    assert_jets_close(_courant(sa, sb, hv, d), ref_stack(zip(ref[:n], ref[n:])))
    assert_jets_close(_courant(sa[:, :1], sb, hv, d),
                      ref_stack((ref[0], q) for q in ref[n:]))


@settings(max_examples=5, deadline=None)
@given(section_cases, st.booleans())
def test_gcs_nijenhuis_matches_per_pair_loop(torus_model, case, include_frame):
    """A generic affine endomorphism, with and without frame sections and
    twist: the batched residual equals the per-pair Field-tree residual."""
    seed, b_seed, twisted, _ = case
    chart = torus_model.chart
    rng = np.random.default_rng(seed)
    i_field = random_affine_endo(chart, rng)
    pts = SamplePlan(4, seed % 1000).sample(chart)
    h = exterior_derivative(random_poly_two_form(chart, b_seed)) if twisted else None
    rh = exterior_derivative(ref_poly_two_form(chart, b_seed)) if twisted else None
    new = gcs_nijenhuis(i_field, h, pts, random_poly_sections(chart, 3, seed),
                        include_frame=include_frame)
    frame = ref_coordinate_sections(chart) if include_frame else []
    old = ref_gcs_nijenhuis(i_field, rh, pts, frame + ref_poly_sections(chart, 3, seed))
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
    conj = b_conjugate_endo(i1, b2, sign=1.0)
    pts = torus_points[:3]
    secs = random_poly_sections(chart, 2, 31)
    frame = ref_coordinate_sections(chart) + ref_poly_sections(chart, 2, 31)
    for i_field, h, rh in ((i1, None, None), (i_bad, None, None),
                           (conj, -exterior_derivative(b2),
                            -exterior_derivative(ref_poly_two_form(chart, 119)))):
        np.testing.assert_allclose(gcs_nijenhuis(i_field, h, pts, secs),
                                   ref_gcs_nijenhuis(i_field, rh, pts, frame),
                                   rtol=RTOL, atol=ATOL)


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


def ref_lower_trivector(tri_vals, g_vals, dim, triples):
    full = np.zeros(tri_vals.shape[:1] + (dim, dim, dim), dtype=tri_vals.dtype)
    import itertools as it
    for ci, combo in enumerate(triples):
        for perm in it.permutations(range(3)):
            sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
            idx = tuple(combo[p] for p in perm)
            full[(slice(None),) + idx] = sign * tri_vals[:, ci]
    return np.einsum("bpqr,bpx,bqy,brz->bxyz", full, g_vals, g_vals, g_vals)


def ref_engel(lf, jc):
    """X = N theta+#, f and N = J+ + f J- as lee_fields and the jet
    derivative rule built them, and the N± of n_endos."""
    data = lf.data
    f_field = data.p.fn(jc) - (data.p.fn(jc) ** 2 - 1.0).sqrt()
    p = data.p.fn(jc)
    f = p - (p * p - 1.0).sqrt()
    n = data.jp.fn(jc) + _scale(data.jm.fn(jc), f)
    tp_sharp = jmatvec(jet_inv(data.g.fn(jc)), lf.theta_p.fn(jc))
    s = (p * p - 1.0).sqrt()
    n_pm = [data.jp.fn(jc) + _scale(data.jm.fn(jc), p + s * sign) for sign in (1.0, -1.0)]
    return jmatvec(n, tp_sharp), f_field, n, n_pm


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
    from pbhverify.tensorcalc import jtranspose
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


def test_kodaira_frame_matches_removed_copies(kodaira_jets):
    from pbhverify.models import _kodaira_frame
    _, jc = kodaira_jets
    assert_jets_equal(_kodaira_frame(jc), ref_kodaira_frame(jc, 1.0))
    assert_jets_equal(_kodaira_frame(jc, -1.0), ref_kodaira_frame(jc, -1.0))


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
    from pbhverify.poisson import lower_trivector
    rng = np.random.default_rng(5)
    for model in (torus_model, kodaira_model):
        pts = plan.sample(model.chart)
        tri = rng.normal(size=(len(pts), 4))
        g = model.triple.g.eval(pts)
        assert np.array_equal(lower_trivector(tri, g, 4),
                              ref_lower_trivector(tri, g, 4, form_combos(4, 3)))


def test_engel_fields_match_removed_copies(kodaira_jets, kodaira_pairs):
    """Constant p on the rescaled kodaira pair; varying p on synthetic data
    over the kodaira chart."""
    from pbhverify.engel import _jet_nabla_n, lee_fields, n_endos, synthetic_data
    from pbhverify.models import standard_split_quaternion_frame
    model, jc = kodaira_jets
    t = model.triple
    g2 = kodaira_pairs[1].g
    j1m, j2m, j3m, gmat = standard_split_quaternion_frame()
    lfs = [lee_fields(g2, t.j1, t.j1 * 1.25 + t.j2 * 0.75),
           synthetic_data(model.chart, (j1m, j2m, j3m), gmat).lee()]
    for lf in lfs:
        x, f, n, n_pm = ref_engel(lf, jc)
        assert_jets_equal(lf.x.fn(jc), x)
        assert_jets_equal(lf.f_field.fn(jc), f)
        new_pm = n_endos(lf.data.jp, lf.data.jm, lf.data.p)
        assert_jets_equal(new_pm[1].fn(jc), n)
        for new, old in zip(new_pm, n_pm):
            assert_jets_equal(new.fn(jc), old)
    assert np.abs(lfs[1].f_field.fn(jc).c[..., 1:]).max() > 0.01  # p varies
    # the jet derivative rule differentiates the same N
    lf = lfs[1]
    conn = levi_civita(lf.data.g)
    pts = jc.value[:4]
    old_n = Field(model.chart, "endo", lambda c: ref_engel(lf, c)[2],
                  cost=max(lf.data.jp.cost, lf.data.jm.cost, lf.data.p.cost))
    assert np.array_equal(_jet_nabla_n(lf, conn, pts),
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
    from pbhverify.models import standard_split_quaternion_frame
    model, jc = kodaira_jets
    j1m, j2m, j3m, gmat = standard_split_quaternion_frame()
    syn = synthetic_data(model.chart, (j1m, j2m, j3m), gmat)
    data = structures.BihermitianData(syn.g, syn.jp, syn.jm)
    pts = jc.value
    old = ref_check_p_gradient(data, pts)
    monkeypatch.setattr(structures, "max_abs", np.asarray)
    assert np.array_equal(structures.check_p_gradient(data, pts), old)
    assert np.abs(d_scalar(data.p).eval(pts)).max() > 0.01


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
        assert_jets_equal(b_conjugate_endo(i1, b2, sign).fn(jc),
                          ref_b_conjugate(i1.fn(jc), b2.fn(jc), 4, sign))
    g, jp, jm = b.g * (-1.5), b.data.jm * (-1.0), b.data.jp * (-1.0)
    from pbhverify.structures import fundamental_form
    fpv, fmv = fundamental_form(g, jp).fn(jc), fundamental_form(g, jm).fn(jc)
    for new, s in zip(gualtieri_build(g, jp, jm), (1.0, -1.0)):
        assert_jets_equal(new.fn(jc), ref_gualtieri_block(jp.fn(jc), jm.fn(jc),
                                                          fpv, fmv, 4, s))
