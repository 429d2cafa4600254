"""The jet contraction primitives against per-component loop references.

``loop_jmatvec``, ``loop_jmatmul`` and the ``loop_*`` connection and
Nijenhuis routines below are the per-component implementations that
``jeinsum``/``jgrad`` replaced; they are kept here as oracles.  Sums run in a
different order, so agreement is to a tolerance fixed from float64 roundoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbhverify.structures import (HermitianPair, chern_connection, form3_full,
                                  levi_civita)
from pbhverify.tensorcalc import (exterior_derivative, jeinsum, jet_coords,
                                  jet_inv, jet_space, jgrad, jmatmul, jmatvec,
                                  metric_field, nijenhuis_tensor, scalar_field)
from pbhverify.tensorcalc.calculus import _stack
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
        dfv = form3_full(exterior_derivative(pair.f).fn(jc), 4)
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
