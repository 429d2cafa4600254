"""Sections and endomorphisms of T + T*: natural pairing, twisted Courant
bracket, integrability residuals, generalized pseudo-Kahler pair checks, and
the block construction/extraction relating such pairs to bihermitian data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structures import DegeneracyError, max_abs, worst
from .tensorcalc import (ChartDomain, Field, Jet, endo_field,
                         exterior_derivative, form_combos, form_field,
                         form_full, form_full_matrix, jeinsum, jet_coords,
                         jet_inv, jgrad, jmatmul, jmatvec, jtranspose,
                         scalar_field)
from .tensorcalc.calculus import _stack
from .tensorcalc.fields import _broadcast_const

__all__ = ["section", "coordinate_sections", "random_poly_sections",
           "pairing", "pairing_matrix", "courant_bracket", "endo_conditions",
           "apply_endo", "gcs_from_form", "gcs_nijenhuis", "b_transform",
           "b_conjugate_endo", "check_gpk_pair", "GpkResult",
           "gualtieri_build", "gualtieri_extract", "form_as_map",
           "random_poly_two_form", "validate_twist"]


def _join(vec: Jet, form: Jet) -> Jet:
    """Stack a vector jet and a covector jet (..., d) into (..., 2d)."""
    return Jet(vec.space, np.concatenate([vec.c, form.c], axis=-2),
               min(vec.order, form.order))


def section(vec: Field, form: Field) -> Field:
    """The section X + xi of T + T* from a vector field and a 1-form field."""
    if form.chart is not vec.chart:
        raise ValueError("fields on different charts")
    return Field(vec.chart, "section", lambda jc: _join(vec.fn(jc), form.fn(jc)),
                 cost=max(vec.cost, form.cost))


def coordinate_sections(chart: ChartDomain):
    """The 2 dim frame sections e_i + 0 and 0 + dx_i."""
    def const(e):
        return Field(chart, "section", lambda jc: _broadcast_const(jc, e))

    return [const(e) for e in np.eye(2 * chart.dim)]


def _affine(chart, kind, const, lin, degree=0):
    """Field whose components are const + lin x in the chart coordinates x."""
    def fn(jc):
        c = np.einsum("ij,...jr->...ir", lin, jc.c)
        c[..., 0] += const
        return Jet(jc.space, c, jc.order)

    return Field(chart, kind, fn, degree=degree)


def random_poly_sections(chart: ChartDomain, count: int, seed: int):
    """Sections with polynomial coefficients of degree <= 1."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    out = []
    d = chart.dim
    for _ in range(count):
        cv, lv = rng.normal(size=d) * 0.5, rng.normal(size=(d, d)) * 0.2
        cf, lf = rng.normal(size=d) * 0.5, rng.normal(size=(d, d)) * 0.2
        out.append(_affine(chart, "section", np.concatenate([cv, cf]),
                           np.concatenate([lv, lf])))
    return out


def random_poly_two_form(chart: ChartDomain, seed: int) -> Field:
    """2-form with degree <= 1 polynomial combo components."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    ncomb = len(form_combos(chart.dim, 2))
    const = rng.normal(size=ncomb) * 0.5
    lin = rng.normal(size=(ncomb, chart.dim)) * 0.2
    return _affine(chart, "form", const, lin, degree=2)


def pairing(a: Field, b: Field) -> Field:
    """<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2."""
    d = a.chart.dim

    def fn(jc):
        av, bv = a.fn(jc), b.fn(jc)
        s = (av[..., d:] * bv[..., :d]).sum(axis=-1) + (bv[..., d:] * av[..., :d]).sum(axis=-1)
        return s * 0.5

    return scalar_field(a.chart, fn, cost=max(a.cost, b.cost))


def pairing_matrix(dim: int) -> np.ndarray:
    p = np.zeros((2 * dim, 2 * dim))
    p[:dim, dim:] = 0.5 * np.eye(dim)
    p[dim:, :dim] = 0.5 * np.eye(dim)
    return p


def validate_twist(h: Field | None, pts, tol=1e-10):
    if h is None:
        return 0.0
    res = max_abs(exterior_derivative(h).eval(pts))
    if not res <= tol:
        raise ValueError(f"twisting 3-form is not closed: d H residual {res:.3g}")
    return res


def _courant(a: Jet, b: Jet, h: Jet | None, d: int) -> Jet:
    """Twisted Courant bracket of stacked section jets a = X + xi and
    b = Y + eta (..., 2d), leading axes broadcast; h is the full twist
    tensor H_abi (..., d, d, d) or None.

      vector  X^j d_j Y^i - Y^j d_j X^i
      form    X^j d_j eta_i - Y^j d_j xi_i + X^a Y^b H_abi
              + (eta_j d_i X^j - xi_j d_i Y^j - X^j d_i eta_j + Y^j d_i xi_j) / 2
    """
    ga, gb = jgrad(a), jgrad(b)  # ga[..., k, j] = d_j a_k
    x, y = a[..., :d], b[..., :d]
    out = jeinsum("...j,...kj->...k", x, gb) - jeinsum("...j,...kj->...k", y, ga)
    # with the halves swapped, the four half-weight terms are two contractions
    sa = Jet(a.space, np.roll(a.c, d, axis=-2), a.order)
    sb = Jet(b.space, np.roll(b.c, d, axis=-2), b.order)
    form = out[..., d:] + (jeinsum("...k,...ki->...i", sb, ga)
                           - jeinsum("...k,...ki->...i", sa, gb)) * 0.5
    if h is not None:
        form = form + jeinsum("...ab,...abi->...i", jeinsum("...a,...b->...ab", x, y), h)
    return _join(out[..., :d], form)


def courant_bracket(a: Field, b: Field, h: Field | None = None) -> Field:
    """[X+xi, Y+eta]_H = [X,Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2
    + i_Y i_X H."""
    d = a.chart.dim

    def fn(jc):
        hv = None if h is None else form_full(h.fn(jc), d, 3)
        return _courant(a.fn(jc), b.fn(jc), hv, d)

    cost = max(a.cost + 1, b.cost + 1, 0 if h is None else h.cost)
    return Field(a.chart, "section", fn, cost=cost)


def apply_endo(i_field: Field, a: Field) -> Field:
    """Section I(A) for an endomorphism field of T + T*."""
    return Field(a.chart, "section", lambda jc: jmatvec(i_field.fn(jc), a.fn(jc)),
                 cost=max(i_field.cost, a.cost))


def endo_conditions(i_field: Field, pts) -> tuple:
    """Residuals of I^2 = -Id and of natural-pairing preservation."""
    iv = i_field.eval_jet(pts)
    dd = iv.c.shape[1]
    eye = _broadcast_const(iv, np.eye(dd))
    sq = max_abs(jmatmul(iv, iv) + eye)
    p = pairing_matrix(dd // 2)
    pv = iv.value
    pres = float(np.abs(np.einsum("bji,jk,bkl->bil", pv, p, pv) - p).max())
    return sq, pres


def form_as_map(form_jet: Jet, d: int) -> Jet:
    """2-form components -> matrix of X -> i_X F (rows index the covector)."""
    return jtranspose(form_full_matrix(form_jet, d))


def _blocks(top_left: Jet, top_right: Jet, bottom_left: Jet, bottom_right: Jet) -> Jet:
    """The (..., 2d, 2d) endomorphism of T + T* with four (..., d, d) blocks."""
    top = np.concatenate([top_left.c, top_right.c], axis=-2)
    bottom = np.concatenate([bottom_left.c, bottom_right.c], axis=-2)
    order = min(top_left.order, top_right.order, bottom_left.order, bottom_right.order)
    return Jet(top_left.space, np.concatenate([top, bottom], axis=-3), order)


def gcs_from_form(beta: Field) -> Field:
    """Endomorphism of T + T* whose +i eigenspace is {X - i_X beta}.

    With beta = b + i w (w pointwise nondegenerate) this is the b-shear of
    the symplectic-type block structure of w."""
    chart = beta.chart
    d = chart.dim

    def fn(jc):
        bv = beta.fn(jc)
        b_map = form_as_map(Jet(bv.space, bv.c.real.copy(), bv.order), d)
        w_map = form_as_map(Jet(bv.space, bv.c.imag.copy(), bv.order), d)
        det = np.linalg.det(w_map.value)
        if np.any(np.abs(det) < 1e-12):
            bad = int(np.argmin(np.abs(det)))
            raise DegeneracyError(f"imaginary part degenerate at point index {bad}")
        w_inv = jet_inv(w_map)
        # e^{-b} [[0, -w^{-1}], [w, 0]] e^{b}
        return _blocks(jmatmul(w_inv, b_map) * (-1.0), -w_inv,
                       w_map + jmatmul(b_map, jmatmul(w_inv, b_map)),
                       jmatmul(b_map, w_inv))

    return Field(chart, "tensor", fn, cost=beta.cost).memoized()


def gcs_nijenhuis(i_field: Field, h: Field | None, pts,
                  extra_sections=(), include_frame=True) -> float:
    """Max residual of N_H(A, B) = [A,B] - [IA,IB] + I[IA,B] + I[A,IB] over
    section pairs A before B (frame sections first).  I, H and every section
    are evaluated once; each section is bracketed against all later ones in
    one batched call."""
    chart = i_field.chart
    d = chart.dim
    sections = list(extra_sections)
    if include_frame:
        sections = coordinate_sections(chart) + sections
    if len(sections) < 2:
        raise ValueError("gcs_nijenhuis needs at least two sections")
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    chart.require(pts)
    order = max(1 + max(f.cost for f in [i_field, *sections]),
                0 if h is None else h.cost)
    jc = jet_coords(d, order, pts)
    iv = i_field.fn(jc)[:, None]
    hv = None if h is None else form_full(h.fn(jc), d, 3)[:, None]
    s = _stack([sec.fn(jc) for sec in sections])  # (B, sections, 2d)
    isec = jmatvec(iv, s)
    out = 0.0
    for i in range(len(sections) - 1):
        a, ia = s[:, i:i + 1], isec[:, i:i + 1]
        b, ib = s[:, i + 1:], isec[:, i + 1:]
        res = (_courant(a, b, hv, d) - _courant(ia, ib, hv, d)
               + jmatvec(iv, _courant(ia, b, hv, d) + _courant(a, ib, hv, d)))
        out = worst(out, max_abs(res))
    return out


def b_transform(a: Field, b2: Field) -> Field:
    """e^b (X + xi) = X + xi + i_X b."""
    d = a.chart.dim

    def fn(jc):
        av = a.fn(jc)
        x = av[..., :d]
        ixb = jeinsum("...i,...ij->...j", x, form_full(b2.fn(jc), d, 2))
        return _join(x, av[..., d:] + ixb)

    return Field(a.chart, "section", fn, cost=max(a.cost, b2.cost))


def b_conjugate_endo(i_field: Field, b2: Field, sign: float = 1.0) -> Field:
    """e^{sign b} I e^{-sign b} as an endomorphism field."""
    chart = i_field.chart
    d = chart.dim

    def fn(jc):
        iv = i_field.fn(jc)
        bmap = form_as_map(b2.fn(jc), d) * sign
        eye = _broadcast_const(bmap, np.eye(d))
        zero = eye * 0.0
        return jmatmul(_blocks(eye, zero, bmap, eye),
                       jmatmul(iv, _blocks(eye, zero, -bmap, eye)))

    return Field(chart, "tensor", fn, cost=max(i_field.cost, b2.cost)).memoized()


@dataclass
class GpkResult:
    ok: bool
    residuals: dict
    failed_clause: str = ""
    point_index: int = -1
    signatures: tuple = ()

    def require(self):
        if not self.ok:
            raise ValueError(f"generalized pseudo-Kahler check failed at clause "
                             f"{self.failed_clause!r}, point {self.point_index}")


def check_gpk_pair(i1: Field, i2: Field, pts, tol_commute=1e-9,
                   angle_floor=1e-6, gram_floor=1e-8) -> GpkResult:
    """Commutation, eigenspace split of G = I1 I2, transversality to T and
    nondegeneracy of the induced pairing, at every sampled point."""
    d = i1.chart.dim
    v1 = i1.eval(pts)
    v2 = i2.eval(pts)
    res = {}
    comm = np.abs(v1 @ v2 - v2 @ v1).max()
    res["commute"] = float(comm)
    if not comm <= tol_commute:
        bad = int(np.argmax(np.abs(v1 @ v2 - v2 @ v1).reshape(len(pts), -1).max(axis=1)))
        return GpkResult(False, res, "commute", bad)
    g = v1 @ v2
    res["involution"] = float(np.abs(g @ g - np.eye(2 * d)).max())
    if not res["involution"] <= 1e-7:
        return GpkResult(False, res, "involution", -1)
    p_pair = pairing_matrix(d)
    t_basis = np.zeros((2 * d, d))
    t_basis[:d, :] = np.eye(d)
    worst_angle = np.inf
    worst_gram = np.inf
    sigs = set()
    for sgn in (+1.0, -1.0):
        proj = 0.5 * (np.eye(2 * d) + sgn * g)
        u, s, _ = np.linalg.svd(proj)
        ranks = (s > 1e-7).sum(axis=1)
        res[f"rank_L{'+' if sgn > 0 else '-'}"] = float(ranks.max())
        if np.any(ranks != d):
            bad = int(np.argmax(ranks != d))
            return GpkResult(False, res, f"dim_L{'+' if sgn > 0 else '-'}", bad)
        basis = u[:, :, :d]
        # transversality: largest principal cosine against the tangent block
        cosines = np.linalg.svd(np.swapaxes(basis, 1, 2) @ t_basis[None],
                                compute_uv=False)
        min_angle = np.arccos(np.clip(cosines.max(axis=1), -1, 1)).min()
        worst_angle = min(worst_angle, float(min_angle))
        if min_angle <= angle_floor:
            bad = int(np.argmin(np.arccos(np.clip(cosines.max(axis=1), -1, 1))))
            return GpkResult(False, res, "transversality", bad)
        gram = np.swapaxes(basis, 1, 2) @ p_pair[None] @ basis
        sv = np.linalg.svd(gram, compute_uv=False)
        worst_gram = min(worst_gram, float(sv.min()))
        if sv.min() <= gram_floor:
            bad = int(np.argmin(sv.min(axis=1)))
            return GpkResult(False, res, "pairing_rank", bad)
        eig = np.linalg.eigvalsh(0.5 * (gram + np.swapaxes(gram, 1, 2)))
        sigs.add(((eig > 0).sum(axis=1).max(), (eig < 0).sum(axis=1).max()))
    res["min_principal_angle"] = worst_angle
    res["min_pairing_singular_value"] = worst_gram
    return GpkResult(True, res, signatures=tuple(sorted(sigs)))


def gualtieri_build(g: Field, jp: Field, jm: Field, b2: Field | None = None):
    """Block construction of the commuting pair from (g, J+, J-, b)."""
    chart = g.chart
    d = chart.dim
    from .structures import fundamental_form
    fp = fundamental_form(g, jp)
    fm = fundamental_form(g, jm)

    def make(which):
        s = 1.0 if which == 1 else -1.0

        def fn(jc):
            jpv, jmv = jp.fn(jc), jm.fn(jc)
            fpm = form_as_map(fp.fn(jc), d)
            fmm = form_as_map(fm.fn(jc), d)
            fp_inv = jet_inv(fpm)
            fm_inv = jet_inv(fmm)
            return _blocks((jpv + jmv * s) * 0.5, (fp_inv - fm_inv * s) * (-0.5),
                           (fpm - fmm * s) * 0.5,
                           (jtranspose(jpv) + jtranspose(jmv) * s) * (-0.5))

        out = Field(chart, "tensor", fn, cost=max(g.cost, jp.cost, jm.cost))
        if b2 is not None:
            out = b_conjugate_endo(out, b2, sign=1.0)
        return out.memoized()

    return make(1), make(2)


def gualtieri_extract(i1: Field, i2: Field):
    """Recover (g, J+, J-, b) fields from a commuting pair via the graph
    maps of the +-1 eigenbundles of G = I1 I2."""
    chart = i1.chart
    d = chart.dim

    def blocks(jc):
        gv = jmatmul(i1.fn(jc), i2.fn(jc))
        a = gv[:, :d, :d]
        b = gv[:, :d, d:]
        binv = jet_inv(b)
        eye = _broadcast_const(jc, np.eye(d))
        c_plus = jmatmul(binv, eye - a)
        c_minus = jmatmul(binv, -eye - a)
        return c_plus, c_minus

    # with the shipped block construction the +1 eigenbundle is the graph of
    # b - g and the -1 eigenbundle the graph of b + g
    def g_fn(jc):
        cp, cm = blocks(jc)
        return (cm - cp) * 0.5

    def b_fn(jc):
        cp, cm = blocks(jc)
        m = (cp + cm) * 0.5
        from .tensorcalc import form_from_matrix
        return form_from_matrix(jtranspose(m), d)

    def j_fn(jc, sign):
        cp, cm = blocks(jc)
        # J+ acts on the graph of b + g (the -1 eigenbundle here), J- on b - g
        c = cm if sign > 0 else cp
        iv = i1.fn(jc)
        # project I1 (X + C X) to the tangent part
        lift_top = iv[:, :d, :d] + jmatmul(iv[:, :d, d:], c)
        return lift_top

    from .tensorcalc import metric_field
    g_field = metric_field(chart, lambda jc: jtranspose(g_fn(jc)),
                           cost=max(i1.cost, i2.cost)).memoized()
    b_field = form_field(chart, 2, b_fn, cost=max(i1.cost, i2.cost)).memoized()
    jp_field = endo_field(chart, lambda jc: j_fn(jc, +1), cost=max(i1.cost, i2.cost)).memoized()
    jm_field = endo_field(chart, lambda jc: j_fn(jc, -1), cost=max(i1.cost, i2.cost)).memoized()
    return g_field, jp_field, jm_field, b_field
