"""Sections and endomorphisms of T + T*: natural pairing, twisted Courant
bracket, integrability residuals, generalized pseudo-Kahler pair checks, and
the block construction/extraction relating such pairs to bihermitian data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structures import DegeneracyError, max_abs
from .tensorcalc import (ChartDomain, Field, Jet, d_scalar, endo_field,
                         exterior_derivative, form_combos, form_field,
                         form_full_matrix, interior_product, jet_inv,
                         jmatmul, jmatvec, lie_bracket, lie_derivative_form,
                         oneform_field, scalar_field, vector_field)
from .tensorcalc.calculus import _stack
from .tensorcalc.fields import _broadcast_const

__all__ = ["GeneralizedSection", "coordinate_sections", "random_poly_sections",
           "pairing", "pairing_matrix", "courant_bracket", "endo_conditions",
           "apply_endo", "gcs_from_form", "gcs_nijenhuis", "b_transform",
           "b_conjugate_endo", "check_gpk_pair", "GpkResult",
           "gualtieri_build", "gualtieri_extract", "form_as_map",
           "random_poly_two_form", "validate_twist"]


@dataclass
class GeneralizedSection:
    """X + xi with a vector part and a covector part."""

    vec: Field
    form: Field

    @property
    def chart(self):
        return self.vec.chart

    @property
    def cost(self):
        return max(self.vec.cost, self.form.cost)

    def stacked(self, jc) -> Jet:
        v = self.vec.fn(jc)
        f = self.form.fn(jc)
        order = min(v.order, f.order)
        dtype = np.result_type(v.c.dtype, f.c.dtype)
        return Jet(v.space, np.concatenate([v.c.astype(dtype), f.c.astype(dtype)], axis=1), order)

    def eval(self, pts):
        from .tensorcalc.jets import jet_coords
        jc = jet_coords(self.chart.dim, self.cost, np.atleast_2d(pts))
        return self.stacked(jc).value


def coordinate_sections(chart: ChartDomain):
    """The 2 dim frame sections e_i + 0 and 0 + dx_i."""
    from .tensorcalc import coordinate_oneform, coordinate_vector
    d = chart.dim
    zero_vec = vector_field(chart, lambda jc: _broadcast_const(jc, np.zeros(d)))
    zero_one = oneform_field(chart, lambda jc: _broadcast_const(jc, np.zeros(d)))
    out = [GeneralizedSection(coordinate_vector(chart, i), zero_one) for i in range(d)]
    out += [GeneralizedSection(zero_vec, coordinate_oneform(chart, i)) for i in range(d)]
    return out


def _poly_vec(chart, const, lin):
    def fn(jc):
        comps = []
        for i in range(chart.dim):
            t = jc[:, 0] * 0.0 + const[i]
            for j in range(chart.dim):
                t = t + jc[:, j] * lin[i, j]
            comps.append(t)
        return _stack(comps)

    return vector_field(chart, fn)


def random_poly_sections(chart: ChartDomain, count: int, seed: int):
    """Sections with polynomial coefficients of degree <= 1."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    out = []
    d = chart.dim
    for _ in range(count):
        cv, lv = rng.normal(size=d) * 0.5, rng.normal(size=(d, d)) * 0.2
        cf, lf = rng.normal(size=d) * 0.5, rng.normal(size=(d, d)) * 0.2
        vecf = _poly_vec(chart, cv, lv)
        formf = _poly_vec(chart, cf, lf)
        out.append(GeneralizedSection(
            vecf, oneform_field(chart, formf.fn, cost=formf.cost)))
    return out


def random_poly_two_form(chart: ChartDomain, seed: int) -> Field:
    """2-form with degree <= 1 polynomial combo components."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    ncomb = len(form_combos(chart.dim, 2))
    const = rng.normal(size=ncomb) * 0.5
    lin = rng.normal(size=(ncomb, chart.dim)) * 0.2

    def fn(jc):
        comps = []
        for i in range(ncomb):
            t = jc[:, 0] * 0.0 + const[i]
            for j in range(chart.dim):
                t = t + jc[:, j] * lin[i, j]
            comps.append(t)
        return _stack(comps)

    return form_field(chart, 2, fn)


def pairing(a: GeneralizedSection, b: GeneralizedSection) -> Field:
    """<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2."""
    chart = a.chart

    def fn(jc):
        av, af = a.vec.fn(jc), a.form.fn(jc)
        bv, bf = b.vec.fn(jc), b.form.fn(jc)
        s = (af * bv).sum(axis=-1) + (bf * av).sum(axis=-1)
        return s * 0.5

    return scalar_field(chart, fn, cost=max(a.cost, b.cost))


def pairing_matrix(dim: int) -> np.ndarray:
    p = np.zeros((2 * dim, 2 * dim))
    p[:dim, dim:] = 0.5 * np.eye(dim)
    p[dim:, :dim] = 0.5 * np.eye(dim)
    return p


def validate_twist(h: Field | None, pts, tol=1e-10):
    if h is None:
        return 0.0
    res = max_abs(exterior_derivative(h).eval(pts))
    if res > tol:
        raise ValueError(f"twisting 3-form is not closed: d H residual {res:.3g}")
    return res


def courant_bracket(a: GeneralizedSection, b: GeneralizedSection,
                    h: Field | None = None) -> GeneralizedSection:
    """[X+xi, Y+eta]_H = [X,Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2
    + i_Y i_X H."""
    vec = lie_bracket(a.vec, b.vec)
    lxeta = lie_derivative_form(a.vec, b.form)
    lyxi = lie_derivative_form(b.vec, a.form)
    sform = interior_product(a.vec, b.form) - interior_product(b.vec, a.form)
    half_d = d_scalar(sform) * 0.5
    form = lxeta - lyxi - half_d
    if h is not None:
        form = form + interior_product(b.vec, interior_product(a.vec, h))
    return GeneralizedSection(vec, form)


def apply_endo(i_field: Field, a: GeneralizedSection) -> GeneralizedSection:
    """Section I(A) for an endomorphism field of T + T*."""
    chart = a.chart
    d = chart.dim

    def vec_fn(jc):
        return jmatvec(i_field.fn(jc), a.stacked(jc))[:, :d]

    def form_fn(jc):
        return jmatvec(i_field.fn(jc), a.stacked(jc))[:, d:]

    cost = max(i_field.cost, a.cost)
    return GeneralizedSection(vector_field(chart, vec_fn, cost=cost),
                              oneform_field(chart, form_fn, cost=cost))


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
    m = form_full_matrix(form_jet, d)
    return Jet(m.space, np.swapaxes(m.c, 1, 2), m.order)


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
        space = bv.space
        b = bv.c.shape[0]
        blocks = np.zeros((b, 2 * d, 2 * d, space.n))
        out = Jet(space, blocks, min(b_map.order, w_inv.order))
        # e^{-b} [[0, -w^{-1}], [w, 0]] e^{b}
        top_left = jmatmul(w_inv, b_map) * (-1.0)
        bottom_right = jmatmul(b_map, w_inv)
        bottom_left = w_map + jmatmul(b_map, jmatmul(w_inv, b_map))
        out.c[:, :d, :d] = top_left.c
        out.c[:, :d, d:] = -w_inv.c
        out.c[:, d:, :d] = bottom_left.c
        out.c[:, d:, d:] = bottom_right.c
        return out

    return Field(chart, "tensor", fn, cost=beta.cost).memoized()


def gcs_nijenhuis(i_field: Field, h: Field | None, pts,
                  extra_sections=(), include_frame=True) -> float:
    """Max residual of N_H(A, B) = [A,B] - [IA,IB] + I[IA,B] + I[A,IB] over
    section pairs."""
    chart = i_field.chart
    sections = list(extra_sections)
    if include_frame:
        sections = coordinate_sections(chart) + sections
    applied = [apply_endo(i_field, s) for s in sections]
    worst = 0.0
    for i in range(len(sections)):
        for j in range(i + 1, len(sections)):
            a, b = sections[i], sections[j]
            ia, ib = applied[i], applied[j]
            t1 = courant_bracket(a, b, h)
            t2 = courant_bracket(ia, ib, h)
            t3 = apply_endo(i_field, courant_bracket(ia, b, h))
            t4 = apply_endo(i_field, courant_bracket(a, ib, h))
            res_v = t1.vec - t2.vec + t3.vec + t4.vec
            res_f = t1.form - t2.form + t3.form + t4.form
            worst = max(worst, max_abs(res_v.eval(pts)), max_abs(res_f.eval(pts)))
    return worst


def b_transform(a: GeneralizedSection, b2: Field) -> GeneralizedSection:
    """e^b (X + xi) = X + xi + i_X b."""
    return GeneralizedSection(a.vec, a.form + interior_product(a.vec, b2))


def b_conjugate_endo(i_field: Field, b2: Field, sign: float = 1.0) -> Field:
    """e^{sign b} I e^{-sign b} as an endomorphism field."""
    chart = i_field.chart
    d = chart.dim

    def fn(jc):
        iv = i_field.fn(jc)
        bmap = form_as_map(b2.fn(jc), d) * sign
        space = iv.space
        b = iv.c.shape[0]
        ep = np.zeros((b, 2 * d, 2 * d, space.n), dtype=bmap.c.dtype)
        ep[..., 0] = np.eye(2 * d)
        em = ep.copy()
        ep[:, d:, :d] = bmap.c
        em[:, d:, :d] = -bmap.c
        return jmatmul(Jet(space, ep, bmap.order),
                       jmatmul(iv, Jet(space, em, bmap.order)))

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
    if comm > tol_commute:
        bad = int(np.argmax(np.abs(v1 @ v2 - v2 @ v1).reshape(len(pts), -1).max(axis=1)))
        return GpkResult(False, res, "commute", bad)
    g = v1 @ v2
    res["involution"] = float(np.abs(g @ g - np.eye(2 * d)).max())
    if res["involution"] > 1e-7:
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
            space = jpv.space
            nb = jpv.c.shape[0]
            blocks = np.zeros((nb, 2 * d, 2 * d, space.n))
            top_left = (jpv + jmv * s) * 0.5
            top_right = (fp_inv - fm_inv * s) * (-0.5)
            bottom_left = (fpm - fmm * s) * 0.5
            jp_t = Jet(space, np.swapaxes(jpv.c, 1, 2), jpv.order)
            jm_t = Jet(space, np.swapaxes(jmv.c, 1, 2), jmv.order)
            bottom_right = (jp_t + jm_t * s) * (-0.5)
            blocks[:, :d, :d] = top_left.c
            blocks[:, :d, d:] = top_right.c
            blocks[:, d:, :d] = bottom_left.c
            blocks[:, d:, d:] = bottom_right.c
            order = min(top_left.order, top_right.order)
            return Jet(space, blocks, order)

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
        return form_from_matrix(Jet(m.space, np.swapaxes(m.c, 1, 2), m.order), d)

    def j_fn(jc, sign):
        cp, cm = blocks(jc)
        # J+ acts on the graph of b + g (the -1 eigenbundle here), J- on b - g
        c = cm if sign > 0 else cp
        iv = i1.fn(jc)
        # project I1 (X + C X) to the tangent part
        lift_top = iv[:, :d, :d] + jmatmul(iv[:, :d, d:], c)
        return lift_top

    def g_as_metric(jc):
        m = g_fn(jc)
        return Jet(m.space, np.swapaxes(m.c, 1, 2), m.order)

    from .tensorcalc import metric_field
    g_field = metric_field(chart, g_as_metric, cost=max(i1.cost, i2.cost)).memoized()
    b_field = form_field(chart, 2, b_fn, cost=max(i1.cost, i2.cost)).memoized()
    jp_field = endo_field(chart, lambda jc: j_fn(jc, +1), cost=max(i1.cost, i2.cost)).memoized()
    jm_field = endo_field(chart, lambda jc: j_fn(jc, -1), cost=max(i1.cost, i2.cost)).memoized()
    return g_field, jp_field, jm_field, b_field
