"""Exterior calculus and Lie brackets on jets.

Conventions (determinant normalization):
  (dx_i ^ dx_j)(e_i, e_j) = 1
  form components are stored on sorted index combinations,
  omega[c] = omega(e_{c_0}, ..., e_{c_{k-1}}).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import (Field, form_field, oneform_field, scalar_field,
                     vector_field, zero_form)
from .jets import Jet, _perm_sign, jdet, jeinsum, jet_common, jgrad, jtranspose

__all__ = ["form_combos", "combo_index", "exterior_derivative", "wedge",
           "interior_product", "pullback_linear", "lie_bracket", "bracket_jets",
           "d_scalar", "form_full", "form_full_matrix", "form_from_matrix",
           "evaluate_form", "nijenhuis_jets", "nijenhuis_tensor"]


@lru_cache(maxsize=None)
def form_combos(dim: int, k: int):
    return tuple(itertools.combinations(range(dim), k))


@lru_cache(maxsize=None)
def combo_index(dim: int, k: int):
    return {c: i for i, c in enumerate(form_combos(dim, k))}


def _frozen(table):
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _d_table(dim: int, k: int):
    """Signed table D[o, s, i]: (d omega)[o] = sum D[o, s, i] d_i omega[s]."""
    idx_k = combo_index(dim, k)
    combos = form_combos(dim, k + 1)
    table = np.zeros((len(combos), len(idx_k), dim))
    for o, c in enumerate(combos):
        for m, i in enumerate(c):
            table[o, idx_k[c[:m] + c[m + 1:]], i] = (-1.0) ** m
    return _frozen(table)


@lru_cache(maxsize=None)
def _wedge_table(dim: int, k: int, l: int):
    """Signed table W[o, a, b]: shuffle expansion of the wedge product."""
    idx_a = combo_index(dim, k)
    idx_b = combo_index(dim, l)
    combos = form_combos(dim, k + l)
    table = np.zeros((len(combos), len(idx_a), len(idx_b)))
    for o, c in enumerate(combos):
        for sub in itertools.combinations(range(k + l), k):
            rest = [i for i in range(k + l) if i not in sub]
            a = tuple(c[i] for i in sub)
            b = tuple(c[i] for i in rest)
            table[o, idx_a[a], idx_b[b]] = _perm_sign(list(sub) + rest)
    return _frozen(table)


@lru_cache(maxsize=None)
def _interior_table(dim: int, k: int):
    """Signed table I[o, i, s]: (i_X omega)[o] = sum I[o, i, s] X^i omega[s]."""
    idx_k = combo_index(dim, k)
    combos = form_combos(dim, k - 1)
    table = np.zeros((len(combos), dim, len(idx_k)))
    for o, c in enumerate(combos):
        for i in range(dim):
            if i not in c:
                pos = sum(1 for j in c if j < i)
                table[o, i, idx_k[tuple(sorted((i,) + c))]] = (-1.0) ** pos
    return _frozen(table)


@lru_cache(maxsize=None)
def _full_index(dim: int, k: int):
    """For each entry of the flattened full antisymmetric k-tensor, the combo
    component it copies and its sign (0 on entries with a repeated index)."""
    idx = np.zeros((dim,) * k, dtype=np.int64)
    sign = np.zeros((dim,) * k)
    for ci, c in enumerate(form_combos(dim, k)):
        for perm in itertools.permutations(range(k)):
            entry = tuple(c[p] for p in perm)
            idx[entry] = ci
            sign[entry] = _perm_sign(perm)
    return _frozen(idx.ravel()), _frozen(sign.ravel())


def _check_chart(*fields):
    chart = fields[0].chart
    for f in fields[1:]:
        if f.chart is not chart:
            raise ValueError("fields live on different charts")
    return chart


def _stack(jets):
    """Stack m jets (B, ...) into one jet (B, m, ...)."""
    jets = jet_common(*jets)
    return Jet(jets[0].space, np.stack([j.c for j in jets], axis=1))


def exterior_derivative(omega: Field) -> Field:
    chart = omega.chart
    k = omega.degree
    if omega.kind == "scalar":
        return d_scalar(omega)
    if k >= chart.dim:
        return zero_form(chart, min(k + 1, chart.dim))
    table = _d_table(chart.dim, k)

    def fn(jc):
        g = jgrad(omega.fn(jc))
        return Jet(g.space, np.einsum("osi,...sir->...or", table, g.c))

    return form_field(chart, k + 1, fn, cost=omega.cost + 1)


def d_scalar(f: Field) -> Field:
    return oneform_field(f.chart, lambda jc: jgrad(f.fn(jc)), cost=f.cost + 1)


def wedge(a: Field, b: Field) -> Field:
    chart = _check_chart(a, b)
    k, l = a.degree, b.degree
    if k + l > chart.dim:
        return zero_form(chart, chart.dim)
    table = _wedge_table(chart.dim, k, l)

    def fn(jc):
        wa = a.fn(jc)
        ta = Jet(wa.space, np.einsum("oab,...ar->...obr", table, wa.c))
        return jeinsum("...ob,...b->...o", ta, b.fn(jc))

    return form_field(chart, k + l, fn, cost=max(a.cost, b.cost))


def interior_product(x: Field, omega: Field) -> Field:
    chart = _check_chart(x, omega)
    k = omega.degree
    if k == 0:
        raise ValueError("cannot contract into a 0-form")
    table = _interior_table(chart.dim, k)

    def fn(jc):
        xv = x.fn(jc)
        w = omega.fn(jc)
        tw = Jet(w.space, np.einsum("ois,...sr->...oir", table, w.c))
        return jeinsum("...oi,...i->...o", tw, xv)

    if k == 1:
        return scalar_field(chart, lambda jc: fn(jc)[:, 0], cost=max(x.cost, omega.cost))
    return form_field(chart, k - 1, fn, cost=max(x.cost, omega.cost))


def pullback_linear(a: Field, omega: Field) -> Field:
    """(A* omega)(X_1..X_k) = omega(A X_1, ..., A X_k) for an endo field A."""
    chart = _check_chart(a, omega)
    d, k = chart.dim, omega.degree
    slots = "abcdef"[:k]
    combo_pos = [np.ravel_multi_index(c, (d,) * k) for c in form_combos(d, k)]

    def fn(jc):
        av = a.fn(jc)
        t = form_full(omega.fn(jc), d, k)
        for s, x in enumerate(slots):
            t = jeinsum(f"...{slots},...{x}z->...{slots[:s]}z{slots[s + 1:]}", t, av)
        flat = t.c.reshape(t.c.shape[:-k - 1] + (-1, t.space.n))
        return Jet(t.space, flat[..., combo_pos, :])

    return form_field(chart, k, fn, cost=max(a.cost, omega.cost))


def evaluate_form(omega_jet: Jet, vectors, dim: int, k: int) -> Jet:
    """Evaluate form components (B, ncomb) on k vector jets (each (B, d))."""
    combos = form_combos(dim, k)
    vstack = jtranspose(_stack(vectors))  # (B, d, k)
    out = None
    for ci, c in enumerate(combos):
        rows = np.array(c)
        minor = vstack[:, rows]  # (B, k, k)
        t = omega_jet[:, ci] * jdet(minor)
        out = t if out is None else out + t
    return out


def form_full(omega_jet: Jet, dim: int, k: int) -> Jet:
    """k-form combo components (..., C(d,k)) -> full antisymmetric
    (..., d, ..., d) tensor."""
    idx, sign = _full_index(dim, k)
    c = omega_jet.c[..., idx, :] * sign[:, None]
    return Jet(omega_jet.space, c.reshape(c.shape[:-2] + (dim,) * k + c.shape[-1:]))


def form_full_matrix(omega_jet: Jet, dim: int) -> Jet:
    """2-form combo components (B, C(d,2)) -> full antisymmetric (B, d, d)."""
    return form_full(omega_jet, dim, 2)


def form_from_matrix(m_jet: Jet, dim: int) -> Jet:
    """Matrix (B, d, d) -> 2-form combo components (B, C(d,2)) read from
    its entries above the diagonal."""
    i, j = np.array(form_combos(dim, 2)).T
    return Jet(m_jet.space, m_jet.c[:, i, j])


def bracket_jets(xv: Jet, yv: Jet) -> Jet:
    """The Lie bracket of two vector jets; drops one valid order."""
    return (jeinsum("...j,...ij->...i", xv, jgrad(yv))
            - jeinsum("...j,...ij->...i", yv, jgrad(xv)))


def lie_bracket(x: Field, y: Field) -> Field:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    chart = _check_chart(x, y)
    return vector_field(chart, lambda jc: bracket_jets(x.fn(jc), y.fn(jc)),
                        cost=max(x.cost, y.cost) + 1)


def nijenhuis_jets(jv: Jet) -> Jet:
    """``nijenhuis_tensor`` of endo jets (..., d, d); drops one valid order."""
    ii, jj = np.array(form_combos(jv.c.shape[-2], 2)).T
    dj = jgrad(jv)  # dj[a, j, b] = d_b J^a_j
    # [Je_i, e_j] = -d_j(J e_i) and [e_i, e_j] = 0, so N(e_i, e_j) =
    # u[:, i, j] - u[:, j, i] with u[a, i, j] = J^b_i d_b J^a_j + J^a_c d_j J^c_i
    u = (jeinsum("...bi,...ajb->...aij", jv, dj)
         + jeinsum("...ac,...cij->...aij", jv, dj))
    return Jet(u.space, u.c[..., ii, jj, :] - u.c[..., jj, ii, :])


def nijenhuis_tensor(j_endo: Field) -> Field:
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] + J^2 [X, Y] on coordinate
    frame pairs (i < j); output components (B, d, npairs)."""
    return Field(j_endo.chart, "tensor", lambda jc: nijenhuis_jets(j_endo.fn(jc)),
                 cost=j_endo.cost + 1)
