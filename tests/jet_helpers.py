"""Test helpers for reading jets, and full-space loop oracles.

A jet valid to order k is stored in ``jet_space(dim, k)``.  The oracles
below take their operands into one larger space (``embed``: zero above each
operand's order), compute there over the whole product table or by a loop
over multi-indices, and return a ``Jet`` valid to the order of the result,
which the constructor cuts to the valid prefix.  The package kernels must
equal that prefix.
"""

import math

import numpy as np

from pbhverify.tensorcalc.jets import Jet


def partials(jet, alpha):
    """The raw partial of ``jet`` for the multi-index tuple ``alpha``."""
    if sum(alpha) > jet.order:
        raise ValueError("partial order exceeds jet validity")
    return jet.c[..., jet.space.index[tuple(alpha)]]


def embed(jet, space):
    """``jet``'s coefficients in the larger ``space`` of its dimension, zero
    above its order: an array (..., space.n)."""
    c = np.zeros(jet.c.shape[:-1] + (space.n,), dtype=jet.c.dtype)
    c[..., :jet.space.n] = jet.c
    return c


def _product(a, b, space, contract):
    """Every row of ``space``'s product table for ``a`` and ``b`` embedded
    in ``space``, the gathered factors combined by ``contract``; valid to
    the lower of their orders."""
    prod = contract(embed(a, space)[..., space.prod_a], embed(b, space)[..., space.prod_b])
    prod = prod * space.prod_c
    return Jet(space, np.add.reduceat(prod, space.prod_starts, axis=-1),
               min(a.order, b.order))


def leibniz(spec, a, b, space):
    """The full-table jet product contracted as ``np.einsum(spec)``."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    return _product(a, b, space, lambda x, y: np.einsum(f"{sa}r,{sb}r->{out}r", x, y))


def leibniz_mul(a, b, space):
    """The full-table elementwise jet product, broadcasting as ``*``."""
    return _product(a, b, space, np.multiply)


def loop_partial(a, i, space):
    """The i-th partial of ``a`` embedded in ``space``, one multi-index at
    a time: (d_i a)^(alpha) = a^(alpha + e_i); valid to a.order - 1."""
    c = embed(a, space)
    out = np.zeros_like(c)
    for k, alpha in enumerate(space.multi):
        up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        if up in space.index:
            out[..., k] = c[..., space.index[up]]
    return Jet(space, out, a.order - 1)


def taylor(x, derivs, space):
    """sum_m derivs[m] / m! (x - x0)^m for ``x`` embedded in ``space``, with
    every power a ``leibniz`` product there; valid to x.order."""
    du = Jet(space, embed(x, space))
    du.c[..., 0] = 0
    out = np.zeros(du.c.shape, dtype=np.result_type(du.c.dtype, derivs[0].dtype))
    out[..., 0] = derivs[0]
    power = du
    for m in range(1, space.order + 1):
        out = out + power.c * (derivs[m] / math.factorial(m))[..., None]
        if m < space.order:
            power = leibniz_mul(power, du, space)
    return Jet(space, out, x.order)


def neumann_solve(a, b, space):
    """x with a x = b from the series sum_k (-E)^k inv(a0) b, E = inv(a0)
    (a - a0), every product a ``leibniz`` product in ``space``; valid to the
    lower of the two orders.  b is (..., k) or (..., k, p)."""
    a0inv = Jet.constant(space, np.linalg.inv(a.value))
    pert = Jet(space, embed(a, space))
    pert.c[..., 0] = 0
    e = leibniz("...ij,...jk->...ik", a0inv, pert, space)
    spec = "...ij,...j->...i" if b.c.ndim < a.c.ndim else "...ij,...jk->...ik"
    term = acc = leibniz(spec, a0inv, b, space)
    for _ in range(space.order):
        term = leibniz(spec, e, term, space) * -1.0
        acc = acc + term
    return Jet(space, acc.c, min(a.order, b.order))
