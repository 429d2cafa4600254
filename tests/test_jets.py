"""Jet arithmetic against polynomial calculus, finite differences and a
frozen symbolic value."""

import math

import numpy as np

import pytest

from pbhverify.tensorcalc import (jet_coords, jet_inv, jet_prefix, jet_space, jdet,
                                  jmatmul)
from pbhverify.tensorcalc.jets import Jet, JetSpace

from jet_helpers import partials


def test_polynomial_partials():
    x = jet_coords(4, 3, np.array([[2.0, 3.0, 0.0, 0.0]]))
    f = x[:, 0] * x[:, 1]
    assert f.value[0] == 6.0
    assert partials(f, (1, 0, 0, 0))[0] == 3.0
    assert partials(f, (0, 1, 0, 0))[0] == 2.0
    assert partials(f, (1, 1, 0, 0))[0] == 1.0
    assert partials(f, (2, 0, 0, 0))[0] == 0.0
    assert partials(f, (0, 0, 2, 1))[0] == 0.0


def test_coordinate_function_higher_partials_vanish():
    x = jet_coords(4, 3, np.array([[0.3, -0.7, 1.1, 0.05]]))
    f = x[:, 2]
    for alpha in f.space.multi:
        if sum(alpha) >= 2:
            assert partials(f, alpha)[0] == 0.0


def test_composition_matches_finite_differences():
    pts = np.array([[0.4, -1.2, 0.3, 0.9]])

    def evaluate(p, order):
        x = jet_coords(4, order, p)
        return ((x[:, 0].sin() * x[:, 1]).exp() + (x[:, 2] ** 2 + 1.0).log()
                / (x[:, 3] + 2.0))

    g = evaluate(pts, 2)
    h = 1e-5
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (evaluate(pts + e, 0).value - evaluate(pts - e, 0).value) / (2 * h)
        alpha = tuple(1 if j == i else 0 for j in range(4))
        assert abs(partials(g, alpha)[0] - fd[0]) < 1e-8


def test_third_mixed_partial_frozen_symbolic_value():
    # d^3/dx1^2 dx2 of exp(sin(x1) x2) at (2, 3): value from an independent
    # symbolic computation
    x = jet_coords(4, 3, np.array([[2.0, 3.0, 0.0, 0.0]]))
    g = (x[:, 0].sin() * x[:, 1]).exp()
    assert abs(partials(g, (2, 1, 0, 0))[0] - (-14.282491996799225)) < 1e-10


def test_division_and_sqrt_are_exact_taylor():
    pts = np.array([[1.3, 0.2, 0.0, 0.0]])
    x = jet_coords(4, 3, pts)
    u = (x[:, 0] * x[:, 0] + 1.0).sqrt()
    v = u * u - (x[:, 0] * x[:, 0] + 1.0)
    assert np.abs(v.c).max() < 1e-13
    w = (x[:, 0] / x[:, 1]) * x[:, 1] - x[:, 0]
    assert np.abs(w.c).max() < 1e-12


def test_jet_matrix_inverse_and_det():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(3, 4))
    x = jet_coords(4, 3, pts)
    base = rng.normal(size=(3, 4, 4)) + 3 * np.eye(4)
    m = Jet.constant(x.space, base)
    pert = Jet.constant(x.space, rng.normal(size=(3, 4, 4)) * 0.2)
    m = m + Jet(x.space, pert.c * x[:, 0].c[:, None, None, :], 3)
    inv = jet_inv(m)
    eye = Jet.constant(x.space, np.broadcast_to(np.eye(4), (3, 4, 4)).copy())
    assert np.abs(jmatmul(m, inv).c - eye.c).max() < 1e-12
    d = jdet(m)
    assert np.abs(d.value - np.linalg.det(m.value)).max() < 1e-10


def test_order_tracking_forbids_overdraw():
    x = jet_coords(4, 1, np.zeros((1, 4)))
    d1 = x[:, 0].partial(0)
    try:
        d1.partial(1)
    except ValueError:
        return
    raise AssertionError("expected an order-exhaustion error")


def test_multi_indices_of_lower_orders_are_prefixes():
    """A jet of order k is a coefficient prefix of the same quantity at
    order k + 1; the flow serves lower-order queries by slicing on this."""
    for d in (4, 6):
        for k in (0, 1, 2):
            lo, hi = JetSpace(d, k).multi, JetSpace(d, k + 1).multi
            assert hi[:len(lo)] == lo


def test_jet_prefix_is_the_lower_order_quantity():
    """``jet_prefix`` of a product at order 3 to order 1 or 0 is the product
    computed at that order, valid to the lower order; a space of another
    dimension or a higher order is refused."""
    pts = np.array([[0.3, -0.7, 1.1, 0.05], [1.0, 2.0, -0.5, 0.25]])
    x3 = jet_coords(4, 3, pts)
    f3 = (x3[:, 0] * x3[:, 1]).sin()
    for k in (0, 1):
        xk = jet_coords(4, k, pts)
        cut = jet_prefix(f3, jet_space(4, k))
        assert cut.space is xk.space and cut.order == k
        assert np.array_equal(cut.c, (xk[:, 0] * xk[:, 1]).sin().c)
    for space in (jet_space(6, 1), jet_space(4, 4)):
        with pytest.raises(ValueError, match="prefix"):
            jet_prefix(x3, space)


def test_sincos_is_sin_and_cos_from_one_set_of_powers(monkeypatch):
    """``sincos`` returns bitwise what ``sin`` and ``cos`` return, dtype and
    order included, for real and complex jets of every order, constant
    ones too, and builds the powers of (x - x0) once."""
    rng = np.random.default_rng(11)
    products = []
    mul = Jet.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    for dim, order in ((4, 0), (4, 1), (4, 3), (4, 4), (6, 3)):
        for cplx in (False, True):
            for valid in range(order + 1):
                sp = jet_space(dim, order)
                c = rng.normal(size=(8, sp.n))
                if cplx:
                    c = c + 1j * rng.normal(size=c.shape)
                c[..., sp.degree > valid] = 0.0
                for x in (Jet(sp, c, valid), Jet.constant(jet_space(dim, valid), c[..., 0])):
                    with monkeypatch.context() as m:
                        m.setattr(Jet, "__mul__", counted)
                        products.clear()
                        s, co = x.sincos()
                        shared = len(products)
                        products.clear()
                        sin, cos = x.sin(), x.cos()
                        assert shared == len(products) // 2
                    for new, old in ((s, sin), (co, cos)):
                        assert new.order == old.order and new.c.dtype == old.c.dtype
                        assert np.array_equal(new.c, old.c)
                        assert np.array_equal(np.signbit(new.c.real), np.signbit(old.c.real))


def test_order_zero_jet_with_nan_is_constant():
    """An order-0 jet has no derivative coefficients, so it is constant
    whatever its value holds, NaN included; ``_top_degree`` reads 0."""
    from pbhverify.tensorcalc.jets import _is_constant, _top_degree
    x = Jet.constant(jet_space(4, 0), np.array([np.nan, 1.0]))
    assert _is_constant(x) and _top_degree(x) == 0
    y = jet_coords(4, 1, np.array([[np.nan, 0.0, 0.0, 0.0]]))
    assert not _is_constant(y[:, 0] * np.nan)


def _closed_form_derivative(name, k, u):
    """The k-th derivative of an elementary function at u."""
    if name == "sin":
        return np.sin(u + k * np.pi / 2)
    if name == "cos":
        return np.cos(u + k * np.pi / 2)
    if name == "exp":
        return np.exp(u)
    if name == "reciprocal":
        return (-1) ** k * math.factorial(k) / u ** (k + 1)
    if name == "sqrt":
        return math.prod(0.5 - i for i in range(k)) * u ** (0.5 - k)
    assert name == "log"
    return np.log(u) if k == 0 else (-1) ** (k - 1) * math.factorial(k - 1) / u ** k


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "reciprocal", "sqrt", "log"])
def test_compositions_above_order_four_keep_every_degree(name):
    """Each elementary function carries its derivatives through any order:
    at order 6, f(x1 + 2 x2) has the raw partial f^(|alpha|)(u) 2^alpha_2
    at every multi-index alpha, against the closed-form derivatives; at
    x = 0.3, sin's degrees 5 and 6 are cos 0.3 and -sin 0.3."""
    x = jet_coords(2, 6, np.array([[0.3, 0.05], [1.1, -0.2]]))
    u = x[:, 0] + x[:, 1] * 2.0
    out = getattr(u, name)()
    assert out.order == 6
    for alpha in out.space.multi:
        want = _closed_form_derivative(name, sum(alpha), u.value) * 2.0 ** alpha[1]
        np.testing.assert_allclose(partials(out, alpha), want, rtol=1e-12, atol=1e-12)
    if name in ("sin", "cos"):
        s, c = u.sincos()
        assert np.array_equal((s if name == "sin" else c).c, out.c)
    line = jet_coords(1, 6, np.array([[0.3]]))[:, 0].sin()
    np.testing.assert_allclose(line.c[0, 5:], [np.cos(0.3), -np.sin(0.3)], rtol=1e-15)
