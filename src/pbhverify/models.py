"""Concrete model manifolds: flat 4-torus, primary Kodaira nilmanifold, and
the anticommuting-pair construction on them, with Hamiltonian-flow
deformations of the associated closed 2-forms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .structures import (BihermitianData, ParaHyperTriple,
                         build_parahypercomplex, fundamental_form, max_abs)
from .tensorcalc import (ChartDomain, Field, Jet, SamplePlan, constant_endo,
                         constant_metric, form_field, form_full_matrix,
                         form_from_matrix, frame_field, jet_common, jet_coords,
                         jet_prefix, jet_space, jgrad, jmatmul, jtranspose, metric_field)
from .tensorcalc.fields import _chart_coeffs, _scale
from .tensorcalc.calculus import _stack

__all__ = ["ModelError", "IntegratorError", "FlowTimeError", "ModelDescriptor",
           "standard_split_quaternion_frame", "Example2Params", "Example2Bundle",
           "torus_phk", "kodaira_phk", "example2_build", "hamiltonian_deform",
           "HamiltonianFlow", "DeformedBundle", "FExpr", "F_CATALOG",
           "unit_spacelike_vector", "get_model", "j_minus", "conformal_metric"]

TWO_PI = 2.0 * np.pi
# the most RK4 steps a flow may take, |t| / step; a smaller step is a
# configuration error rather than a run that does not end
MAX_RK4_STEPS = 10**6
# the largest model residuals certify() accepts; both shipped models give 0.0.
# certify() computes them in this order, cheapest first, and stops at the
# first that fails
CERTIFY_TOLERANCES = {"algebra": 1e-12, "compatibility": 1e-10,
                      "closedness": 1e-10, "nijenhuis": 1e-9, "lattice": 1e-12}
ESCAPE_FRACTION = 0.25  # of the shortest box side, the most a flow may move a point
PRESERVE_TOL = 1e-7  # the largest |Phi* F^K - F^K| a deformation's flow may leave


class ModelError(RuntimeError):
    """A shipped model failed its structural certification."""


@dataclass
class ModelDescriptor:
    name: str
    chart: ChartDomain
    triple: ParaHyperTriple
    lattice: tuple = ()  # (lin, shift) pairs, the deck maps x -> lin x + shift
    certified: bool = dc_field(default=False, init=False)

    def certify(self, plan: SamplePlan, pts=None) -> dict:
        """The residuals in the order of ``CERTIFY_TOLERANCES``, up to the
        first that is not within its tolerance (NaN included), at the plan's
        sample ``pts`` (drawn if not given).  J1-J3, stacked at order 1, and g
        are evaluated there once; the fundamental forms for closedness, and
        the stack and g at all deck images, once more."""
        self.certified = False
        pts = plan.sample(self.chart) if pts is None else pts
        t = self.triple
        js, gv = t.stack(pts, 1), t.g.eval_jet(pts)
        checks = {"algebra": lambda: t.algebra_residual(pts, js, gv),
                  "compatibility": lambda: t.compatibility_residual(pts, js, gv),
                  "closedness": lambda: t.closedness_residual(pts, js, gv),
                  "nijenhuis": lambda: t.nijenhuis_residual(pts, js, gv),
                  "lattice": lambda: self.lattice_residual(pts, js, gv)}
        res = {}
        for key, tol in CERTIFY_TOLERANCES.items():
            res[key] = checks[key]()
            if not res[key] <= tol:
                raise ModelError(f"model {self.name} failed certification: {res}")
        self.certified = True
        return res

    def lattice_residual(self, pts, js=None, gv=None) -> float:
        """Deck-transformation invariance of g and the J's: at the image of x
        they must be lin J lin^-1 and lin^-T g lin^-1 of their values at x, for
        all deck maps in one einsum (``js`` and ``gv`` as for the triple's)."""
        if not self.lattice:
            return 0.0
        t = self.triple
        js, gv = (t.stack(pts), t.g.eval_jet(pts)) if js is None else (js, gv)
        moved = np.concatenate([pts @ lin.T + shift for lin, shift in self.lattice])
        lins = np.stack([lin for lin, _ in self.lattice])
        invs = np.linalg.inv(lins)
        left = np.concatenate([np.repeat(lins[:, None], 3, 1), invs.swapaxes(1, 2)[:, None]], 1)
        at_x = np.concatenate([js.value, gv.value[:, None]], axis=1)
        got = np.concatenate([t.stack(moved).value, t.g.eval(moved)[:, None]], axis=1)
        want = np.einsum("lfij,bfjk,lkm->lbfim", left, at_x, invs)
        return max_abs(got - want.reshape(got.shape))


# --------------------------------------------------------------------------
# flat torus


def standard_split_quaternion_frame():
    """Constant split-quaternion triple compatible with diag(1, 1, -1, -1)."""
    g = np.diag([1.0, 1.0, -1.0, -1.0])
    j1 = np.zeros((4, 4))
    j1[1, 0], j1[0, 1], j1[3, 2], j1[2, 3] = 1, -1, 1, -1
    j2 = np.zeros((4, 4))
    j2[2, 0], j2[3, 1], j2[0, 2], j2[1, 3] = 1, -1, 1, -1
    return j1, j2, j1 @ j2, g


def torus_phk() -> ModelDescriptor:
    """The torus model, not yet certified."""
    chart = ChartDomain(4, tuple((0.0, TWO_PI) for _ in range(4)), name="torus")
    j1, j2, j3, g = standard_split_quaternion_frame()
    triple = ParaHyperTriple(constant_metric(chart, g, "g"),
                             constant_endo(chart, j1, "J1"),
                             constant_endo(chart, j2, "J2"),
                             constant_endo(chart, j3, "J3"), name="torus")
    lattice = tuple((np.eye(4), TWO_PI * np.eye(4)[i]) for i in range(4))
    return ModelDescriptor("torus", chart, triple, lattice)


# --------------------------------------------------------------------------
# primary Kodaira nilmanifold
#
# Global coordinates with left-invariant coframe
#   e1 = dx1, e2 = dx2, e3 = dx3, e4 = dx4 - x1 dx2   (so d e4 = -e1 ^ e2).
# Structures are constant in the dual frame E1 = d1, E2 = d2 + x1 d4,
# E3 = d3, E4 = d4; the shipped candidate family is searched and certified.
#
# The frame matrix is P(x) = I + x1 E, its columns the E_a in chart
# components, where E has a single 1 at [3, 1].  E^2 = 0, so each structure
# is a frame constant (``tensorcalc.frame_field``) whose chart expression is
# a polynomial of degree at most two in x1.  For the signed-permutation
# candidates this is bitwise, sign bits included, the jet matrix product
# P M P^-1 (kept as the oracle in the tests).

_KODAIRA_E = np.zeros((4, 4))
_KODAIRA_E[3, 1] = 1.0


def _kodaira_triple(chart, j1f, j2f, g_frame) -> ParaHyperTriple:
    """The triple whose frame components are j1f, j2f, j1f j2f and g_frame."""
    def frame_endo(m):
        return frame_field(chart, "endo", _KODAIRA_E, m)

    return ParaHyperTriple(frame_field(chart, "metric", _KODAIRA_E, g_frame),
                           frame_endo(j1f), frame_endo(j2f),
                           frame_endo(j1f @ j2f), name="kodaira")


def _kodaira_candidates():
    """Signed split-quaternion frame assignments tried in order; several are
    deliberately inadmissible so certification does real work."""
    def mat(pairs):
        m = np.zeros((4, 4))
        for i, j, s in pairs:
            m[i, j] = s
        return m

    j1_good = mat([(1, 0, 1), (0, 1, -1), (3, 2, -1), (2, 3, 1)])
    out = []
    # fails metric compatibility (product-structure signs flipped)
    out.append((j1_good, np.diag([1.0, -1.0, -1.0, 1.0])))
    # passes the algebra but one fundamental form picks up the non-closed
    # coframe wedge
    j1_open = mat([(2, 0, 1), (3, 1, -1), (0, 2, -1), (1, 3, 1)])
    out.append((j1_open, np.diag([1.0, 1.0, -1.0, -1.0])))
    # the certified assignment
    out.append((j1_good, np.diag([1.0, -1.0, 1.0, -1.0])))
    return out


def kodaira_phk(plan: SamplePlan) -> ModelDescriptor:
    """The first shipped candidate that certifies at ``plan``, certified."""
    chart = ChartDomain(4, tuple((0.0, 1.0) for _ in range(4)), name="kodaira")
    g_frame = np.zeros((4, 4))
    g_frame[0, 3] = g_frame[3, 0] = 1.0
    g_frame[1, 2] = g_frame[2, 1] = 1.0

    # deck transformations: pure translations in x2, x3, x4 and the
    # sheared x1-generator (x1, x2, x3, x4) -> (x1+1, x2, x3, x4+x2)
    shear = np.eye(4)
    shear[3, 1] = 1.0
    lattice = tuple((np.eye(4), np.eye(4)[i]) for i in (1, 2, 3)) + ((shear, np.eye(4)[0]),)
    errors, pts = [], plan.sample(chart)  # one draw for every candidate
    for j1f, j2f in _kodaira_candidates():
        model = ModelDescriptor("kodaira", chart, _kodaira_triple(chart, j1f, j2f, g_frame),
                                lattice)
        try:
            model.certify(plan, pts)
            return model
        except ModelError as exc:
            errors.append(str(exc))
    raise ModelError("no candidate coefficient assignment certifies on the "
                     "nilmanifold coframe:\n" + "\n".join(errors))


# --------------------------------------------------------------------------
# named Hamiltonian functions (value + intrinsic gradient, both jet-generic)


@dataclass(frozen=True)
class FExpr:
    """A named Hamiltonian f of the chart coordinates.  ``value`` maps a
    coordinate jet (B, dim) to f, and ``grad`` to the components of df at
    the coordinates ``support``, (B, len(support)), in that order: every
    other component of df is zero by construction, so ``grad`` leaves it
    out and the flow contracts F^K's inverse over ``support`` only.
    ``grad`` is the jet gradient of ``value`` to a few eps of max|grad|
    (``test_hamiltonian_gradients_match_the_jet_gradient_of_the_value``)."""

    name: str
    value: callable
    grad: callable
    support: tuple


def _f_const(jc):
    return jc[:, 0] * 0.0 + 1.0


def _f_const_grad(jc):
    return jc[:, :0]  # no component of df is nonzero


def _sin_products(name, *pairs) -> FExpr:
    """The sum of sin x_i sin x_j over ``pairs`` (i, j), and its gradient on
    the pairs' coordinates in order of first appearance.  ``value`` is the
    ``sincos`` product.  ``grad`` takes cos x_i sin x_j = (S+ - S-)/2 and
    sin x_i cos x_j = (S+ + S-)/2 for S+- = sin(x_i +- x_j), from one
    composition of ``sin`` over every pair's sum and difference and no jet
    product; a coordinate in several pairs sums its terms in pair order.
    That is the product form to 8 eps max(1, |coefficient|)
    (``test_sine_product_gradients_equal_the_product_form``) and bitwise the
    same formula over the reference series of ``tests/jet_helpers.py``
    (``test_flow_equals_the_full_gradient_oracle``)."""
    support = tuple(dict.fromkeys(k for pair in pairs for k in pair))
    cols, blocks = list(support), np.eye(len(pairs))
    at = [support.index(k) for pair in pairs for k in pair]  # i, j of each pair
    # rows x_i + x_j, x_i - x_j of each pair over the support's columns, and
    # d_i, d_j of each pair from those sines: every row has two nonzero
    # entries (+-1, +-1/2), so each product rounds once, as a + b does
    sums = np.einsum("rq,qc->rc", np.kron(blocks, [[1.0, 1.0], [1.0, -1.0]]),
                     np.eye(len(cols))[at])  # not @: no BLAS call at import
    halves = np.kron(blocks, [[0.5, -0.5], [0.5, 0.5]])
    first = [at.index(k) for k in range(len(cols))]
    repeats = [(k, q) for q, k in enumerate(at) if q != first[k]]

    def value(jc):
        s, _ = jc[:, cols].sincos()
        out = [s[:, support.index(a)] * s[:, support.index(b)] for a, b in pairs]
        return sum(out[1:], out[0])

    def grad(jc):
        parts = halves @ Jet(jc.space, sums @ jc.c[:, cols]).sin().c
        out = parts[:, first]
        for k, q in repeats:  # a coordinate in several pairs, summed in pair order
            out[:, k] += parts[:, q]
        return Jet(jc.space, out)

    return FExpr(name, value, grad, support)


def _gauss_u(jc):
    s1 = (jc[:, 0] * 0.5).sin()
    s2 = (jc[:, 1] * 0.5).sin()
    return (s1 * s1 + s2 * s2) * (-2.0)


def _f_gauss(jc):
    return _gauss_u(jc).exp()


def _f_gauss_grad(jc):
    e = _f_gauss(jc)
    return _stack([e * jc[:, 0].sin() * (-1.0), e * jc[:, 1].sin() * (-1.0)])


F_CATALOG = {
    "const": FExpr("const", _f_const, _f_const_grad, ()),
    "sin2": _sin_products("sin2", (0, 1)),
    "gauss": FExpr("gauss", _f_gauss, _f_gauss_grad, (0, 1)),
    # couples directions that the Hamiltonian field of the torus F^K moves,
    # so its flow is genuinely curved there
    "sin14": _sin_products("sin14", (0, 3)),
    # curved on kodaira, where the flows of sin2 and sin14 are shears
    "sin13": _sin_products("sin13", (0, 2)),
    # sin x1 (sin x3 + sin x4): curved on both models
    "sin134": _sin_products("sin134", (0, 2), (0, 3)),
}


# --------------------------------------------------------------------------
# the anticommuting-pair construction on a certified model


@dataclass
class Example2Params:
    a: float = 1.25
    b: float = 0.75
    c: float = 0.0
    f_name: str = "sin2"
    t: float = 0.0
    step: float = 1e-3

    def __post_init__(self):
        for name in ("a", "b", "c", "t", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if abs(self.a**2 - self.b**2 - self.c**2 - 1.0) > 1e-12:
            raise ValueError("parameters must satisfy a^2 - b^2 - c^2 = 1")
        if not self.a >= 1.0 + 1e-6:
            raise ValueError("parameter a must exceed 1")
        if self.f_name not in F_CATALOG:
            raise ValueError(f"unknown Hamiltonian {self.f_name!r}")
        if self.step <= 0:
            raise ValueError("integrator step must be positive")
        if abs(self.t) / self.step > MAX_RK4_STEPS:
            raise ValueError(f"|t| / step = {abs(self.t) / self.step:.3g} RK4 steps "
                             f"exceeds the limit {MAX_RK4_STEPS}")


def complex_form(re: Field, im: Field) -> Field:
    """Complex 2-form re + i im from two real 2-form fields, memoized."""
    def fn(jc):
        a, b = jet_common(re.fn(jc), im.fn(jc))
        return Jet(a.space, a.c.astype(np.complex128) + 1j * b.c)

    return form_field(re.chart, 2, fn, cost=max(re.cost, im.cost)).memoized()


@dataclass
class Example2Bundle:
    model: ModelDescriptor
    params: Example2Params
    data: BihermitianData
    s_plus: Field
    s_minus: Field

    @property
    def chart(self):
        return self.model.chart

    @property
    def g(self):
        return self.model.triple.g

    @cached_property
    def f_k(self):
        return fundamental_form(self.g, self.data.k_endo)

    @cached_property
    def omega_p(self):
        return fundamental_form(self.g, self.s_plus)

    @cached_property
    def omega_pp(self):
        return fundamental_form(self.g, self.s_minus)

    @cached_property
    def omega_plus(self):
        return self.omega_p + self.omega_pp

    @cached_property
    def omega_minus(self):
        return self.omega_p - self.omega_pp

    @cached_property
    def beta1(self):
        return complex_form(self.f_k, self.omega_plus)

    @cached_property
    def beta2(self):
        return complex_form(-self.f_k, self.omega_minus)


def j_minus(triple: ParaHyperTriple, params: Example2Params) -> Field:
    """J- = a J1 + b J2 + c J3, the partner of J+ = J1."""
    return triple.j1 * params.a + triple.j2 * params.b + triple.j3 * params.c


def conformal_metric(model: ModelDescriptor) -> Field:
    """e^{sin x1} times the model metric."""
    g0 = model.triple.g

    def fn(jc):
        return _scale(g0.fn(jc), jc[:, 0].sin().exp())

    return metric_field(model.chart, fn, cost=g0.cost).memoized()


def example2_build(model: ModelDescriptor, params: Example2Params,
                   plan: SamplePlan) -> Example2Bundle:
    """J+ = J1, J- = a J1 + b J2 + c J3 on a certified para-hyperkahler model."""
    if not model.certified:
        raise ModelError(f"model {model.name} must be certified before use")
    t = model.triple
    jp = t.j1
    jm = j_minus(t, params)
    pts = plan.sample(model.chart)
    data = build_parahypercomplex(jp, jm, t.g, pts, name=f"{model.name}-pair")
    root = float(np.sqrt(params.a**2 - 1.0))
    s_plus = (jm - jp * params.a) * (-1.0 / root)
    s_minus = (jp - jm * params.a) * (1.0 / root)
    return Example2Bundle(model, params, data, s_plus, s_minus)


def unit_spacelike_vector(g: Field, pts) -> np.ndarray:
    """Deterministic unit vector g(X, X) = 1 at each sampled point."""
    gv = g.eval(pts)
    vals, vecs = np.linalg.eigh(gv)
    i = np.argmax(vals, axis=1)
    b = np.arange(len(pts))
    v = vecs[b, :, i]
    lam = vals[b, i]
    if np.any(lam <= 0):
        raise ValueError("metric has no positive direction at a sampled point")
    v = v / np.sqrt(lam)[:, None]
    # fix sign: first component of magnitude > 1e-8 made positive
    lead = np.argmax(np.abs(v) > 1e-8, axis=1)
    sgn = np.sign(v[b, lead])
    return v * sgn[:, None]


# --------------------------------------------------------------------------
# Hamiltonian flow of i_{df} F^K with RK4 and jet-transported variations


class HamiltonianFlow:
    """Fixed-step RK4 integration of the F^K-Hamiltonian vector field of f.

    The velocity solves i_V F^K = df: V = (F^T)^-1 df for the chart matrix
    F = P^-T M P^-1 of the frame constant F^K, and (F^T)^-1 = P (M^T)^-1 P^T
    is a bivector frame constant, computed once.  Of each of its chart
    coefficients in x1 the flow keeps the columns of ``fexpr.support``,
    where df can be nonzero, contracts each with the gradient in one
    ``np.einsum`` and sums the terms by Horner's rule in x1: bitwise the
    contraction with the full gradient, zero off the support
    (``test_flow_equals_the_full_gradient_oracle``).

    Positions are integrated as jets, so the flow map's derivatives ride
    along (variational equations), to order 2 in a deformation's one
    integration.  Each integration adds one (input jet, flowed jet) entry
    to ``_cache``.  A query whose coordinate jet is a row and coefficient
    prefix of a stored input (fewer points of the same sample sequence, a
    lower order; ``np.array_equal``) is served by slicing the stored
    result, bitwise what integrating it would give, since truncated Taylor
    arithmetic computes each row and lower-degree coefficient from the same
    ones of its inputs, in the same order.  Any other query integrates anew."""

    def __init__(self, f_k: Field, fexpr: FExpr, t: float, step: float):
        frame, d = f_k.frame, f_k.chart.dim
        if frame is None:
            raise ValueError("the Hamiltonian flow needs F^K as a frame constant")
        self.f_k = f_k
        self.fexpr = fexpr
        self.t = t
        self.step = step
        self._cache = []
        full = form_full_matrix(Jet.constant(jet_space(d, 0), frame.coeffs[0]), d)
        support = list(fexpr.support)
        self._inv_coeffs = [c[:, support] for c in
                            _chart_coeffs("bivector", frame.e, np.linalg.inv(full.value.T))]

    def velocity(self, y: Jet) -> Jet:
        grad = self.fexpr.grad(y)
        terms = [Jet(grad.space, np.einsum("ij,...jr->...ir", c, grad.c))
                 for c in self._inv_coeffs]
        out = terms.pop()
        while terms:
            out = y[:, :1] * out + terms.pop()
        return out

    def flow_jet(self, jc: Jet) -> Jet:
        for stored, y in self._cache:
            hit = _prefix_slice(jc, stored, y)
            if hit is not None:
                return hit
        n = max(1, int(round(abs(self.t) / self.step)))
        dt = self.t / n
        y = jc
        for _ in range(n):
            k1 = self.velocity(y)
            k2 = self.velocity(y + k1 * (dt / 2.0))
            k3 = self.velocity(y + k2 * (dt / 2.0))
            k4 = self.velocity(y + k3 * dt)
            y = y + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0)
        self._cache.append((jc, y))
        return y

    def escape_check(self, pts, box):
        """Crude smallness condition: t * max speed <= ESCAPE_FRACTION * min
        box side."""
        jc = jet_coords(self.f_k.chart.dim, 0, np.atleast_2d(pts))
        v = self.velocity(jc).value
        speed = float(np.abs(v).max())
        min_side = min(hi - lo for lo, hi in box)
        if not (abs(self.t) * speed <= ESCAPE_FRACTION * min_side):  # NaN fails
            raise FlowTimeError(
                f"flow time too large: t*|V| = {abs(self.t)*speed:.3g} exceeds "
                f"{ESCAPE_FRACTION} * box side {min_side:.3g}")


def _prefix_slice(jc: Jet, stored: Jet, y: Jet) -> Jet | None:
    """The flowed jet of ``jc`` cut from ``y``, the flow of ``stored``, when
    ``jc`` is a row and coefficient prefix of ``stored``; else None."""
    rows, n = jc.c.shape[0], jc.space.n
    if not np.array_equal(jc.c, stored.c[:rows, ..., :n]):
        return None
    return jet_prefix(y[:rows], jc.space).copy()


def flow_pullback_form(flow: HamiltonianFlow, omega: Field) -> Field:
    """(Phi* omega)_x(u, v) = omega_{Phi(x)}(DPhi u, DPhi v) via jet transport,
    memoized."""
    chart = omega.chart
    d = chart.dim

    def fn(jc):
        y = flow.flow_jet(jc)
        jac = jgrad(y)  # jac[i, j] = d_j Phi^i
        w = form_full_matrix(omega.fn_at(y, jac.order - omega.cost), d)
        m = jmatmul(jtranspose(jac), jmatmul(w, jac))
        return form_from_matrix(m, d)

    return form_field(chart, 2, fn, cost=omega.cost + 1).memoized()


class FlowTimeError(ValueError):
    """The flow time is too large for the sample points to stay in the chart
    box."""


class IntegratorError(RuntimeError):
    """The flow integration failed its symplectic-preservation guard."""


@dataclass
class DeformedBundle:
    bundle: Example2Bundle
    flow: HamiltonianFlow
    gamma1: Field
    gamma2: Field
    preserve_residual: float   # max |Phi* F^K - F^K| at the plan's points


def hamiltonian_deform(bundle: Example2Bundle, plan: SamplePlan) -> DeformedBundle:
    """gamma_1 = F^K + i(w' + Phi* w''), gamma_2 = -F^K + i(w' - Phi* w'')."""
    params = bundle.params
    fexpr = F_CATALOG[params.f_name]
    flow = HamiltonianFlow(bundle.f_k, fexpr, params.t, params.step)
    pts = plan.sample(bundle.chart)
    if params.t != 0.0:
        flow.escape_check(pts, bundle.chart.box)
    pulled = flow_pullback_form(flow, bundle.omega_pp)
    # the one integration: the deformed checks differentiate the pullback
    # once more (exterior derivative, generalized Nijenhuis tensor), and
    # every other query is a prefix of these points and this order
    flow.flow_jet(jet_coords(bundle.chart.dim, pulled.cost + 1, pts))
    gamma1 = complex_form(bundle.f_k, bundle.omega_p + pulled)
    gamma2 = complex_form(-bundle.f_k, bundle.omega_p - pulled)
    guard = max_abs(flow_pullback_form(flow, bundle.f_k).eval(pts) - bundle.f_k.eval(pts))
    if not (guard <= PRESERVE_TOL):  # a NaN residual fails too
        raise IntegratorError(
            f"flow does not preserve the reference form: residual {guard:.3g} "
            f"with step {params.step:g}")
    return DeformedBundle(bundle, flow, gamma1, gamma2, guard)


def get_model(name: str, plan: SamplePlan) -> ModelDescriptor:
    """The named model, certified at ``plan``.  On kodaira the candidate
    search is that certification, so a model is certified once per build."""
    if name == "kodaira":
        return kodaira_phk(plan)
    if name != "torus":
        raise ModelError(f"unknown model {name!r}")
    model = torus_phk()
    model.certify(plan)
    return model
