"""Concrete model manifolds: flat 4-torus, primary Kodaira nilmanifold, and
the anticommuting-pair construction on them, with Hamiltonian-flow
deformations of the associated closed 2-forms."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .structures import (BihermitianData, ParaHyperTriple,
                         build_parahypercomplex, fundamental_form, max_abs,
                         worst)
from .tensorcalc import (ChartDomain, Field, Jet, SamplePlan, constant_endo,
                         constant_metric, endo_field, form_field,
                         form_full_matrix, form_from_matrix, jet_coords,
                         jet_solve, jgrad, jmatmul, jtranspose, metric_field)
from .tensorcalc.fields import _broadcast_const, _scale
from .tensorcalc.calculus import _stack

__all__ = ["ModelError", "IntegratorError", "ModelDescriptor",
           "standard_split_quaternion_frame", "Example2Params", "Example2Bundle",
           "torus_phk", "kodaira_phk", "example2_build", "hamiltonian_deform",
           "HamiltonianFlow", "DeformedBundle", "FExpr", "F_CATALOG",
           "unit_spacelike_vector", "get_model", "j_minus", "conformal_metric"]

TWO_PI = 2.0 * np.pi


class ModelError(RuntimeError):
    """A shipped model failed its structural certification."""


@dataclass
class ModelDescriptor:
    name: str
    chart: ChartDomain
    triple: ParaHyperTriple
    lattice: tuple = ()  # (linear_part, offset_map) pairs; offset_map(x) -> x'
    certified: bool = dc_field(default=False, init=False)

    def certify(self, plan: SamplePlan, tol_algebra=1e-12, tol_compat=1e-10,
                tol_closed=1e-10, tol_nijenhuis=1e-9, tol_lattice=1e-12) -> dict:
        pts = plan.sample(self.chart)
        res = {
            "algebra": self.triple.algebra_residual(pts),
            "compatibility": self.triple.compatibility_residual(pts),
            "closedness": self.triple.closedness_residual(pts),
            "nijenhuis": self.triple.nijenhuis_residual(pts),
            "lattice": self.lattice_residual(pts),
        }
        ok = (res["algebra"] <= tol_algebra and res["compatibility"] <= tol_compat
              and res["closedness"] <= tol_closed and res["nijenhuis"] <= tol_nijenhuis
              and res["lattice"] <= tol_lattice)
        if not ok:
            raise ModelError(f"model {self.name} failed certification: {res}")
        self.certified = True
        return res

    def lattice_residual(self, pts) -> float:
        """Deck-transformation invariance of g and the J's: components at the
        translated point must match the conjugated components at x."""
        res = 0.0
        for lin, shift in self.lattice:
            moved = pts @ lin.T + shift
            lin_inv = np.linalg.inv(lin)
            for j in self.triple.js:
                a = j.eval(moved)
                b = np.einsum("ij,bjk,kl->bil", lin, j.eval(pts), lin_inv)
                res = worst(res, max_abs(a - b))
            ga = self.triple.g.eval(moved)
            gb = np.einsum("ji,bjk,kl->bil", lin_inv, self.triple.g.eval(pts), lin_inv)
            res = worst(res, max_abs(ga - gb))
        return res


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


def _kodaira_frame(jc, sign=1.0):
    """P(x): columns are the frame fields E_a in chart components; with
    ``sign=-1.0`` its inverse."""
    p = _broadcast_const(jc, np.eye(4))
    p.c[:, 3, 1, :] = jc.c[:, 0] * sign  # x1 at entry [3, 1]
    return p


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


def kodaira_phk() -> ModelDescriptor:
    chart = ChartDomain(4, tuple((0.0, 1.0) for _ in range(4)), name="kodaira")
    g_frame = np.zeros((4, 4))
    g_frame[0, 3] = g_frame[3, 0] = 1.0
    g_frame[1, 2] = g_frame[2, 1] = 1.0

    def frame_endo(m):
        def fn(jc):
            p = _kodaira_frame(jc)
            pinv = _kodaira_frame(jc, -1.0)
            mj = _broadcast_const(jc, m)
            return jmatmul(jmatmul(p, mj), pinv)

        return endo_field(chart, fn)

    def frame_metric():
        def fn(jc):
            pinv = _kodaira_frame(jc, -1.0)
            gj = _broadcast_const(jc, g_frame)
            return jmatmul(jmatmul(jtranspose(pinv), gj), pinv)

        return metric_field(chart, fn)

    plan = SamplePlan(16, 986)
    errors = []
    for j1f, j2f in _kodaira_candidates():
        j3f = j1f @ j2f
        triple = ParaHyperTriple(frame_metric(), frame_endo(j1f),
                                 frame_endo(j2f), frame_endo(j3f), name="kodaira")
        # deck transformations: pure translations in x2, x3, x4 and the
        # sheared x1-generator (x1, x2, x3, x4) -> (x1+1, x2, x3, x4+x2)
        shear = np.eye(4)
        shear[3, 1] = 1.0
        lattice = (
            (np.eye(4), np.eye(4)[1]),
            (np.eye(4), np.eye(4)[2]),
            (np.eye(4), np.eye(4)[3]),
            (shear, np.eye(4)[0]),
        )
        model = ModelDescriptor("kodaira", chart, triple, lattice)
        try:
            model.certify(plan)
            return model
        except ModelError as exc:
            errors.append(str(exc))
    raise ModelError("no candidate coefficient assignment certifies on the "
                     "nilmanifold coframe:\n" + "\n".join(errors))


# --------------------------------------------------------------------------
# named Hamiltonian functions (value + intrinsic gradient, both jet-generic)


@dataclass(frozen=True)
class FExpr:
    name: str
    value: callable
    grad: callable


def _f_const(jc):
    return jc[:, 0] * 0.0 + 1.0


def _f_const_grad(jc):
    z = jc[:, 0] * 0.0
    return _stack([z, z, z, z])


def _f_sin2(jc):
    return jc[:, 0].sin() * jc[:, 1].sin()


def _f_sin2_grad(jc):
    z = jc[:, 0] * 0.0
    return _stack([jc[:, 0].cos() * jc[:, 1].sin(),
                   jc[:, 0].sin() * jc[:, 1].cos(), z, z])


def _gauss_u(jc):
    s1 = (jc[:, 0] * 0.5).sin()
    s2 = (jc[:, 1] * 0.5).sin()
    return (s1 * s1 + s2 * s2) * (-2.0)


def _f_gauss(jc):
    return _gauss_u(jc).exp()


def _f_gauss_grad(jc):
    e = _f_gauss(jc)
    z = jc[:, 0] * 0.0
    return _stack([e * jc[:, 0].sin() * (-1.0), e * jc[:, 1].sin() * (-1.0), z, z])


def _f_sin14(jc):
    return jc[:, 0].sin() * jc[:, 3].sin()


def _f_sin14_grad(jc):
    z = jc[:, 0] * 0.0
    return _stack([jc[:, 0].cos() * jc[:, 3].sin(), z, z,
                   jc[:, 0].sin() * jc[:, 3].cos()])


F_CATALOG = {
    "const": FExpr("const", _f_const, _f_const_grad),
    "sin2": FExpr("sin2", _f_sin2, _f_sin2_grad),
    "gauss": FExpr("gauss", _f_gauss, _f_gauss_grad),
    # couples directions that the Hamiltonian field moves, so its flow is
    # genuinely curved; used to calibrate the integrator order
    "sin14": FExpr("sin14", _f_sin14, _f_sin14_grad),
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
        if abs(self.a**2 - self.b**2 - self.c**2 - 1.0) > 1e-12:
            raise ValueError("parameters must satisfy a^2 - b^2 - c^2 = 1")
        if not self.a >= 1.0 + 1e-6:
            raise ValueError("parameter a must exceed 1")
        if self.f_name not in F_CATALOG:
            raise ValueError(f"unknown Hamiltonian {self.f_name!r}")
        if self.step <= 0:
            raise ValueError("integrator step must be positive")


def complex_form(re: Field, im: Field) -> Field:
    """Complex 2-form re + i im from two real 2-form fields."""
    def fn(jc):
        a = re.fn(jc)
        b = im.fn(jc)
        return Jet(a.space, a.c.astype(np.complex128) + 1j * b.c, min(a.order, b.order))

    return form_field(re.chart, 2, fn, cost=max(re.cost, im.cost))


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

    return metric_field(model.chart, fn).memoized()


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

    Positions are integrated as jets, so the flow map's derivatives through
    third order ride along (variational equations included).  Each RK4
    integration adds one (input jet, flowed jet) entry to ``_cache``.  A
    query whose coordinate jet equals a row prefix and a coefficient prefix
    of a stored input (fewer points of the same sample sequence, a lower
    order) is served by slicing the stored result: truncated Taylor
    arithmetic computes each row and each lower-degree coefficient from the
    same rows and coefficients of its inputs, in the same order.  The prefix
    is compared with ``np.array_equal``; any other query integrates anew."""

    def __init__(self, f_k: Field, fexpr: FExpr, t: float, step: float):
        self.f_k = f_k
        self.fexpr = fexpr
        self.t = t
        self.step = step
        self._cache = []

    def velocity(self, y: Jet) -> Jet:
        m = form_full_matrix(self.f_k.fn(y), self.f_k.chart.dim)
        # map X -> i_X F has matrix M[j, i] = F[i, j]
        return jet_solve(jtranspose(m), self.fexpr.grad(y))

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

    def escape_check(self, pts, box, quarter=0.25):
        """Crude smallness condition: t * max speed <= quarter * min box side."""
        jc = jet_coords(self.f_k.chart.dim, 0, np.atleast_2d(pts))
        v = self.velocity(jc).value
        speed = float(np.abs(v).max())
        min_side = min(hi - lo for lo, hi in box)
        if abs(self.t) * speed > quarter * min_side:
            raise ValueError(
                f"flow time too large: t*|V| = {abs(self.t)*speed:.3g} exceeds "
                f"{quarter} * box side {min_side:.3g}")


def _prefix_slice(jc: Jet, stored: Jet, y: Jet) -> Jet | None:
    """The flowed jet of ``jc`` cut from ``y``, the flow of ``stored``, when
    ``jc`` is a row and coefficient prefix of ``stored`` valid to no higher
    order; else None."""
    rows, n = jc.c.shape[0], jc.space.n
    if jc.order > stored.order or not np.array_equal(jc.c, stored.c[:rows, ..., :n]):
        return None
    return Jet(jc.space, y.c[:rows, ..., :n].copy(), y.order - stored.order + jc.order)


def flow_pullback_form(flow: HamiltonianFlow, omega: Field) -> Field:
    """(Phi* omega)_x(u, v) = omega_{Phi(x)}(DPhi u, DPhi v) via jet transport."""
    chart = omega.chart
    d = chart.dim

    def fn(jc):
        y = flow.flow_jet(jc)
        w = form_full_matrix(omega.fn(y), d)
        jac = jgrad(y)  # jac[i, j] = d_j Phi^i
        m = jmatmul(jtranspose(jac), jmatmul(w, jac))
        return form_from_matrix(m, d)

    return form_field(chart, 2, fn, cost=omega.cost + 1)


class IntegratorError(RuntimeError):
    """The flow integration failed its symplectic-preservation guard."""


@dataclass
class DeformedBundle:
    bundle: Example2Bundle
    flow: HamiltonianFlow
    gamma1: Field
    gamma2: Field
    fk_pullback: Field


def hamiltonian_deform(bundle: Example2Bundle, plan: SamplePlan,
                       preserve_tol: float = 1e-7) -> DeformedBundle:
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
    fk_pull = flow_pullback_form(flow, bundle.f_k)
    guard = max_abs(fk_pull.eval(pts) - bundle.f_k.eval(pts))
    if guard > preserve_tol:
        raise IntegratorError(
            f"flow does not preserve the reference form: residual {guard:.3g} "
            f"with step {params.step:g}")
    return DeformedBundle(bundle, flow, gamma1, gamma2, fk_pull)


_MODEL_BUILDERS = {"torus": torus_phk, "kodaira": kodaira_phk}


def get_model(name: str) -> ModelDescriptor:
    try:
        return _MODEL_BUILDERS[name]()
    except KeyError:
        raise ModelError(f"unknown model {name!r}") from None
