"""The flag threefold inside CP^2 x CP^2 and the affine-chart data feeding
the deformation-hypothesis checks: Fubini-Study pullbacks, the torus-action
vector fields, the anticanonical bivector, and the log-norm potentials.

Chart conventions: complex coordinates are interleaved as real pairs
(Re z_1, Im z_1, ...).  The dense flag chart uses (z_1, z_2, w_1) with the
second-factor coordinate w_2 = -(1 + z_1 w_1)/z_2 determined by the incidence
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .poisson import (_wirtinger, dbar_matrix, ddc_scalar, holo_apply,
                      holo_bracket, holo_realframe_components, schouten_vb,
                      sigma_compose_form)
from .tensorcalc import (ChartDomain, Field, Jet, form_combos, form_field,
                         form_full_matrix, jeinsum, jtranspose, scalar_field)
from .tensorcalc.charts import ExcludedLocus
from .tensorcalc.calculus import _stack
from .structures import max_abs

__all__ = ["FlagParams", "FlagBundle", "CP2Chart", "cp2_charts",
           "cp2_transition", "flag_charts", "fs_metric_entries", "fs_det",
           "fs_two_form", "tau_norm_sq"]

TWO_PI = 2.0 * np.pi


@dataclass
class FlagParams:
    a: int = 1
    b: int = -2
    chart: str = "z"

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError("form coefficients must be integers")
        if not self.a * self.b < 0:
            raise ValueError("coefficients must have opposite signs")
        if self.a + self.b == 0:
            raise ValueError("coefficient sum must not vanish")
        if self.chart != "z":
            raise ValueError("computations live on the dense z-chart")


def _complex_coord(jc, alpha):
    return jc[:, 2 * alpha] + jc[:, 2 * alpha + 1] * 1j


def fs_metric_entries(z1: Jet, z2: Jet):
    """Hermitian matrix h_{a b} of the affine Fubini-Study metric (entrywise,
    unnormalized potential log(1 + |z|^2))."""
    s = z1 * z1.conj() + z2 * z2.conj()
    denom = (s + 1.0)
    inv2 = (denom * denom).reciprocal()
    h11 = (denom - z1.conj() * z1) * inv2
    h22 = (denom - z2.conj() * z2) * inv2
    h12 = -(z1.conj() * z2) * inv2
    return h11, h12, h22


def fs_det(z1: Jet, z2: Jet) -> Jet:
    """det h, computed honestly from the matrix entries (it collapses to
    (1 + |z|^2)^{-3}, which the closed-form route uses instead)."""
    h11, h12, h22 = fs_metric_entries(z1, z2)
    return (h11 * h22 - h12 * h12.conj()).real


def tau_norm_sq(z1: Jet, z2: Jet) -> Jet:
    """|tau|^2 = 4 |z_1 z_2|^2 det h for the anticanonical section 2 z1 z2
    d/dz1 ^ d/dz2 in affine coordinates."""
    mod = (z1 * z1.conj() * z2 * z2.conj()).real
    return mod * 4.0 * fs_det(z1, z2)


def fs_two_form(h_entries, dz_forms, n_real: int, normalization: float) -> Jet:
    """Real 2-form combos of  normalization * i * sum h_{ab} dz_a ^ dzbar_b,
    with dz_a given by real-frame complex component jets (B, n_real)."""
    h11, h12, h22 = h_entries
    h = ((0, 0, h11), (0, 1, h12), (1, 0, h12.conj()), (1, 1, h22))
    combos = form_combos(n_real, 2)
    comps = []
    for (p, q) in combos:
        term = None
        for (a, b, hab) in h:
            dza = dz_forms[a]
            dzb = dz_forms[b].conj()
            t = hab * (dza[:, p] * dzb[:, q] - dza[:, q] * dzb[:, p])
            term = t if term is None else term + t
        comps.append((term * (1j * normalization)).real)
    return _stack(comps)


def _const_dz_form(jc, alpha, n_real):
    """dz_alpha for a genuine chart coordinate: constant components."""
    b = jc.c.shape[0]
    c = np.zeros((b, n_real, jc.space.n), dtype=np.complex128)
    c[:, 2 * alpha, 0] = 1.0
    c[:, 2 * alpha + 1, 0] = 1.0j
    return Jet(jc.space, c, jc.order)


# --------------------------------------------------------------------------
# CP^2 affine charts: fields X, Y, tau and the log-norm derivatives


@dataclass
class CP2Chart:
    name: str
    chart: ChartDomain
    x_coeff: tuple       # X = (c1 z1, c2 z2) diagonal holomorphic field
    y_coeff: tuple
    x_const: float       # constant term of X f from the |z1 z2|^2 factor
    y_const: float

    def coords(self, jc):
        return _complex_coord(jc, 0), _complex_coord(jc, 1)

    def x_hol(self, jc) -> Jet:
        z1, z2 = self.coords(jc)
        return _stack([z1 * self.x_coeff[0], z2 * self.x_coeff[1]])

    def y_hol(self, jc) -> Jet:
        z1, z2 = self.coords(jc)
        return _stack([z1 * self.y_coeff[0], z2 * self.y_coeff[1]])

    def f_field(self) -> Field:
        def fn(jc):
            z1, z2 = self.coords(jc)
            return tau_norm_sq(z1, z2).log()

        return scalar_field(self.chart, fn, name=f"log-tau-{self.name}")

    def _dlogdet(self, z1, z2):
        """Analytic d log det h / dz_a = -3 zbar_a / (1 + |z|^2)."""
        denom = (z1 * z1.conj() + z2 * z2.conj() + 1.0).reciprocal()
        return z1.conj() * denom * (-3.0), z2.conj() * denom * (-3.0)

    def field_derivatives(self, z1, z2):
        """Closed-form Xf, Yf at the chart point (z1, z2)."""
        d1, d2 = self._dlogdet(z1, z2)
        return (z1 * d1 * self.x_coeff[0] + z2 * d2 * self.x_coeff[1] + self.x_const,
                z1 * d1 * self.y_coeff[0] + z2 * d2 * self.y_coeff[1] + self.y_const)

    def xf_closed(self, jc) -> Jet:
        return self.field_derivatives(*self.coords(jc))[0]

    def yf_closed(self, jc) -> Jet:
        return self.field_derivatives(*self.coords(jc))[1]

    def xf_jet(self, jc) -> Jet:
        """X f by Wirtinger differentiation of the honest potential."""
        return holo_apply(self.x_hol(jc), self.f_field().fn(jc))

    def yf_jet(self, jc) -> Jet:
        return holo_apply(self.y_hol(jc), self.f_field().fn(jc))


def _cp2_domain(name):
    loci = (
        ExcludedLocus(lambda p: np.hypot(p[:, 0], p[:, 1]), label="z1=0"),
        ExcludedLocus(lambda p: np.hypot(p[:, 2], p[:, 3]), label="z2=0"),
    )
    return ChartDomain(4, tuple((-1.5, 1.5) for _ in range(4)), loci, name=name)


def cp2_charts() -> dict:
    """The three standard affine charts with the diagonal-action fields.

    X scales the homogeneous coordinates by (e^t, e^{-t}, 1) and Y by
    (1, 1, e^{-t}); the constants in Xf, Yf are the derivatives of
    log |z_1 z_2|^2 along the fields."""
    return {
        "z": CP2Chart("z", _cp2_domain("cp2-z"), (-2.0, -1.0), (0.0, -1.0), -3.0, -1.0),
        "u": CP2Chart("u", _cp2_domain("cp2-u"), (2.0, 1.0), (0.0, -1.0), 3.0, -1.0),
        "v": CP2Chart("v", _cp2_domain("cp2-v"), (1.0, -1.0), (1.0, 1.0), 0.0, 2.0),
    }


def cp2_transition(name_from: str, name_to: str, pts: np.ndarray) -> np.ndarray:
    """Transition maps between the affine charts, on real point arrays."""
    z1 = pts[:, 0] + 1j * pts[:, 1]
    z2 = pts[:, 2] + 1j * pts[:, 3]
    key = (name_from, name_to)
    if key == ("z", "u"):
        w1, w2 = 1.0 / z1, z2 / z1
    elif key == ("z", "v"):
        w1, w2 = 1.0 / z2, z1 / z2
    elif key == ("u", "z"):
        w1, w2 = 1.0 / z1, z2 / z1
    elif key == ("v", "z"):
        w1, w2 = z2 / z1, 1.0 / z1
    else:
        raise ValueError(f"unsupported transition {key}")
    return np.stack([w1.real, w1.imag, w2.real, w2.imag], axis=1)


# --------------------------------------------------------------------------
# the dense flag chart


def _flag_domain():
    def zmod(i):
        return lambda p: np.hypot(p[:, 2 * i], p[:, 2 * i + 1])

    def w2mod(p):
        z1 = p[:, 0] + 1j * p[:, 1]
        z2 = p[:, 2] + 1j * p[:, 3]
        w1 = p[:, 4] + 1j * p[:, 5]
        return np.abs(1.0 + z1 * w1) / np.maximum(np.abs(z2), 1e-12)

    loci = (
        ExcludedLocus(zmod(0), label="z1=0"),
        ExcludedLocus(zmod(1), label="z2=0"),
        ExcludedLocus(zmod(2), label="w1=0"),
        ExcludedLocus(w2mod, margin=0.1, label="w2=0"),
    )
    return ChartDomain(6, tuple((-1.5, 1.5) for _ in range(6)), loci, name="flag")


@dataclass
class FlagBundle:
    params: FlagParams
    chart: ChartDomain

    # -- chart geometry ------------------------------------------------------

    def _z(self, jc):
        return _complex_coord(jc, 0), _complex_coord(jc, 1)

    def _w(self, jc):
        z1, z2 = self._z(jc)
        w1 = _complex_coord(jc, 2)
        w2 = -(z1 * w1 + 1.0) / z2
        return w1, w2

    def _dw_forms(self, jc):
        """dz1, dz2, dw1 (constant) and dw2 (rational coefficients)."""
        z1, z2 = self._z(jc)
        w1, w2 = self._w(jc)
        dz1 = _const_dz_form(jc, 0, 6)
        dz2 = _const_dz_form(jc, 1, 6)
        dw1 = _const_dz_form(jc, 2, 6)
        z2inv = z2.reciprocal()
        c_z1 = -(w1 * z2inv)   # dw2/dz1
        c_z2 = -(w2 * z2inv)   # dw2/dz2 = (1 + z1 w1)/z2^2
        c_w1 = -(z1 * z2inv)   # dw2/dw1
        parts = []
        for coef, base in ((c_z1, dz1), (c_z2, dz2), (c_w1, dw1)):
            # the base forms have constant components, so scale the
            # coefficient jet by the component values
            parts.append(base.c[:, :, :1] * coef.c[:, None, :])
        dw2 = Jet(jc.space, parts[0] + parts[1] + parts[2], min(jc.order, c_z1.order))
        return dz1, dz2, dw1, dw2

    @cached_property
    def omega1(self) -> Field:
        def fn(jc):
            z1, z2 = self._z(jc)
            h = fs_metric_entries(z1, z2)
            dz1 = _const_dz_form(jc, 0, 6)
            dz2 = _const_dz_form(jc, 1, 6)
            return fs_two_form(h, (dz1, dz2), 6, 1.0 / TWO_PI)

        return form_field(self.chart, 2, fn, name="omega1").memoized()

    @cached_property
    def omega2(self) -> Field:
        def fn(jc):
            w1, w2 = self._w(jc)
            h = fs_metric_entries(w1, w2)
            _, _, dw1, dw2 = self._dw_forms(jc)
            return fs_two_form(h, (dw1, dw2), 6, 1.0 / TWO_PI)

        return form_field(self.chart, 2, fn, name="omega2").memoized()

    @cached_property
    def f0(self) -> Field:
        return (self.omega1 * float(self.params.a)
                + self.omega2 * float(self.params.b)).memoized()

    def z1_hol(self, jc) -> Jet:
        z1, z2 = self._z(jc)
        w1, _ = self._w(jc)
        return _stack([z1 * (-2.0), z2 * (-1.0), w1 * 2.0])

    def z2_hol(self, jc) -> Jet:
        z1, z2 = self._z(jc)
        w1, _ = self._w(jc)
        return _stack([z1 * 0.0, z2 * (-1.0), w1 * 0.0])

    @cached_property
    def f_p1(self) -> Field:
        def fn(jc):
            z1, z2 = self._z(jc)
            return tau_norm_sq(z1, z2).log()

        return scalar_field(self.chart, fn, name="f o p1")

    @cached_property
    def f_p2(self) -> Field:
        def fn(jc):
            w1, w2 = self._w(jc)
            return tau_norm_sq(w1, w2).log()

        return scalar_field(self.chart, fn, name="f o p2")

    # -- lambda fit and the candidate field -----------------------------------

    def lambda_fit(self, pts) -> tuple:
        """Per-point ratio of dd^c(f o p_k) against 3 w_k over both factors."""
        ratios = []
        for f, om in ((self.f_p1, self.omega1), (self.f_p2, self.omega2)):
            lhs = ddc_scalar(f).eval(pts)
            rhs = 3.0 * om.eval(pts)
            num = np.einsum("bc,bc->b", lhs, rhs)
            den = np.einsum("bc,bc->b", rhs, rhs)
            ratios.append(num / den)
            # per-point proportionality must be exact, not just in projection
            resid = np.abs(lhs - (num / den)[:, None] * rhs).max()
            scale = np.abs(lhs).max()
            if resid > 1e-8 * max(scale, 1.0):
                raise ValueError(f"dd^c(f) not proportional to the form: {resid:.3g}")
        allr = np.concatenate(ratios)
        mean = float(allr.mean())
        spread = float(np.abs(allr - mean).max() / abs(mean))
        return mean, spread

    def x10_hol(self, jc, lam: float) -> Jet:
        z1, z2 = self._z(jc)
        w1, w2 = self._w(jc)
        # both factors carry the z-chart data
        z_chart = cp2_charts()["z"]
        xf1, yf1 = z_chart.field_derivatives(z1, z2)
        xf2, yf2 = z_chart.field_derivatives(w1, w2)
        a, b = float(self.params.a), float(self.params.b)
        cx = xf1 * a - xf2 * b
        cy = yf1 * a - yf2 * b
        zz1 = self.z1_hol(jc)
        zz2 = self.z2_hol(jc)
        coef = 1j / (3.0 * lam)
        comps = []
        for alphai in range(3):
            comps.append((cx * zz2[:, alphai] - cy * zz1[:, alphai]) * coef)
        return _stack(comps)

    def hypothesis_i_residual(self, pts, lam: float) -> float:
        """sigma o F0 - dbar X^{1,0} on the chart frame."""
        from .tensorcalc.jets import jet_coords
        jc = jet_coords(6, max(self.f0.cost, 1), np.atleast_2d(pts))
        z1rf = holo_realframe_components(self.z1_hol(jc)).value
        z2rf = holo_realframe_components(self.z2_hol(jc)).value
        f0v = form_full_matrix(self.f0.fn(jc), 6).value.astype(np.complex128)
        lhs = sigma_compose_form(z1rf, z2rf, f0v)
        rhs = dbar_matrix(self.x10_hol(jc, lam), 6)
        scale = max(1.0, float(np.abs(lhs).max()))
        return float(np.abs(lhs - rhs).max() / scale)

    def hypothesis_ii_residual(self, pts, lam: float) -> float:
        """Schouten bracket [Re X^{1,0}, Im sigma]."""
        from .tensorcalc import bivector_field, vector_field

        def rex_fn(jc):
            rf = holo_realframe_components(self.x10_hol(jc, lam))
            return rf.real  # Re(X^{1,0}) = (X^{1,0} + conjugate)/2

        def imsigma_fn(jc):
            zz1 = holo_realframe_components(self.z1_hol(jc))
            zz2 = holo_realframe_components(self.z2_hol(jc))
            # sigma^{pq} = Z1^p Z2^q - Z1^q Z2^p
            prod = jeinsum("...p,...q->...pq", zz1, zz2)
            return (prod - jtranspose(prod)).imag

        rex = vector_field(self.chart, rex_fn)
        imsig = bivector_field(self.chart, imsigma_fn)
        br = schouten_vb(rex, imsig)
        scale = max(1.0, max_abs(imsig.eval(pts)))
        return max_abs(br.eval(pts)) / scale

    def f0_smallest_singular(self, pts) -> float:
        m = form_full_matrix(self.f0.eval_jet(pts), 6).value
        return float(np.linalg.svd(m, compute_uv=False).min())

    def sigma_dbar_residual(self, pts) -> float:
        """dbar of the bivector's holomorphic components (polynomial)."""
        from .tensorcalc.jets import jet_coords
        jc = jet_coords(6, 1, np.atleast_2d(pts))
        prod = jeinsum("...p,...q->...pq", self.z1_hol(jc), self.z2_hol(jc))
        return max_abs(_wirtinger(prod - jtranspose(prod), 3, 1.0))

    def bracket_residual(self, pts) -> float:
        from .tensorcalc.jets import jet_coords
        jc = jet_coords(6, 1, np.atleast_2d(pts))
        br = holo_bracket(self.z1_hol(jc), self.z2_hol(jc))
        return float(np.abs(br.value).max())


def flag_charts(params: FlagParams) -> FlagBundle:
    return FlagBundle(params, _flag_domain())
