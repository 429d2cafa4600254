"""Truncated multivariate Taylor arithmetic (forward-mode jets) over numpy batches.

A jet stores the raw mixed partial derivatives of a smooth quantity through a
fixed total order, indexed by multi-indices over the chart coordinates.  All
arithmetic is exact truncated-Taylor composition, so derivatives of rational
and elementary-function expressions carry no truncation error beyond float64
roundoff.  Coefficient arrays carry arbitrary leading axes (batch of points,
tensor component axes); the multi-index axis is always last.

Storage rule: a jet valid to order k lives in ``jet_space(dim, k)``, and its
array holds exactly the coefficients through degree k, so every stored
coefficient is valid and ``Jet.order`` is its space's order.  Multi-indices
are degree-ordered, so the multi-indices of a lower order are a prefix of
those of a higher one, and cutting a jet to a lower order is a view of a
coefficient prefix (``jet_prefix``).  Building a ``Jet`` with an order below
its space's stores that prefix in the lower space; ``jgrad`` and
``Jet.partial`` write straight into ``jet_space(dim, order - 1)``; and every
operation on two jets (``+``, ``-``, ``*``, ``jeinsum``, ``jet_solve``, and
the sites that join jets' arrays) first brings both to the lower of their
spaces (``jet_common``).  So no kernel computes a coefficient above the
order its result is valid to, and the degree rule below scans only valid
coefficients.

Tensor contractions go through two primitives: ``jeinsum(spec, a, b)`` is
one jet product contracted over component axes as ``np.einsum(spec)`` would
contract scalars, and ``jgrad(a)`` returns all first partials as a new
trailing component axis.  Constant signed index tables (exterior derivative,
wedge, interior product) act on coefficient arrays with plain ``np.einsum``.

Degree rule: a factor's top degree is the highest degree holding a nonzero
derivative coefficient (0 for a constant).  For factors of top degrees
``da`` and ``db`` the only Leibniz pairs with a nonzero product are the
rows of the full product table whose ``a`` index has degree <= da and
whose ``b`` index has degree <= db, and every output above degree
``da + db`` is zero.  ``JetSpace.pairs(da, db)`` holds those rows, a
subsequence of the full table in its order; ``jeinsum`` gathers,
contracts, scales and ``reduceat``-sums only them.  ``pairs(order,
order)`` is the full table, and ``pairs(0, k)`` has one pair per output
with coefficient 1, so a constant factor skips the scaling and the
``reduceat``.  Each output sums the same nonzero terms in the same order
as the full product.  Where an output keeps at most two terms (a constant
factor, or two factors of top degree <= 1) the result is bitwise the full
product's; with three or more, ``reduceat`` may group the sum differently
when the full table's first row for that output was a dropped zero, and
the results agree to roundoff.  ``Jet.__mul__`` takes only the constant
case, as one broadcast multiply.  The rule tests the input, not a flag: a
NaN in a derivative coefficient is not zero, so it raises that factor's
top degree and reaches the result, and a NaN or inf in a constant
factor's value still makes the product's value non-finite.

Power tables: ``_compose`` sums derivs[m] / m! du^m for the nilpotent
part du = u - u0, which has no coefficient at degree 0, so du^m has none
below degree m.  du^(m+1) is ``power`` times ``du`` through
``JetSpace.power_pairs(m)``: the full table's rows with ``deg a >= m`` and
``deg b >= 1``, in its order, writing only the outputs of degree >= m + 1.
The dropped rows multiply an exact zero.  An output with three or more
kept rows keeps its whole segment, zeros included, because ``reduceat``
adds a segment's first row to the sum of the rest, and dropping a leading
zero would regroup the sum.  So for a finite input every composition is
bitwise the full-table one's up to the sign of a zero.  The
structure of du^m drops the rows, not a scan of its values, and a NaN in a
derivative coefficient reaches the result through the m = 1 term.  Each
derivs[m] broadcasts against the value, so one call sums several series
from one set of powers (``sincos`` stacks sin and cos; the flow's
sine-pair gradient gives each column its own function), each entry
bitwise the sum of its own series.  Every elementary function generates
its derivative list for any order.

Segment sums: a table none of whose outputs has more than 4 rows (the
full and power tables of every space of order <= 2) also holds its rows
as fixed-width (width, n_out) arrays, ``LeibnizPairs.segments``, a short
segment repeating its first row with coefficient 0.  ``_leibniz`` adds
those rows as whole arrays in ``reduceat``'s grouping, p0 + ((p1 + p2) +
p3), bitwise ``reduceat``'s sums up to the sign of a zero (an inf in a
repeated row's factor makes that output NaN rather than inf), as
``test_product_matches_the_reduceat_kernel`` pins.  A table with a wider
segment, and every table of ``jeinsum`` and ``jet_solve``, sums with
``reduceat``.

Direction rule: a space is wide when its full table has no segments
(dims 2, 4 and 6 at order >= 3).  There ``Jet.__mul__`` and ``jeinsum``
scan each factor once for its top degree and direction bits, the
coordinates of the multi-indices holding a nonzero coefficient (NaN
counts as nonzero).  For a union of bits neither empty nor every
coordinate the kernel takes ``JetSpace.within``: the rows of its table
(the full table, or ``pairs`` of the top degrees) whose ``a`` and ``b``
use only those coordinates, their sums scattered into zeros.  An output
in those coordinates keeps its whole segment in order, so its sum is
bitwise the same, and every other output is a sum of exact zeros
(``test_direction_rule_matches_the_full_rows``).  A factor with a
coefficient that is not finite takes every row, so NaN and inf spread as
on the full path (``test_nonfinite_factor_takes_the_full_rows``).
Narrow tables keep every row.  Which products of a kodaira run take the
rule is pinned by ``test_wide_products_take_the_rows_of_their_directions``.

The degree rule reaches the other two kernels at degree 0: ``jet_solve``
with a constant matrix is one constant ``jeinsum`` of ``inv(a0)`` with
``b``, and ``_compose`` of a constant jet returns ``derivs[0]`` with no
powers of the zero perturbation.  For a finite input both equal the full
path up to the sign of a zero, but for a solve for a vector ``b``, which
``np.einsum`` contracts in another loop, to roundoff.  The test is on the
input, as for products: a NaN in a derivative coefficient takes the full
path.  A non-finite value stays non-finite at the same points; the full
path also spreads it, through ``0 * inf`` and ``NaN * 0``, into other
entries and into the derivative coefficients, which the constant path
leaves zero.

``jet_solve(a, b)`` recurses over degrees, with no Neumann series and no
inverse jet: x_0 = inv(a0) b_0, and degree d applies inv(a0) to b_d minus
the terms C(gamma, alpha) a_alpha x_beta with |alpha| >= 1, the rows of
``pairs(order, d - 1)`` with a degree-d output; ``jet_inv(m)`` is
``jet_solve(m, I)``.  It gathers with ``take(idx, axis=-1)``, whose
C-contiguous result ``np.einsum`` contracts fastest; ``jeinsum`` keeps
fancy gathers, as ``take`` there would move residuals by roundoff.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["JetSpace", "Jet", "jet_space", "jet_coords", "jet_prefix", "jet_common",
           "jeinsum", "jgrad", "jmatvec", "jmatmul", "jtranspose", "jet_inv", "jet_solve",
           "jdet", "jtrace"]


@lru_cache(maxsize=None)
def jet_space(dim: int, order: int) -> "JetSpace":
    return JetSpace(dim, order)


def _multi_indices(dim, order):
    out = []
    for deg in range(order + 1):
        combos = sorted(itertools.combinations_with_replacement(range(dim), deg))
        for c in combos:
            alpha = [0] * dim
            for i in c:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


class JetSpace:
    """Precomputed index tables for jets of a given chart dimension and order."""

    def __init__(self, dim: int, order: int):
        self.dim = dim
        self.order = order
        self.multi = _multi_indices(dim, order)
        self.n = len(self.multi)
        self.index = {m: i for i, m in enumerate(self.multi)}
        self.degree = np.array([sum(m) for m in self.multi], dtype=np.int64)
        # degree d occupies [deg_starts[d], deg_starts[d + 1])
        self.deg_starts = np.searchsorted(self.degree, np.arange(order + 2))
        # bit i of bits[k] is set when multi-index k has a positive entry i
        self.bits = np.array([sum(1 << i for i, e in enumerate(m) if e) for m in self.multi])
        self._within = {}
        self._build_product_table()
        self._build_power_tables()
        self._build_grad_table()

    def _build_product_table(self):
        # raw-partials Leibniz: (fg)^(gamma) = sum_{alpha+beta=gamma} C(gamma,alpha) f^(a) g^(b)
        rows = []
        for ia, a in enumerate(self.multi):
            for ib, b in enumerate(self.multi):
                if sum(a) + sum(b) > self.order:
                    continue
                g = tuple(x + y for x, y in zip(a, b))
                coef = 1.0
                for x, y in zip(a, b):
                    coef *= math.comb(x + y, x)
                rows.append((self.index[g], ia, ib, coef))
        rows.sort(key=lambda r: r[0])
        self.prod_out = np.array([r[0] for r in rows], dtype=np.int64)
        self.prod_a = np.array([r[1] for r in rows], dtype=np.int64)
        self.prod_b = np.array([r[2] for r in rows], dtype=np.int64)
        self.prod_c = np.array([r[3] for r in rows], dtype=np.float64)
        # reduceat segment starts: every output index appears (gamma = gamma + 0)
        starts = np.searchsorted(self.prod_out, np.arange(self.n))
        self.prod_starts = starts.astype(np.int64)
        # the full table with its segments, the table of ``Jet.__mul__``
        self.product = LeibnizPairs(self.prod_a, self.prod_b, self.prod_c, self.prod_starts,
                                    False, _segments(self.prod_out, self.prod_a,
                                                     self.prod_b, self.prod_c))
        deg_a, deg_b = self.degree[self.prod_a], self.degree[self.prod_b]
        self._pairs = {}
        for da in range(self.order + 1):
            for db in range(self.order + 1):
                keep = (deg_a <= da) & (deg_b <= db)
                n_out = self.deg_starts[min(da + db, self.order) + 1]
                # one pair per output only with a constant factor, whose
                # pairs (0, g) or (g, 0) have coefficient 1
                self._pairs[da, db] = LeibnizPairs(
                    self.prod_a[keep], self.prod_b[keep], self.prod_c[keep],
                    np.searchsorted(self.prod_out[keep], np.arange(n_out)),
                    int(keep.sum()) == n_out)

    def pairs(self, da: int, db: int) -> "LeibnizPairs":
        """The product-table rows whose ``a`` index has degree <= da and
        whose ``b`` index has degree <= db, in the full table's order, with
        the ``reduceat`` starts of the outputs through degree da + db (a
        prefix of the multi-indices); every table is built with the space."""
        return self._pairs[da, db]

    def within(self, da: int, db: int, bits: int) -> tuple:
        """The rows of ``pairs(da, db)`` whose ``a`` and ``b`` use only the
        coordinates in the bit set ``bits``, and their outputs; built once."""
        if (da, db, bits) not in self._within:
            t = self._pairs[da, db]
            live = (self.bits[:len(t.starts)] & ~bits) == 0
            rows = np.flatnonzero(np.repeat(live, np.diff(t.starts, append=len(t.a))))
            cut = t._replace(a=t.a[rows], b=t.b[rows], c=t.c[rows],
                             starts=np.searchsorted(rows, t.starts[live]))
            self._within[da, db, bits] = cut, np.flatnonzero(live)
        return self._within[da, db, bits]

    def _build_power_tables(self):
        # (u - u0)^m has no coefficient below degree m and u - u0 none at
        # degree 0, so its product with u - u0 needs only the rows with
        # deg a >= m and deg b >= 1; an output with three or more of them
        # keeps its whole segment, so reduceat groups its sum as the full
        # product does (a sum of at most two nonzero terms has one grouping)
        deg_a, deg_b = self.degree[self.prod_a], self.degree[self.prod_b]
        self._powers = {}
        for m in range(1, self.order):
            keep = (deg_a >= m) & (deg_b >= 1)
            keep |= (np.bincount(self.prod_out[keep], minlength=self.n) > 2)[self.prod_out]
            out, a, b, c = (x[keep] for x in (self.prod_out, self.prod_a,
                                              self.prod_b, self.prod_c))
            self._powers[m] = LeibnizPairs(
                a, b, c, np.searchsorted(out, np.arange(self.deg_starts[m + 1], self.n)),
                False, _segments(out, a, b, c))

    def power_pairs(self, m: int) -> "LeibnizPairs":
        """The product-table rows that multiply the m-th power of a jet
        with no constant term by that jet, for 1 <= m < order: those with
        deg a >= m and deg b >= 1, and the whole segment of an output with
        three or more of them, in the full table's order, with the
        ``reduceat`` starts of the outputs of degree >= m + 1 (a suffix of
        the multi-indices); every table is built with the space."""
        return self._powers[m]

    def _build_grad_table(self):
        # (d_i u)^(alpha) = u^(alpha + e_i) for |alpha| <= order-1; those
        # alpha are a prefix of the degree-ordered multi-indices
        lower = [a for a in self.multi if sum(a) < self.order]
        self.grad_src = np.array(
            [[self.index[a[:i] + (a[i] + 1,) + a[i + 1:]] for a in lower]
             for i in range(self.dim)], dtype=np.int64)


class LeibnizPairs(NamedTuple):
    """One table of ``JetSpace.pairs`` (or its ``within`` cut), ``product``
    or ``power_pairs``: rows sorted by output, with the ``reduceat`` start
    of each output's segment."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    starts: np.ndarray
    trivial: bool  # one pair per output, coefficient 1
    segments: "Segments | None" = None


class Segments(NamedTuple):
    """The rows of a table laid out as (width, n_out) arrays: row k of the
    i-th output of the table sits at [k, i].  A segment shorter than
    ``width`` repeats its first row with coefficient 0."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    width: int


# the widest segment summed row by row as reduceat groups it, in every
# dtype (module docstring, "Segment sums")
_SEGMENT_WIDTH = 4


def _segments(out, a, b, c):
    """The fixed-width layout of the rows (a, b, c), sorted by their outputs
    ``out`` (a run of consecutive indices, each present), or None when an
    output has more than ``_SEGMENT_WIDTH`` rows."""
    counts = np.bincount(out - out[0])
    width = int(counts.max())
    if width > _SEGMENT_WIDTH:
        return None
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    k = np.arange(width)[:, None]
    live = k < counts
    row = np.where(live, first + k, first)
    return Segments(a[row], b[row], np.where(live, c[row], 0.0), width)


def _as_coeffs(space, x):
    x = np.asarray(x)
    dtype = x.dtype if x.dtype.kind in "fc" else np.float64
    c = np.zeros(x.shape + (space.n,), dtype=dtype)
    c[..., 0] = x
    return c


class Jet:
    """Batched jet: coefficient array of shape (..., space.n).

    Every coefficient is valid: ``order``, the number of derivative orders
    the jet carries, is its space's order.  ``Jet(space, c, order)`` with an
    order below ``space.order`` stores the coefficient prefix of ``c``
    through degree ``order`` (a view) in ``jet_space(space.dim, order)``.
    """

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, c: np.ndarray, order: int | None = None):
        if order is not None and order != space.order:
            if not 0 <= order < space.order:
                raise ValueError(f"a jet in a space of order {space.order} "
                                 f"cannot be valid to order {order}")
            space = jet_space(space.dim, order)
            c = c[..., :space.n]
        self.space = space
        self.c = c

    @property
    def order(self) -> int:
        return self.space.order

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(space, values):
        return Jet(space, _as_coeffs(space, values))

    # -- basic views --------------------------------------------------------

    @property
    def value(self):
        return self.c[..., 0]

    @property
    def shape(self):
        return self.c.shape[:-1]

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.space, self.c[idx + (slice(None),)])

    def copy(self):
        return Jet(self.space, self.c.copy())

    # -- ring operations ----------------------------------------------------

    def _pair(self, other):
        """``self`` and ``other`` (a jet, or values as a constant jet) in one
        space."""
        if not isinstance(other, Jet):
            return self, Jet.constant(self.space, other)
        if other.space is self.space:
            return self, other
        return jet_common(self, other)

    def __add__(self, other):
        a, b = self._pair(other)
        return Jet(a.space, a.c + b.c)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Jet(a.space, a.c - b.c)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Jet(a.space, b.c - a.c)

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c * np.asarray(other)[..., None])
        a, o = self._pair(other)
        sp = a.space
        if _is_constant(o):
            return Jet(sp, a.c * o.c[..., :1])
        if _is_constant(a):
            return Jet(sp, a.c[..., :1] * o.c)
        if sp.product.segments is None:  # wide: the direction rule
            t, outs = _directed(sp, sp.order, sp.order, _scan(a)[1] | _scan(o)[1], a, o)
            c = _leibniz(t, a.c, o.c)
            return Jet(sp, c if outs is None else _widen(c, outs, sp.n))
        return Jet(sp, _leibniz(sp.product, a.c, o.c))

    def __rmul__(self, other):
        return Jet(self.space, self.c * np.asarray(other)[..., None])

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c / np.asarray(other)[..., None])
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        if k == 0:
            return Jet.constant(self.space, np.ones(self.shape, dtype=self.c.dtype))
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int):
        """Jet of the i-th coordinate derivative; drops one valid order."""
        if self.order < 1:
            raise ValueError("jet order exhausted; cannot differentiate")
        sp = self.space
        return Jet(sp, self.c.take(sp.grad_src[i], axis=-1), sp.order - 1)

    # -- analytic functions via Taylor composition --------------------------

    def _compose(self, derivs):
        """sum_m derivs[m]/m! * (self - value)^m for m through self.order.
        Each derivs[m] broadcasts against the value, and the result has the
        broadcast shape: derivative arrays with leading axes stack several
        series, or give each column its own, all from one set of powers, and
        each entry is bitwise the sum its own derivatives alone would give."""
        sp = self.space
        dtype = np.result_type(self.c.dtype, derivs[0].dtype)
        out = np.zeros(np.broadcast(self.value, derivs[0]).shape + (sp.n,), dtype)
        out[..., 0] = derivs[0]
        if not _is_constant(self):  # else every power of self - value is zero
            du = self.c.copy()
            du[..., 0] = 0
            fact = 1.0
            power = du
            for m in range(1, self.order + 1):
                fact *= m
                out += power * (derivs[m] / fact)[..., None]
                if m < self.order:
                    power = _next_power(sp, power, du, m)
        return Jet(sp, out)

    def reciprocal(self):
        v = self.value
        return self._compose([np.asarray((-1) ** m * math.factorial(m) / v ** (m + 1))
                              for m in range(self.order + 1)])

    def sqrt(self):
        r = np.sqrt(self.value)
        derivs, coef = [r], 1.0
        for m in range(1, self.order + 1):
            coef *= 1.5 - m  # d^m/dv^m v^(1/2) = (1/2)(-1/2)...(3/2 - m) v^(1/2 - m)
            derivs.append(np.asarray(coef / r ** (2 * m - 1)))
        return self._compose(derivs)

    def exp(self):
        e = np.exp(self.value)
        return self._compose([e] * (self.order + 1))

    def log(self):
        v = self.value
        return self._compose([np.log(v)] + [
            np.asarray((-1) ** (m - 1) * math.factorial(m - 1) / v ** m)
            for m in range(1, self.order + 1)])

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._compose(_sine_derivs(s, c, self.order))

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._compose(_sine_derivs(c, -s, self.order))

    def sincos(self):
        """(sin, cos) from one set of powers, stacked in one series;
        bitwise sin() and cos()."""
        s, c = np.sin(self.value), np.cos(self.value)
        both = self._compose(_sine_derivs(np.array([s, c]), np.array([c, -s]), self.order))
        return both[0], both[1]

    # -- complex helpers ----------------------------------------------------

    def conj(self):
        return Jet(self.space, np.conj(self.c))

    @property
    def real(self):
        return Jet(self.space, self.c.real.copy())

    @property
    def imag(self):
        return Jet(self.space, self.c.imag.copy())

    # -- reductions over component axes -------------------------------------

    def sum(self, axis: int):
        """Sum over a component axis (negative axes count from the
        coefficient axis, so -1 is the last component axis)."""
        ax = axis - 1 if axis < 0 else axis
        return Jet(self.space, self.c.sum(axis=ax))


def jet_coords(dim: int, order: int, points: np.ndarray) -> Jet:
    """Coordinate jets at a batch of points: shape (B, dim) -> Jet (B, dim)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of shape (B, {dim})")
    sp = jet_space(dim, order)
    c = np.zeros((pts.shape[0], dim, sp.n))
    c[..., 0] = pts
    if order >= 1:
        for i in range(dim):
            c[:, i, sp.index[tuple(1 if j == i else 0 for j in range(dim))]] = 1.0
    return Jet(sp, c)


def jet_prefix(a: Jet, space: JetSpace) -> Jet:
    """``a``'s coefficients through degree ``space.order`` (a prefix of the
    degree-ordered multi-indices) as a jet in ``space``, of ``a``'s
    dimension.  The coefficients are a view of ``a.c``."""
    if space.dim != a.space.dim or space.order > a.space.order:
        raise ValueError("a prefix needs a space of the same dimension and no higher order")
    return Jet(a.space, a.c, space.order)


def jet_common(*jets: Jet) -> tuple:
    """The jets in one space, the lowest-order one among theirs: a jet of a
    higher order is cut to its coefficient prefix there (a view).  Jets of
    different dimensions raise."""
    sp = min((j.space for j in jets), key=lambda s: s.order)
    if any(j.space.dim != sp.dim for j in jets):
        raise ValueError("jets from different spaces")
    return tuple(j if j.space is sp else Jet(j.space, j.c, sp.order) for j in jets)


def _sine_derivs(d0, d1, order):
    """d0, d1, -d0, -d1, d0, ... through ``order``: the derivatives of a
    sine or cosine series whose first two are d0 and d1, each minus the one
    two before it."""
    derivs = [d0, d1][:order + 1]
    while len(derivs) <= order:
        derivs.append(-derivs[-2])
    return derivs


def _is_constant(x: Jet) -> bool:
    """Every derivative coefficient is exactly zero (NaN counts as nonzero);
    an order-0 space has none, so its jets are constant without a scan.  The
    first entry's coefficients are read first, as Python floats: a nonzero
    one there decides without scanning the array, which is most of the
    calls on a non-constant jet."""
    if x.space.order == 0:
        return True
    c = x.c
    if c.size and any(c[(0,) * (c.ndim - 1)].tolist()[1:]):
        return False
    return not c[..., 1:].any()


def _top_degree(x: Jet) -> int:
    """Highest degree holding a nonzero coefficient (NaN counts as nonzero)."""
    if _is_constant(x):
        return 0
    starts = x.space.deg_starts
    for d in range(x.space.order, 1, -1):
        if x.c[..., starts[d]:starts[d + 1]].any():
            return d
    return 1


def _scan(x: Jet) -> tuple:
    """(top degree, direction bits) of ``x``; NaN counts as nonzero."""
    nz = np.flatnonzero(np.any(x.c, axis=tuple(range(x.c.ndim - 1))))
    return int(x.space.degree[nz].max(initial=0)), int(np.bitwise_or.reduce(x.space.bits[nz]))


def _directed(sp, da, db, bits, a, b):
    """``sp.pairs(da, db)``, or its rows ``within`` partial ``bits`` of finite factors."""
    if 0 < bits < (1 << sp.dim) - 1 and np.isfinite(a.c).all() and np.isfinite(b.c).all():
        return sp.within(da, db, bits)
    return sp.pairs(da, db), None


def _widen(c, outs, n):
    """Sums ``c`` written at outputs ``outs`` (None: a prefix) of n zeros."""
    full = np.zeros(c.shape[:-1] + (n,), c.dtype)
    full[..., slice(c.shape[-1]) if outs is None else outs] = c
    return full


def _next_power(sp, power, du, m):
    """du^(m+1) from ``power`` = du^m through ``sp.power_pairs(m)``; the
    coefficients below degree m + 1 are zero."""
    out = np.zeros(power.shape, power.dtype)
    _leibniz(sp.power_pairs(m), power, du, out[..., sp.deg_starts[m + 1]:])
    return out


def _leibniz(t, x, y, out=None):
    """The Leibniz sums of table ``t`` for coefficient arrays x and y, each
    output's rows summed as ``np.add.reduceat`` sums its segment.  A table
    with ``segments`` gathers their fixed-width layout and adds its rows as
    p0 + ((p1 + p2) + p3), reduceat's own grouping, so the result is
    bitwise reduceat's up to the sign of a zero (a padding row adds an exact
    zero, or a NaN where the row it repeats multiplies an inf); a wider
    table gathers its rows and calls reduceat.  Written into ``out`` when
    given, else into a new C-ordered array."""
    seg = t.segments
    if seg is None:
        prod = x[..., t.a] * y[..., t.b]
        return np.add.reduceat(prod * t.c, t.starts, axis=-1, out=out)
    # the fancy gathers come back coefficient-axis-major, so each row below
    # is one contiguous block
    p = x[..., seg.a] * y[..., seg.b] * seg.c
    if out is None:
        out = np.empty(p.shape[:-2] + p.shape[-1:], p.dtype)
    if seg.width == 1:
        out[...] = p[..., 0, :]
        return out
    rest = p[..., 1, :]
    for k in range(2, seg.width):
        rest = rest + p[..., k, :]
    return np.add(p[..., 0, :], rest, out=out)


def jeinsum(spec: str, a: Jet, b: Jet) -> Jet:
    """Jet product of a and b contracted over component axes: the jet
    analogue of ``np.einsum(spec, a, b)``, e.g. ``"...ij,...jk->...ik"``.
    The letter ``r`` is reserved for the coefficient axis."""
    if a.space is not b.space:
        a, b = jet_common(a, b)
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    sp, outs = a.space, None
    if sp.product.segments is None:  # wide: the direction rule
        (da, ba), (db, bb) = _scan(a), _scan(b)
        t, outs = _directed(sp, da, db, ba | bb, a, b)
    else:
        t = sp.pairs(_top_degree(a), _top_degree(b))
    c = np.einsum(f"{sa}r,{sb}r->{out}r", a.c[..., t.a], b.c[..., t.b])
    if not t.trivial:
        c *= t.c
        c = np.add.reduceat(c, t.starts, axis=-1)
    return Jet(sp, c if c.shape[-1] == sp.n else _widen(c, outs, sp.n))


def jgrad(a: Jet) -> Jet:
    """All first partials as a new trailing component axis: (..., dim), in
    ``jet_space(dim, order - 1)``."""
    if a.order < 1:
        raise ValueError("jet order exhausted; cannot differentiate")
    return Jet(a.space, a.c.take(a.space.grad_src, axis=-1), a.order - 1)


# -- jet linear algebra (component axes are the trailing non-coefficient axes)


def jtranspose(a: Jet) -> Jet:
    return Jet(a.space, np.swapaxes(a.c, -2, -3))


def jmatvec(a: Jet, v: Jet) -> Jet:
    """(..., m, k) @ (..., k) -> (..., m)."""
    return jeinsum("...ij,...j->...i", a, v)


def jmatmul(a: Jet, b: Jet) -> Jet:
    """(..., m, k) @ (..., k, p) -> (..., m, p)."""
    return jeinsum("...ij,...jk->...ik", a, b)


def jtrace(a: Jet) -> Jet:
    d = a.c.shape[-2]
    out = a[..., 0, 0]
    for i in range(1, d):
        out = out + a[..., i, i]
    return out


def jet_inv(m: Jet) -> Jet:
    """Inverse of a batched square jet matrix: ``jet_solve(m, I)``."""
    eye = np.broadcast_to(np.eye(m.c.shape[-2]), m.value.shape)
    return jet_solve(m, Jet.constant(m.space, eye))


def jet_solve(a: Jet, b: Jet) -> Jet:
    """Solve a @ x = b, b of shape (..., k) or (..., k, p), degree by degree."""
    if a.space is not b.space:
        a, b = jet_common(a, b)
    sp, starts = a.space, a.space.deg_starts
    a0inv = np.linalg.inv(a.value)
    rhs, out = ("j", "i") if b.c.ndim < a.c.ndim else ("jk", "ik")  # component letters
    if _is_constant(a):
        return jeinsum(f"...ij,...{rhs}->...{out}", Jet.constant(sp, a0inv), b)
    apply = f"...ij,...{rhs}r->...{out}r"
    # degree 0 everywhere; each higher degree is written before it is read
    x = np.repeat(np.einsum(apply, a0inv, b.c[..., :1]), sp.n, axis=-1)
    for d in range(1, sp.order + 1):
        t = sp.pairs(sp.order, d - 1)
        seg = t.starts[starts[d]:starts[d + 1]]
        rows = slice(seg[0], t.starts[starts[d + 1]] if d < sp.order else None)
        terms = np.einsum(f"...ijr,...{rhs}r->...{out}r", a.c.take(t.a[rows], axis=-1),
                          x.take(t.b[rows], axis=-1))
        sums = np.add.reduceat(terms * t.c[rows], seg - seg[0], axis=-1)
        x[..., starts[d]:starts[d + 1]] = np.einsum(
            apply, a0inv, b.c[..., starts[d]:starts[d + 1]] - sums)
    return Jet(sp, x)


def jdet(m: Jet) -> Jet:
    """Determinant by Leibniz expansion; intended for k <= 4 minors."""
    d = m.c.shape[-2]
    out = None
    for perm in itertools.permutations(range(d)):
        term = m[..., 0, perm[0]]
        for i in range(1, d):
            term = term * m[..., i, perm[i]]
        term = term * float(_perm_sign(perm))
        out = term if out is None else out + term
    return out


def _perm_sign(perm):
    """+1 or -1 by the parity of the inversions of a sequence of distinct values."""
    return (-1) ** sum(p > q for p, q in itertools.combinations(perm, 2))
