"""Test helpers for reading jets, and full-space loop oracles.

A jet valid to order k is stored in ``jet_space(dim, k)``.  The oracles
below take their operands into one larger space (``embed``: zero above each
operand's order), compute there over the whole product table or by a loop
over multi-indices, and return a ``Jet`` valid to the order of the result,
which the constructor cuts to the valid prefix.  The package kernels must
equal that prefix.  ``reduceat_leibniz`` is the gather-and-``reduceat``
kernel of one product table, the oracle of the segment sums, and
``pairs_jeinsum`` the ``jeinsum`` of every row of a degree table, the
oracle of the direction rule.

``order_cuts`` records the jets ``jet_common`` cuts to a lower order, by
the field closure that made the operation: a cut of a jet that is not
constant is work done above the order the result keeps.  Run as a script
it prints that table for one configuration:

    PYTHONPATH=src python tests/jet_helpers.py --suite engel --model kodaira

``direction_audit`` records, for every jet product taken through a
Leibniz table in any space, the coordinates its factors depend on and the
rows of the table in those coordinates (``JetSpace.within``) against the
table's rows, and whether the kernel took those rows (the direction rule
of the wide spaces).  ``--directions`` prints that table instead.
``--time N`` instead runs the configuration N times in one process and
prints the min and median wall seconds, so two checkouts time a curved
flow the same way:

    PYTHONPATH=src python tests/jet_helpers.py --suite gpk-example2 \
        --model kodaira --t 0.1 --f-expr sin134 --time 8

With ``--certify`` (no ``--suite``) it times ``models.get_model`` alone, the
model's build and certification at the plan a default run certifies at:

    PYTHONPATH=src python tests/jet_helpers.py --model kodaira --certify --time 300

The last section keeps the Hamiltonian flow as it was before its velocity
was contracted over the gradient's support: the full-width gradients of the
catalog Hamiltonians (zero off the support), every chart coefficient of
F^K's inverse in x1, and out-of-place RK4 stages, with every sine, cosine
and exponential a full-table ``taylor`` composition.
"""

import argparse
import contextlib
import math
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from pbhverify.tensorcalc import form_full_matrix, jet_space, jets
from pbhverify.tensorcalc.fields import _chart_coeffs
from pbhverify.tensorcalc.jets import Jet, JetSpace


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


def reduceat_leibniz(t, x, y):
    """The Leibniz sums of table ``t`` (a ``LeibnizPairs``: ``JetSpace.product``,
    ``power_pairs(m)`` or ``pairs(da, db)``) for coefficient arrays x and y,
    every row gathered and each output's segment summed by
    ``np.add.reduceat``: the kernel the fixed-width segment sums replaced."""
    prod = x[..., t.a] * y[..., t.b]
    prod = prod * t.c
    return np.add.reduceat(prod, t.starts, axis=-1)


def pairs_jeinsum(spec, a, b):
    """``jeinsum`` of a and b, of one space, through ``pairs`` of their top
    degrees with every row and output: the kernel without the direction
    rule, as a coefficient array (..., n)."""
    sp = a.space
    t = sp.pairs(jets._top_degree(a), jets._top_degree(b))
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    c = np.einsum(f"{sa}r,{sb}r->{out}r", a.c[..., t.a], b.c[..., t.b])
    if not t.trivial:
        c = np.add.reduceat(c * t.c, t.starts, axis=-1)
    full = np.zeros(c.shape[:-1] + (sp.n,), c.dtype)
    full[..., :c.shape[-1]] = c
    return full


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
    every power a ``leibniz`` product there; valid to x.order.  Each
    derivs[m] broadcasts against the value, as in ``Jet._compose``."""
    du = Jet(space, embed(x, space))
    du.c[..., 0] = 0
    shape = np.broadcast_shapes(du.shape, np.shape(derivs[0])) + (space.n,)
    out = np.zeros(shape, dtype=np.result_type(du.c.dtype, derivs[0].dtype))
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


def _caller(frame):
    """The innermost field closure (a frame with a local ``jc``) on the
    stack from ``frame``, else the innermost frame outside
    ``tensorcalc/jets.py``, as ``module:qualname``."""
    outside = None
    while frame is not None:
        code = frame.f_code
        path = Path(code.co_filename)
        if (path.parent.name, path.name) != ("tensorcalc", "jets.py"):
            label = f"{path.stem}:{getattr(code, 'co_qualname', code.co_name)}"
            if "jc" in code.co_varnames:
                return label
            outside = outside or label
        frame = frame.f_back
    return outside


@contextlib.contextmanager
def order_cuts():
    """Record each cut ``jet_common`` makes of a jet that is not constant,
    in every module that binds it: yields a list that collects one
    (caller, from order, to order) per cut jet, ``caller`` as ``_caller``
    names it."""
    cuts, common = [], jets.jet_common

    def recording(*args):
        out = common(*args)
        to = out[0].order
        orders = [j.order for j in args if j.order > to and not jets._is_constant(j)]
        if orders:
            caller = _caller(sys._getframe(1))
            cuts.extend((caller, k, to) for k in orders)
        return out

    bound = [m for name, m in list(sys.modules.items())
             if name.startswith("pbhverify") and getattr(m, "jet_common", None) is common]
    for module in bound:
        module.jet_common = recording
    try:
        yield cuts
    finally:
        for module in bound:
            module.jet_common = common


@contextlib.contextmanager
def direction_audit():
    """Record every product through a Leibniz table: each ``jeinsum``, and
    each ``Jet.__mul__`` of two jets neither of which is constant, in any
    space.  Yields a list that collects one (kernel, caller, dim, order,
    bits, kept, rows, used) per product: ``bits`` is the union of the
    factors' direction bits, ``rows`` the size of the table the product
    consults (``pairs`` of the factors' top degrees for ``jeinsum``, the
    full table for ``*``), ``kept`` its rows in those directions (all of
    them for bits that are empty or every coordinate, or a factor that is
    not finite), and ``used`` whether the kernel took ``JetSpace.within``."""
    records, taken = [], []
    within, mul, einsum = JetSpace.within, Jet.__mul__, jets.jeinsum

    def recording_within(space, da, db, bits):
        taken.append(bits)
        return within(space, da, db, bits)

    def audit(kernel, a, b, full, call):
        a, b = jets.jet_common(a, b)
        sp, (da, ba), (db, bb) = a.space, jets._scan(a), jets._scan(b)
        if full:
            da = db = sp.order
        rows = kept = len(sp.pairs(da, db).a)
        finite = np.isfinite(a.c).all() and np.isfinite(b.c).all()
        if 0 < ba | bb < (1 << sp.dim) - 1 and finite:
            kept = len(within(sp, da, db, ba | bb)[0].a)
        before = len(taken)
        out = call()
        records.append((kernel, _caller(sys._getframe(2)), sp.dim, sp.order, ba | bb,
                        kept, rows, len(taken) > before))
        return out

    def audited_mul(a, other):
        if (not isinstance(other, Jet) or jets._is_constant(a)
                or jets._is_constant(jets.jet_common(a, other)[1])):
            return mul(a, other)
        return audit("mul", a, other, True, lambda: mul(a, other))

    def audited_jeinsum(spec, a, b):
        return audit("jeinsum", a, b, False, lambda: einsum(spec, a, b))

    bound = [m for name, m in list(sys.modules.items())
             if name.startswith("pbhverify") and getattr(m, "jeinsum", None) is einsum]
    JetSpace.within, Jet.__mul__ = recording_within, audited_mul
    for module in bound:
        module.jeinsum = audited_jeinsum
    try:
        yield records
    finally:
        JetSpace.within, Jet.__mul__ = within, mul
        for module in bound:
            module.jeinsum = einsum


def main(argv=None):
    """Print each (caller, from, to) that ``order_cuts`` records in one
    configuration, with its count, most frequent first; with
    ``--directions``, each row of ``direction_audit`` instead, and with
    ``--time N`` the min and median wall seconds of N runs (of
    ``models.get_model`` alone with ``--certify``)."""
    from pbhverify import models, suites
    from pbhverify.tensorcalc import SamplePlan

    parser = argparse.ArgumentParser(
        description="Print the order_cuts table of one run_suite configuration "
                    "(64 samples, seed 42).")
    parser.add_argument("--suite", help="required unless --certify")
    parser.add_argument("--model", required=True)
    parser.add_argument("--t", type=float, default=0.0)
    parser.add_argument("--f-expr", default="sin2", help="named Hamiltonian of the flow")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--directions", action="store_true",
                      help="print the direction_audit table of every jet product instead")
    mode.add_argument("--time", type=int, metavar="N",
                      help="run the configuration N times and print the min and "
                           "median wall seconds instead")
    parser.add_argument("--certify", action="store_true",
                        help="with --time, time building and certifying the model "
                             "(models.get_model) instead of the suite")
    args = parser.parse_args(argv)
    if args.certify and args.time is None:
        parser.error("--certify needs --time N")
    if args.suite is None and not args.certify:
        parser.error("--suite is required")
    config = suites.SuiteConfig(suite=args.suite or "all", model=args.model, t=args.t,
                                f_expr=args.f_expr)
    if args.time is not None:
        if args.time < 1:
            parser.error("--time needs at least one run")
        # the plan SuiteContext.model certifies at
        plan = SamplePlan(min(16, config.samples), config.seed + 7)
        times = []
        for _ in range(args.time):
            start = time.perf_counter()
            if args.certify:
                models.get_model(args.model, plan)
            else:
                suites.run_suite(config)
            times.append(time.perf_counter() - start)
        print(f"runs {len(times)}  min {min(times):.6f} s  "
              f"median {statistics.median(times):.6f} s")
        return
    if args.directions:
        with direction_audit() as records:
            suites.run_suite(config)
        table = Counter(records).most_common()
        width = max((len(caller) for (_, caller, *_), _ in table), default=6)
        print(f"kernel   {'caller':<{width}}  dim  order  bits  kept  rows  used  products")
        for (kernel, caller, dim, order, bits, kept, rows, used), n in table:
            print(f"{kernel:<7}  {caller:<{width}}  {dim:>3}  {order:>5}  {bits:>4}  "
                  f"{kept:>4}  {rows:>4}  {str(used):>4}  {n:>8}")
        return
    with order_cuts() as cuts:
        suites.run_suite(config)
    rows = Counter(cuts).most_common()
    width = max((len(caller) for (caller, _, _), _ in rows), default=6)
    print(f"{'caller':<{width}}  from  to  cuts")
    for (caller, k, to), n in rows:
        print(f"{caller:<{width}}  {k:>4}  {to:>2}  {n:>4}")


# -- the flow before the support contraction -----------------------------------


def _sin_derivs(x):
    s, c = np.sin(x.value), np.cos(x.value)
    cycle = [s, c, -s, -c]
    return ([cycle[m % 4] for m in range(x.order + 1)],
            [cycle[(m + 1) % 4] for m in range(x.order + 1)])


def ref_sin(x):
    return taylor(x, _sin_derivs(x)[0], x.space)


def ref_cos(x):
    return taylor(x, _sin_derivs(x)[1], x.space)


def ref_exp(x):
    return taylor(x, [np.exp(x.value)] * (x.order + 1), x.space)


# the coordinate pairs (i, j) of each sine-product Hamiltonian, the sum of
# sin x_i sin x_j over its pairs
SIN_PAIRS = {"sin2": ((0, 1),), "sin14": ((0, 3),), "sin13": ((0, 2),),
             "sin134": ((0, 2), (0, 3))}


def ref_full_gradient(name, jc):
    """df of the catalog Hamiltonian ``name`` at every coordinate, (B, dim),
    zero off its support.  A sine pair's components are cos x_i sin x_j =
    (S+ - S-)/2 and sin x_i cos x_j = (S+ + S-)/2 for S+- = sin(x_i +- x_j),
    each sine a full-table ``taylor`` composition; a coordinate in several
    pairs sums their components in pair order."""
    if name in SIN_PAIRS:
        out = np.zeros(jc.c.shape)
        for i, j in SIN_PAIRS[name]:
            plus, minus = ref_sin(jc[:, i] + jc[:, j]), ref_sin(jc[:, i] - jc[:, j])
            out[:, i] += ((plus - minus) * 0.5).c
            out[:, j] += ((plus + minus) * 0.5).c
        return Jet(jc.space, out)
    z = jc[:, 0] * 0.0
    if name == "const":
        comps = [z, z, z, z]
    elif name == "gauss":
        s1, s2 = ref_sin(jc[:, 0] * 0.5), ref_sin(jc[:, 1] * 0.5)
        e = ref_exp((s1 * s1 + s2 * s2) * (-2.0))
        comps = [e * ref_sin(jc[:, 0]) * (-1.0), e * ref_sin(jc[:, 1]) * (-1.0), z, z]
    else:
        raise ValueError(f"no oracle gradient for {name!r}")
    return Jet(jc.space, np.stack([q.c for q in comps], axis=1))


def ref_inverse_coeffs(f_k):
    """The chart coefficients in x1 of the inverse of F^K's transpose, a
    bivector frame constant, at every component."""
    frame, d = f_k.frame, f_k.chart.dim
    full = form_full_matrix(Jet.constant(jet_space(d, 0), frame.coeffs[0]), d)
    return _chart_coeffs("bivector", frame.e, np.linalg.inv(full.value.T))


def ref_velocity(f_k, name, y):
    """Each inverse coefficient contracted with the full gradient, the
    terms summed by Horner's rule in x1."""
    grad = ref_full_gradient(name, y)
    terms = [Jet(grad.space, np.einsum("ij,...jr->...ir", c, grad.c))
             for c in ref_inverse_coeffs(f_k)]
    out = terms.pop()
    while terms:
        out = y[:, :1] * out + terms.pop()
    return out


def ref_flow(f_k, name, jc, t, step):
    """Fixed-step RK4 of ``ref_velocity`` with out-of-place stages."""
    n = max(1, int(round(abs(t) / step)))
    dt = t / n
    y = jc
    for _ in range(n):
        k1 = ref_velocity(f_k, name, y)
        k2 = ref_velocity(f_k, name, y + k1 * (dt / 2.0))
        k3 = ref_velocity(f_k, name, y + k2 * (dt / 2.0))
        k4 = ref_velocity(f_k, name, y + k3 * dt)
        y = y + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0)
    return y


if __name__ == "__main__":
    main()
