"""Spans and counters around the public functions of each pbhverify module.

The tracer patches functions and methods of the already-imported package
from outside and puts every original back on ``uninstall``; nothing in
``src/`` is edited and untraced runs call the originals directly.

A span records its wall time; a layer's self time is the sum of its spans'
durations minus the parts covered by child spans.  Counters are exact and
repeat identically for a fixed seed.  Definitions of every metric are in
``perfbench/README.md``.
"""

from __future__ import annotations

import inspect
import math
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

CALCULUS_OPS = ("exterior_derivative", "wedge", "interior_product",
                "lie_bracket", "nijenhuis_tensor", "pullback_linear")
GENCOMPLEX_EVAL_OPS = ("courant_bracket", "gcs_from_form", "apply_endo")
API_LAYERS = ("structures", "poisson", "engel", "flagmodel")
SUITE_NAMES = ("parahyperkahler", "lemma1", "courant", "gpk-example2",
               "poisson", "engel")


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []          # child time accumulated by each open span
        self._layer_depth = Counter()
        self._patches = []        # (owner, name, original); owner may be a dict
        self._digests = {}        # id(array) -> (weakref, digest)
        self._distinct = set()
        self._next_field = 0
        self.installed = False

    # -- spans ----------------------------------------------------------------

    def span(self, key, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.self_s[key] += dt - stack.pop()
            if stack:
                stack[-1] += dt

    def _eval_span(self, key, fn):
        """Wrap a field closure so each evaluation is a span."""
        counts = self.counts

        def traced(jc):
            counts[key + ".evals"] += 1
            return self.span(key, fn, jc)

        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, name, value):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every pbhverify module attribute bound to ``original``
        (the defining module and every ``from ... import``) at ``wrapper``."""
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        try:
            self._install_jets()
            self._install_fields()
            self._install_calculus()
            self._install_gencomplex()
            self._install_models()
            for layer in API_LAYERS:
                self._install_api_layer(layer)
            self._install_suites()
            self._install_report()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._digests.clear()
        self.installed = False

    def patched(self):
        return list(self._patches)

    # -- jets -----------------------------------------------------------------

    def _install_jets(self):
        from pbhverify.tensorcalc import jets
        Jet = jets.Jet
        counts, span = self.counts, self.span
        mul, rmul = Jet.__dict__["__mul__"], Jet.__dict__["__rmul__"]

        def traced_mul(a, other):
            if not isinstance(other, Jet):
                counts["jets.scale_calls"] += 1
                return mul(a, other)
            counts["jets.mul_calls"] += 1
            flops, nbytes = _product_work(a, other)
            counts["jets.mul_flops_computed"] += flops
            counts["jets.mul_bytes_computed"] += nbytes
            return span("jets.mul", mul, a, other)

        def traced_rmul(a, other):
            counts["jets.scale_calls"] += 1
            return rmul(a, other)

        self._set(Jet, "__mul__", traced_mul)
        self._set(Jet, "__rmul__", traced_rmul)
        for name, key in (("_compose", "jets.compose_calls"),
                          ("partial", "jets.partial_calls")):
            self._set(Jet, name, _counted(counts, key, Jet.__dict__[name]))
        for fn, key in ((jets.jet_inv, "jets.inv"), (jets.jmatmul, "jets.matmul")):
            self._replace_everywhere(fn, _spanned(self, key, fn))

    # -- fields ---------------------------------------------------------------

    def _install_fields(self):
        from pbhverify.tensorcalc import fields
        Field = fields.Field
        counts = self.counts
        init = Field.__dict__["__init__"]
        memoize = fields.memoize_fn

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            obj.fn = self._closure(obj.fn)

        def traced_memoize(fn):
            size = [0]

            def miss(jc):
                out = fn(jc)
                counts["fields.memo_misses"] += 1
                # mirrors memoize_fn: the cache is cleared when a miss finds
                # more than 32 entries in it
                if size[0] > 32:
                    counts["fields.memo_clears"] += 1
                    size[0] = 0
                size[0] += 1
                return out

            cached = memoize(miss)

            def lookup(jc):
                counts["fields.memo_lookups"] += 1
                return cached(jc)

            return lookup

        self._set(Field, "__init__", traced_init)
        self._set(Field, "eval_jet",
                  _counted(counts, "fields.eval_jet_calls", Field.__dict__["eval_jet"]))
        self._replace_everywhere(memoize, traced_memoize)

    def _closure(self, fn):
        """Count every call of a field's closure, and the distinct
        (field, input jet) pairs it is called with."""
        counts, distinct, digest = self.counts, self._distinct, self._digest
        self._next_field += 1
        serial = self._next_field

        def counted(jc):
            counts["fields.closure_calls"] += 1
            distinct.add((serial, digest(jc)))
            return fn(jc)

        return counted

    def _digest(self, jc):
        arr = jc.c
        hit = self._digests.get(id(arr))
        if hit is not None and hit[0]() is arr:
            return hit[1]
        d = (arr.shape, arr.dtype.str, jc.order, hash(arr.tobytes()))
        self._digests[id(arr)] = (weakref.ref(arr), d)
        return d

    # -- calculus and gencomplex ------------------------------------------------

    def _install_calculus(self):
        from pbhverify.tensorcalc import calculus
        for op in CALCULUS_OPS:
            self._replace_everywhere(getattr(calculus, op),
                                     self._field_builder(f"calculus.{op}",
                                                         getattr(calculus, op)))

    def _install_gencomplex(self):
        from pbhverify import gencomplex
        for op in GENCOMPLEX_EVAL_OPS:
            self._replace_everywhere(getattr(gencomplex, op),
                                     self._field_builder(f"gencomplex.{op}",
                                                         getattr(gencomplex, op)))
        nij = gencomplex.gcs_nijenhuis
        self._replace_everywhere(nij, _spanned(self, "gencomplex.gcs_nijenhuis", nij,
                                               count=".calls"))

    def _field_builder(self, key, build):
        """Wrap a function returning a Field or GeneralizedSection so that
        evaluating what it returns is a span named ``key``."""
        def traced(*args, **kwargs):
            out = build(*args, **kwargs)
            parts = (out.vec, out.form) if hasattr(out, "vec") else (out,)
            for f in parts:
                f.fn = self._eval_span(key, f.fn)
            return out

        return traced

    # -- models -------------------------------------------------------------------

    def _install_models(self):
        from pbhverify import models
        counts = self.counts
        for fn, key in ((models.example2_build, "models.example2_build"),
                        (models.hamiltonian_deform, "models.hamiltonian_deform")):
            self._replace_everywhere(fn, _spanned(self, key, fn))
        Descriptor, Flow = models.ModelDescriptor, models.HamiltonianFlow
        self._set(Descriptor, "certify",
                  _spanned(self, "models.certify", Descriptor.__dict__["certify"]))
        flow_jet = Flow.__dict__["flow_jet"]

        def traced_flow_jet(flow, jc):
            counts["models.flow_jet.calls"] += 1
            before = len(flow._cache)
            out = self.span("models.flow_jet", flow_jet, flow, jc)
            counts["models.rk4_integrations"] += len(flow._cache) - before
            return out

        self._set(Flow, "flow_jet", traced_flow_jet)
        self._set(Flow, "velocity", _counted(counts, "models.rk4_velocity_calls",
                                             Flow.__dict__["velocity"]))

    # -- structures, poisson, engel, flagmodel ---------------------------------------

    def _install_api_layer(self, layer):
        """Span every public function and public method of the module;
        calls made while a span of the same module is open run unwrapped,
        so ``<layer>.calls`` counts top-level calls."""
        mod = sys.modules[f"pbhverify.{layer}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                self._replace_everywhere(obj, self._api_span(layer, obj))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        self._set(obj, attr, self._api_span(layer, member))

    def _api_span(self, layer, fn):
        depth, counts = self._layer_depth, self.counts

        def traced(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            counts[layer + ".calls"] += 1
            depth[layer] += 1
            try:
                return self.span(layer, fn, *args, **kwargs)
            finally:
                depth[layer] -= 1

        return traced

    # -- suites ---------------------------------------------------------------------

    def _install_suites(self):
        from pbhverify import suites
        table = suites.SUITES
        for name, fn in list(table.items()):
            self._patches.append((table, name, fn))
            table[name] = _spanned(self, f"suites.{name}", fn)

    def _install_report(self):
        from pbhverify.report import VerificationReport, format_residual
        to_json = VerificationReport.__dict__["to_json"]
        counts = self.counts

        def traced_to_json(report):
            text = self.span("report.to_json", to_json, report)
            # the digits of wall_time_s vary from run to run; the rest is exact
            counts["report.json_bytes"] += (len(text.encode())
                                            - len(format_residual(report.wall_time_s)))
            return text

        self._set(VerificationReport, "to_json", traced_to_json)

    # -- results --------------------------------------------------------------------

    def value(self, source, key):
        """The value of one catalog entry (see ``PER_LAYER``)."""
        c = self.counts
        if source == "count":
            return c.get(key, 0)
        if source == "self_s":
            return self.self_s.get(key, 0.0)
        if key == "fields.distinct_evals":
            return len(self._distinct)
        if key == "fields.memo_hits":
            return c["fields.memo_lookups"] - c["fields.memo_misses"]
        if key == "fields.redundancy":
            return c["fields.closure_calls"] / len(self._distinct) if self._distinct else 0.0
        raise KeyError(key)


def _catalog():
    """(metric name, unit, better, source, key).  ``source`` is ``count``
    (a tracer counter), ``self_s`` (a span key's self time), ``derived``
    (computed by the tracer) or ``run`` (filled in by the harness)."""
    rows = [
        ("jets.mul_calls", "count", "lower", "count", "jets.mul_calls"),
        ("jets.scale_calls", "count", "lower", "count", "jets.scale_calls"),
        ("jets.mul_s", "s", "lower", "self_s", "jets.mul"),
        ("jets.mul_flops_computed", "flop", "lower", "count", "jets.mul_flops_computed"),
        ("jets.mul_bytes_computed", "B", "lower", "count", "jets.mul_bytes_computed"),
        ("jets.compose_calls", "count", "lower", "count", "jets.compose_calls"),
        ("jets.inv_calls", "count", "lower", "count", "jets.inv.calls"),
        ("jets.inv_s", "s", "lower", "self_s", "jets.inv"),
        ("jets.matmul_calls", "count", "lower", "count", "jets.matmul.calls"),
        ("jets.matmul_s", "s", "lower", "self_s", "jets.matmul"),
        ("jets.partial_calls", "count", "lower", "count", "jets.partial_calls"),
        ("fields.eval_jet_calls", "count", "lower", "count", "fields.eval_jet_calls"),
        ("fields.closure_calls", "count", "lower", "count", "fields.closure_calls"),
        ("fields.distinct_evals", "count", "lower", "derived", "fields.distinct_evals"),
        ("fields.redundancy", "ratio", "lower", "derived", "fields.redundancy"),
        ("fields.memo_hits", "count", "higher", "derived", "fields.memo_hits"),
        ("fields.memo_misses", "count", "lower", "count", "fields.memo_misses"),
        ("fields.memo_clears", "count", "lower", "count", "fields.memo_clears"),
    ]
    for op in CALCULUS_OPS:
        rows += [(f"calculus.{op}.evals", "count", "lower", "count", f"calculus.{op}.evals"),
                 (f"calculus.{op}.self_s", "s", "lower", "self_s", f"calculus.{op}")]
    rows += [("gencomplex.gcs_nijenhuis.calls", "count", "lower", "count",
              "gencomplex.gcs_nijenhuis.calls"),
             ("gencomplex.gcs_nijenhuis.s", "s", "lower", "self_s", "gencomplex.gcs_nijenhuis")]
    for op in GENCOMPLEX_EVAL_OPS:
        rows += [(f"gencomplex.{op}.evals", "count", "lower", "count", f"gencomplex.{op}.evals"),
                 (f"gencomplex.{op}.self_s", "s", "lower", "self_s", f"gencomplex.{op}")]
    rows += [
        ("models.certify_s", "s", "lower", "self_s", "models.certify"),
        ("models.example2_build_s", "s", "lower", "self_s", "models.example2_build"),
        ("models.hamiltonian_deform_s", "s", "lower", "self_s", "models.hamiltonian_deform"),
        ("models.flow_jet.calls", "count", "lower", "count", "models.flow_jet.calls"),
        ("models.rk4_integrations", "count", "lower", "count", "models.rk4_integrations"),
        ("models.rk4_velocity_calls", "count", "lower", "count", "models.rk4_velocity_calls"),
        ("models.flow_jet.s", "s", "lower", "self_s", "models.flow_jet"),
    ]
    for layer in API_LAYERS:
        rows += [(f"{layer}.calls", "count", "lower", "count", f"{layer}.calls"),
                 (f"{layer}.s", "s", "lower", "self_s", layer)]
    for suite in SUITE_NAMES:
        rows.append((f"suites.{suite}.s", "s", "lower", "self_s", f"suites.{suite}"))
    rows += [
        ("suites.checks", "count", "higher", "run", "suites.checks"),
        ("suites.checks_failed", "count", "lower", "run", "suites.checks_failed"),
        ("report.to_json_s", "s", "lower", "self_s", "report.to_json"),
        ("report.json_bytes", "B", "lower", "count", "report.json_bytes"),
        ("trace.overhead_s", "s", "lower", "run", "trace.overhead_s"),
    ]
    return tuple(rows)


PER_LAYER = _catalog()


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "pbhverify" or n.startswith("pbhverify."))]


def _counted(counts, key, fn):
    def traced(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return traced


def _spanned(tracer, key, fn, count=".calls"):
    counts = tracer.counts

    def traced(*args, **kwargs):
        counts[key + count] += 1
        return tracer.span(key, fn, *args, **kwargs)

    return traced


def _product_work(a, b):
    """Floating-point operations and bytes written by one Jet x Jet product:
    the gathered factors, their product, its scaling by the Leibniz
    coefficients, and the ``reduceat`` sum into the output.  Complex
    arithmetic counts 6 flops per complex product, 2 per complex-by-real
    product and 2 per complex sum."""
    sp = a.space
    nnz, n = len(sp.prod_a), sp.n
    sa, sb = a.c.shape[:-1], b.c.shape[:-1]
    batch = math.prod(_broadcast(sa, sb))
    ca, cb = a.c.dtype.kind == "c", b.c.dtype.kind == "c"
    cplx = ca or cb
    prod_flops = 6 if ca and cb else 2 if cplx else 1
    flops = batch * (nnz * prod_flops + nnz * (2 if cplx else 1)
                     + (nnz - n) * (2 if cplx else 1))
    out_item = 16 if cplx else 8
    nbytes = (math.prod(sa) * nnz * a.c.itemsize + math.prod(sb) * nnz * b.c.itemsize
              + 2 * batch * nnz * out_item + batch * n * out_item)
    return flops, nbytes


def _broadcast(sa, sb):
    if sa == sb:
        return sa
    import numpy as np
    return np.broadcast_shapes(sa, sb)
