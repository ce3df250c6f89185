"""Spans around the calls into grasscode's modules, from outside the library.

install() rebinds selected functions in the grasscode module namespaces to
wrappers that record a span per call: name, start, end, parent span and
operation id (the id of the enclosing top-level `bench.*` span).  Some
wrappers also record counts computed from argument and result shapes.
Spans stay in memory until write().  A layer's self time is its span's
duration minus the time its child spans cover.  span_cost() measures what
one span adds to a call, for the overhead estimate.

Nothing in src/ is edited; the rebinding lasts for the process.
"""

import contextlib
import functools
import json
import os
import statistics
import sys
import time


class Tracer:
    "in-memory span recorder for one single-threaded process"

    def __init__(self):
        self.spans = []      # [id, parent, op, name, start, end, counts]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        "record a span; yields its dict of counts for the caller to fill"
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent][2] if parent is not None else sid
        rec = [sid, parent, op, name, time.perf_counter(), None, {}]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec[6]
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter()

    def summary(self):
        "self seconds per span name and summed counts"
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = {}
        counts = {}
        for sid, _, _, name, start, end, cnt in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[sid]
            for key, val in cnt.items():
                counts[key] = counts.get(key, 0) + val
        return {"self_s": self_s, "counts": counts, "spans": len(self.spans)}

    def write(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "counts")
        with open(path, "w") as fp:
            json.dump([dict(zip(keys, rec)) for rec in self.spans], fp)


def _pairs(N, m):
    "ordered pairs and overlap bytes (complex128 m x m per pair), computed"
    return {"core_linalg.pairs": N * N,
            "core_linalg.overlap_bytes": 16 * N * N * m * m}


def _code_counts(args, kwargs, res):
    return _pairs(len(args[0]), args[0].m)


def _code_check_counts(args, kwargs, res):
    return _pairs(len(res), res.m)


def _relation_counts(args, kwargs, res):
    k, N = res.n_classes, args[0].N
    return {"analysis.classes": k,
            "analysis.relation_flops": k * (k + 1) // 2 * 2 * N ** 3}


# (module, attribute, span name, counts(args, kwargs, result) or None,
#  namespaces to rebind in, or None for every grasscode module holding it)
PATCHES = [
    ("grasscode.io", "read_code", "io.read", None, None),
    ("grasscode.io", "write_code", "io.write",
     lambda a, k, r: {"io.file_bytes": os.path.getsize(a[1])}, None),
    ("grasscode.constructions", "extraspecial_code", "constructions.build",
     lambda a, k, r: {"constructions.members": len(r)}, None),
    ("grasscode.constructions", "mub_code", "constructions.build",
     lambda a, k, r: {"constructions.members": len(r)}, None),
    ("grasscode.constructions", "pauli_code", "constructions.build",
     lambda a, k, r: {"constructions.members": len(r)}, None),
    # the duplicate check a construction runs when it makes its Code
    ("grasscode.core_linalg", "Code", "core_linalg.code_check",
     _code_check_counts, ["grasscode.constructions"]),
    # Code's own duplicate check calls gram_matrix inside core_linalg; only
    # the analysis consumers are timed as core_linalg.gram
    ("grasscode.core_linalg", "gram_matrix", "core_linalg.gram",
     _code_counts, ["grasscode.analysis"]),
    ("grasscode.core_linalg", "principal_angles",
     "core_linalg.principal_angles",
     lambda a, k, r: {"core_linalg.principal_angles_calls": 1}, None),
    ("grasscode.analysis", "pair_angle_matrix", "analysis.pair_angle_matrix",
     _code_counts, None),
    ("grasscode.analysis", "angle_classes", "analysis.angle_classes", None,
     None),
    ("grasscode.analysis", "inner_product_classes",
     "analysis.inner_product_classes", None, None),
    ("grasscode.analysis", "design_strength", "analysis.design_strength",
     None, None),
    ("grasscode.analysis", "check_scheme", "analysis.check_scheme",
     _relation_counts, None),
    ("grasscode.analysis", "scheme_idempotents",
     "analysis.scheme_idempotents", None, None),
    ("grasscode.analysis", "is_one_design", "analysis.is_one_design", None,
     None),
    ("grasscode.analysis", "is_two_design", "analysis.is_two_design",
     lambda a, k, r: {"analysis.two_design_bytes": 16 * a[0].n ** 4}, None),
    ("grasscode.sympoly", "SymmetricPolynomial.eval_batch",
     "sympoly.eval_batch",
     lambda a, k, r: {"sympoly.eval_points": len(a[1])}, None),
    ("grasscode.zonal", "zonal_basis", "zonal.basis",
     lambda a, k, r: {"zonal.basis_size": len(r)}, None),
    ("grasscode.zonal", "expand_in_zonal", "zonal.expand", None, None),
    ("grasscode.zonal", "ZonalExpansion.reconstruct", "zonal.expand", None,
     None),
    ("grasscode.bounds", "relative_code_bound", "bounds.relative_code_bound",
     None, None),
    ("grasscode.zonal", "mc_zonal_inner", "zonal.mc", None, None),
]


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        with tracer.span(name) as cnt:
            res = fn(*args, **kwargs)
            if counter is not None:
                cnt.update(counter(args, kwargs, res))
            return res
    return traced


def _wrap_generator(tracer, fn, name):
    "a generator function whose every step is a span"
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item
    return traced


def span_cost(calls=20000, batches=5):
    """Seconds that tracing adds to one call: a traced no-op against the
    bare no-op, median over batches.  Times the span count gives the
    tracing overhead of a run."""
    def noop():
        return None
    traced = _wrap(Tracer(), noop, "noop", None)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return max(statistics.median(costs), 0.0)


def install(tracer):
    "rebind every entry of PATCHES, and the Haar sampler, to traced wrappers"
    import grasscode  # noqa: F401  (loads every submodule)
    mods = {k: v for k, v in sys.modules.items()
            if k == "grasscode" or k.startswith("grasscode.")}
    for modname, attr, name, counter, where in PATCHES:
        owner = mods[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(tracer, getattr(cls, meth), name, counter))
            continue
        orig = getattr(owner, attr)
        wrapped = _wrap(tracer, orig, name, counter)
        for target in where or list(mods):
            if getattr(mods[target], attr, None) is orig:
                setattr(mods[target], attr, wrapped)
    # the Haar sampler behind mc_zonal_inner is a private generator
    zonal = mods["grasscode.zonal"]
    zonal._angle_batch = _wrap_generator(tracer, zonal._angle_batch,
                                         "zonal.haar_batch")
