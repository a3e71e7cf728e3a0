"""Span tracer that instruments rht from outside, by patching its namespaces.

A span wraps one call into a public function or method of an rht layer and
records its name, start, end and parent span.  Spans are kept in memory in
flat arrays and written out when the run ends.  A layer's self time is its
spans' durations minus the durations of their direct child spans.

Patching rules:

* A module-level function is replaced in *every* ``rht`` module namespace that
  binds the same function object, under whatever name it is bound there
  (``models`` imports ``is_quasi_isomorphism`` by name, ``verify`` imports
  ``cohomology`` as ``cohomology_of``).
* Modules are reached through ``sys.modules``: the attribute
  ``rht.cohomology`` is the *function* ``cohomology``, not the module.
* A method is replaced on the class that defines it, so subclasses that do not
  override it are covered too.

The three cache-backed lookups of ``FreeCdga`` (``basis``, ``mul_keys``,
``d_key``) run up to about a hundred thousand times per pass; they get
counters (calls, cache lookups, cache hits) instead of spans.  The hit test
reads the algebra's cache without changing it.
"""

from __future__ import annotations

import sys
import time
from array import array

_clock = time.perf_counter


def _rht_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rht" or name.startswith("rht."))]


def _rref_stats(tracer, idx, args, result):
    rows = args[0]
    st = tracer.stats["linalg.rref"]
    if rows:
        st["rows"] += len(rows)
        st["cells"] += len(rows) * len(rows[0])
        st["nnz"] += sum(1 for row in rows for x in row if x)
    st["pivots"] += len(result[1])


def _degree_keys(tracer, idx, args, result):
    tracer.stats["cohomology.degree"]["keys"] += len(args[0].keys)


def _model_generators(tracer, idx, args, result):
    tracer.stats["models"]["generators"] += len(result.algebra.gens)


def _verdict(tracer, idx, args, result):
    """Tag a decide/classify span with whether a certificate settled it."""
    tracer.tags[idx] = (getattr(result, "embeddable", None) is False
                        or getattr(result, "verdict", None) == "NotScalable")


def _slice_hit(tracer, args):
    if args[1] in args[0]._slices:
        tracer.stats["presentations.slice"]["hits"] += 1


# (span name, module, attribute path, hook after the call[, probe before it])
SPANS = [
    ("linalg.rref", "rht.linalg", "rref", _rref_stats),
    ("linalg.reduce_against", "rht.linalg", "reduce_against", None),
    ("linalg.kernel_of_columns", "rht.linalg", "kernel_of_columns", None),
    ("linalg.solve_columns", "rht.linalg", "solve_columns", None),
    ("linalg.symmetric_inertia", "rht.linalg", "symmetric_inertia", None),
    ("cdga.extend", "rht.cdga", "FreeCdga.extend", None),
    ("cdga.adopt", "rht.cdga", "FreeCdga.adopt", None),
    ("cdga.apply_terms", "rht.cdga", "DgaMorphism.apply_terms", None),
    ("cohomology.degree", "rht.cohomology", "DegreeCohomology.__init__",
     _degree_keys),
    ("cohomology.audit", "rht.cohomology", "is_quasi_isomorphism", None),
    ("presentations.slice", "rht.presentations", "RingPresentation._slice",
     None, _slice_hit),
    ("presentations.reduce_terms", "rht.presentations",
     "RingPresentation.reduce_terms", None),
    ("presentations.verify_duality", "rht.presentations",
     "RingPresentation.verify_duality", None),
    ("presentations.ring_init", "rht.presentations",
     "RingPresentation.__init__", None),
    ("models.minimal_model", "rht.models", "minimal_model", _model_generators),
    ("models.bigraded_model", "rht.models", "bigraded_model",
     _model_generators),
    ("homotopy.integrate", "rht.homotopy", "integrate_0_t", None),
    ("homotopy.integrate", "rht.homotopy", "integrate_0_1", None),
    ("homotopy.obstruction", "rht.homotopy", "obstruction_class", None),
    ("homotopy.massey", "rht.homotopy", "massey_triple", None),
    ("homotopy.whitehead", "rht.homotopy", "whitehead_pair", None),
    ("scalability.csum_ring", "rht.scalability", "ConnectedSumRing.__init__",
     None),
    ("scalability.family_ring", "rht.scalability", "omega_ring", None),
    ("scalability.family_ring", "rht.scalability", "sigma_ring", None),
    ("scalability.family_ring", "rht.scalability", "pi_ring", None),
    ("scalability.verify_witness", "rht.scalability", "verify_witness", None),
    ("scalability.decide", "rht.scalability", "decide_omega", _verdict),
    ("scalability.decide", "rht.scalability", "decide_sigma", _verdict),
    ("scalability.decide", "rht.scalability", "decide_pi", _verdict),
    ("scalability.classify", "rht.scalability", "classify", _verdict),
    ("fileformat.loads", "rht.fileformat", "loads", None),
    ("report.render", "rht.report", "Report.render_machine", None),
    ("report.render", "rht.report", "Report.render_human", None),
    ("cli.main", "rht.cli", "main", None),
]


def _basis_lookup(alg, degree):
    if degree < 0:
        return None
    return degree in alg._basis_cache


def _mul_lookup(alg, m1, m2):
    if not m1 or not m2:
        return None
    return (m1, m2) in alg._mul_cache


def _d_lookup(alg, mon):
    return mon in alg._d_cache


# (counter name, module, attribute path, cache probe returning None when the
# call does not consult the cache, else whether the cache holds the answer)
COUNTERS = [
    ("cdga.basis", "rht.cdga", "FreeCdga.basis", _basis_lookup),
    ("cdga.mul_keys", "rht.cdga", "FreeCdga.mul_keys", _mul_lookup),
    ("cdga.d_key", "rht.cdga", "FreeCdga.d_key", _d_lookup),
]


class Tracer:
    """Spans and counters of a run's traced passes; ``active`` gates recording."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tags = {}
        self.counters = {name: [0, 0, 0] for name, *_ in COUNTERS}
        self.stats = {"linalg.rref": {"rows": 0, "cells": 0, "nnz": 0,
                                      "pivots": 0},
                      "cohomology.degree": {"keys": 0},
                      "presentations.slice": {"hits": 0},
                      "models": {"generators": 0}}
        self.active = False
        self._stack = [-1]
        self._patches = []

    # -- patching ------------------------------------------------------------

    def install(self):
        for name, module, path, hook, *probe in SPANS:
            self._patch(module, path, lambda fn, n=name, h=hook, p=probe:
                        self._span_wrapper(n, fn, h, *p))
        for name, module, path, probe in COUNTERS:
            self._patch(module, path, lambda fn, n=name, p=probe:
                        self._counter_wrapper(n, fn, p))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, module, path, make):
        mod = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for m in _rht_modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def _span_wrapper(self, name, fn, hook, probe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(tracer, args)
            stack = tracer._stack
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = _clock()
                stack.pop()
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, name, fn, probe):
        tracer = self
        counts = self.counters[name]

        def counted(alg, *args):
            if tracer.active:
                counts[0] += 1
                hit = probe(alg, *args)
                if hit is not None:
                    counts[1] += 1
                    if hit:
                        counts[2] += 1
            return fn(alg, *args)

        counted.__wrapped__ = fn
        return counted

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        n = len(self.names)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        for i in range(n):
            dur = end[i] - start[i]
            row = out.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def outermost_seconds(self, name):
        """Inclusive seconds of ``name`` spans not nested in another one."""
        names, start, end, parent = self.names, self.start, self.end, self.parent
        total = 0.0
        for i, nm in enumerate(names):
            if nm != name:
                continue
            p = parent[i]
            while p >= 0 and names[p] != name:
                p = parent[p]
            if p < 0:
                total += end[i] - start[i]
        return total

    def verdicts(self):
        """(verdicts, certified, refuted ring-build seconds) over outermost
        decide/classify spans."""
        names, parent = self.names, self.parent
        verdict_names = ("scalability.decide", "scalability.classify")
        ring_names = ("scalability.family_ring", "scalability.csum_ring")
        outer = {}
        for i, nm in enumerate(names):
            if nm not in verdict_names:
                continue
            p = parent[i]
            while p >= 0 and names[p] not in verdict_names:
                p = parent[p]
            if p < 0:
                outer[i] = self.tags.get(i, False)
        wasted = 0.0
        for i, nm in enumerate(names):
            if nm not in ring_names:
                continue
            p = parent[i]
            nested_in_ring = False
            while p >= 0 and p not in outer:
                nested_in_ring = nested_in_ring or names[p] in ring_names
                p = parent[p]
            if p >= 0 and outer[p] and not nested_in_ring:
                wasted += self.end[i] - self.start[i]
        return len(outer), sum(outer.values()), wasted

    def write(self, path):
        """Spans as tab-separated ``index name start end parent`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, nm in enumerate(self.names):
                fh.write(f"{i}\t{nm}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\n")
