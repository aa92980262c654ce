"""Spans and counters around the public functions of each ``affopers`` layer.

The tracer patches module and class attributes from outside the package,
so no file under ``src/`` changes.  A function is wrapped at every attribute
through which the program calls it (``miura`` imports ``quasi_canonicalize``
by name, ``integrate`` imports ``advance_logs`` by name), and each wrapper
calls the original function, so a call is recorded once whichever binding
it went through.

Two kinds of wrappers:

* a *span* records count, inclusive time and self time (inclusive time minus
  the inclusive time of the spans it directly encloses);
* a *counter* records the call count only, for hot arithmetic methods where
  a span would cost more than the call.

Recording happens only while ``Tracer.on`` is true, so correctness checks
that run between timed calls leave the figures untouched.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

from affopers import (affine_algebra, coeffs, contour, integrate, miura,
                      oper_core)

# (owners, attribute, metric name); owners lists every binding the program
# calls through
_SPANS = [
    ((affine_algebra.GradedVector,), "bracket", "affine_algebra.bracket"),
    ((oper_core, miura), "quasi_canonicalize",
     "oper_core.quasi_canonicalize"),
    ((oper_core, miura), "gauge_transform", "oper_core.gauge_transform"),
    ((oper_core,), "change_coordinate", "oper_core.change_coordinate"),
    ((miura,), "build_miura", "miura.build_miura"),
    ((miura,), "regularity_check", "miura.regularity_check"),
    ((miura,), "bethe_residuals", "miura.bethe_residuals"),
    ((contour,), "pochhammer", "contour.pochhammer"),
    ((integrate,), "twisted_integral", "integrate.twisted_integral"),
]
_COUNTERS = [
    ((coeffs.RationalFunction,), "__mul__", "coeffs.rf_mul"),
    ((coeffs.RationalFunction,), "__add__", "coeffs.rf_add"),
    ((coeffs.Polynomial,), "divide_linear", "coeffs.divide_linear"),
    ((coeffs.RationalFunction,), "eval_complex", "coeffs.eval_complex"),
    ((contour, integrate), "advance_logs", "contour.advance_logs"),
]


class Tracer:
    """Aggregated spans and counts, plus the raw spans of one round."""

    def __init__(self, keep_spans=False):
        self.on = False
        self.keep_spans = keep_spans
        self.case = None            # identifier shared by one case's spans
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.panels = 0
        self.over_tol = 0
        self.spans = []             # (case, id, parent id, name, t0, t1)
        self._stack = []            # [span id, child time]
        self._next_id = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owners, attr, name in _SPANS:
            self._wrap(owners, attr, name, self._span)
        for owners, attr, name in _COUNTERS:
            self._wrap(owners, attr, name, self._counter)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, owners, attr, name, factory):
        original = getattr(owners[0], attr)
        wrapper = factory(name, original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                   f"function the other bindings hold")
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _leave(self, name, frame, parent, t0, t1):
        self._stack.pop()
        dt = t1 - t0
        self.counts[name] += 1
        self.inclusive[name] += dt
        self.self_time[name] += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt
        if self.keep_spans:
            self.spans.append((self.case, frame[0], parent, name, t0, t1))

    def _span(self, name, fn):
        tracer = self
        record = self._result_hook(name, fn)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame, parent = tracer._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, parent, t0, time.perf_counter())
            if record is not None:
                record(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _result_hook(self, name, fn):
        """Work counts read off a call's result: gauge factors per reduction,
        panels and over-tolerance errors per integral."""
        if name == "oper_core.quasi_canonicalize":
            def record(qc, args, kwargs):
                self.counts["oper_core.gauge_factors"] += len(qc.gauge)
            return record
        if name == "integrate.twisted_integral":
            signature = inspect.signature(fn)

            def record(res, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.panels += res.panels
                if res.err > bound.arguments["abs_tol"]:
                    self.over_tol += 1
            return record
        return None

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ---------------------------------------------------------

    def snapshot(self):
        """Copy of the aggregates, for taking differences between rounds."""
        return {
            "counts": dict(self.counts),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "panels": self.panels,
            "over_tol": self.over_tol,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for case, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"case": case, "id": sid,
                                     "parent": parent, "name": name,
                                     "t0": t0, "t1": t1}) + "\n")


def per_layer_metrics(first_round, all_rounds, rounds):
    """Per-layer figures for one round of the case list.

    Counts come from the first round alone, so they are exact integers that
    do not depend on how many rounds fitted in the run; times are the mean
    over all rounds.  Both arguments are ``Tracer.snapshot`` dictionaries.
    """
    c1 = first_round["counts"]
    inc = all_rounds["inclusive"]
    own = all_rounds["self"]

    def per_round(x):
        return x / rounds

    twisted = inc.get("integrate.twisted_integral", 0.0)
    panels_all = all_rounds["panels"]
    out = {
        "affine_algebra.bracket_calls": (c1.get("affine_algebra.bracket", 0),
                                         "count"),
        "affine_algebra.bracket_s": (per_round(inc.get(
            "affine_algebra.bracket", 0.0)), "s"),
        "oper_core.quasi_canonicalize_s": (per_round(own.get(
            "oper_core.quasi_canonicalize", 0.0)), "s"),
        "oper_core.reductions": (c1.get("oper_core.quasi_canonicalize", 0),
                                 "count"),
        "oper_core.gauge_factors": (c1.get("oper_core.gauge_factors", 0),
                                    "count"),
        "oper_core.gauge_transform_s": (per_round(inc.get(
            "oper_core.gauge_transform", 0.0)), "s"),
        "oper_core.change_coordinate_s": (per_round(inc.get(
            "oper_core.change_coordinate", 0.0)), "s"),
        "miura.build_miura_s": (per_round(inc.get(
            "miura.build_miura", 0.0)), "s"),
        "miura.regularity_check_s": (per_round(own.get(
            "miura.regularity_check", 0.0)), "s"),
        "miura.bethe_residuals_s": (per_round(inc.get(
            "miura.bethe_residuals", 0.0)), "s"),
        "coeffs.rf_mul_calls": (c1.get("coeffs.rf_mul", 0), "count"),
        "coeffs.rf_add_calls": (c1.get("coeffs.rf_add", 0), "count"),
        "coeffs.divide_linear_calls": (c1.get("coeffs.divide_linear", 0),
                                       "count"),
        "coeffs.eval_complex_calls": (c1.get("coeffs.eval_complex", 0),
                                      "count"),
        "contour.advance_logs_calls": (c1.get("contour.advance_logs", 0),
                                       "count"),
        "contour.pochhammer_s": (per_round(inc.get(
            "contour.pochhammer", 0.0)), "s"),
        "integrate.twisted_integral_s": (per_round(own.get(
            "integrate.twisted_integral", 0.0)), "s"),
        "integrate.panels": (first_round["panels"], "count"),
        "integrate.panel_us": (1e6 * twisted / panels_all
                               if panels_all else 0.0, "us"),
        "integrate.over_tol": (first_round["over_tol"], "count"),
    }
    return out
