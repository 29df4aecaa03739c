"""Span tracer that patches mbzero's layer functions from outside the package.

A traced function is replaced, in every ``mbzero`` module namespace that
holds it, by a wrapper that records one span per call: name, start, end
and parent. Replacing every binding matters because some modules call
through a module attribute (``sf.log_gamma``) and others bind the function
by name (``operatorlab`` imports ``bessel_K`` and ``rk_adaptive``). Calls
that resolve through module globals (the ``scan_zeros`` step-halving
recursion) go through the wrapper too, so re-entrant calls are counted.

Spans stay in memory, in typed arrays, and are written out when the run
ends. Aggregates are kept per name while the spans are recorded:

* ``calls``: number of calls;
* ``total``: inclusive time of the outermost calls (a re-entrant call is
  inside its caller's interval and is not counted again);
* ``self``: duration minus the time covered by the span's direct children;
* ``nested``: calls made while a call of the same name was active;
* ``count``: a per-name work counter (points, zeros, bytes).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import numpy as np

TRACED = (
    # (module, attribute, counter); the metric name is "<module>.<attribute>"
    ("specfun", "log_gamma", None),
    ("specfun", "zeta_vec", "points"),
    ("specfun", "dirichlet_beta_vec", "points"),
    ("specfun", "zeta", None),
    ("specfun", "arg_zeta_rectangle", None),
    ("specfun", "riemann_siegel_theta", None),
    ("specfun", "digamma", None),
    ("specfun", "completed_xi", None),
    ("mbfilter", "mb_integral", None),
    ("mbfilter", "_kernel_integrand", "integral_points"),
    ("mbfilter", "contour_shift_delta", None),
    ("mbfilter", "newton_filter_root", None),
    ("mbfilter", "spectral_filter", None),
    ("mbfilter", "newton_root_dd", None),
    ("zerocensus", "scan_zeros", "records"),
    ("zerocensus", "n_H_guinand_weil", None),
    ("zerocensus", "bijection_audit", None),
    ("zerocensus", "s_grid", None),
    ("zerocensus", "catalog_store", None),
    ("zerocensus", "catalog_load", "file_bytes"),
    ("bessel", "bessel_K", None),
    ("operatorlab", "eigenfunction_L2_classifier", None),
    ("operatorlab", "prufer_integrate", None),
    ("operatorlab", "deficiency_divergence_check", None),
    ("quadrature", "rk_adaptive", None),
    ("spectrostats", "oscillatory_density", None),
    ("spectrostats", "unfold", None),
    ("audit", "ledger_json", None),
)


class Stat:
    __slots__ = ("calls", "total", "self", "nested", "count", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.nested = 0
        self.count = 0
        self.depth = 0


class Tracer:
    """Records spans of wrapped calls; one tracer serves one thread."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict = {}
        self._stack: list = []  # [span id, time covered by direct children]
        self._patches: list = []  # (namespace dict, key, original)

    # -- recording ---------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def reset_stats(self) -> None:
        """Start a new aggregation window; recorded spans are kept."""
        if self._stack:
            raise RuntimeError("reset_stats inside an open span")
        self.stats = {}

    def wrap(self, name: str, fn, counter=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.stat(name)
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            outermost = st.depth == 0
            st.depth += 1
            span_start.append(0.0)
            span_end.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.depth -= 1
                span_start[sid] = t0
                span_end[sid] = t1
                dur = t1 - t0
                st.calls += 1
                st.self += dur - frame[1]
                if outermost:
                    st.total += dur
                else:
                    st.nested += 1
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                st.count += counter(tracer, args, result, outermost)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def patch(self) -> None:
        """Wrap every function in TRACED and every claims.REGISTRY entry."""
        if self._patches:
            raise RuntimeError("tracer already patched")
        from mbzero import claims

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "mbzero" or k.startswith("mbzero.")]
        try:
            for mod_name, attr, counter in TRACED:
                original = getattr(sys.modules["mbzero." + mod_name], attr)
                wrapper = self.wrap(f"{mod_name}.{attr}", original,
                                    COUNTERS[counter] if counter else None)
                for mod in modules:
                    space = vars(mod)
                    for key, value in list(space.items()):
                        if value is original:
                            self._patches.append((space, key, original))
                            space[key] = wrapper
            for claim_id, fn in list(claims.REGISTRY.items()):
                self._patches.append((claims.REGISTRY, claim_id, fn))
                claims.REGISTRY[claim_id] = self.wrap(f"claims.{claim_id}", fn)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original object back where ``patch`` found it."""
        while self._patches:
            space, key, original = self._patches.pop()
            space[key] = original

    # -- output ------------------------------------------------------------

    def write(self, directory: str) -> None:
        """Write the recorded spans (npz) and the last window's aggregates."""
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(
            os.path.join(directory, "trace_spans.npz"),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        summary = {name: {"calls": st.calls, "total_s": st.total,
                          "self_s": st.self, "nested": st.nested,
                          "count": st.count}
                   for name, st in sorted(self.stats.items())}
        with open(os.path.join(directory, "trace_summary.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _points(tracer, args, result, outermost):
    return int(np.size(args[0]))


def _integral_points(tracer, args, result, outermost):
    # quadrature nodes evaluated on behalf of an mb_integral call
    st = tracer.stats.get("mbfilter.mb_integral")
    return int(np.size(args[1])) if st is not None and st.depth else 0


def _records(tracer, args, result, outermost):
    return len(result) if outermost else 0


def _file_bytes(tracer, args, result, outermost):
    return os.path.getsize(args[0])


COUNTERS = {
    "points": _points,
    "integral_points": _integral_points,
    "records": _records,
    "file_bytes": _file_bytes,
}
