"""Span tracing of the cycloring layers from outside the library.

``Tracer.install`` replaces each public layer function with a timing wrapper
on every module-namespace binding that refers to it, so calls that one
module makes into another through a name it imported (``scaled_inverse``
calls ``ring_mul`` that way) are seen as child spans. Spans carry the id of
the request the benchmark is serving; they stay in memory and are written
once, when the benchmark ends. ``uninstall`` restores the original bindings.

Self time of a span is its duration minus the durations of its direct
children; busy time is the sum of durations.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# layer (package module) -> public functions timed in that layer
LAYERS = {
    "poly": ("IntPoly.mul", "divrem", "exact_div", "resultant_bezout"),
    "cyclotomic": ("make_modulus", "reduce", "ring_mul", "monomial_reduce",
                   "reduction_matrix", "kron_check"),
    "scaled_inverse": ("construct_scaled_inverse", "generic_scaled_inverse",
                       "norm_profile"),
    "structure": ("diff_quotient_coeffs", "high_monomial_form",
                  "residue_class_pattern", "rev_symmetry_check",
                  "inflated_pattern_check"),
    "expansion": ("max_expansion_factor", "monomial_expansion_factor",
                  "randomized_expansion_check"),
    "cli": ("main",),
}
SUITES = ("lemmas", "theorems", "matrix", "expansion")

# Metrics of the per_layer list in BENCHMARK.json: the spans every workload
# reaches. The rest of the table is printed, not gated.
GATED_FUNCTIONS = ("IntPoly.mul", "make_modulus", "reduce", "ring_mul",
                   "monomial_reduce", "construct_scaled_inverse")
GATED_LAYERS = ("poly", "cyclotomic", "scaled_inverse")


def span_name(layer: str, fn: str) -> str:
    return "cli.main" if layer == "cli" else fn


class Tracer:
    def __init__(self):
        self.spans = []        # (request, span, parent, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, busy, self
        self.checks = [0, 0]   # verify checks attempted, passed
        self.request = 0
        self._stack = []       # [span id, child seconds] per open span
        self._next_id = 0
        self.hits = 0          # make_modulus cache hits while installed
        self._restore = []
        self._hits0 = 0

    def _wrap(self, name, fn):
        stack, stats, spans = self._stack, self.stats, self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [self._next_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((self.request, frame[0], parent, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, orig, wrapper):
        for mod in [m for n, m in sys.modules.items()
                    if n == "cycloring" or n.startswith("cycloring.")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((setattr, mod, attr, orig))

    def install(self):
        import cycloring.cli  # noqa: F401  (loads every layer module)
        from cycloring import cyclotomic, poly, verify
        self._hits0 = cyclotomic.make_modulus.cache_info().hits
        for layer, fns in LAYERS.items():
            mod = sys.modules[f"cycloring.{layer}"]
            for fn in fns:
                name = span_name(layer, fn)
                if fn == "IntPoly.mul":
                    orig = poly.IntPoly.__mul__
                    wrapper = self._wrap(name, orig)
                    for attr in ("__mul__", "__rmul__"):
                        setattr(poly.IntPoly, attr, wrapper)
                        self._restore.append((setattr, poly.IntPoly, attr, orig))
                    continue
                orig = getattr(mod, fn)
                self._rebind(orig, self._wrap(name, orig))
        for suite in SUITES:
            orig = verify._SUITES[suite]
            verify._SUITES[suite] = self._wrap_suite(suite, orig)
            self._restore.append((dict.__setitem__, verify._SUITES, suite, orig))

    def _wrap_suite(self, suite, fn):
        timed = self._wrap(f"verify.{suite}", fn)

        def run_suite(*args):
            results = timed(*args)
            self.checks[0] += len(results)
            self.checks[1] += sum(r.passed for r in results)
            return results

        return run_suite

    def uninstall(self):
        for setter, obj, attr, orig in reversed(self._restore):
            setter(obj, attr, orig)
        self._restore.clear()
        from cycloring import cyclotomic
        self.hits += cyclotomic.make_modulus.cache_info().hits - self._hits0

    def table(self) -> dict:
        """Every per-layer figure: F.calls / F.busy_s / F.self_s per function,
        layer self time, verify suites and checks, make_modulus cache hits."""
        out = {}
        for layer, fns in LAYERS.items():
            layer_self = 0.0
            for fn in fns:
                name = span_name(layer, fn)
                calls, busy, own = self.stats.get(name, (0, 0.0, 0.0))
                out[f"{name}.calls"] = calls
                out[f"{name}.busy_s"] = busy
                out[f"{name}.self_s"] = own
                layer_self += own
            out[f"{layer}.self_s"] = layer_self
        for suite in SUITES:
            out[f"verify.{suite}.s"] = self.stats.get(f"verify.{suite}", (0, 0.0))[1]
        out["verify.self_s"] = sum(self.stats.get(f"verify.{suite}", (0, 0.0, 0.0))[2]
                                   for suite in SUITES)
        out["verify.checks_attempted"], out["verify.checks_passed"] = self.checks
        out["make_modulus.hits"] = self.hits
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        """Write the spans as JSON lines: request, span, parent, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge_tables(tables) -> dict:
    out = defaultdict(int)
    for table in tables:
        for key, val in table.items():
            out[key] += val
    return dict(out)
