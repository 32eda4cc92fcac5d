"""Per-layer spans for the benchmark's traced run.

Each public function of a stabkit layer module is wrapped under every name
a caller looks it up by (``stabkit.verdict.jacobian`` and
``stabkit.synthesis.jacobian`` both point at the wrapper of
``stabkit.system.jacobian``).  Nothing inside ``src/`` is edited, and the
untraced run installs no wrappers at all.

A span is recorded at a layer boundary only: a call made from inside an
open span of the same module passes straight through, which keeps the
recursive tree walks (``eval_tangent``, ``eval_expr``) and the parser's
node helpers down to one span per top-level call.  ``INNER_SPANS`` lists the
few same-module calls that are layers of their own in the metrics.

Spans are ``(name, start, end, parent, op, ok)`` tuples kept in memory and
turned into metrics when the run ends.  Calls of the vectorized field that
``expr.compile_field`` returns are far too many for spans (about a quarter
of a million per validation), so they are counted per enclosing span name.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "expr", "system", "openness", "linalg", "hautus",
          "verdict", "synthesis", "sim", "report")
INNER_SPANS = frozenset({
    "synthesis.staircase_decompose",
    "synthesis.place_poles",
    "linalg.singular_values",
})


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.field: dict[str, list[float]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._names: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function under every name it is reachable by."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"stabkit.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        for name, module in list(sys.modules.items()):
            if name != "stabkit" and not name.startswith("stabkit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, names = self.spans, self._stack, self._names
        always = name in INNER_SPANS
        prefix = layer + "."
        is_compile = name == "expr.compile_field"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if names and not always and names[-1].startswith(prefix):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            names.append(name)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                names.pop()
                spans[index] = (name, start, end, parent, self.op, ok)
            return self._count_field(result) if is_compile else result

        return wrapper

    def _count_field(self, field):
        names, counters = self._names, self.field

        def counted(x, u):
            start = perf_counter()
            out = field(x, u)
            elapsed = perf_counter() - start
            key = names[-1] if names else "-"
            rec = counters.get(key)
            if rec is None:
                rec = counters[key] = [0, 0, 0.0]
            rec[0] += 1
            rec[1] += out.size // out.shape[-1] if out.ndim and out.shape[-1] else 1
            rec[2] += elapsed
            return out

        return counted

    # -- export ------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans if s is not None],
                "field": {k: list(v) for k, v in self.field.items()}}


def merge(dumps: list[dict]) -> dict:
    """Combine span dumps; each dump's op ids are offset to stay distinct."""
    spans: list[list] = []
    field: dict[str, list[float]] = {}
    for k, dump in enumerate(dumps):
        base = len(spans)
        for name, start, end, parent, op, ok in dump["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1,
                          f"{k}:{op}", ok])
        for key, (calls, rows, secs) in dump["field"].items():
            rec = field.setdefault(key, [0, 0, 0.0])
            rec[0] += calls
            rec[1] += rows
            rec[2] += secs
    return {"spans": spans, "field": field}


def layer_metrics(dump: dict, ops: int, states_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass.

    Times and call counts are per workload operation, so passes of
    different lengths compare; ``states_bytes`` is the computed size of the
    trajectory arrays of one validation, supplied by the workload.
    """
    spans = dump["spans"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    fails: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, ok in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if not ok:
            fails[name] = fails.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    analyze_self = sum(end - start - child_time[i]
                       for i, (name, start, end, *_rest) in enumerate(spans)
                       if name == "verdict.analyze")
    field = dump["field"]
    field_calls = sum(v[0] for v in field.values())
    field_rows = sum(v[1] for v in field.values())
    field_secs = sum(v[2] for v in field.values())
    per_op = 1.0 / max(ops, 1)

    def ms(*names: str) -> float:
        return 1e3 * per_op * sum(total.get(n, 0.0) for n in names)

    def n_calls(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    validations = n_calls("sim.verify_local_stability")
    coverings = n_calls("openness.empirical_covering_modulus")
    sim_field = field.get("sim.verify_local_stability", [0, 0, 0.0])[0]
    cov_field = field.get("openness.empirical_covering_modulus", [0, 0, 0.0])[0]
    return {
        "expr.parse_ms": (ms("expr.parse_expr"), "ms/op"),
        "expr.tangent_calls": (per_op * n_calls("expr.eval_tangent"), "calls/op"),
        "expr.compile_ms": (ms("expr.compile_field"), "ms/op"),
        "expr.compile_calls": (per_op * n_calls("expr.compile_field"), "calls/op"),
        "expr.field_calls": (per_op * field_calls, "calls/op"),
        "expr.field_rows": (per_op * field_rows, "rows/op"),
        "expr.field_us_per_call": (1e6 * field_secs / field_calls if field_calls else 0.0, "us"),
        "system.jacobian_ms": (ms("system.jacobian"), "ms/op"),
        "system.jacobian_calls": (per_op * n_calls("system.jacobian"), "calls/op"),
        "system.affine_ms": (ms("system.detect_control_affine", "system.span_dimension_estimate",
                                "system.is_affine_system"), "ms/op"),
        "openness.report_ms": (ms("openness.openness_report"), "ms/op"),
        "linalg.svd_calls": (per_op * n_calls("linalg.singular_values"), "calls/op"),
        "linalg.svd_ms": (ms("linalg.singular_values"), "ms/op"),
        "linalg.spectrum_ms": (ms("linalg.spectrum"), "ms/op"),
        "hautus.spectral_ms": (ms("hautus.spectral_profile"), "ms/op"),
        "hautus.hautus_ms": (ms("hautus.hautus_asymptotic", "hautus.hautus_full_spectrum"), "ms/op"),
        "hautus.kalman_ms": (ms("hautus.kalman_controllability_rank"), "ms/op"),
        "verdict.analyze_ms": (ms("verdict.analyze"), "ms/op"),
        "verdict.analyze_self_ms": (1e3 * per_op * analyze_self, "ms/op"),
        "synthesis.synthesize_ms": (ms("synthesis.synthesize"), "ms/op"),
        "synthesis.staircase_ms": (ms("synthesis.staircase_decompose"), "ms/op"),
        "synthesis.place_ms": (ms("synthesis.place_poles"), "ms/op"),
        "synthesis.attempts": (n_calls("synthesis.synthesize"), "count"),
        "synthesis.failures": (fails.get("synthesis.synthesize", 0), "count"),
        "openness.covering_ms": (ms("openness.empirical_covering_modulus"), "ms/op"),
        "openness.covering_field_calls": (cov_field / coverings if coverings else 0.0, "calls/call"),
        "sim.validate_ms": (ms("sim.verify_local_stability"), "ms/op"),
        "sim.field_calls_per_validation": (sim_field / validations if validations else 0.0,
                                           "calls/call"),
        "sim.states_bytes_computed": (states_bytes, "bytes"),
        "report.build_ms": (ms("report.build_report"), "ms/op"),
        "report.json_ms": (ms("report.report_json"), "ms/op"),
        "report.text_ms": (ms("report.report_text"), "ms/op"),
    }
