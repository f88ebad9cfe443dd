"""Spans around sepkit's coarse public entry points, recorded from outside.

The tracer wraps module attributes (and ``GhzWeights.__post_init__``, the
weight validation every constructor runs) while a traced pass runs, and
restores them afterwards. Per-bipartition helpers such as
``pt_positive_analytic`` and ``qubits_to_mask`` are deliberately not
wrapped: one n = 14 classify calls them about a million times and the
wrapper would dominate the trace.

A span is (name, start, end, parent span, operation id). A layer's self
time is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


def _file_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    tracer.counts["stateio.load_state.bytes"] += Path(path).stat().st_size


def _report_bytes(tracer, args, kwargs, result):
    tracer.counts["stateio.dump_report.bytes"] += (
        len(result) if result.isascii() else len(result.encode())
    )


def _m_star(tracer, args, kwargs, result):
    if result is not None:
        tracer.peak("distill.minimal_m.m_star_max", result)


def _oracle_bytes(tracer, args, kwargs, result):
    m = args[1] if len(args) > 1 else kwargs["m"]
    tracer.peak("distill.dense_filter_oracle.bytes", 16 * 8 ** (2 * m))


def _ensemble(tracer, args, kwargs, result):
    tracer.counts["witness.ensembles"] += 1


def _cap_error(tracer, exc):
    if type(exc).__name__ == "FilterCapReachedError":
        tracer.counts["distill.cap_errors"] += 1


# (span name, [(module, attribute path)], hook on return, hook on raise).
# Names imported by value into other modules are patched there too, e.g.
# sepkit.cli imports depolarize and family_density by name.
LAYERS = (
    ("cli.classify", [("sepkit.cli", "cmd_classify")], None, None),
    ("cli.depolarize", [("sepkit.cli", "cmd_depolarize")], None, None),
    ("cli.distill", [("sepkit.cli", "cmd_distill")], None, None),
    ("cli.witness", [("sepkit.cli", "cmd_witness")], None, None),
    ("cli.threshold", [("sepkit.cli", "cmd_threshold")], None, None),
    ("stateio.load_state", [("sepkit.stateio", "load_state")], _file_bytes, None),
    ("stateio.dump_report", [("sepkit.stateio", "dump_report")], _report_bytes, None),
    ("family.depolarize", [("sepkit.family", "depolarize"), ("sepkit.cli", "depolarize")], None, None),
    (
        "family.weights",
        [
            ("sepkit.family", "werner_like"),
            ("sepkit.family", "random_weights"),
            ("sepkit.family", "GhzWeights.__post_init__"),
        ],
        None,
        None,
    ),
    (
        "family.family_density",
        [
            ("sepkit.family", "family_density"),
            ("sepkit.classify", "family_density"),
            ("sepkit.distill", "family_density"),
            ("sepkit.witness", "family_density"),
            ("sepkit.cli", "family_density"),
        ],
        None,
        None,
    ),
    ("classify.classify_family", [("sepkit.classify", "classify_family")], None, None),
    (
        "classify.pair_distillable",
        [("sepkit.classify", "pair_distillable"), ("sepkit.distill", "pair_distillable")],
        None,
        None,
    ),
    ("distill.plan_pair_distillation", [("sepkit.distill", "plan_pair_distillation")], None, None),
    ("distill.minimal_m", [("sepkit.distill", "minimal_m")], _m_star, _cap_error),
    ("distill.amplify", [("sepkit.distill", "amplify")], None, None),
    ("distill.dense_filter_oracle", [("sepkit.distill", "dense_filter_oracle")], _oracle_bytes, None),
    ("witness.build_rho_tilde", [("sepkit.witness", "build_rho_tilde")], None, None),
    ("witness.fully_separable_ensemble", [("sepkit.witness", "fully_separable_ensemble")], _ensemble, None),
    ("witness.verify_ensemble", [("sepkit.witness", "verify_ensemble")], None, None),
    ("tensor.partial_transpose", [("sepkit.tensor", "partial_transpose")], None, None),
    ("tensor.min_eigenvalue", [("sepkit.tensor", "min_eigenvalue")], None, None),
)

# Layers whose call count is a per-layer metric.
COUNTED = ("classify.classify_family", "classify.pair_distillable")


def _resolve(module: str, path: str):
    """(owner object, attribute name), or None when the program lacks it."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder; ``active`` only while an operation runs."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.active = False
        self.op_id = None
        self._stack: list = []
        self._patches = []
        for name, targets, on_return, on_raise in LAYERS:
            for module, path in targets:
                found = _resolve(module, path)
                if found is not None:
                    owner, attr = found
                    original = vars(owner)[attr]
                    wrapped = self._wrap(name, original, on_return, on_raise)
                    self._patches.append((owner, attr, original, wrapped))

    def peak(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _wrap(self, name, fn, on_return, on_raise):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[1], span[2] = start, time.perf_counter()
                if on_raise is not None:
                    on_raise(self, exc)
                raise
            finally:
                self._stack.pop()
            span[1], span[2] = start, time.perf_counter()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass self times and counts, keyed by per-layer metric name."""
        totals = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        metrics = {f"{name}.s": totals.get(name, 0.0) / passes for name, *_ in LAYERS}
        metrics.update({f"{name}.calls": calls[name] / passes for name in COUNTED})
        for key in ("stateio.load_state.bytes", "stateio.dump_report.bytes",
                    "distill.cap_errors", "witness.ensembles"):
            metrics[key] = self.counts[key] / passes
        for key in ("distill.minimal_m.m_star_max", "distill.dense_filter_oracle.bytes"):
            metrics[key] = self.maxima.get(key, 0)
        return metrics

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
