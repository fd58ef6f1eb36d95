"""In-memory tracing for the benchmark's replay.

Spans are recorded by the benchmark around each call it makes into a
layer's public function; nothing inside the program is instrumented.
Every span carries the id of the trial (or track frame) it belongs to and
the index of the span that caused it, so a layer's self time is its
duration minus the time its direct children cover.

Beside spans the tracer keeps plain observations (iterations, convergence
flags, normalised errors) taken from the return values at the same
boundaries, and failure reasons per estimator.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        # Each span: [name, trial id, parent index (-1 for a root), start, end].
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.reasons: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._trial = -1

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        """A span under the open one; pass `trial` to open a harness span
        for a new trial (or for one frame's share of a track)."""
        if trial is not None:
            self._trial = trial
        rec = [name, self._trial, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def note(self, name: str, value: float) -> None:
        self.values[name].append(float(value))

    def fail(self, tag: str, reason: str) -> None:
        self.reasons[tag][reason] += 1


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(values)))) if len(values) else 0.0


def layer_metrics(tracer: Tracer, items: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics, per trial (sweeps) or per frame (track).

    Returns {metric name: (value, unit)} for every per-layer metric the
    benchmark declares; a layer the workload never calls reads 0.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    child_ms = np.zeros(len(tracer.spans))
    item_ms: dict[int, float] = defaultdict(float)
    for name, trial, parent, start, end in tracer.spans:
        ms = (end - start) * 1e3
        durations[name].append(ms)
        if parent >= 0:
            child_ms[parent] += ms
        else:
            item_ms[trial] += ms
    root_ms = sum(item_ms.values())
    self_ms = root_ms - sum(
        child_ms[i] for i, span in enumerate(tracer.spans) if span[2] < 0
    )
    v = tracer.values

    def per_item(name):
        return sum(durations.get(name, ())) / items

    def calls(name):
        return len(durations.get(name, ())) / items

    def failed(tag):
        runs = len(v[f"{tag}.ok"])
        return (runs - sum(v[f"{tag}.ok"])) / runs if runs else 0.0

    m = {
        "completion.ms": (per_item("completion.complete"), "ms/trial"),
        "completion.calls": (calls("completion.complete"), "calls/trial"),
        "completion.call_ms_p50": (_pct(durations.get("completion.complete", []), 50), "ms"),
        "completion.call_ms_p99": (_pct(durations.get("completion.complete", []), 99), "ms"),
        "completion.iters_mean": (_mean(v["completion.iters"]), "iters"),
        "completion.iters_p99": (_pct(v["completion.iters"], 99), "iters"),
        "completion.not_converged": (
            1.0 - _mean(v["completion.converged"]) if v["completion.converged"] else 0.0,
            "frac",
        ),
        "estimators.gabp_ms": (per_item("estimators.gabp"), "ms/trial"),
        "estimators.gabp_sweeps_mean": (_mean(v["gabp.iters"]), "sweeps"),
        "estimators.gabp_failed": (failed("gabp"), "frac"),
        "estimators.nls_ms": (per_item("estimators.nls"), "ms/trial"),
        "estimators.nls_iters_mean": (_mean(v["nls.iters"]), "iters"),
        "estimators.nls_iters_p99": (_pct(v["nls.iters"], 99), "iters"),
        "estimators.nls_failed": (failed("nls"), "frac"),
        "estimators.mds_ms": (per_item("estimators.mds"), "ms/trial"),
        "estimators.mds_calls": (calls("estimators.mds"), "calls/trial"),
        "estimators.mds_failed": (failed("mds"), "frac"),
        "measurement.draw_ms": (per_item("measurement.draw"), "ms/trial"),
        "measurement.blockage_ms": (per_item("measurement.blockage"), "ms/trial"),
        "measurement.observed_frac": (_mean(v["measurement.observed"]), "frac"),
        "measurement.assemble_ms": (per_item("measurement.assemble"), "ms/trial"),
        "measurement.assemble_calls": (calls("measurement.assemble"), "calls/trial"),
        "bounds.fim_ms": (per_item("bounds.fim"), "ms/trial"),
        "bounds.singular": (_mean(v["bounds.singular"]), "frac"),
        "tracking.nls_ms": (per_item("tracking.nls"), "ms/trial"),
        "tracking.nls_iters_mean": (_mean(v["tracking.nls_iters"]), "iters"),
        "tracking.twist_ms": (per_item("tracking.twist"), "ms/trial"),
        "tracking.trans_err_rms_m": (_rms(v["tracking.trans_err"]), "m"),
        "tracking.twist_err_rms": (_rms(v["tracking.twist_err"]), "si"),
        "harness.self_ms": (self_ms / items, "ms/trial"),
        "harness.trial_ms_p50": (_pct(list(item_ms.values()), 50), "ms"),
        "harness.trial_ms_p99": (_pct(list(item_ms.values()), 99), "ms"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
    for tag in ("mds", "nls", "gabp"):
        ratios = v[f"{tag}.err_over_crlb"]
        m[f"estimators.{tag}_rmse_over_crlb"] = (_rms(ratios), "ratio")
        m[f"estimators.{tag}_err_p99_over_crlb"] = (_pct(ratios, 99), "ratio")
    return m
