"""Spans around the program's public functions, and the per-layer metrics.

A span is patched in where callers look the function up (a module global
or a name imported into another module), so the program itself is not
edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

SCHEMES = ("mdma", "tdma", "fdma", "noma")
LAYERS = ("cli", "experiments", "analytic", "markov", "simulator", "topology")


def _subset_terms(args, kwargs, out):
    return {"subset_terms": len(out.subset_terms)}


def _conv_macs(args, kwargs, out):
    n = args[0].granularity
    return {"conv_macs": n * n}


def _chain(args, kwargs, out):
    t = args[0].matrix
    return {"states": t.shape[0], "residual": float(np.max(np.abs(out @ t - out)))}


def _simulated(args, kwargs, out):
    relay = sum(v.attempts for k, v in out.per_step.items() if "relay" in k)
    total = sum(v.attempts for v in out.per_step.values())
    return {"scheme": out.scheme, "slots": out.slots,
            "relay_attempts": relay, "attempts": total}


# (span name, extractor, [(module, attribute), ...] where callers find it)
PATCHES = (
    ("experiments.run_sweep", None, [("cli", "run_sweep")]),
    ("experiments.analytic_solution", None,
     [("cli", "analytic_solution"), ("experiments", "analytic_solution")]),
    ("experiments.write_rows_csv", None, [("cli", "write_rows_csv")]),
    ("experiments.run_manifest", None, [("cli", "run_manifest")]),
    ("analytic.step_outages", None, [("cli", "step_outages"), ("experiments", "step_outages")]),
    ("analytic.decode_fail_probs", None, [("analytic", "decode_fail_probs")]),
    ("analytic.relay_sum_cdf", _subset_terms, [("analytic", "relay_sum_cdf")]),
    ("analytic.bin_relay_sum", None, [("analytic", "bin_relay_sum")]),
    ("analytic.bin_conditional_direct", None, [("analytic", "bin_conditional_direct")]),
    ("analytic.step2_outage", _conv_macs, [("analytic", "step2_outage")]),
    ("markov.solve_chain", None, [("cli", "solve_chain"), ("experiments", "solve_chain")]),
    ("markov.build_chain", None, [("markov", "build_chain")]),
    ("markov.stationary_distribution", _chain, [("markov", "stationary_distribution")]),
    ("simulator.simulate", _simulated, [("cli", "simulate"), ("experiments", "simulate")]),
    ("topology.default_paper_setup", None, [("cli", "default_paper_setup")]),
    ("topology.load_setup", None, [("cli", "load_setup")]),
    ("topology.link_rates", None,
     [("analytic", "link_rates"), ("experiments", "link_rates"), ("simulator", "link_rates")]),
)


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    data: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; `patched()` installs the wrappers for its duration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(self.op, name, perf_counter(), parent=parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if extract is not None:
                # A refactored program may return something else; then no counts.
                with suppress(AttributeError, TypeError, IndexError, KeyError):
                    rec.data = extract(args, kwargs, out)
            return out
        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for name, extract, sites in PATCHES:
                # Sites a later version of the program no longer has are skipped;
                # their metrics then read 0.
                for mod, attr in sites:
                    module = importlib.import_module(f"mdma_relay.{mod}")
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, extract))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _self_times(spans: list[Span]) -> list[float]:
    """Duration minus the part covered by direct children (children are nested)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], ops: int, overhead_ms: float, overhead_share: float) -> dict:
    """Per-layer metrics of a traced run of `ops` commands (0 where a layer did no work)."""
    self_t = _self_times(spans)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        per_layer[s.name.split(".")[0]] += self_t[i]
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return by_name.get(name, [])

    def mean_ms(name):
        idx = calls(name)
        return 1e3 * sum(spans[i].end - spans[i].start for i in idx) / len(idx) if idx else 0.0

    def mean_data(name, key):
        vals = [spans[i].data[key] for i in calls(name) if key in spans[i].data]
        return sum(vals) / len(vals) if vals else 0.0

    m = {f"{layer}.self_ms": 1e3 * t / ops for layer, t in per_layer.items()}
    m["experiments.run_sweep.self_ms"] = 1e3 * sum(
        self_t[i] for i in calls("experiments.run_sweep")) / ops
    m["experiments.analytic_solution.ms"] = mean_ms("experiments.analytic_solution")
    m["analytic.step_outages.calls_per_op"] = len(calls("analytic.step_outages")) / ops
    m["analytic.relay_sum_cdf.ms"] = mean_ms("analytic.relay_sum_cdf")
    m["analytic.relay_sum_cdf.subset_terms"] = mean_data("analytic.relay_sum_cdf", "subset_terms")
    m["analytic.step2_outage.ms"] = mean_ms("analytic.step2_outage")
    m["analytic.step2_outage.conv_macs"] = mean_data("analytic.step2_outage", "conv_macs")
    m["analytic.bin_relay_sum.ms"] = mean_ms("analytic.bin_relay_sum")
    m["markov.stationary_distribution.ms"] = mean_ms("markov.stationary_distribution")
    m["markov.states"] = mean_data("markov.stationary_distribution", "states")
    m["markov.residual"] = max((spans[i].data.get("residual", 0.0)
                                for i in calls("markov.stationary_distribution")), default=0.0)
    for scheme in SCHEMES:
        sims = [i for i in calls("simulator.simulate") if spans[i].data.get("scheme") == scheme]
        busy = sum(spans[i].end - spans[i].start for i in sims)
        slots = sum(spans[i].data["slots"] for i in sims)
        attempts = sum(spans[i].data["attempts"] for i in sims)
        relay = sum(spans[i].data["relay_attempts"] for i in sims)
        m[f"simulator.{scheme}.slots_per_s"] = slots / busy if busy else 0.0
        m[f"simulator.{scheme}.relay_slot_ratio"] = relay / attempts if attempts else 0.0
    m["topology.link_rates.calls_per_op"] = len(calls("topology.link_rates")) / ops
    m["trace.overhead_ms"] = overhead_ms
    m["trace.overhead_share"] = overhead_share
    return m


PER_LAYER_UNITS = {
    "calls_per_op": "count", "subset_terms": "count", "conv_macs": "count",
    "states": "count", "residual": "1", "slots_per_s": "slots/s",
    "relay_slot_ratio": "1", "overhead_share": "1",
}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return "ms" if last == "ms" or last.endswith("_ms") else PER_LAYER_UNITS[last]
