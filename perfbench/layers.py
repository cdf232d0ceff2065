"""Per-layer measurement: spans around the program's public entry points.

A :class:`Probe` wraps the public methods each layer exposes (``data``,
``embedding``, ``comms``, ``nn``, ``core``, ``serving``, ``cache``,
``fleet``, ``online``) with spans recorded into one in-memory
``repro.obs.Tracer``, for as long as it is active. The wrappers only
read: they call the original with the same arguments and return its
result, so a traced round computes exactly what an untraced one does.
The program's own (optional) tracing stays off; every span here comes
from this file.

Per-layer *self* time is a span's duration minus its wrapped children,
taken from ``Trace.aggregate()``. Exact counts come from counters the
program already keeps (``pg.log``, ``CheckpointManager.history``,
``cache.stats``, the servable's dedup counters) or from the results the
wrapped calls return.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from typing import Callable, Dict, List

import numpy as np

from repro import cache, nn
from repro.comms import SimProcessGroup
from repro.core import CheckpointManager, NeoTrainer
from repro.data import DataIngestionService, MiniBatch
from repro.embedding import EmbeddingTable, SparseOptimizer
from repro.fleet import FleetRouter
from repro.obs import Tracer
from repro.online import ModelSlot
from repro.serving import (InferenceServer, MicroBatcher, ServableModel,
                           ServingPerfModel, export)

COLLECTIVES = ("all_reduce", "all_to_all", "reduce_scatter", "all_gather",
               "broadcast")

# (owner, attribute, span name): every public entry point wrapped
ENTRY_POINTS = [
    (DataIngestionService, "next_batch", "data.batch"),
    (MiniBatch, "concat", "data.concat"),
    (EmbeddingTable, "forward", "embedding.lookup"),
    (EmbeddingTable, "backward", "embedding.update"),
    (SparseOptimizer, "step", "embedding.update"),
    *[(SimProcessGroup, name, "comms.collective") for name in COLLECTIVES],
    (NeoTrainer, "train_step", "core.train_step"),
    (CheckpointManager, "save", "core.checkpoint_save"),
    (nn.Sequential, "forward", "nn.dense_fwd_bwd"),
    (nn.Sequential, "backward", "nn.dense_fwd_bwd"),
    *[(cls, "step", "nn.optimizer") for cls in
      (nn.Optimizer, *nn.Optimizer.__subclasses__())
      if "step" in vars(cls)],
    (MicroBatcher, "plan", "serving.plan"),
    (ServableModel, "predict", "serving.predict"),
    *[(cls, "read", "cache.read") for cls in
      (cache.FreqAwareCache, cache.SetAssociativeCache, cache.UVMPageCache)],
    (FleetRouter, "route", "fleet.route"),
    (ModelSlot, "publish", "online.publish"),
]

# spans whose self time counts as the sparse path of a training step
SPARSE_PATH = ("embedding.lookup", "embedding.update", "comms.collective")


class Probe:
    """Wraps the entry points while active; keeps what they observed."""

    def __init__(self) -> None:
        self.tracer = Tracer(clock="wall", process_name="perfbench")
        self.service_time_calls = 0
        self.update_rows = 0
        self.serve_results: List[object] = []
        self.imbalances: List[float] = []

    def phase(self, name: str):
        """A span around one phase of a round (set-up, day, ...)."""
        return self.tracer.span(f"round.{name}", cat="round")

    # -- wrappers -----------------------------------------------------
    def _spanned(self, fn: Callable, name: str) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, cat=name.split(".")[0]):
                return fn(*args, **kwargs)
        return wrapper

    def _hooks(self) -> Dict[tuple, Callable]:
        """Read-only post-hooks, ``hook(args, result)``. ``serve`` and
        ``service_time`` get a hook but no span: the first only hands
        back its result, and a span on every price the batcher asks for
        would weigh on ``serving.plan_s``."""
        def sparse_step(args, _result):
            self.update_rows += int(len(args[2].rows))

        def serve(_args, result):
            self.serve_results.append(result)

        def service_time(_args, _result):
            self.service_time_calls += 1

        def route(args, result):
            active = args[3] if len(args) > 3 else None
            if result.counts and sum(result.counts):
                self.imbalances.append(result.imbalance(active))
        return {(SparseOptimizer, "step"): sparse_step,
                (InferenceServer, "serve"): serve,
                (ServingPerfModel, "service_time"): service_time,
                (FleetRouter, "route"): route}

    @contextmanager
    def active(self):
        saved = []
        hooks = self._hooks()

        def patch(owner, attr, fn):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, fn)

        for owner, attr, name in ENTRY_POINTS:
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = self._spanned(raw.__func__ if static else raw, name)
            hook = hooks.get((owner, attr))
            if hook is not None:
                fn = _with_hook(fn, hook)
            patch(owner, attr, staticmethod(fn) if static else fn)
        spanned = {(owner, attr) for owner, attr, _name in ENTRY_POINTS}
        for (owner, attr), hook in hooks.items():
            if (owner, attr) not in spanned:
                patch(owner, attr, _with_hook(vars(owner)[attr], hook))

        # freeze is a module function imported by name elsewhere: patch
        # every loaded repro module that binds it
        original_freeze = export.freeze
        traced_freeze = self._spanned(original_freeze, "serving.freeze")
        for module in list(sys.modules.values()):
            if getattr(module, "freeze", None) is original_freeze:
                patch(module, "freeze", traced_freeze)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def _with_hook(fn: Callable, hook: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result
    return wrapper


# ----------------------------------------------------------------------
# turning one traced round into per-layer metrics
# ----------------------------------------------------------------------
def _within(events, ancestor: str):
    """Self seconds and call counts per span name, over the spans that
    run inside a span named ``ancestor``."""
    child: Dict[int, float] = {}
    for e in events:
        if e.closed and e.parent >= 0:
            child[e.parent] = child.get(e.parent, 0.0) + e.duration

    def inside(e) -> bool:
        while e.parent >= 0:
            e = events[e.parent]
            if e.name == ancestor:
                return True
        return False

    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for e in events:
        if e.closed and inside(e):
            seconds[e.name] = seconds.get(e.name, 0.0) + e.duration \
                - child.get(e.index, 0.0)
            calls[e.name] = calls.get(e.name, 0) + 1
    return seconds, calls


def _servables(r) -> list:
    out = [r.setup.servable]
    out.extend(s.model for s in r.cosim.snapshots)
    return out


def layer_metrics(probe: Probe, r) -> Dict[str, float]:
    """Every per-layer metric of one traced round ``r`` (a
    ``workloads.Round``). Layers a workload does not exercise read 0."""
    trace = probe.tracer.trace
    agg = trace.aggregate()
    in_step, in_step_calls = _within(trace.events, "core.train_step")
    in_day, _ = _within(trace.events, "round.day")
    step = agg.get("core.train_step")
    steps = step.count if step else 0
    day = agg["round.day"].total if "round.day" in agg else 0.0
    spec = r.setup.spec

    def t(name: str) -> float:
        return agg[name].self_time if name in agg else 0.0
    out: Dict[str, float] = {}
    out["data.batch_s"] = t("data.batch")
    out["data.concat_s"] = t("data.concat")
    out["embedding.lookup_s"] = t("embedding.lookup")
    out["embedding.update_s"] = t("embedding.update")
    out["embedding.lookup_calls_per_step"] = \
        in_step_calls.get("embedding.lookup", 0) / max(1, steps)
    out["embedding.update_rows_per_step"] = probe.update_rows / max(1, steps)
    out["comms.collective_s"] = t("comms.collective")
    out["comms.calls_per_step"] = r.outputs["comms_calls"] / spec.train_steps
    out["comms.wire_bytes_per_step"] = \
        r.outputs["comms_wire_bytes"] / spec.train_steps
    out["comms.modeled_ms_per_step"] = \
        1e3 * r.outputs["comms_modeled_s"] / spec.train_steps
    out["core.train_step_self_s"] = t("core.train_step")
    out["core.checkpoint_save_s"] = t("core.checkpoint_save")
    out["core.checkpoint_bytes"] = float(sum(
        r.outputs["checkpoint_bytes"]))
    sparse = sum(in_step.get(n, 0.0) for n in SPARSE_PATH) \
        + t("core.train_step")
    out["core.sparse_path_share"] = sparse / step.total if steps else 0.0
    out["nn.dense_fwd_bwd_s"] = t("nn.dense_fwd_bwd")
    out["nn.optimizer_s"] = t("nn.optimizer")

    offered = r.outputs["day_offered"] + r.outputs["online_offered"]
    batches = [b for res in probe.serve_results if res.plan is not None
               for b in res.plan.batches]
    waits = [b.dispatch_s - q.arrival_s for b in batches
             for q in b.requests]
    requested = sum(s.dedup_rows_requested for s in _servables(r))
    read = sum(s.dedup_rows_read for s in _servables(r))
    out["serving.plan_s"] = t("serving.plan")
    out["serving.plan_share"] = in_day.get("serving.plan") / day \
        if day else 0.0
    out["serving.service_time_calls_per_request"] = \
        probe.service_time_calls / offered
    out["serving.predict_s"] = t("serving.predict")
    out["serving.freeze_s"] = t("serving.freeze")
    out["serving.dispatches"] = float(len(batches))
    out["serving.batch_samples_mean"] = float(np.mean(
        [b.num_samples for b in batches])) if batches else 0.0
    out["serving.queue_wait_p99_ms"] = 1e3 * float(
        np.percentile(waits, 99)) if waits else 0.0
    out["serving.dedup_read_ratio"] = read / requested if requested else 0.0

    stats = [table.cache.stats for s in _servables(r)
             for table in s.cold_tables.values()]
    accesses = sum(s.hits + s.misses for s in stats)
    out["cache.hit_rate"] = sum(s.hits for s in stats) / accesses \
        if accesses else 0.0
    out["cache.fills"] = float(sum(s.fills for s in stats))
    out["cache.evictions"] = float(sum(s.evictions for s in stats))
    out["cache.read_s"] = t("cache.read")

    out["fleet.route_s"] = t("fleet.route")
    out["fleet.route_imbalance"] = float(np.mean(probe.imbalances)) \
        if probe.imbalances else 0.0
    out["fleet.scale_events"] = float(r.outputs["day_scale_events"])
    out["fleet.replicas_peak"] = float(r.outputs["day_peak"])

    out["online.publish_s"] = t("online.publish")
    out["online.swaps"] = float(r.outputs["online_swaps"])
    out["online.staleness_p99_steps"] = r.outputs["online_staleness_p99"]
    out["online.shed_during_swap"] = float(
        r.outputs["online_shed_during_swap"])
    return out


# exact counts: must repeat bitwise across rounds and runs of one seed
EXACT = ("embedding.lookup_calls_per_step", "embedding.update_rows_per_step",
         "comms.calls_per_step", "comms.wire_bytes_per_step",
         "comms.modeled_ms_per_step", "core.checkpoint_bytes",
         "serving.service_time_calls_per_request", "serving.dispatches",
         "serving.batch_samples_mean", "serving.queue_wait_p99_ms",
         "serving.dedup_read_ratio", "cache.hit_rate", "cache.fills",
         "cache.evictions", "fleet.route_imbalance", "fleet.scale_events",
         "fleet.replicas_peak", "online.swaps", "online.staleness_p99_steps",
         "online.shed_during_swap")
