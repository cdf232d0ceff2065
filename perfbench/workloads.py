"""The three benchmark workloads and the round that drives each one.

Every workload runs the same lifecycle of one model, in one process:

* **set-up** builds the trainer and its sharding plan, freezes the
  untrained model for serving (warming any cold-table cache), and
  generates the fleet's traffic days;
* **day** serves those days through an autoscaled ``ServingFleet``
  (open loop in virtual time); the fleet-level figures are the median
  day's, since one day's tail hinges on when the autoscaler happened to
  react;
* **online** runs a ``CoSimulation``: the trainer trains while replicas
  serve a Poisson trace and fresh freezes are hot-swapped in;
* **train** runs a fixed number of further ``TrainingLoop`` steps on the
  same trainer, with differential checkpoints where the workload asks
  for them, then scores held-out normalized entropy.

The workloads differ in model and phase sizes, and so in which layers do
the work: ``train_sparse`` is the sparse training path, ``serve_day``
the read-only serving path, ``online_dense`` writes beside reads on a
dense-dominated model. A round is one set-up plus the three phases at
fixed sizes, so everything a round computes on the virtual clock is a
function of the seed alone; host timings are taken around the phases.

The seed drives the serving traffic: the fleet's days (arrival times,
which users call) and the router's choices. The training problem --
initial weights, the synthetic data's teacher, the batch stream, the
online phase's trace and every held-out batch -- is one fixed reference
for all seeds, so the quality metrics (final NE, online NE gap) read the
same for every seed and any change in them is a change in numerics, not
sampling noise.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro import nn
from repro.comms import ClusterTopology
from repro.core import CheckpointManager, NeoTrainer, TrainingLoop
from repro.data import DataIngestionService, MiniBatch, SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, RowWiseAdaGrad
from repro.fleet import (AutoscalerConfig, DayCurve, FleetTraffic,
                         RouterPolicy, ServingFleet, run_autoscaled_day)
from repro.metrics import normalized_entropy
from repro.models import DLRMConfig, mini_config
from repro.online import CoSimulation, OnlineConfig
from repro.serving import (BatchingPolicy, FreezeConfig, ServingPerfModel,
                           freeze)
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

# sharp evening peak (~14x peak/trough after normalization): the peak
# builds real queues, the night lets the autoscaler shed replicas
DAY_HOURLY = (0.2, 0.2, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 2.6, 1.6, 0.8, 0.4)
EVAL_OFFSET = 3_000_000      # held-out batch index, far from training
EVAL_BATCH = 512
WARM_BATCHES = 8             # FrequencyStats batches that warm the cache
ONLINE_REPLICAS = 2
DISPATCH_SAMPLES = 8         # dispatches compared with the source DLRM
REFERENCE_SEED = 0           # the fixed training problem (see above)
# the fleet day: slow replicas (~20 qps each at batch 4) so a few
# thousand requests span a day with a real evening queue
DAY_OVERHEAD_S = 0.2
DAY_MAX_BATCH = 4
DAY_SLO_S = 1.0
# predicted admission sheds only a request it predicts to finish after
# twice the SLO. At the SLO itself, 1 day in 84 (seeds 0-11 x 7 days)
# shed 2 requests at the evening peak; with no shedding the worst
# latency over 280 days (seeds 0-39) was 1.10 s, so requests run late
# (against SLO attainment) and none is shed
DAY_SHED_AFTER_S = 2 * DAY_SLO_S
DAY_WINDOWS = 40             # autoscaler decisions per day
DAY_LOAD = 1.25              # day-average load over one replica's capacity
DAY_MIN_REPLICAS = 2         # the night floor; absorbs the evening ramp
DAY_MAX_REPLICAS = 4


@dataclass(frozen=True)
class Spec:
    """Sizes and knobs of one workload (``sized`` shrinks them)."""

    name: str
    why: str
    model: str                      # "a2" or "dense"
    rows: int                       # rows per table
    nodes: int
    gpus_per_node: int
    per_rank_batch: int
    plan: str                       # "mixed", "table_wise", "data_parallel"
    train_steps: int
    checkpoint_every: int           # 0 = no checkpoints
    day_requests: int               # per day
    days: int
    day_admission: str              # "depth" or "predicted"
    day_users: int
    cold_tables: bool               # half the tables behind freq_aware
    online_steps: int
    online_swap_every: int
    online_requests: int
    dense_lr: float = 1e-3          # Adam


WORKLOADS: Dict[str, Spec] = {
    "train_sparse": Spec(
        name="train_sparse",
        why="sparse training path: lookups, AlltoAll payloads, COO merge "
            "and sparse updates at 16 ranks, with differential checkpoints",
        model="a2", rows=512, nodes=2, gpus_per_node=8, per_rank_batch=64,
        plan="mixed", train_steps=16, checkpoint_every=4,
        day_requests=1000, days=7, day_admission="depth",
        day_users=10_000, cold_tables=False,
        online_steps=8, online_swap_every=4, online_requests=400),
    "serve_day": Spec(
        name="serve_day",
        why="read-only serving path: predicted admission, routing, "
            "autoscaling and cold-cache reads over a peaked traffic day",
        model="a2", rows=20_000, nodes=1, gpus_per_node=2, per_rank_batch=64,
        plan="table_wise", train_steps=96, checkpoint_every=0,
        day_requests=2000, days=7, day_admission="predicted",
        day_users=1_000_000, cold_tables=True,
        online_steps=8, online_swap_every=2, online_requests=800),
    "online_dense": Spec(
        name="online_dense",
        why="writes beside reads on a dense model: training, freeze and "
            "hot-swap while replicas serve; bypasses the sparse path",
        model="dense", rows=64, nodes=2, gpus_per_node=8, per_rank_batch=16,
        plan="data_parallel", train_steps=96, checkpoint_every=0,
        day_requests=1000, days=7, day_admission="depth",
        day_users=10_000, cold_tables=False,
        online_steps=48, online_swap_every=8, online_requests=1200,
        dense_lr=1e-2),
}


def sized(spec: Spec, scale: float) -> Spec:
    """The same workload with every size multiplied by ``scale`` (the
    self-test runs at a small fraction)."""
    if scale == 1.0:
        return spec

    def s(n: int, lo: int = 1) -> int:
        return max(lo, int(round(n * scale)))

    steps = s(spec.train_steps, 2)
    if spec.checkpoint_every:   # the run must end on a checkpoint
        steps = -(-steps // spec.checkpoint_every) * spec.checkpoint_every
    return replace(
        spec, train_steps=steps,
        day_requests=s(spec.day_requests, 40), days=s(spec.days, 2),
        day_users=s(spec.day_users, 100),
        online_steps=s(spec.online_steps, 2),
        online_requests=s(spec.online_requests, 20),
        rows=s(spec.rows, 64))


# ----------------------------------------------------------------------
# model, plan and set-up
# ----------------------------------------------------------------------
def model_config(spec: Spec) -> DLRMConfig:
    if spec.model == "a2":
        return mini_config("A2", scale=spec.rows)
    # deep MLPs and one small data-parallel table: the dense side
    # dominates. Four 32-wide layers a side rather than the rank-stacked
    # simulation's fourteen 16-wide ones, which do not learn within the
    # online phase, leaving its NE gap at noise around zero.
    tables = (EmbeddingTableConfig("t0", spec.rows, 16, avg_pooling=2.0),)
    return DLRMConfig(dense_dim=16, bottom_mlp=(32,) * 3 + (16,),
                      tables=tables, top_mlp=(32,) * 4)


def sharding_plan(spec: Spec, config: DLRMConfig) -> ShardingPlan:
    world = spec.nodes * spec.gpus_per_node
    plan = ShardingPlan(world_size=world)
    everyone = list(range(world))
    for i, t in enumerate(config.tables):
        if spec.plan == "data_parallel":
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.DATA_PARALLEL, everyone)
        elif spec.plan == "table_wise":
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.TABLE_WISE, [i % world])
        else:
            # two tables each of TW, RW, CW and DP; TW homes alternate
            # nodes, CW splits the 16 columns over four ranks of a node
            kind = i // 2
            if kind == 0:
                homes = [(i % 2) * spec.gpus_per_node]
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.TABLE_WISE, homes)
            elif kind == 1:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.ROW_WISE, everyone)
            elif kind == 2:
                base = (i % 2) * spec.gpus_per_node
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.COLUMN_WISE,
                    list(range(base, base + 4)))
            else:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.DATA_PARALLEL, everyone)
    plan.validate()
    return plan


def build_trainer(spec: Spec, seed: int = REFERENCE_SEED) -> NeoTrainer:
    config = model_config(spec)
    return NeoTrainer(
        config, sharding_plan(spec, config),
        ClusterTopology(num_nodes=spec.nodes,
                        gpus_per_node=spec.gpus_per_node),
        dense_optimizer=lambda p: nn.Adam(p, lr=spec.dense_lr),
        sparse_optimizer=RowWiseAdaGrad(lr=0.05), seed=seed)


def day_policy(spec: Spec) -> BatchingPolicy:
    if spec.day_admission == "predicted":
        return BatchingPolicy(max_batch_size=DAY_MAX_BATCH, max_wait_s=0.05,
                              admission="predicted",
                              deadline_s=DAY_SHED_AFTER_S)
    return BatchingPolicy(max_batch_size=DAY_MAX_BATCH, max_wait_s=0.05)


def freeze_config(spec: Spec, config: DLRMConfig) -> FreezeConfig:
    if not spec.cold_tables:
        return FreezeConfig()
    # an HBM budget that holds half the tables; the rest are served
    # through a frequency-aware cache over a quarter of their rows
    table_bytes = sorted(t.num_parameters * 4 for t in config.tables)
    return FreezeConfig(hot_bytes=float(sum(table_bytes[:len(
        table_bytes) // 2])), cache_kind="freq_aware", cache_fraction=0.25)


@dataclass
class Setup:
    """What one round's set-up builds."""

    spec: Spec
    trainer: NeoTrainer
    dataset: SyntheticCTRDataset
    source: object                  # the DLRM the servable was frozen from
    servable: object
    fleet: ServingFleet
    days: List[list]                # one request trace per day
    autoscale: AutoscalerConfig
    checkpoint_dir: Optional[str]


def build_setup(spec: Spec, seed: int, workdir: str) -> Setup:
    trainer = build_trainer(spec)
    config = trainer.config
    dataset = SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                                  seed=REFERENCE_SEED + 1)
    fcfg = freeze_config(spec, config)
    stats = None
    if spec.cold_tables:
        # id histograms of the training distribution warm the cold cache
        reader = DataIngestionService(
            dataset, world_size=trainer.world_size,
            global_batch_size=spec.per_rank_batch * trainer.world_size,
            track_frequencies=True)
        for _ in range(WARM_BATCHES):
            reader.next_batch()
        stats = reader.frequency_stats
    source = trainer.to_local_model()
    servable = freeze(source, fcfg, frequency_stats=stats)
    perf = ServingPerfModel(overhead_s=DAY_OVERHEAD_S)
    cap = perf.capacity_qps(servable, DAY_MAX_BATCH, sum(
        t.avg_pooling for t in config.tables))
    mean_qps = DAY_LOAD * cap
    duration = spec.day_requests / mean_qps
    days = [FleetTraffic(mean_qps=mean_qps, duration_s=duration,
                         curve=DayCurve(hourly=DAY_HOURLY, day_s=duration),
                         num_users=spec.day_users,
                         seed=seed * 1000 + d).requests(dataset)
            for d in range(spec.days)]
    fleet = ServingFleet(servable, policy=day_policy(spec),
                         perfs=[perf] * DAY_MAX_REPLICAS,
                         router=RouterPolicy(kind="power_of_two", seed=seed))
    window = duration / DAY_WINDOWS
    autoscale = AutoscalerConfig(
        slo_s=DAY_SLO_S, window_s=window, min_replicas=DAY_MIN_REPLICAS,
        max_replicas=DAY_MAX_REPLICAS, up_p99_frac=0.4,
        down_p99_frac=0.3, cooldown_s=2 * window)
    ckpt_dir = None
    if spec.checkpoint_every:
        ckpt_dir = os.path.join(workdir, "ckpt")
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    return Setup(spec=spec, trainer=trainer, dataset=dataset,
                 source=source, servable=servable, fleet=fleet, days=days,
                 autoscale=autoscale, checkpoint_dir=ckpt_dir)


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
@dataclass
class Round:
    """Everything one round measured. ``outputs`` holds the values that
    depend on the seed alone (virtual time, quality, exact counts); two
    rounds of one seed must produce equal ``outputs``."""

    setup_s: float = 0.0
    day_walls_s: List[float] = field(default_factory=list)
    day_sizes: List[int] = field(default_factory=list)
    train_wall_s: float = 0.0
    online_wall_s: float = 0.0
    step_s: List[float] = field(default_factory=list)
    # host-to-reference factors (hostspeed.HostSpeed.scale) of each timed
    # phase; 1.0 when the round ran without a HostSpeed
    setup_scale: float = 1.0
    day_scales: List[float] = field(default_factory=list)
    online_scale: float = 1.0
    train_scale: float = 1.0
    outputs: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cosim: object = None
    setup: Optional[Setup] = None
    checkpoint_step: int = 0
    tables_at_checkpoint: Dict[str, np.ndarray] = field(
        default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(self.day_walls_s) + self.train_wall_s \
            + self.online_wall_s


def _log_totals(trainer: NeoTrainer):
    log = trainer.pg.log
    return (sum(log.calls.values()), sum(log.wire_bytes.values()),
            sum(log.modeled_seconds.values()))


def run_round(spec: Spec, seed: int, workdir: str, probe=None,
              speed=None) -> Round:
    """One set-up plus the day, online and train phases. ``probe`` (a
    ``layers.Probe``) records a span around each phase when given;
    ``speed`` (a ``hostspeed.HostSpeed``) is sampled before and after
    every timed phase when given, outside its timed window."""
    def phase(name):
        return probe.phase(name) if probe is not None else nullcontext()

    edges = []

    def edge():
        """Sample host speed at a phase boundary; returns the factor of
        the phase that ended there."""
        if speed is None:
            return 1.0
        edges.append(speed.sample())
        return speed.scale(*edges[-2:]) if len(edges) > 1 else 1.0

    r = Round()
    edge()
    t0 = time.perf_counter()
    with phase("setup"):
        setup = build_setup(spec, seed, workdir)
    r.setup_s = time.perf_counter() - t0
    r.setup_scale = edge()
    r.setup = setup
    trainer = setup.trainer
    global_batch = spec.per_rank_batch * trainer.world_size

    # -- day: autoscaled fleet over each traffic day ------------------
    reports = []
    with phase("day"):
        for requests in setup.days:
            t0 = time.perf_counter()
            reports.append(run_autoscaled_day(setup.fleet, requests,
                                              setup.autoscale))
            r.day_walls_s.append(time.perf_counter() - t0)
            r.day_scales.append(edge())
    r.day_sizes = [d.merged.num_offered for d in reports]
    offered = sum(d.merged.num_offered for d in reports)
    completed = sum(d.merged.num_completed for d in reports)
    shed = sum(d.merged.num_shed for d in reports)
    late = completed - sum(int(round(d.merged.slo_attainment
                                     * d.merged.num_offered))
                           for d in reports)

    def median_day(value):
        return float(np.median([value(d) for d in reports]))

    r.outputs.update(
        day_offered=offered, day_completed=completed, day_shed=shed,
        day_late=late, day_p50_s=median_day(lambda d: d.merged.p50_s),
        day_p99_s=median_day(lambda d: d.merged.p99_s),
        day_slo_attainment=median_day(lambda d: d.merged.slo_attainment),
        day_replica_s=median_day(lambda d: d.replica_seconds),
        day_scale_events=sum(len(d.events) for d in reports),
        day_peak=max(d.peak_replicas for d in reports))
    if completed + shed != offered:
        r.failures.append(f"day: completed {completed} + shed {shed} != "
                          f"offered {offered}")

    # -- online: train while serving, hot-swapping fresh freezes ------
    online_loop = TrainingLoop(trainer, setup.dataset, global_batch,
                               eval_every=10 ** 9)
    cfg = OnlineConfig(
        num_steps=spec.online_steps, swap_every_steps=spec.online_swap_every,
        train_step_time_s=0.01,
        qps=spec.online_requests / (spec.online_steps * 0.01),
        slo_s=5e-3, seed=REFERENCE_SEED, replicas=ONLINE_REPLICAS,
        eval_batch_size=EVAL_BATCH,
        num_requests=spec.online_requests,
        freeze_config=freeze_config(spec, trainer.config))
    t0 = time.perf_counter()
    with phase("online"):
        cosim = CoSimulation(online_loop, cfg).run()
    r.online_wall_s = time.perf_counter() - t0
    r.online_scale = edge()
    r.cosim = cosim
    versions = [o.model_version for o in
                sorted(cosim.serve.outcomes,
                       key=lambda o: (o.dispatch_s, o.request_id))]
    staleness = cosim.staleness_steps()
    report = cosim.report
    online_late = cosim.serve.num_completed - int(round(
        report.slo_attainment * report.num_offered))
    r.outputs.update(
        online_losses=tuple(cosim.training.losses),
        online_ne_gap=cosim.ne_gap(), online_swaps=cosim.num_swaps,
        online_offered=report.num_offered,
        online_completed=cosim.serve.num_completed,
        online_shed=cosim.serve.num_shed, online_late=online_late,
        online_shed_during_swap=cosim.shed_during_swap,
        online_p50_s=report.p50_s, online_p99_s=report.p99_s,
        online_staleness_p99=float(np.percentile(staleness, 99))
        if len(staleness) else 0.0)
    bad = sum(1 for x in cosim.training.losses if not np.isfinite(x))
    r.failed += bad
    if bad:
        r.failures.append(f"online: {bad} non-finite losses")
    if cosim.shed_during_swap != 0:
        r.failures.append(
            f"online: {cosim.shed_during_swap} requests lost to swaps")
    if any(b < a for a, b in zip(versions, versions[1:])):
        r.failures.append("online: served model versions not monotone")

    # -- train: fixed steps, checkpoints inside the timed window -------
    manager = None
    if setup.checkpoint_dir is not None:
        manager = CheckpointManager(setup.checkpoint_dir, differential=True)
    loop = TrainingLoop(trainer, setup.dataset, global_batch,
                        eval_every=10 ** 9, checkpoint_manager=manager,
                        checkpoint_every=spec.checkpoint_every)
    loop.ingestion.seek(spec.online_steps)
    calls0, bytes0, modeled0 = _log_totals(trainer)
    marks = []
    t0 = time.perf_counter()
    with phase("train"):
        result = loop.run(spec.train_steps, on_step=lambda _s: marks.append(
            time.perf_counter()))
    r.train_wall_s = time.perf_counter() - t0
    r.train_scale = edge()
    calls1, bytes1, modeled1 = _log_totals(trainer)
    r.step_s = list(np.diff([t0] + marks))
    losses = result.losses
    eval_batch = setup.dataset.batch(EVAL_BATCH, EVAL_OFFSET)
    model = trainer.to_local_model()
    ne = normalized_entropy(model.predict_proba(eval_batch),
                            eval_batch.labels)
    r.outputs.update(train_losses=tuple(losses), train_final_ne=ne,
                     comms_calls=calls1 - calls0,
                     comms_wire_bytes=bytes1 - bytes0,
                     comms_modeled_s=modeled1 - modeled0,
                     checkpoint_bytes=tuple(
                         h.payload_bytes for h in manager.history)
                     if manager else ())
    bad = sum(1 for x in losses if not np.isfinite(x))
    r.failed += bad + (spec.train_steps - len(losses))
    if bad:
        r.failures.append(f"train: {bad} non-finite losses")
    if manager is not None:
        r.checkpoint_step = trainer.steps
        r.tables_at_checkpoint = {t.name: trainer.gather_table(t.name)
                                  for t in trainer.config.tables}
    if not trainer.replicas_in_sync():
        r.failures.append("train: dense replicas out of sync")

    # operations: train steps and requests offered; a request fails when
    # it is shed (late ones completed, and count against SLO attainment)
    r.attempted = spec.online_steps + spec.train_steps + offered \
        + report.num_offered
    r.failed += shed + cosim.serve.num_shed
    return r


# ----------------------------------------------------------------------
# once-per-run output checks (outside the timed rounds)
# ----------------------------------------------------------------------
def check_checkpoint(spec: Spec, r: Round) -> List[str]:
    """The newest checkpoint loads into a fresh trainer with every
    gathered table bitwise equal to the trainer that wrote it (taken
    right after the train phase, which ends on a checkpoint)."""
    if r.setup.checkpoint_dir is None:
        return []
    manager = CheckpointManager(r.setup.checkpoint_dir, differential=True)
    fresh = build_trainer(spec, REFERENCE_SEED + 7)
    step = manager.load(fresh)
    if step != r.checkpoint_step:
        return [f"checkpoint: restored step {step}, want "
                f"{r.checkpoint_step}"]
    bad = [name for name, table in r.tables_at_checkpoint.items()
           if not np.array_equal(table, fresh.gather_table(name))]
    return [f"checkpoint: tables differ after load: {bad}"] if bad else []


def check_dispatches(setup: Setup) -> List[str]:
    """Sampled dispatches of the fleet's serving path equal the source
    DLRM's forward on the same coalesced batch, bitwise (fp32)."""
    source = setup.source
    window = setup.days[0][:max(1, len(setup.days[0]) // 10)]
    result = setup.fleet.serve(window, slo_s=DAY_SLO_S, offered_qps=1.0)
    scheduled = [b for res in result.results if res.plan is not None
                 for b in res.plan.batches]
    if not scheduled:
        return ["day: no dispatches to check"]
    picks = np.linspace(0, len(scheduled) - 1,
                        min(DISPATCH_SAMPLES, len(scheduled))).astype(int)
    responses = {}
    for res in result.results:
        responses.update(res.responses)
    for i in picks:
        batch = scheduled[i]
        merged = MiniBatch.concat([q.batch for q in batch.requests])
        want = source.predict_proba(merged)
        got = np.concatenate([responses[q.request_id]
                              for q in batch.requests])
        if not np.array_equal(want, got):
            return [f"day: dispatch {i} differs from the source DLRM"]
    return []
