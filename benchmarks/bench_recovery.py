"""Fault-tolerance benchmark: zero-fault overhead and time-to-recover.

Two acceptance properties of the resilience layer are measured on a
real (simulated-cluster) training workload:

* **zero-fault overhead** — training under ``FaultyProcessGroup`` with
  an empty schedule must be bitwise identical to ``SimProcessGroup``
  and cost almost nothing extra on the wall clock (the health-tracking
  observation is the only added work): at most ``MAX_OVERHEAD_PCT``.
* **recovery drill** — a rank is crashed mid-run; the loop restores the
  newest checkpoint onto a replacement world and replays. Reported:
  wall-clock time-to-recover, lost steps, and a bitwise comparison of
  the recovered final state against an uninterrupted reference run at
  the same sample budget (must be exact).

Run standalone to write ``BENCH_recovery.json``::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--quick] [--out PATH]

``--quick`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import sys
import tempfile
import time

import numpy as np

from _harness import Summary, Table, main as harness_main
from repro import nn
from repro.comms import ClusterTopology
from repro.core import CheckpointManager, NeoTrainer, TrainingLoop
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRMConfig
from repro.resilience import (FaultKind, FaultSchedule, FaultSpec,
                              RecoveryManager,
                              faulty_process_group_factory)
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

FULL_CONFIG = dict(world=4, steps=24, global_batch=32, rows=512, dim=16,
                   num_tables=4, reps=4, checkpoint_every=6, crash_at=15)
QUICK_CONFIG = dict(world=2, steps=10, global_batch=16, rows=128, dim=8,
                    num_tables=2, reps=3, checkpoint_every=3, crash_at=7)

MAX_OVERHEAD_PCT = 5.0  # zero-fault FaultyProcessGroup wall-clock cost


def build_parts(world, rows, dim, num_tables, pg_factory=None, seed=0):
    tables = tuple(EmbeddingTableConfig(f"t{i}", rows, dim, avg_pooling=2.0)
                   for i in range(num_tables))
    config = DLRMConfig(dense_dim=8, bottom_mlp=(16, dim), tables=tables,
                        top_mlp=(16,))
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(tables):
        plan.tables[t.name] = shard_table(t, ShardingScheme.TABLE_WISE,
                                          [i % world])
    plan.validate()
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1, momentum=0.9),
        sparse_optimizer=SparseSGD(lr=0.1), seed=seed,
        process_group_factory=pg_factory)
    dataset = SyntheticCTRDataset(tables, dense_dim=8, noise=0.2, seed=1)
    return trainer, dataset


def _run_once(make_trainer, batches):
    """One timed pass over ``batches``; returns (seconds, losses)."""
    trainer = make_trainer()
    shards = [b.split(trainer.world_size) for b in batches]
    t0 = time.perf_counter()
    losses = [trainer.train_step(s) for s in shards]
    return time.perf_counter() - t0, losses


def measure_overhead(config):
    """Plain vs empty-schedule FaultyProcessGroup on the same workload.

    The two variants are timed in interleaved best-of-``reps`` pairs so
    clock/thermal drift lands on both sides equally instead of biasing
    whichever block ran second.
    """
    kw = dict(world=config["world"], rows=config["rows"], dim=config["dim"],
              num_tables=config["num_tables"])
    _, dataset = build_parts(**kw)
    batches = dataset.batches(config["global_batch"], config["steps"])
    make_plain = lambda: build_parts(**kw)[0]
    make_faulty = lambda: build_parts(
        pg_factory=faulty_process_group_factory(), **kw)[0]
    plain_s = faulty_s = float("inf")
    plain_losses = faulty_losses = []
    for _ in range(config["reps"]):
        s, plain_losses = _run_once(make_plain, batches)
        plain_s = min(plain_s, s)
        s, faulty_losses = _run_once(make_faulty, batches)
        faulty_s = min(faulty_s, s)
    return {
        "plain_seconds": plain_s,
        "faulty_seconds": faulty_s,
        "overhead_pct": 100.0 * (faulty_s / plain_s - 1.0),
        "bitwise_parity": plain_losses == faulty_losses,
    }


def recovery_drill(config, tmpdir):
    """Crash a rank mid-run, recover, compare against an uninterrupted
    run bitwise. Returns timings + parity verdicts."""
    tmpdir = tempfile.mkdtemp(dir=tmpdir)  # fresh per call: no stale ckpts
    kw = dict(world=config["world"], rows=config["rows"], dim=config["dim"],
              num_tables=config["num_tables"])
    schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=1,
                                        iteration=config["crash_at"])])
    pg_factory = faulty_process_group_factory(schedule=schedule)

    def trainer_factory(world):
        trainer, _ = build_parts(pg_factory=pg_factory,
                                 **{**kw, "world": world})
        return trainer

    mgr = CheckpointManager(tmpdir)
    recovery = RecoveryManager(trainer_factory=trainer_factory,
                               checkpoint_manager=mgr)
    trainer, dataset = build_parts(pg_factory=pg_factory, **kw)
    loop = TrainingLoop(trainer, dataset,
                        global_batch_size=config["global_batch"],
                        eval_every=10 ** 6, checkpoint_manager=mgr,
                        checkpoint_every=config["checkpoint_every"],
                        recovery=recovery)
    t0 = time.perf_counter()
    result = loop.run(config["steps"])
    total_s = time.perf_counter() - t0

    ref_trainer, ref_dataset = build_parts(**kw)
    ref = TrainingLoop(ref_trainer, ref_dataset,
                       global_batch_size=config["global_batch"],
                       eval_every=10 ** 6)
    ref_result = ref.run(config["steps"])

    tables_equal = all(
        np.array_equal(loop.trainer.gather_table(t.name),
                       ref_trainer.gather_table(t.name))
        for t in ref_trainer.config.tables)
    dense_equal = all(
        np.array_equal(a.data, b.data)
        for a, b in zip(loop.trainer.ranks[0].dense_parameters(),
                        ref_trainer.ranks[0].dense_parameters()))
    event = result.recoveries[0]
    return {
        "failed_iteration": event.failed_iteration,
        "restored_step": event.restored_step,
        "lost_steps": event.lost_steps,
        "time_to_recover_seconds": event.seconds,
        "run_seconds_with_failure": total_s,
        "losses_match": result.losses == ref_result.losses,
        "final_state_bitwise": bool(tables_equal and dense_equal),
    }


def measure(config):
    with tempfile.TemporaryDirectory(prefix="bench_recovery_") as tmpdir:
        return {"zero_fault_overhead": measure_overhead(config),
                "recovery_drill": recovery_drill(config, tmpdir)}


def summarize(config, results):
    overhead, drill = results["zero_fault_overhead"], results["recovery_drill"]
    return Summary(
        metrics=results,
        gates={
            "zero_fault_bitwise_parity": overhead["bitwise_parity"],
            "recovered_run_matches_reference":
                drill["final_state_bitwise"] and drill["losses_match"],
            f"zero_fault_overhead_pct <= {MAX_OVERHEAD_PCT:g}":
                overhead["overhead_pct"] <= MAX_OVERHEAD_PCT,
        },
        tables=[overhead_table(overhead), drill_table(config, drill)])


def overhead_table(overhead):
    return Table("zero-fault FaultyProcessGroup overhead",
                 ["plain s", "faulty s", "overhead %", "bitwise"],
                 [(f"{overhead['plain_seconds']:.3f}",
                   f"{overhead['faulty_seconds']:.3f}",
                   f"{overhead['overhead_pct']:+.2f}",
                   overhead["bitwise_parity"])])


def drill_table(config, drill):
    return Table(f"recovery drill (crash at iteration {config['crash_at']})",
                 ["restored", "lost", "recover s", "bitwise"],
                 [(drill["restored_step"], drill["lost_steps"],
                   f"{drill['time_to_recover_seconds']:.3f}",
                   drill["final_state_bitwise"])])


def main(argv=None):
    return harness_main("recovery", QUICK_CONFIG, FULL_CONFIG, measure,
                        summarize, argv)


def test_zero_fault_overhead(benchmark, report):
    """Empty-schedule FaultyProcessGroup: bitwise parity, tiny overhead."""
    result = benchmark(measure_overhead, dict(QUICK_CONFIG))
    report(*overhead_table(result))
    assert result["bitwise_parity"]
    # generous wall-clock bound for shared CI machines; the standalone
    # run enforces the MAX_OVERHEAD_PCT acceptance floor
    assert result["overhead_pct"] < 25.0


def test_recovery_drill(benchmark, report, tmp_path):
    """Crash -> restore -> replay must be bitwise-exact end to end."""
    result = benchmark(recovery_drill, dict(QUICK_CONFIG), str(tmp_path))
    report(*drill_table(QUICK_CONFIG, result))
    assert result["losses_match"]
    assert result["final_state_bitwise"]
    assert result["lost_steps"] == \
        QUICK_CONFIG["crash_at"] - result["restored_step"]


if __name__ == "__main__":
    sys.exit(main())
