"""Online co-simulation benchmark: the staleness vs quality vs goodput curve.

The paper's continuous-training story implies an operating curve it never
plots: refresh the serving fleet faster and answers are fresher (lower
held-out NE) at the cost of more freeze/publish work; refresh slower and
quality decays while the request path is untouched — hot-swap is free
for serving by construction. This benchmark runs the same seeded
train-while-serving co-simulation at several refresh cadences (including
the two degenerate ends: swap-every-step and never-swap) and exports the
curve, plus the losslessness evidence:

* every cadence completes its expected hot-swaps and sheds **zero**
  requests to swapping (the conservation residual);
* ordering cadences by staleness orders their NE gaps the same way;
* swap-every-step reproduces a pure-serving load test bit for bit — the
  swap machinery adds exactly nothing to the schedule.

Run standalone to write ``BENCH_online.json``::

    PYTHONPATH=src python benchmarks/bench_online.py [--quick] [--out PATH]

Exit is nonzero unless at least one hot-swap completed, no request was
shed during a swap, the staleness->NE-gap curve is monotone over >= 3
cadences, the swap-every-step schedule equals pure serving bitwise and
the never-swap run equals pure training bitwise.
"""

from __future__ import annotations

import sys

from _harness import Summary, Table, main as harness_main
from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer, TrainingLoop
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRMConfig
from repro.models.zoo import full_spec
from repro.online import OnlineConfig, cadence_from_sizing, run_cadence_sweep
from repro.online.report import OnlineReport
from repro.serving import InferenceServer, PoissonLoadGen, freeze
from repro.serving.loadgen import summarize as summarize_load
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

FULL_CONFIG = dict(num_tables=4, rows=200, dim=8, dense_dim=6,
                   world=2, global_batch=16, num_steps=16,
                   step_time_ms=10.0, qps=1200.0, slo_ms=5.0,
                   eval_batch=256, cadences=(1, 2, 4, 8, 0), seed=0)
QUICK_CONFIG = dict(num_tables=2, rows=96, dim=8, dense_dim=4,
                    world=2, global_batch=8, num_steps=8,
                    step_time_ms=10.0, qps=800.0, slo_ms=5.0,
                    eval_batch=128, cadences=(1, 4, 0), seed=0)

# the sizing linkage: what cadence the repro.perf.online cluster sizing
# implies for a real Table 3 model at production scale
SIZING_SPEC = "A1"
SIZING_TARGET_QPS = 2e6
SIZING_FRESHNESS_S = 30.0


def build_loop(config):
    """A fresh tiny training loop (fresh trainer, fresh ingestion)."""
    tables = tuple(EmbeddingTableConfig(f"t{i}", config["rows"],
                                        config["dim"], avg_pooling=2.0)
                   for i in range(config["num_tables"]))
    model_config = DLRMConfig(dense_dim=config["dense_dim"],
                              bottom_mlp=(16, config["dim"]),
                              tables=tables, top_mlp=(16,))
    world = config["world"]
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(tables):
        plan.tables[t.name] = shard_table(t, ShardingScheme.TABLE_WISE,
                                          [i % world])
    plan.validate()
    trainer = NeoTrainer(
        model_config, plan, ClusterTopology(num_nodes=1,
                                            gpus_per_node=world),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseSGD(lr=0.1), seed=config["seed"])
    dataset = SyntheticCTRDataset(tables, dense_dim=config["dense_dim"],
                                  seed=config["seed"] + 1)
    return TrainingLoop(trainer, dataset,
                        global_batch_size=config["global_batch"],
                        eval_every=10 ** 6)


def online_config(config, swap_every=1):
    return OnlineConfig(
        num_steps=config["num_steps"], swap_every_steps=swap_every,
        train_step_time_s=config["step_time_ms"] * 1e-3,
        qps=config["qps"], slo_s=config["slo_ms"] * 1e-3,
        seed=config["seed"], eval_batch_size=config["eval_batch"])


def pure_serving_report(config):
    """An independent load test of the initial snapshot over the same
    trace — the bitwise reference for the swap-every-step schedule."""
    loop = build_loop(config)
    servable = freeze(loop.trainer)
    horizon = config["num_steps"] * config["step_time_ms"] * 1e-3
    gen = PoissonLoadGen.for_duration(config["qps"], horizon,
                                      seed=config["seed"])
    result = InferenceServer(servable).serve(gen.requests(loop.dataset))
    return summarize_load(result, offered_qps=config["qps"],
                          num_offered=gen.num_requests,
                          slo_s=config["slo_ms"] * 1e-3)


def measure(config):
    """The cadence sweep plus the degenerate-end parity evidence."""
    results = []
    report = run_cadence_sweep(lambda: build_loop(config),
                               list(config["cadences"]),
                               online_config(config),
                               results_out=results)
    by_cadence = {r.config.swap_every_steps: r for r in results}
    parity = by_cadence[1].report == pure_serving_report(config)
    never = by_cadence.get(0)
    training_isolated = (
        never is not None and
        never.training.losses == build_loop(config)
        .run(config["num_steps"]).losses)
    return {
        "report": report,
        "results": results,
        "swap_every_step_matches_pure_serving": parity,
        "never_swap_matches_pure_training": training_isolated,
        "total_swaps": report.total_swaps(),
        "max_shed_during_swap": report.max_shed_during_swap(),
        "monotone": report.ne_gap_monotone_in_staleness(),
    }


def summarize(config, results):
    swap_every, step_time_s, sizing = cadence_from_sizing(
        full_spec(SIZING_SPEC), SIZING_TARGET_QPS, SIZING_FRESHNESS_S)
    report = results["report"]
    metrics = report.to_json()
    del metrics["ne_gap_monotone_in_staleness"]  # a gate, below
    metrics["sizing_derived_cadence"] = {
        "spec": SIZING_SPEC,
        "target_qps": SIZING_TARGET_QPS,
        "freshness_budget_s": SIZING_FRESHNESS_S,
        "nodes": sizing.nodes,
        "achieved_qps": sizing.achieved_qps,
        "train_step_time_s": step_time_s,
        "swap_every_steps": swap_every,
    }
    return Summary(
        metrics=metrics,
        gates={
            "total_swaps >= 1": results["total_swaps"] >= 1,
            "max_shed_during_swap == 0":
                results["max_shed_during_swap"] == 0,
            "ne_gap_monotone_in_staleness":
                results["monotone"] and len(report.points) >= 3,
            "swap_every_step_matches_pure_serving":
                results["swap_every_step_matches_pure_serving"],
            "never_swap_matches_pure_training":
                results["never_swap_matches_pure_training"],
        },
        tables=[Table("online: staleness vs NE vs goodput "
                      f"(fresh NE {report.fresh_ne:.5f})",
                      OnlineReport.ROW_HEADER, report.rows())])


def main(argv=None):
    return harness_main("online", QUICK_CONFIG, FULL_CONFIG, measure,
                        summarize, argv)


def test_online_curve(benchmark, report):
    """Monotone staleness->NE-gap curve, lossless swaps, bitwise parity."""
    results = benchmark.pedantic(measure, args=(dict(QUICK_CONFIG),),
                                 rounds=1, iterations=1)
    rep = results["report"]
    summary = summarize(dict(QUICK_CONFIG), results)
    report(*summary.tables[0])
    assert all(summary.gates.values())
    # the request path is cadence-invariant: identical goodput and p99
    goodputs = {p.goodput_qps for p in rep.points}
    p99s = {p.p99_s for p in rep.points}
    assert len(goodputs) == 1 and len(p99s) == 1


def test_deterministic_json(benchmark, report):
    """Same seed, same config -> identical serialized results."""
    config = dict(QUICK_CONFIG, num_steps=4, cadences=(1, 2, 0))
    a = summarize(config, measure(config))
    b = benchmark.pedantic(lambda: summarize(config, measure(config)),
                           rounds=1, iterations=1)
    report("online determinism", ["check", "result"],
           [["json identical across runs", a == b]])
    assert a == b


if __name__ == "__main__":
    sys.exit(main())
