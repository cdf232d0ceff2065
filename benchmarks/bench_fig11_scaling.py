"""Fig. 11: weak-scaling of training throughput for models A1/A2/A3,
1 to 16 nodes, fixed per-GPU batch, normalized to 8 GPUs (1 node).

Paper result: ~50% scaling efficiency at 128 GPUs for A2, ~40% for A1
(load imbalance: few tables) and A3 (wider dims, heavier AlltoAll).

Two entry points share one sweep harness:

* the pytest benchmark reproduces the paper figure from the analytic
  throughput model, plus a fast-tier smoke that steps the *real*
  rank-stacked simulator at R=64 (affordable now that the world
  dimension is batched — see ``bench_rank_stacked.py``);
* the CLI sweeps an arbitrary ``--ranks`` comma list (GPU counts) and
  emits per-point step time for both the analytic model curve and,
  with ``--measure``, the measured stacked-simulator curve::

      PYTHONPATH=src python benchmarks/bench_fig11_scaling.py \
          --ranks 8,16,64,128 [--measure] [--out PATH]
"""

import argparse
import json
import sys

import pytest

from repro.comms import PROTOTYPE_TOPOLOGY
from repro.models import full_spec
from repro.perf import TrainingSetup, plan_imbalance, weak_scaling_curve
from repro.sharding import (CostModelParams, EmbeddingShardingPlanner,
                            PlannerConfig, plan_cost_per_rank)

NODE_COUNTS = [1, 2, 4, 8, 16]
PAPER_EFFICIENCY_128 = {"A1": 0.40, "A2": 0.50, "A3": 0.40}
PER_GPU_BATCH = 512
SMOKE_WORLD = 64


def imbalance_for(spec, world):
    params = CostModelParams(global_batch=PER_GPU_BATCH * world,
                             world_size=world)
    planner = EmbeddingShardingPlanner(
        PlannerConfig(world_size=world, ranks_per_node=8,
                      partitioner="ldm"), cost_params=params)
    plan = planner.plan(list(spec.tables))
    return plan_imbalance(plan_cost_per_rank(plan, params))


def scaling_table(node_counts=NODE_COUNTS):
    out = {}
    for name in ("A1", "A2", "A3"):
        spec = full_spec(name)
        setup = TrainingSetup(
            spec=spec, topology=PROTOTYPE_TOPOLOGY(1),
            global_batch=PER_GPU_BATCH * 8,
            load_imbalance=imbalance_for(spec, 128))
        out[name] = weak_scaling_curve(setup, node_counts)
    return out


def sweep(gpu_counts, measure=False, iters=3):
    """One ``--ranks`` sweep: per-point step time for the analytic
    model curve (GPU counts divisible by 8; nodes = gpus // 8) and,
    when ``measure`` is set, the wall-clock step time of the real
    rank-stacked simulator at the same world sizes."""
    points = {}
    nodes = [g // 8 for g in gpu_counts if g % 8 == 0 and g >= 8]
    model_curves = scaling_table(nodes) if nodes else {}
    for gpus in gpu_counts:
        point = {"gpus": gpus}
        if gpus % 8 == 0 and gpus >= 8:
            n = gpus // 8
            global_batch = PER_GPU_BATCH * gpus
            point["model_step_time_s"] = {
                name: global_batch / curve[n]
                for name, curve in model_curves.items()}
        if measure:
            import bench_rank_stacked as brs
            trainer = brs.build_trainer(gpus)
            batches = brs.make_batches(gpus, 2)
            point["measured_stacked_step_s"] = brs._best_step_time(
                trainer, batches, iters)
        points[gpus] = point
    return points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ranks", default="8,16,32,64,128",
                        help="comma list of GPU counts to sweep")
    parser.add_argument("--measure", action="store_true",
                        help="also time the real rank-stacked simulator "
                             "at each world size")
    parser.add_argument("--iters", type=int, default=3,
                        help="timing iterations per measured point")
    parser.add_argument("--out", default=None,
                        help="optional output JSON path")
    args = parser.parse_args(argv)
    try:
        gpu_counts = [int(x) for x in args.ranks.split(",") if x.strip()]
    except ValueError:
        parser.error(f"--ranks must be a comma list of ints, "
                     f"got {args.ranks!r}")
    if not gpu_counts or any(g <= 0 for g in gpu_counts):
        parser.error("--ranks needs at least one positive GPU count")
    points = sweep(gpu_counts, measure=args.measure, iters=args.iters)
    for gpus, point in points.items():
        parts = [f"R={gpus:>4}"]
        for name, t in point.get("model_step_time_s", {}).items():
            parts.append(f"{name} {t * 1e3:7.2f} ms")
        if "measured_stacked_step_s" in point:
            parts.append(
                f"sim {point['measured_stacked_step_s'] * 1e3:7.2f} ms")
        print("  ".join(parts))
    if args.out:
        doc = {"benchmark": "fig11_scaling_sweep",
               "per_gpu_batch": PER_GPU_BATCH,
               "points": {str(g): p for g, p in points.items()}}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


def test_fig11_scaling(benchmark, report):
    curves = benchmark.pedantic(scaling_table, rounds=1, iterations=1)
    rows = []
    for name, curve in curves.items():
        base = curve[1]
        for n in NODE_COUNTS:
            eff = curve[n] / (n * base)
            rows.append((name, n * 8, f"{curve[n] / base:.2f}x",
                         f"{eff:.0%}"))
    report("Fig 11: weak-scaling relative throughput (vs 8 GPUs)",
           ["model", "gpus", "rel throughput", "efficiency"], rows)
    for name, curve in curves.items():
        values = [curve[n] for n in NODE_COUNTS]
        # throughput grows monotonically with nodes
        assert all(a < b for a, b in zip(values, values[1:])), name
        # but sublinearly: efficiency at 16 nodes in the paper's band
        eff = curve[16] / (16 * curve[1])
        assert 0.25 < eff < 0.85, (name, eff)
    # A2 scales at least as well as A3 (wider dims hurt A3)
    eff = {name: curve[16] / (16 * curve[1])
           for name, curve in curves.items()}
    assert eff["A2"] >= eff["A3"] * 0.95


def test_fig11_smoke_r64(benchmark, report):
    """Fast-tier smoke: step the real simulator at R=64.

    Before rank-stacking this world size lived in the slow tier (a
    64-iteration python loop per phase per step); the stacked trainer
    makes it a sub-second check."""
    import bench_rank_stacked as brs

    def run():
        trainer = brs.build_trainer(SMOKE_WORLD)
        batches = brs.make_batches(SMOKE_WORLD, 2)
        return [trainer.train_step(batches[i % 2]) for i in range(3)]

    losses = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Fig 11 smoke: rank-stacked trainer at R=64",
           ["step", "loss"],
           [(i, f"{l:.6f}") for i, l in enumerate(losses)])
    assert len(losses) == 3
    assert all(0.0 < l < 10.0 for l in losses)


if __name__ == "__main__":
    sys.exit(main())
