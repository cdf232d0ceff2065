"""Rank-stacked simulation: batch the world dimension out of the hot loop.

The lock-step simulator used to advance its ``R`` data-parallel dense
replicas with ``R`` sequential python-loop calls per phase (forward,
loss, backward, AllReduce flatten, optimizer). The rank-stacked
:class:`NeoTrainer` packs every replica's parameters into leading-axis
``(R, ...)`` arrays so each phase is one batched ``np.matmul``/einsum —
turning per-step cost from
"R × (python + tiny-GEMM overhead)" into one R-times-larger kernel.

Two measurements:

* ``looped`` (the reference oracle ``tests/oracles/looped_trainer.py``)
  vs ``stacked`` wall clock per training step at growing world sizes,
  same model/batches/seed — with a bitwise parity check (losses and
  rank-0 dense parameters after the measured steps must be identical;
  the stacked path is not allowed to buy speed with drift);
* a stacked-only scaling curve out to R=128, showing per-step time
  staying near-linear in the (growing) global batch while the looped
  path's python overhead would grow with R on top of that.

Run standalone to write ``BENCH_rank_stacked.json``::

    PYTHONPATH=src python benchmarks/bench_rank_stacked.py \
        [--quick] [--out PATH] [--assert-speedup X]

``--quick`` shrinks world sizes and iterations for CI smoke runs (the
CI gate asserts >= 2x at R=16); the full run is the acceptance
measurement: stacked must be >= 4x looped at R=32.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
from repro.models import DLRMConfig
from repro.obs.metrics import MetricRegistry
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

# the looped baseline is the test-suite oracle; make the repo root
# importable when this file runs as a script
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.oracles.looped_trainer import LoopedNeoTrainer  # noqa: E402

# dense-dominated configuration: the dense replica work (MLPs) is what
# rank-stacking vectorizes, so the model is deep and narrow — per-rank
# looped cost is python/dispatch overhead per layer, exactly what one
# batched matmul amortizes. The embedding side is one small
# data-parallel table (local lookup + sparse update per rank, O(R) with
# no AlltoAll; table-wise/row-wise schemes build O(R^2) payload lists
# that would dominate the step at R=128 in BOTH modes and drown the
# dense contrast). Narrow layers also keep the AllReduce/optimizer
# memory traffic — paid equally by both modes — small.
MODEL = dict(dense_dim=16, bottom_mlp=(16,) * 14, top_mlp=(16,) * 14,
             num_tables=1, rows=64, emb_dim=16, per_rank_batch=4)

FULL_WORLDS = [4, 16, 32]
FULL_STACKED_ONLY = [64, 128]
QUICK_WORLDS = [4, 16]
QUICK_STACKED_ONLY = []


def build_trainer(world: int, stacked: bool = True,
                  seed: int = 0) -> NeoTrainer:
    tables = tuple(
        EmbeddingTableConfig(f"t{i}", MODEL["rows"], MODEL["emb_dim"],
                             avg_pooling=2.0)
        for i in range(MODEL["num_tables"]))
    config = DLRMConfig(dense_dim=MODEL["dense_dim"],
                        bottom_mlp=MODEL["bottom_mlp"], tables=tables,
                        top_mlp=MODEL["top_mlp"])
    plan = ShardingPlan(world_size=world)
    for t in tables:
        plan.tables[t.name] = shard_table(
            t, ShardingScheme.DATA_PARALLEL, list(range(world)))
    cls = NeoTrainer if stacked else LoopedNeoTrainer
    return cls(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1, momentum=0.9),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=seed,
        metrics=MetricRegistry())


def make_batches(world: int, num: int):
    tables = tuple(
        EmbeddingTableConfig(f"t{i}", MODEL["rows"], MODEL["emb_dim"],
                             avg_pooling=2.0)
        for i in range(MODEL["num_tables"]))
    ds = SyntheticCTRDataset(tables, dense_dim=MODEL["dense_dim"],
                             noise=0.2, seed=1)
    global_batch = MODEL["per_rank_batch"] * world
    return [ds.batch(global_batch, i).split(world) for i in range(num)]


def _best_step_time(trainer: NeoTrainer, batches, iters: int) -> float:
    """Best-of wall clock for one full train_step (state mutates across
    calls; timing is unaffected — same shapes every step)."""
    trainer.train_step(batches[0])  # warmup: lazy allocations, caches
    best = float("inf")
    for i in range(iters):
        batch = batches[i % len(batches)]
        t0 = time.perf_counter()
        trainer.train_step(batch)
        best = min(best, time.perf_counter() - t0)
    return best


def check_parity(world: int, steps: int = 3) -> bool:
    """Stacked and looped must agree bitwise: per-step losses, rank-0
    dense parameters and total comms wire bytes."""
    looped = build_trainer(world, stacked=False)
    stacked = build_trainer(world, stacked=True)
    batches = make_batches(world, steps)
    for batch in batches:
        if looped.train_step(batch) != stacked.train_step(batch):
            return False
    for pa, pb in zip(looped.ranks[0].dense_parameters(),
                      stacked.ranks[0].dense_parameters()):
        if not np.array_equal(pa.data, pb.data):
            return False
    return looped.pg.log.wire_bytes == stacked.pg.log.wire_bytes


def run_benchmark(quick=False, iters=None):
    """Measure looped vs stacked step wall clock across world sizes.

    Returns a JSON-ready dict with per-world timings, speedups and the
    bitwise-parity verdict.
    """
    worlds = QUICK_WORLDS if quick else FULL_WORLDS
    extra = QUICK_STACKED_ONLY if quick else FULL_STACKED_ONLY
    iters = iters if iters is not None else (3 if quick else 5)

    parity = check_parity(worlds[0])

    points = {}
    for world in worlds:
        batches = make_batches(world, 2)
        looped_t = _best_step_time(build_trainer(world, stacked=False),
                                   batches, iters)
        stacked_t = _best_step_time(build_trainer(world, stacked=True),
                                    batches, iters)
        points[world] = {
            "looped_step_s": looped_t,
            "stacked_step_s": stacked_t,
            "speedup": looped_t / stacked_t,
        }
    curve = {}
    for world in worlds + extra:
        batches = make_batches(world, 2)
        curve[world] = _best_step_time(build_trainer(world, stacked=True),
                                       batches, iters)

    top = max(worlds)
    return {
        "benchmark": "rank_stacked_simulation",
        "mode": "quick" if quick else "full",
        "model": dict(MODEL),
        "parity": {"stacked_vs_looped_bitwise": bool(parity)},
        "points": {str(w): p for w, p in points.items()},
        "stacked_step_s_by_world": {str(w): t for w, t in curve.items()},
        "speedup_at_top_world": points[top]["speedup"],
        "top_world": top,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small world sizes for CI smoke runs")
    parser.add_argument("--out", default="BENCH_rank_stacked.json",
                        help="output JSON path")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless speedup at the largest "
                             "compared world size >= X")
    args = parser.parse_args(argv)
    result = run_benchmark(quick=args.quick)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    for w, p in result["points"].items():
        print(f"R={w:>4}  looped {p['looped_step_s'] * 1e3:8.2f} ms  "
              f"stacked {p['stacked_step_s'] * 1e3:8.2f} ms  "
              f"{p['speedup']:.2f}x")
    for w, t in result["stacked_step_s_by_world"].items():
        print(f"R={w:>4}  stacked {t * 1e3:8.2f} ms/step")
    print(f"parity: {result['parity']}")
    print(f"wrote {args.out}")
    if not result["parity"]["stacked_vs_looped_bitwise"]:
        print("FAIL: stacked path not bitwise-identical to looped",
              file=sys.stderr)
        return 1
    speedup = result["speedup_at_top_world"]
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(f"FAIL: speedup {speedup:.2f}x at R={result['top_world']} "
              f"< floor {args.assert_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


def test_rank_stacked_speedup(benchmark, report):
    """Smoke: stacked beats looped and stays bitwise-identical."""
    result = benchmark(run_benchmark, quick=True, iters=2)
    rows = [(w, f"{p['looped_step_s'] * 1e3:.2f}",
             f"{p['stacked_step_s'] * 1e3:.2f}", f"{p['speedup']:.2f}x")
            for w, p in result["points"].items()]
    report("rank-stacked vs looped train-step wall clock",
           ["world", "looped ms", "stacked ms", "speedup"], rows)
    assert result["parity"]["stacked_vs_looped_bitwise"]
    # the hard >=2x / >=4x floors are CLI gates on dedicated hardware;
    # under pytest parallelism only require a real win at the top size
    assert result["speedup_at_top_world"] >= 1.0


if __name__ == "__main__":
    sys.exit(main())
