"""Command-line entry points: ``python -m repro [subcommand]``.

* ``python -m repro`` / ``python -m repro selfcheck`` — prints the
  version, verifies the headline calibrations against the paper's
  measured anchors, and runs a two-second smoke train proving the
  distributed trainer matches the single-process reference on this
  machine. Exit code 0 means the installation is healthy.
* ``python -m repro trace`` — runs a few traced iterations of a shrunken
  Table 3 model on the simulated multi-rank trainer, writes a Chrome
  ``trace_event`` JSON (open in Perfetto / ``chrome://tracing``) and
  prints a run summary comparing measured phase shares against the
  analytical Eq. 1 latency breakdown.

Benchmarks are not subcommands: each runs as a script,
``python benchmarks/bench_<name>.py [--quick] [--out PATH]``.
"""

from __future__ import annotations

import argparse
import sys


def selfcheck() -> int:
    """Installation health check (the original ``python -m repro``)."""
    import repro
    from repro import nn
    from repro.comms import PROTOTYPE_TOPOLOGY, ClusterTopology
    from repro.comms.perf_model import (achieved_all_reduce_bw,
                                        achieved_all_to_all_bw)
    from repro.core import NeoTrainer
    from repro.data import SyntheticCTRDataset
    from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
    from repro.models import DLRM, DLRMConfig
    from repro.models import full_spec
    from repro.perf import capacity_ladder
    from repro.sharding import PlannerConfig

    print(f"repro {repro.__version__} — Neo/ZionEX reproduction "
          f"self-check\n")

    failures = []

    def check(label, ok, detail):
        status = "ok " if ok else "FAIL"
        print(f"[{status}] {label}: {detail}")
        if not ok:
            failures.append(label)

    # 1. comms calibration anchors (Section 5.1)
    topo = PROTOTYPE_TOPOLOGY(16)
    a2a = achieved_all_to_all_bw(256e6, topo) / 1e9
    ar = achieved_all_reduce_bw(256e6, topo) / 1e9
    check("AlltoAll calibration", abs(a2a - 7.0) < 1.5,
          f"{a2a:.1f} GB/s (paper: ~7)")
    check("AllReduce calibration", abs(ar - 60.0) < 10,
          f"{ar:.1f} GB/s (paper: ~60)")

    # 2. capacity arithmetic (Section 5.3.3)
    ladder = capacity_ladder(full_spec("F1"))
    check("F1 capacity ladder",
          abs(ladder[0].total_bytes - 96e12) < 2e12
          and abs(ladder[2].total_bytes - 24e12) < 2e12,
          f"{ladder[0].total_bytes / 1e12:.0f} -> "
          f"{ladder[2].total_bytes / 1e12:.1f} TB (paper: 96 -> 24)")

    # 3. smoke train: distributed == reference
    tables = tuple(EmbeddingTableConfig(f"t{i}", 64, 8, avg_pooling=3.0)
                   for i in range(3))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(16, 8), tables=tables,
                        top_mlp=(16,))
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    batches = ds.batches(16, 3)
    reference = DLRM(config, seed=0)
    ref_opt = nn.SGD(reference.dense_parameters(), lr=0.1)
    ref_sparse = SparseAdaGrad(lr=0.1)
    ref_losses = [reference.train_step(b, ref_opt, ref_sparse)
                  for b in batches]
    trainer = NeoTrainer.from_planner(
        config, ClusterTopology(num_nodes=1, gpus_per_node=4),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=0,
        planner_config=PlannerConfig(world_size=4, ranks_per_node=4,
                                     dp_threshold_rows=16))
    losses = [trainer.train_step(b.split(4)) for b in batches]
    drift = max(abs(a - b) for a, b in zip(ref_losses, losses))
    check("distributed == reference", drift < 1e-4,
          f"max loss drift {drift:.2e} over {len(batches)} steps")
    check("replicas in sync", trainer.replicas_in_sync(),
          f"{trainer.world_size} ranks bitwise identical")

    print(f"\n{'ALL CHECKS PASSED' if not failures else 'FAILURES: ' + str(failures)}")
    return 0 if not failures else 1


def trace_command(args: argparse.Namespace) -> int:
    """Run a traced mini training run and emit trace JSON + summary."""
    from repro import nn
    from repro.comms import ClusterTopology
    from repro.core import NeoTrainer
    from repro.data import SyntheticCTRDataset
    from repro.embedding import SparseAdaGrad
    from repro.models import full_spec, mini_config
    from repro.obs import MetricRegistry, Tracer, render_summary
    from repro.perf import TrainingSetup, latency_breakdown
    from repro.sharding import PlannerConfig

    if args.ranks < 1 or args.iters < 1 or args.batch < 1:
        print("error: --ranks, --iters and --batch must be positive",
              file=sys.stderr)
        return 2
    if args.batch % args.ranks:
        print(f"error: --batch {args.batch} must be divisible by "
              f"--ranks {args.ranks}", file=sys.stderr)
        return 2

    config = mini_config(args.model)
    topology = ClusterTopology(num_nodes=1, gpus_per_node=args.ranks)
    tracer = Tracer(clock=args.clock)
    registry = MetricRegistry()
    trainer = NeoTrainer.from_planner(
        config, topology,
        dense_optimizer=lambda p: nn.SGD(p, lr=0.05),
        sparse_optimizer=SparseAdaGrad(lr=0.05), seed=0,
        planner_config=PlannerConfig(world_size=args.ranks,
                                     ranks_per_node=args.ranks,
                                     dp_threshold_rows=64),
        trace=tracer, metrics=registry)
    dataset = SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                                  seed=1)
    for batch in dataset.batches(args.batch, args.iters):
        trainer.train_step(batch.split(args.ranks))

    trace = tracer.trace
    trace.save(args.out)
    print(f"wrote {len(trace.closed_events())} spans to {args.out} "
          f"(open in Perfetto or chrome://tracing)\n")

    # analytical Fig. 12 breakdown of the *full-scale* named model, for
    # the measured-vs-model share comparison
    setup = TrainingSetup(spec=full_spec(args.model), topology=topology,
                          global_batch=1024 * args.ranks)
    model_breakdown = latency_breakdown(setup)
    print(render_summary(
        trace, registry, model=model_breakdown,
        title=f"Traced run: {args.model} mini, {args.ranks} ranks, "
              f"{args.iters} iterations"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: ``selfcheck`` and ``trace``."""
    from repro.models import MODEL_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Neo/ZionEX reproduction command line")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("selfcheck", help="verify the installation (default)")
    trace_p = sub.add_parser(
        "trace", help="run traced iterations, write Chrome trace JSON")
    trace_p.add_argument("--model", default="A2", choices=MODEL_NAMES,
                         help="Table 3 model whose mini config to train")
    trace_p.add_argument("--ranks", type=int, default=4,
                         help="simulated ranks (single node)")
    trace_p.add_argument("--iters", type=int, default=3,
                         help="training iterations to trace")
    trace_p.add_argument("--batch", type=int, default=64,
                         help="global batch size")
    trace_p.add_argument("--clock", default="wall",
                         choices=("wall", "logical"),
                         help="span clock: wall seconds or logical ticks")
    trace_p.add_argument("--out", default="trace.json",
                         help="output path for the Chrome trace JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return trace_command(args)
    return selfcheck()


if __name__ == "__main__":
    sys.exit(main())
