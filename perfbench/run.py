"""The repository benchmark: one workload per process, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload train_sparse --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead. Both modes check the
program's outputs and exit 1 if a check fails. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance and
every metric with its unit, direction and clock. See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit, better, clock, bound); clock "host" is wall time (or
# memory) of this process, "scaled" host time scaled to the reference
# host's speed (hostspeed.py), "virtual" the modeled clock,
# "deterministic" a function of the seed alone
END_TO_END = [
    ("setup_s", "s", "lower", "scaled", 0.25),
    ("peak_rss_mb", "MB", "lower", "host", 0.1),
    ("train_samples_per_s", "1/s", "higher", "scaled", 0.25),
    ("train_step_tail_ms", "ms", "lower", "host", 0.25),
    ("train_final_ne", "NE", "lower", "deterministic", 0.02),
    ("serve_requests_per_wall_s", "1/s", "higher", "scaled", 0.25),
    ("serve_p50_ms", "ms", "lower", "virtual", 0.1),
    ("serve_p99_ms", "ms", "lower", "virtual", 0.25),
    ("serve_slo_attainment", "ratio", "higher", "virtual", 0.02),
    ("fleet_replica_s", "replica-s", "lower", "virtual", 0.2),
    ("cosim_wall_s", "s", "lower", "scaled", 0.25),
    ("online_ne_gap", "NE", "lower", "deterministic", 0.02),
]

# (name, unit, better, clock)
PER_LAYER = [
    ("data.batch_s", "s", "lower", "host"),
    ("data.concat_s", "s", "lower", "host"),
    ("embedding.lookup_s", "s", "lower", "host"),
    ("embedding.update_s", "s", "lower", "host"),
    ("embedding.lookup_calls_per_step", "calls/step", "lower", "count"),
    ("embedding.update_rows_per_step", "rows/step", "lower", "count"),
    ("comms.collective_s", "s", "lower", "host"),
    ("comms.calls_per_step", "calls/step", "lower", "count"),
    ("comms.wire_bytes_per_step", "bytes/step", "lower", "count"),
    ("comms.modeled_ms_per_step", "ms/step", "lower", "virtual"),
    ("core.train_step_self_s", "s", "lower", "host"),
    ("core.checkpoint_save_s", "s", "lower", "host"),
    ("core.checkpoint_bytes", "bytes", "lower", "count"),
    ("core.sparse_path_share", "ratio", "lower", "host"),
    ("nn.dense_fwd_bwd_s", "s", "lower", "host"),
    ("nn.optimizer_s", "s", "lower", "host"),
    ("serving.plan_s", "s", "lower", "host"),
    ("serving.plan_share", "ratio", "lower", "host"),
    ("serving.service_time_calls_per_request", "calls/request", "lower",
     "count"),
    ("serving.predict_s", "s", "lower", "host"),
    ("serving.freeze_s", "s", "lower", "host"),
    ("serving.dispatches", "count", "lower", "count"),
    ("serving.batch_samples_mean", "samples", "higher", "count"),
    ("serving.queue_wait_p99_ms", "ms", "lower", "virtual"),
    ("serving.dedup_read_ratio", "ratio", "lower", "count"),
    ("cache.hit_rate", "ratio", "higher", "count"),
    ("cache.fills", "count", "lower", "count"),
    ("cache.evictions", "count", "lower", "count"),
    ("cache.read_s", "s", "lower", "host"),
    ("fleet.route_s", "s", "lower", "host"),
    ("fleet.route_imbalance", "ratio", "lower", "count"),
    ("fleet.scale_events", "count", "lower", "count"),
    ("fleet.replicas_peak", "count", "lower", "count"),
    ("online.publish_s", "s", "lower", "host"),
    ("online.swaps", "count", "higher", "count"),
    ("online.staleness_p99_steps", "steps", "lower", "count"),
    ("online.shed_during_swap", "count", "lower", "count"),
    ("obs.trace_overhead_frac", "ratio", "lower", "host"),
]

MIN_ROUNDS = 3          # untraced rounds (set-up is timed in each)
MIN_PAIRS = 2           # untraced/traced round pairs in trace mode
TAIL_BEYOND = 10        # samples the reported tail percentile leaves above


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS pools at one thread, unless the environment already sets
    a cap; must run before numpy is imported. The simulator's matrices
    are small, and a pool spread over every CPU makes each GEMM wait for
    the slowest of them: on a 2-vCPU VM, two threads made the online
    phase slower and its wall time more variable between runs."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload size (self-test)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state():
    """(commit, dirty) of the working directory, or (None, None) when it
    is not a git checkout."""
    if not os.path.isdir(".git"):
        return None, None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def provenance(args) -> dict:
    import numpy as np
    commit, dirty = git_state()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit, "git_dirty": dirty}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    and that percentile (max when there are too few samples)."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    import numpy as np
    q = 100.0 * (1.0 - TAIL_BEYOND / n)
    return float(np.percentile(values, q)), q


def lean(r) -> None:
    """Drop a round's heavy objects once its numbers are taken."""
    r.setup = r.cosim = None
    r.tables_at_checkpoint = {}


def host_times(spec, rounds, scaled: bool) -> dict:
    """The host-clock metrics, in reference-host seconds (``scaled``) or
    in this host's own seconds."""
    def t(wall, scale):
        return wall * scale if scaled else wall

    global_batch = spec.per_rank_batch * spec.nodes * spec.gpus_per_node
    return {
        "setup_s": statistics.median(
            t(r.setup_s, r.setup_scale) for r in rounds),
        "train_samples_per_s": statistics.median(
            global_batch * spec.train_steps / t(r.train_wall_s,
                                                r.train_scale)
            for r in rounds),
        "serve_requests_per_wall_s": statistics.median(
            sum(r.day_sizes) / sum(t(wall, scale) for wall, scale in
                                   zip(r.day_walls_s, r.day_scales))
            for r in rounds),
        "cosim_wall_s": statistics.median(
            t(r.online_wall_s, r.online_scale) for r in rounds),
    }


def end_to_end(spec, rounds, speed) -> tuple:
    first = rounds[0].outputs
    # the step-time tail stays in this host's seconds: slow steps (GC,
    # checkpoint writes) do not slow down with the host the way whole
    # phases do, and scaling them doubled the tail's spread across runs
    steps = [s for r in rounds for s in r.step_s]
    tail_s, q = tail(steps)
    values = {
        **host_times(spec, rounds, scaled=True),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_step_tail_ms": 1e3 * tail_s,
        "train_final_ne": first["train_final_ne"],
        "serve_p50_ms": 1e3 * first["day_p50_s"],
        "serve_p99_ms": 1e3 * first["day_p99_s"],
        "serve_slo_attainment": first["day_slo_attainment"],
        "fleet_replica_s": first["day_replica_s"],
        "online_ne_gap": first["online_ne_gap"],
    }
    raw = host_times(spec, rounds, scaled=False)
    notes = {"rounds": len(rounds),
             "train_step_samples": len(steps),
             "train_step_tail_percentile": q,
             "host_speed_kernel_s": statistics.median(speed.samples),
             "unscaled_host_metrics": raw}
    return values, notes


def measure(args, workdir):
    """Run rounds for ``args.seconds``; returns (metrics, notes, failed
    checks, operations attempted, operations failed)."""
    import hostspeed
    import workloads
    spec = workloads.sized(workloads.WORKLOADS[args.workload], args.scale)
    failures = []
    rounds, traced, metrics_per_round = [], [], []
    start = time.perf_counter()

    def once(probe=None, speed=None):
        if probe is None:
            r = workloads.run_round(spec, args.seed, workdir, speed=speed)
        else:
            with probe.active():
                r = workloads.run_round(spec, args.seed, workdir, probe)
        if not rounds and not traced:
            # output checks on the first round, outside the timed phases
            failures.extend(workloads.check_checkpoint(spec, r))
            failures.extend(workloads.check_dispatches(r.setup))
        failures.extend(r.failures)
        return r

    def more(done, minimum, last_wall):
        # stop before a round that would overrun the measuring window
        return done < minimum or \
            time.perf_counter() - start + last_wall <= args.seconds

    if not args.trace:
        speed = hostspeed.HostSpeed()
        while more(len(rounds), MIN_ROUNDS,
                   rounds[-1].wall_s if rounds else 0.0):
            r = once(speed=speed)
            lean(r)
            rounds.append(r)
            gc.collect()
        metrics, notes = end_to_end(spec, rounds, speed)
    else:
        import layers
        while more(len(traced), MIN_PAIRS,
                   rounds[-1].wall_s + traced[-1].wall_s if traced else 0.0):
            r = once()
            lean(r)
            rounds.append(r)
            gc.collect()
            probe = layers.Probe()
            r = once(probe)
            metrics_per_round.append(layers.layer_metrics(probe, r))
            lean(r)
            traced.append(r)
            del probe
            gc.collect()
        metrics = {}
        for name in metrics_per_round[0]:
            values = [m[name] for m in metrics_per_round]
            if name in layers.EXACT and len(set(values)) != 1:
                failures.append(f"trace: exact count {name} varies: "
                                f"{sorted(set(values))}")
            metrics[name] = statistics.median(values)
        untraced = statistics.median(r.wall_s for r in rounds)
        metrics["obs.trace_overhead_frac"] = \
            statistics.median(r.wall_s for r in traced) / untraced - 1.0
        notes = {"rounds": len(rounds), "traced_rounds": len(traced)}
    reference = rounds[0].outputs
    for i, r in enumerate(rounds + traced):
        if r.outputs != reference:
            diff = sorted(k for k in reference
                          if r.outputs.get(k) != reference[k])
            failures.append(f"round {i}: outputs differ from round 0 "
                            f"of the same seed: {diff}")
    attempted = sum(r.attempted for r in rounds + traced)
    failed = sum(r.failed for r in rounds + traced)
    notes.update({k: v for k, v in reference.items()
                  if k.startswith(("day_", "online_")) and "losses" not in k})
    return metrics, notes, failures, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test ({exc}); "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workroot = os.path.join(os.getcwd(), ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    try:
        metrics, notes, failures, attempted, failed = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(workroot) and not os.listdir(workroot):
            os.rmdir(workroot)
    table = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({"provenance": provenance(args), "notes": notes}))
    out = {}
    for entry in table:
        name, unit, better, clock = entry[:4]
        value = float(metrics[name])
        out[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>16.6g} {unit:<14} {better:<7} {clock}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
