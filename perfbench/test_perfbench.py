"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks that every metric appears for every workload, that exact
counts and virtual-clock outputs repeat across runs of one seed, that
tracing only reads, that ``BENCHMARK.json`` matches the metric tables,
and that the command fails cleanly where the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.1"
# end-to-end metrics that depend on the seed alone
DETERMINISTIC = [name for name, _u, _b, clock, _bound in run.END_TO_END
                 if clock in ("virtual", "deterministic")]


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", SCALE], cwd=cwd, capture_output=True, text=True,
        timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Two untraced and two traced runs of every workload, one seed."""
    out = {}
    for name in workloads.WORKLOADS:
        out[name] = {trace: [result(bench(name, trace)) for _ in range(2)]
                     for trace in (0, 1)}
    return out


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, _clock, bound in run.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _c in run.PER_LAYER]


def test_every_metric_for_every_workload(runs):
    for name, by_trace in runs.items():
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            for res in by_trace[trace]:
                assert res["correct"] is True
                assert res["attempted"] >= 1
                assert res["failed"] == 0
                assert list(res["metrics"]) == [m[0] for m in table], name
                for m in table:
                    assert res["metrics"][m[0]]["unit"] == m[1]
        for metric in ("setup_s", "train_samples_per_s", "cosim_wall_s",
                       "serve_requests_per_wall_s", "serve_p99_ms"):
            assert by_trace[0][0]["metrics"][metric]["value"] > 0


def test_exact_counts_repeat_across_runs_of_one_seed(runs):
    for name, by_trace in runs.items():
        first, second = by_trace[0]
        for metric in DETERMINISTIC:
            assert first["metrics"][metric] == second["metrics"][metric], \
                (name, metric)
        first, second = by_trace[1]
        for metric in layers.EXACT:
            assert first["metrics"][metric] == second["metrics"][metric], \
                (name, metric)


def test_tracing_only_reads(tmp_path):
    """A traced round computes exactly what an untraced round does."""
    train_step = vars(workloads.NeoTrainer)["train_step"]
    for name, spec in workloads.WORKLOADS.items():
        spec = workloads.sized(spec, float(SCALE))
        plain = workloads.run_round(spec, 5, str(tmp_path / name))
        probe = layers.Probe()
        with probe.active():
            traced = workloads.run_round(spec, 5, str(tmp_path / name), probe)
        assert traced.outputs == plain.outputs, name
        assert len(probe.tracer.trace) > 0
        metrics = layers.layer_metrics(probe, traced)
        assert set(metrics) | {"obs.trace_overhead_frac"} == \
            {m[0] for m in run.PER_LAYER}
    # the wrappers are gone again once the probe is inactive
    assert vars(workloads.NeoTrainer)["train_step"] is train_step
    assert workloads.freeze is layers.export.freeze


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("train_sparse", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scale():
    """A phase between two nominal kernel samples keeps its time; a
    slower host (slower kernel) scales it down, by less than the ratio."""
    assert hostspeed.HostSpeed.scale(hostspeed.NOMINAL_S,
                                     hostspeed.NOMINAL_S) == 1.0
    slow = hostspeed.HostSpeed.scale(2 * hostspeed.NOMINAL_S,
                                     2 * hostspeed.NOMINAL_S)
    assert 0.5 < slow < 1.0
    assert hostspeed.HostSpeed().sample() > 0
