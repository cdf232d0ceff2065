"""Serving benchmark: micro-batching goodput vs unbatched, under an SLO.

The serving claim mirrors the paper's training one — recommendation
kernels only pay off at batch width. Here the same frozen model serves
the same seeded Poisson arrival trace twice: once dispatching every
request alone (``max_batch_size=1``) and once through the dynamic
micro-batcher. At loads past the unbatched capacity the single-request
server collapses into queueing (p99 blows through the SLO, goodput goes
to ~0) while the batcher widens its dispatches and keeps p99 bounded by
``max_wait + service``. All latency accounting is virtual time from the
shared perf/platform models, so the JSON is deterministic for a given
seed and identical on every machine.

Run standalone to write ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick] [--out PATH]

It exits nonzero unless batched goodput is at least ``MIN_SPEEDUP``
times the unbatched goodput at the overload point while batched p99
stays within the SLO.
"""

from __future__ import annotations

import sys

from _harness import Summary, Table, main as harness_main
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig
from repro.models import DLRM, DLRMConfig
from repro.serving import (BatchingPolicy, FreezeConfig, InferenceServer,
                           LoadReport, ServingPerfModel, freeze,
                           run_load_test)

FULL_CONFIG = dict(num_tables=4, rows=400, dim=16, dense_dim=8,
                   requests=2500, slo_ms=5.0, max_batch=64,
                   max_wait_us=2000.0, precision="fp32", seed=0)
QUICK_CONFIG = dict(num_tables=3, rows=200, dim=8, dense_dim=6,
                    requests=800, slo_ms=5.0, max_batch=64,
                    max_wait_us=2000.0, precision="fp32", seed=0)

MIN_SPEEDUP = 2.0  # batched / unbatched goodput at the 2x load point


def build_setup(config):
    tables = tuple(EmbeddingTableConfig(f"t{i}", config["rows"],
                                        config["dim"], avg_pooling=3.0)
                   for i in range(config["num_tables"]))
    model_config = DLRMConfig(dense_dim=config["dense_dim"],
                              bottom_mlp=(32, config["dim"]),
                              tables=tables, top_mlp=(32,))
    servable = freeze(DLRM(model_config, seed=config["seed"]),
                      FreezeConfig(precision=config["precision"]))
    dataset = SyntheticCTRDataset(tables, dense_dim=config["dense_dim"],
                                  seed=config["seed"])
    return servable, dataset


def policies(config):
    return {
        "batch=1": BatchingPolicy(max_batch_size=1, max_wait_s=0.0),
        "batched": BatchingPolicy(
            max_batch_size=config["max_batch"],
            max_wait_s=config["max_wait_us"] * 1e-6),
    }


def measure(config):
    """Both policies across under-load/at-capacity/overload points.

    Load points are placed relative to the *modeled* unbatched capacity,
    so the overload point saturates batch=1 by construction on any
    machine (everything downstream is virtual time)."""
    servable, dataset = build_setup(config)
    perf = ServingPerfModel()
    nnz = sum(t.avg_pooling for t in servable.config.tables)
    base_qps = perf.capacity_qps(servable, 1, nnz)
    load_points = {"0.5x": 0.5, "1x": 1.0, "2x": 2.0}
    results = {"capacity_batch1_qps": base_qps, "loads": {}}
    for label, scale in load_points.items():
        point = {}
        for name, policy in policies(config).items():
            server = InferenceServer(servable, policy, perf)
            report = run_load_test(
                server, dataset, qps=base_qps * scale,
                num_requests=config["requests"],
                slo_s=config["slo_ms"] * 1e-3, seed=config["seed"])
            point[name] = report
        results["loads"][label] = point
    overload = results["loads"]["2x"]
    results["goodput_speedup_at_2x"] = (
        overload["batched"].goodput_qps / overload["batch=1"].goodput_qps
        if overload["batch=1"].goodput_qps > 0 else float("inf"))
    results["batched_p99_within_slo_at_2x"] = (
        overload["batched"].p99_s <= config["slo_ms"] * 1e-3)
    return results


def report_dict(r):
    """A ``LoadReport`` as JSON: every field but the raw samples."""
    d = dict(r.__dict__)
    d.pop("samples_s", None)
    d["shed_fraction"] = r.shed_fraction
    return d


def summarize(config, results):
    speedup = results["goodput_speedup_at_2x"]
    return Summary(
        metrics={
            "capacity_batch1_qps": results["capacity_batch1_qps"],
            "loads": {label: {name: report_dict(rep)
                              for name, rep in point.items()}
                      for label, point in results["loads"].items()},
            "goodput_speedup_at_2x": speedup,
        },
        gates={
            f"goodput_speedup_at_2x >= {MIN_SPEEDUP:g}":
                speedup >= MIN_SPEEDUP,
            "batched_p99_within_slo_at_2x":
                results["batched_p99_within_slo_at_2x"],
        },
        tables=[Table("serving: batched vs unbatched under Poisson load "
                      f"(SLO {config['slo_ms']:g} ms)",
                      ["load", "policy"] + LoadReport.ROW_HEADER,
                      result_rows(results))])


def result_rows(results):
    rows = []
    for label, point in results["loads"].items():
        for name, rep in point.items():
            rows.append([label, name] + rep.row())
    return rows


def main(argv=None):
    return harness_main("serving", QUICK_CONFIG, FULL_CONFIG, measure,
                        summarize, argv)


def test_batched_goodput_speedup(benchmark, report):
    """Batched goodput >= 2x unbatched at overload, p99 within SLO."""
    results = benchmark.pedantic(measure, args=(dict(QUICK_CONFIG),),
                                 rounds=1, iterations=1)
    report("serving: batched vs unbatched under Poisson load "
           f"(SLO {QUICK_CONFIG['slo_ms']:.0f} ms)",
           ["load", "policy"] + LoadReport.ROW_HEADER,
           result_rows(results))
    assert all(summarize(dict(QUICK_CONFIG), results).gates.values())
    # under light load both policies meet the SLO — batching must not
    # sacrifice attainment when it isn't needed
    light = results["loads"]["0.5x"]
    assert light["batched"].slo_attainment == 1.0
    assert light["batch=1"].slo_attainment == 1.0


def test_deterministic_json(benchmark, report):
    """Same seed, same config -> identical serialized results."""
    config = dict(QUICK_CONFIG, requests=200)
    a = summarize(config, measure(config))
    b = benchmark.pedantic(lambda: summarize(config, measure(config)),
                           rounds=1, iterations=1)
    report("serving determinism", ["check", "result"],
           [["json identical across runs", a == b]])
    assert a == b


if __name__ == "__main__":
    sys.exit(main())
