"""Fleet benchmark: capacity-vs-replicas, goodput under overload, and
the autoscaled diurnal day.

Three curves, all virtual-time deterministic (same seed, same JSON, any
machine):

* **capacity vs replicas** — each point serves a proportionally scaled
  overload trace (``overload`` x the per-replica saturated capacity)
  through an N-replica fleet under power-of-two-choices routing with
  predicted-completion admission. Efficiency is goodput normalized by
  N x the N=1 goodput; the gate demands >= 0.8x linear at the largest
  N, i.e. routing imbalance may cost at most 20%;
* **goodput under overload** — offered load swept past a fixed fleet's
  capacity. Predicted admission sheds exactly the requests that would
  miss the deadline, so goodput *plateaus* at capacity instead of
  collapsing into queueing;
* **the diurnal day** — a sharp-peaked day curve over a Zipf user
  population, served once under the SLO-driven autoscaler (warm-up
  priced from the frozen artifact's export path) and once by the
  cheapest static fleet that holds the SLO. The gate: the autoscaler
  holds day-level p99 <= SLO with fewer replica-seconds than static
  peak provisioning.

Two parity checks ride along: an N=1 round-robin fleet must reproduce
the single-server ``bench_serving`` batched report bitwise, and an
identical re-run must produce an identical merged report.

Run standalone to write ``BENCH_fleet.json``::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick] [--out PATH]
"""

from __future__ import annotations

import sys

import bench_serving
from bench_serving import report_dict
from _harness import Summary, Table, main as harness_main
from repro.fleet import (AutoscalerConfig, CapacityPoint, DayCurve,
                         FleetTraffic, RouterPolicy, ServingFleet,
                         capacity_sweep, overload_sweep, replica_warmup_s,
                         run_autoscaled_day, smallest_static_fleet)
from repro.serving import (BatchingPolicy, InferenceServer, LoadReport,
                           ServingPerfModel, run_load_test)

FULL_CONFIG = dict(
    num_tables=4, rows=400, dim=16, dense_dim=8, precision="fp32", seed=0,
    # the bench_serving config whose batched 1x report an N=1 fleet must
    # reproduce bitwise
    parity_serving=bench_serving.FULL_CONFIG,
    # capacity / overload sweeps: dispatch-overhead-dominated replicas
    # (~1.5k qps each) so a few hundred requests per replica genuinely
    # saturate the fleet and the admission controller has to shed
    sweep_overhead_s=5e-3, slo_ms=50.0, max_batch=8, max_wait_us=2000.0,
    replica_counts=(1, 2, 4, 8), per_replica_requests=600, overload=1.5,
    overload_replicas=4, overload_scales=(0.5, 1.0, 1.5, 2.0),
    # diurnal day: even slower replicas (~20 qps) with an SLO scaled to
    # their ~0.25 s loaded-latency floor, so the hysteresis band
    # (0.3-0.4 x SLO) brackets the latencies a loaded replica produces
    day_duration_s=80.0, day_window_s=2.0, day_users=1_000_000,
    day_slo_ms=1000.0, day_overhead_s=0.2, day_max_batch=4,
    day_max_replicas=4, day_qps_factor=1.25)
QUICK_CONFIG = dict(
    FULL_CONFIG, num_tables=3, rows=200, dim=8, dense_dim=6,
    parity_serving=bench_serving.QUICK_CONFIG,
    per_replica_requests=250, overload_scales=(0.5, 1.0, 2.0),
    day_duration_s=40.0, day_window_s=1.0, day_users=20_000)

# sharp evening peak (~2.8x mean after normalization, ~14x peak/trough):
# wide enough that static peak provisioning wastes most of the night
DAY_HOURLY = (0.2, 0.2, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 2.6, 1.6, 0.8, 0.4)

MIN_SCALING = 0.8  # capacity efficiency at the largest replica count


def build_setup(config):
    return bench_serving.build_setup(config)


def sweep_policy(config):
    """Fleet-wide serving contract for the sweeps: dynamic batching with
    predicted-completion admission at the SLO deadline."""
    return BatchingPolicy(max_batch_size=config["max_batch"],
                          max_wait_s=config["max_wait_us"] * 1e-6,
                          admission="predicted",
                          deadline_s=config["slo_ms"] * 1e-3)


def _nnz(servable):
    return sum(t.avg_pooling for t in servable.config.tables)


def make_fleet(servable, n, policy, kind, seed, overhead_s):
    return ServingFleet(
        servable, policy=policy,
        perfs=[ServingPerfModel(overhead_s=overhead_s) for _ in range(n)],
        router=RouterPolicy(kind=kind, seed=seed))


def measure_capacity(config, servable, dataset):
    """Goodput at each replica count under proportional 1.5x overload,
    power-of-two-choices routing."""
    per_replica_cap = ServingPerfModel(
        overhead_s=config["sweep_overhead_s"]).capacity_qps(
        servable, config["max_batch"], _nnz(servable))
    per_replica_qps = config["overload"] * per_replica_cap
    slo_s = config["slo_ms"] * 1e-3
    policy = sweep_policy(config)

    def serve_at(n):
        fleet = make_fleet(servable, n, policy, "power_of_two",
                           config["seed"], config["sweep_overhead_s"])
        traffic = FleetTraffic(
            mean_qps=n * per_replica_qps,
            duration_s=config["per_replica_requests"] / per_replica_qps,
            seed=config["seed"])
        return fleet.serve(traffic.requests(dataset), slo_s=slo_s,
                           offered_qps=n * per_replica_qps).merged

    points = capacity_sweep(serve_at, config["replica_counts"],
                            per_replica_qps)
    return {"per_replica_capacity_qps": per_replica_cap,
            "per_replica_offered_qps": per_replica_qps,
            "points": points,
            "scaling_efficiency_at_max": points[-1].efficiency}


def measure_overload(config, servable, dataset):
    """Offered load swept past a fixed fleet's capacity: the predicted
    admission plateau."""
    n = config["overload_replicas"]
    policy = sweep_policy(config)
    slo_s = config["slo_ms"] * 1e-3
    fleet = make_fleet(servable, n, policy, "power_of_two", config["seed"],
                       config["sweep_overhead_s"])
    fleet_cap = fleet.capacity_qps(config["max_batch"], _nnz(servable))
    num_requests = n * config["per_replica_requests"]

    def serve_scaled(scale):
        qps = scale * fleet_cap
        traffic = FleetTraffic(mean_qps=qps,
                               duration_s=num_requests / qps,
                               seed=config["seed"])
        return fleet.serve(traffic.requests(dataset), slo_s=slo_s,
                           offered_qps=qps).merged

    reports = overload_sweep(serve_scaled, config["overload_scales"])
    scales = list(config["overload_scales"])
    at_cap = reports[scales.index(1.0)].goodput_qps
    return {"fleet_capacity_qps": fleet_cap, "scales": scales,
            "reports": reports,
            "plateau_ratio": reports[-1].goodput_qps / at_cap
            if at_cap > 0 else 0.0}


def measure_day(config, servable, dataset):
    """One diurnal day, autoscaled vs the cheapest SLO-holding static
    fleet. Replica warm-up is priced from the frozen artifact."""
    perf = ServingPerfModel(overhead_s=config["day_overhead_s"])
    cap = perf.capacity_qps(servable, config["day_max_batch"],
                            _nnz(servable))
    mean_qps = config["day_qps_factor"] * cap
    duration = config["day_duration_s"]
    policy = BatchingPolicy(max_batch_size=config["day_max_batch"],
                            max_wait_s=0.05)
    fleet = ServingFleet(
        servable, policy=policy,
        perfs=[perf] * config["day_max_replicas"],
        router=RouterPolicy(kind="round_robin"))
    traffic = FleetTraffic(mean_qps=mean_qps, duration_s=duration,
                           curve=DayCurve(hourly=DAY_HOURLY, day_s=duration),
                           num_users=config["day_users"],
                           seed=config["seed"])
    requests = traffic.requests(dataset)
    window = config["day_window_s"]
    cfg = AutoscalerConfig(
        slo_s=config["day_slo_ms"] * 1e-3, window_s=window,
        min_replicas=1, max_replicas=config["day_max_replicas"],
        up_p99_frac=0.4, down_p99_frac=0.3, cooldown_s=2 * window)
    elastic = run_autoscaled_day(fleet, requests, cfg)
    static = smallest_static_fleet(fleet, requests, cfg)
    return {"mean_qps": mean_qps, "per_replica_capacity_qps": cap,
            "num_requests": len(requests), "num_users": config["day_users"],
            "warmup_s": replica_warmup_s(servable),
            "elastic": elastic, "static": static,
            "replica_seconds_saved_frac":
                1.0 - elastic.replica_seconds / static.replica_seconds}


def measure_parity(config):
    """N=1 round-robin fleet vs bench_serving's own batched 1x load
    point, at ``config["parity_serving"]`` — the fleet must reproduce
    that report bitwise."""
    sconfig = config["parity_serving"]
    servable, dataset = bench_serving.build_setup(sconfig)
    policy = bench_serving.policies(sconfig)["batched"]
    perf = ServingPerfModel()
    qps = perf.capacity_qps(servable, 1, _nnz(servable))
    slo_s = sconfig["slo_ms"] * 1e-3
    n = sconfig["requests"]
    single = run_load_test(InferenceServer(servable, policy, perf),
                           dataset, qps=qps, num_requests=n, slo_s=slo_s,
                           seed=sconfig["seed"])
    fleet = ServingFleet(servable, policy=policy, perfs=[perf],
                         router=RouterPolicy(kind="round_robin"))
    traffic = FleetTraffic(mean_qps=qps, duration_s=n / qps,
                           seed=sconfig["seed"])
    assert traffic.num_requests == n
    merged = fleet.serve(traffic.requests(dataset), slo_s=slo_s,
                         offered_qps=qps).merged
    return {"single": single, "fleet": merged.without_samples(),
            "matches": merged.without_samples() == single}


def measure_determinism(config, servable, dataset):
    """Two identical 2-replica p2c runs -> identical merged reports."""
    slo_s = config["slo_ms"] * 1e-3
    policy = sweep_policy(config)
    qps = 2 * ServingPerfModel(
        overhead_s=config["sweep_overhead_s"]).capacity_qps(
        servable, config["max_batch"], _nnz(servable))

    def run():
        fleet = make_fleet(servable, 2, policy, "power_of_two",
                           config["seed"], config["sweep_overhead_s"])
        traffic = FleetTraffic(
            mean_qps=qps,
            duration_s=config["per_replica_requests"] / qps,
            seed=config["seed"])
        return fleet.serve(traffic.requests(dataset), slo_s=slo_s,
                           offered_qps=qps).merged

    a, b = run(), run()
    return {"identical": a == b}


def measure(config):
    servable, dataset = build_setup(config)
    return {
        "capacity": measure_capacity(config, servable, dataset),
        "overload": measure_overload(config, servable, dataset),
        "day": measure_day(config, servable, dataset),
        "parity": measure_parity(config),
        "determinism": measure_determinism(config, servable, dataset),
    }


def day_dict(day_report):
    return {
        "replica_seconds": day_report.replica_seconds,
        "replica_hours": day_report.replica_hours,
        "peak_replicas": day_report.peak_replicas,
        "trough_replicas": day_report.trough_replicas,
        "slo_held": day_report.slo_held,
        "num_scale_ups": day_report.num_scale_ups(),
        "num_scale_downs": day_report.num_scale_downs(),
        "num_windows": len(day_report.windows),
        "warmup_s": day_report.warmup_s,
        "events": [e.__dict__ for e in day_report.events],
        "merged": report_dict(day_report.merged),
    }


def summarize(config, results):
    cap, over, day = results["capacity"], results["overload"], results["day"]
    return Summary(
        metrics={
            "capacity": {
                "per_replica_capacity_qps": cap["per_replica_capacity_qps"],
                "per_replica_offered_qps": cap["per_replica_offered_qps"],
                "points": [{"replicas": p.replicas,
                            "offered_qps": p.offered_qps,
                            "efficiency": p.efficiency,
                            "report": report_dict(p.report)}
                           for p in cap["points"]],
            },
            "scaling_efficiency_at_max": cap["scaling_efficiency_at_max"],
            "overload": {
                "fleet_capacity_qps": over["fleet_capacity_qps"],
                "scales": over["scales"],
                "reports": [report_dict(r) for r in over["reports"]],
                "plateau_ratio": over["plateau_ratio"],
            },
            "day": {
                "mean_qps": day["mean_qps"],
                "per_replica_capacity_qps": day["per_replica_capacity_qps"],
                "num_requests": day["num_requests"],
                "num_users": day["num_users"],
                "warmup_s": day["warmup_s"],
                "elastic": day_dict(day["elastic"]),
                "static": day_dict(day["static"]),
                "replica_seconds_saved_frac":
                    day["replica_seconds_saved_frac"],
            },
        },
        gates={
            f"scaling_efficiency_at_max >= {MIN_SCALING:g}":
                cap["scaling_efficiency_at_max"] >= MIN_SCALING,
            "autoscaler_slo_held": day["elastic"].slo_held,
            "autoscaler_cheaper_than_static":
                day["elastic"].replica_seconds
                < day["static"].replica_seconds,
            "n1_round_robin_matches_bench_serving":
                results["parity"]["matches"],
            "deterministic_rerun_identical":
                results["determinism"]["identical"],
        },
        tables=[
            Table("fleet: capacity vs replicas (p2c, predicted admission, "
                  f"{config['overload']}x overload per replica)",
                  CapacityPoint.ROW_HEADER, capacity_rows(results)),
            Table("fleet: goodput under overload",
                  OVERLOAD_HEADER, overload_rows(over)),
            Table(f"fleet: autoscaled vs static diurnal day "
                  f"({day['num_requests']} requests, "
                  f"{day['num_users']} users)",
                  DAY_HEADER, day_rows(results)),
        ])


def capacity_rows(results):
    return [p.row() for p in results["capacity"]["points"]]


def day_rows(results):
    day = results["day"]
    rows = []
    for label in ("elastic", "static"):
        r = day[label]
        rows.append([label, f"{r.replica_seconds:.0f}",
                     str(r.peak_replicas), str(r.trough_replicas),
                     f"{r.merged.p99_s * 1e3:.1f}",
                     f"{r.merged.slo_attainment * 100:.1f}%",
                     str(r.slo_held)])
    return rows


DAY_HEADER = ["fleet", "replica-s", "peak", "trough", "p99 ms",
              "SLO att.", "held"]
OVERLOAD_HEADER = ["scale"] + LoadReport.ROW_HEADER


def overload_rows(overload):
    return [[f"{s:.1f}x"] + r.row()
            for s, r in zip(overload["scales"], overload["reports"])]


def main(argv=None):
    return harness_main("fleet", QUICK_CONFIG, FULL_CONFIG, measure,
                        summarize, argv)


def test_capacity_scaling(benchmark, report):
    """>= 0.8x linear goodput scaling at the largest replica count."""
    config = dict(QUICK_CONFIG)
    servable, dataset = build_setup(config)
    results = benchmark.pedantic(
        lambda: measure_capacity(config, servable, dataset),
        rounds=1, iterations=1)
    report("fleet: capacity vs replicas (p2c, predicted admission)",
           CapacityPoint.ROW_HEADER, [p.row() for p in results["points"]])
    assert results["scaling_efficiency_at_max"] >= 0.8
    # goodput must actually grow with the fleet
    goodputs = [p.report.goodput_qps for p in results["points"]]
    assert goodputs == sorted(goodputs)


def test_overload_plateau(benchmark, report):
    """Predicted admission: goodput plateaus past capacity."""
    config = dict(QUICK_CONFIG)
    servable, dataset = build_setup(config)
    results = benchmark.pedantic(
        lambda: measure_overload(config, servable, dataset),
        rounds=1, iterations=1)
    report("fleet: goodput under overload", OVERLOAD_HEADER,
           overload_rows(results))
    assert results["plateau_ratio"] >= 0.85
    # past capacity the fleet sheds rather than queueing without bound
    assert results["reports"][-1].shed_fraction > 0


def test_autoscaled_day_beats_static(benchmark, report):
    """SLO held all day on fewer replica-seconds than peak static."""
    config = dict(QUICK_CONFIG)
    servable, dataset = build_setup(config)
    results = benchmark.pedantic(
        lambda: measure_day(config, servable, dataset),
        rounds=1, iterations=1)
    report("fleet: autoscaled vs static diurnal day", DAY_HEADER,
           day_rows({"day": results}))
    elastic, static = results["elastic"], results["static"]
    assert elastic.slo_held
    assert static.slo_held
    assert elastic.replica_seconds < static.replica_seconds
    assert elastic.num_scale_ups() >= 1
    assert elastic.num_scale_downs() >= 1


def test_parity_and_determinism(benchmark, report):
    """N=1 RR fleet == single server bitwise; re-runs identical."""
    config = dict(QUICK_CONFIG)
    servable, dataset = build_setup(config)

    def run():
        return (measure_parity(config),
                measure_determinism(config, servable, dataset))

    parity, determinism = benchmark.pedantic(run, rounds=1, iterations=1)
    report("fleet: parity and determinism", ["check", "result"],
           [["N=1 round-robin == single server", parity["matches"]],
            ["re-run bitwise identical", determinism["identical"]]])
    assert parity["matches"]
    assert determinism["identical"]


if __name__ == "__main__":
    sys.exit(main())
