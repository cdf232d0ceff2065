"""One harness for the benchmark scripts that write ``BENCH_<name>.json``.

A benchmark defines ``QUICK_CONFIG`` / ``FULL_CONFIG``, a
``measure(config)`` and a ``summarize(config, results)`` that returns a
:class:`Summary`; its ``main`` is one call::

    def main(argv=None):
        return harness_main("serving", QUICK_CONFIG, FULL_CONFIG,
                            measure, summarize, argv)

``python benchmarks/bench_<name>.py [--quick] [--out PATH]`` then

* runs ``measure`` on the quick or the full config;
* writes one schema, ``{benchmark, mode, config, metrics, gates}``, where
  ``gates`` maps each named acceptance check to a bool;
* prints the benchmark's tables (with ``repro.online.report.render_table``,
  the formatter the pytest ``report`` fixture and the fleet reports
  also use) and every gate's verdict;
* prints ``FAIL: <gate>`` to stderr for each false gate and exits 1.

Thresholds are constants inside each benchmark's gates, checked in both
modes, so there are no threshold flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.online.report import render_table


class Table(NamedTuple):
    """One printed results table."""
    title: str
    header: Sequence[Any]
    rows: Sequence[Sequence[Any]]


class Summary(NamedTuple):
    """What a benchmark reports: JSON metrics, named gates, printed tables."""
    metrics: Dict[str, Any]
    gates: Dict[str, bool]
    tables: Sequence[Table] = ()


def main(name: str, quick_config: Dict[str, Any],
         full_config: Dict[str, Any], measure: Callable[[dict], Any],
         summarize: Callable[[dict, Any], Summary],
         argv: Optional[List[str]] = None) -> int:
    """Parse ``--quick`` / ``--out``, measure, summarize, write the JSON
    and print the tables and gates; returns 1 if any gate is false."""
    parser = argparse.ArgumentParser(
        description=f"write BENCH_{name}.json and check its gates")
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default=f"BENCH_{name}.json",
                        help="output JSON path")
    args = parser.parse_args(argv)
    config = dict(quick_config if args.quick else full_config)
    summary = summarize(config, measure(config))
    gates = {gate: bool(ok) for gate, ok in summary.gates.items()}
    doc = {"benchmark": name, "mode": "quick" if args.quick else "full",
           "config": config, "metrics": summary.metrics, "gates": gates}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for table in summary.tables:
        print(f"{table.title}\n{render_table(table.header, table.rows)}\n")
    for gate, ok in gates.items():
        print(f"[{'ok ' if ok else 'FAIL'}] {gate}")
    print(f"wrote {args.out}")
    failed = [gate for gate, ok in gates.items() if not ok]
    for gate in failed:
        print(f"FAIL: {gate}", file=sys.stderr)
    return 1 if failed else 0
