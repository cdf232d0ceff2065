"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper
(see DESIGN.md section 3 for the index). Conventions:

* each bench runs its experiment inside the ``benchmark`` fixture so
  ``pytest benchmarks/ --benchmark-only`` times the reproduction;
* paper-reported values and the model's values are attached via
  ``benchmark.extra_info`` and printed as a table, so a plain run shows
  the side-by-side comparison;
* assertions check *shape* (ordering, ratios, crossovers), not absolute
  equality — our substrate is a simulator, not the authors' testbed.
"""

from __future__ import annotations

import pytest

from repro.online.report import render_table


def pytest_collection_modifyitems(items):
    """Every collected item in this directory is a benchmark entry."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def record_rows(benchmark, title, header, rows):
    """Attach a small results table to the benchmark report and print it."""
    benchmark.extra_info["title"] = title
    benchmark.extra_info["rows"] = [list(map(str, r)) for r in rows]
    print(f"\n{title}\n{render_table(header, rows)}")


@pytest.fixture
def report(benchmark):
    """Curried row recorder bound to the current benchmark."""
    def _report(title, header, rows):
        record_rows(benchmark, title, header, rows)
    return _report
