"""The benchmark harness (``benchmarks/_harness.py``): one schema, one
gate check, and the committed ``BENCH_*.json`` files in that schema."""

import importlib.util
import json
import os

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_KEYS = {"benchmark", "mode", "config", "metrics", "gates"}
HARNESS_BENCHES = ("serving", "online", "fleet", "cache", "planner",
                   "recovery", "rank_stacked", "fused_kernel")


def load_harness():
    spec = importlib.util.spec_from_file_location(
        "_harness", os.path.join(REPO_ROOT, "benchmarks", "_harness.py"))
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness


@pytest.fixture
def harness():
    return load_harness()


def run_toy(harness, tmp_path, gates, argv=()):
    out = tmp_path / "BENCH_toy.json"

    def measure(config):
        return {"value": config["size"] * 2}

    def summarize(config, results):
        return harness.Summary(
            metrics=results, gates=gates,
            tables=[harness.Table("toy", ["size", "value"],
                                  [[config["size"], results["value"]]])])

    code = harness.main("toy", {"size": 1}, {"size": 3}, measure,
                        summarize, ["--out", str(out), *argv])
    return code, json.loads(out.read_text())


class TestHarness:
    def test_passing_gates_write_the_schema(self, harness, tmp_path,
                                            capsys):
        code, doc = run_toy(harness, tmp_path, {"value_positive": True})
        assert code == 0
        assert doc == {"benchmark": "toy", "mode": "full",
                       "config": {"size": 3}, "metrics": {"value": 6},
                       "gates": {"value_positive": True}}
        out = capsys.readouterr()
        assert "FAIL" not in out.err
        assert "toy" in out.out and "value_positive" in out.out

    def test_quick_selects_the_quick_config(self, harness, tmp_path):
        code, doc = run_toy(harness, tmp_path, {"ok": True}, ["--quick"])
        assert code == 0
        assert doc["mode"] == "quick"
        assert doc["config"] == {"size": 1}
        assert doc["metrics"] == {"value": 2}

    def test_false_gate_exits_1_with_fail_line(self, harness, tmp_path,
                                               capsys):
        code, doc = run_toy(harness, tmp_path,
                            {"held": True, "value >= 10": False})
        assert code == 1
        assert doc["gates"] == {"held": True, "value >= 10": False}
        err = capsys.readouterr().err.splitlines()
        assert err == ["FAIL: value >= 10"]

    def test_gate_values_become_bools(self, harness, tmp_path):
        code, doc = run_toy(harness, tmp_path, {"np_bool": np.bool_(True)})
        assert code == 0
        assert doc["gates"] == {"np_bool": True}


@pytest.mark.parametrize("name", HARNESS_BENCHES)
def test_committed_bench_json_schema(name):
    """The checked-in full-mode results use the harness schema."""
    with open(os.path.join(REPO_ROOT, f"BENCH_{name}.json")) as f:
        doc = json.load(f)
    assert set(doc) == SCHEMA_KEYS
    assert doc["benchmark"] == name
    assert doc["mode"] == "full"
    assert doc["gates"]
    assert all(isinstance(v, bool) for v in doc["gates"].values())

