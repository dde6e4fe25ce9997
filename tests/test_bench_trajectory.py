"""The committed benchmark trajectory: each top-level BENCH_<workload>.json
holds the manifests and metrics of the parent and change runs of one
performance change, without raw values or spans, and names every metric
that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_default_1eval_trajectory_is_committed():
    assert ROOT / "BENCH_default-1eval.json" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_trajectory_names_every_declared_metric(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    workload = path.stem.removeprefix("BENCH_")
    assert doc["workload"] == workload
    assert workload in {w["name"] for w in DECLARED["workloads"]}
    for side in ("parent", "change"):
        runs = [r for r in doc["runs"] if r["side"] == side]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            traced = [r for r in runs if r["trace"] == trace]
            assert traced, f"no {side} run with --trace {trace}"
            for run in traced:
                assert "raw" not in run and "spans" not in run
                assert run["manifest"]["workload"] == workload
                assert set(run["metrics"]) == {m["name"] for m in DECLARED[kind]}
