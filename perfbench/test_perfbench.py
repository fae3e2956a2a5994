"""Smoke tests of the benchmark; run with ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every end-to-end metric the benchmark prints by name, with its unit.
PRINTED = {
    "setup_s": "s",
    "steps_per_s.momentum": "steps/s",
    "steps_per_s.velocity": "steps/s",
    "ops_per_s": "1/s",
    "verify_s": "s",
    "sweep_configs_per_s": "configs/s",
    "peak_rss_mb": "MB",
    "failure_share": "ratio",
}


def _run(trace: int) -> tuple[list[str], dict]:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    lines = res.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    lines, result = _run(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    expected = PRINTED if not trace else {m["name"]: m["unit"] for m in declared}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    if trace:
        for name in tracing.NAMES:
            assert f"{name}.calls" in result["metrics"] and f"{name}.self_s" in result["metrics"]
        assert result["metrics"]["cli.verify.calls"]["value"] == 1
        assert result["metrics"]["dynamics.integrate.calls"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_reference_counts_as_a_failure(tmp_path):
    plan = workloads.build("certify", 3, tmp_path)
    bench = run.Bench(plan)
    key = next(iter(bench.references))
    bench.references[key] = bench.references[key] * (1.0 + 1e-6)
    metrics, passes = run.end_to_end(bench, 0.0)
    assert bench.attempted == 9 * passes
    assert len(bench.failures) == passes
    assert all("reference" in f for f in bench.failures)
    assert metrics["failure_share"][0] == pytest.approx(1 / 9)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode != 0 and res.stdout == ""


def test_self_time_excludes_child_spans():
    spans = [
        tracing.Span("dynamics.integrate", 0.0, 10.0, -1, "a"),
        tracing.Span("structures.structure_matrix", 1.0, 4.0, 0, "a"),
        tracing.Span("fluid.VortexSet.validate", 2.0, 3.0, 1, "a"),
        tracing.Span("fluid.VortexSet.validate", 5.0, 6.0, -1, "b"),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["dynamics.integrate"]["self_s"] == pytest.approx(7.0)
    assert totals["structures.structure_matrix"]["self_s"] == pytest.approx(2.0)
    assert totals["fluid.VortexSet.validate"]["calls"] == 2
    assert tracing.calls_under(spans, "fluid.VortexSet.validate", "dynamics.integrate") == 1


def test_declared_workloads_match_the_generator():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(workloads.NAMES)
