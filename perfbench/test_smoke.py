"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload, gated or not, once per mode and checks that each metric named in
BENCHMARK.json is printed with its unit, that the generated inputs depend
on the seed alone, that traced and untraced runs write byte-identical
artifacts, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = list(run.PLANS)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_depends_on_the_seed_alone(workload, tmp_path):
    first = workloads.write(workload, 5, tmp_path / "a", "smoke")
    again = workloads.write(workload, 5, tmp_path / "b", "smoke")
    other = workloads.write(workload, 6, tmp_path / "c", "smoke")
    for key, path in first.items():
        assert path.read_bytes() == again[key].read_bytes(), key
    assert first["corpus"].read_bytes() != other["corpus"].read_bytes()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload):
    with run.Bench(workload, 4, "smoke") as b:
        plain = b.run_once(traced=False)
        traced = b.run_once(traced=True)
    assert plain.failed == traced.failed == 0
    assert plain.digest and plain.digest == traced.digest
    assert traced.layers["llm.complete_calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
