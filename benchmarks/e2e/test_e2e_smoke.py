"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs ``run.py --smoke`` (1-second runs with every answer and shape check)
and checks that its output names exactly the workloads and metrics that
``BENCHMARK.json`` declares, in both the full form and the one-workload
form.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 600


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=cwd,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _check_block(block: dict, specs: list) -> None:
    assert list(block) == [m["name"] for m in specs]
    for m in specs:
        assert block[m["name"]]["unit"] == m["unit"]
        assert isinstance(block[m["name"]]["value"], (int, float))


def test_smoke_run_matches_benchmark_json(tmp_path):
    result = _result(_run("--smoke", "--seed", "7", "--results-dir", str(tmp_path)))
    assert list(result["metrics"]) == [w["name"] for w in SPEC["workloads"]]
    for block in result["metrics"].values():
        _check_block(block, SPEC["end_to_end"] + SPEC["per_layer"])
    for block in result["metrics"].values():
        for m in SPEC["end_to_end"]:
            assert block[m["name"]]["value"] != 0, m["name"]
    saved = json.loads((tmp_path / "latest.json").read_text())
    assert saved["provenance"]["seed"] == 7
    assert len(list(tmp_path.glob("run-*.json"))) == 1


def test_one_workload_form_reports_one_metric_list():
    for trace, specs in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _run(
            "--workload", "hot_same", "--seed", "3", "--seconds", "1",
            "--trace", trace,
        )
        _check_block(_result(proc)["metrics"], specs)


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hot_same",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
