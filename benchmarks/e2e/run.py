"""End-to-end request benchmark of the solve service, with a layer breakdown.

Full run (every workload, each in its own subprocess)::

    python benchmarks/e2e/run.py --seed 42 [--smoke] [--results-dir DIR]

One workload, reporting one metric list::

    python benchmarks/e2e/run.py --workload hot_same --seed 42 \\
        --seconds 20 --trace 0

Each workload has an untimed warm-up, ``setup_s`` (median of eleven cold
starts), an untraced run that gives the end-to-end metrics and, with
``--trace 1``, a shorter traced run that gives the per-layer metrics
(``measure.py``).  After each timed run a seeded sample of requests is
solved twice through the same service and every answer is checked
against the ``solve_serial`` oracle and, bit for bit, against a freshly
prepared single-device plan.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
1 when an answer is wrong, and 3 without a result when a workload's
steady state is not the one it is meant to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / ".work"
#: a child's run is stopped after this long
CHILD_TIMEOUT_S = 600


def git_sha() -> str | None:
    """HEAD's commit, read from the files under ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, seconds: int) -> dict:
    import numpy as np

    from measure import COLD_STARTS, traced_seconds, warmup_seconds

    return {
        "seed": seed,
        "seconds": seconds,
        "traced_seconds": traced_seconds(seconds),
        "warmup_s": warmup_seconds(seconds),
        "cold_starts": COLD_STARTS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def with_units(values: dict, specs: list) -> dict:
    """``values`` as ``{name: {value, unit}}`` in BENCHMARK.json's order."""
    names = [m["name"] for m in specs]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: computed "
            f"{sorted(set(values) - set(names))}, missing "
            f"{sorted(set(names) - set(values))}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in specs
    }


def print_metrics(workload: str, block: dict) -> None:
    for name, m in block.items():
        print(f"{workload:15s} {name:34s} {m['value']:>14.6g} {m['unit']}")


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


def run_one(args, spec: dict) -> int:
    from measure import run_workload

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR
    )
    if args.out:
        Path(args.out).write_text(json.dumps({
            "provenance": provenance(args.seed, args.seconds),
            "workloads": {args.workload: record},
        }, indent=1) + "\n")
    e2e = with_units(record["end_to_end"], spec["end_to_end"])
    print_metrics(args.workload, e2e)
    for name, value in record["diagnostics"].items():
        print(f"{args.workload:15s} {name:34s} {value}")
    layers = None
    if args.trace:
        layers = with_units(record["per_layer"], spec["per_layer"])
        print_metrics(args.workload, layers)
    correct = record["wrong"] == 0
    print(result_line(
        correct, record["attempted"], record["failed"],
        layers if args.trace else e2e,
    ))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own subprocess; writes the results files."""
    WORK_DIR.mkdir(exist_ok=True)
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        out = WORK_DIR / f"{name}-{args.seed}-{os.getpid()}.json"
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1", "--out", str(out),
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if not out.is_file():
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 2
        workloads[name] = json.loads(out.read_text())["workloads"][name]
        out.unlink()
    results = {
        "provenance": provenance(args.seed, args.seconds),
        "workloads": workloads,
    }
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(results, indent=1) + "\n"
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results_dir / f"run-{stamp}-seed{args.seed}.json").write_text(text)
    (results_dir / "latest.json").write_text(text)
    correct = all(r["wrong"] == 0 for r in workloads.values())
    print(result_line(
        correct,
        sum(r["attempted"] for r in workloads.values()),
        sum(r["failed"] for r in workloads.values()),
        {
            name: {
                **with_units(r["end_to_end"], spec["end_to_end"]),
                **with_units(r["per_layer"], spec["per_layer"]),
            }
            for name, r in workloads.items()
        },
    ))
    return 0 if correct else 1


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   help="run this workload in-process (default: all, each "
                        "in a subprocess)")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"],
                   help="length of the untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=1,
                   help="with --workload: 0 reports the end-to-end metrics, "
                        "1 adds the traced run and reports per-layer ones")
    p.add_argument("--smoke", action="store_true",
                   help="1-second runs with every check")
    p.add_argument("--out", help="with --workload: also write the full "
                                 "record to this file")
    p.add_argument("--results-dir", default=str(RESULTS_DIR),
                   help="where a full run writes its results files")
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = 1
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    from layers import ShimTargetError
    from measure import ShapeError

    try:
        return run_one(args, spec) if args.workload else run_all(args, spec)
    except (ShapeError, ShimTargetError) as exc:
        print(f"workload shape check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
