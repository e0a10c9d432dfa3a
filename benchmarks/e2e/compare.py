"""Compare two sets of end-to-end benchmark runs, or summarize one.

    python benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python benchmarks/e2e/compare.py DIR > summary.json

Each directory holds the ``run-*.json`` files that full runs of
``run.py --results-dir DIR`` write, one per run.  Given one directory it
prints, as JSON, every metric's median and quartiles per workload.  Given
two, it prints for every metric and workload each side's median and
quartiles and, for the end-to-end metrics, a verdict under the bounds in
``BENCHMARK.json``:

* ``better``: the change wins at least 9 of 10 of the runs paired in
  file order, and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: the parent's own interquartile range, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``within bound``: none of the above.

The simulated-clock metric and the cost-model counts must repeat exactly
for a given seed; the last lines say whether they did across both sides.
Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: metrics that are pure functions of the seed (simulated clock, model counts)
EXACT = (
    "sim_us_per_req", "gpu.cost.launches_per_req", "gpu.cost.mb_moved_per_req",
)


def load_runs(directory: Path) -> list[dict]:
    runs = [
        json.loads(p.read_text()) for p in sorted(directory.glob("run-*.json"))
    ]
    if not runs:
        raise SystemExit(f"no run-*.json files in {directory}")
    return runs


def series(runs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        rec = run["workloads"].get(workload, {})
        for section in ("end_to_end", "per_layer"):
            if metric in rec.get(section, {}):
                out.append(rec[section][metric])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One end-to-end metric's verdict (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    every_run_better = all(
        sign * (c - p) > 0 for p in parent for c in change
    )
    if wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better"
    if pm and (p3 - p1) / abs(pm) > bound and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "within bound"


def summary(runs: list[dict], workloads: list, metrics: list) -> dict:
    prov = runs[0]["provenance"]
    return {
        "runs": len(runs),
        "seeds": sorted({r["provenance"]["seed"] for r in runs}),
        "provenance": {
            k: prov[k] for k in ("seconds", "traced_seconds", "nproc",
                                 "python", "numpy", "machine", "git_sha")
        },
        "median_q1_q3": {
            w: {
                m["name"]: [statistics.median(xs), *quartiles(xs)[::2]]
                for m in metrics
                if (xs := series(runs, w, m["name"]))
            }
            for w in workloads
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    if len(argv) == 1:
        summary_ = summary(load_runs(Path(argv[0])), workloads, metrics)
        print(json.dumps(summary_, indent=1))
        return 0
    parent, change = (load_runs(Path(a)) for a in argv)
    print(f"parent: {len(parent)} runs in {argv[0]}; "
          f"change: {len(change)} runs in {argv[1]}")
    print(f"{'workload':15s} {'metric':34s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s}  verdict")
    worse = 0
    for w in workloads:
        for m in metrics:
            p, c = series(parent, w, m["name"]), series(change, w, m["name"])
            if not p or not c:
                continue
            cols = []
            for xs in (p, c):
                q1, med, q3 = quartiles(xs)
                cols.append(f"{med:11.5g} [{q1:9.4g}, {q3:9.4g}]")
            pm, cm = statistics.median(p), statistics.median(c)
            delta = f"{(cm - pm) / abs(pm):+7.1%}" if pm else "    n/a"
            v = (
                verdict(p, c, m["better"], m["bound"]) if "bound" in m
                else "-"
            )
            worse += v == "worse"
            print(f"{w:15s} {m['name']:34s} {cols[0]:>34s} {cols[1]:>34s} "
                  f"{delta:>8s}  {v}")
    seeds = {r["provenance"]["seed"] for r in parent + change}
    for w in workloads:
        for name in EXACT:
            xs = series(parent, w, name) + series(change, w, name)
            state = "identical" if len(set(xs)) <= 1 else "DIFFER"
            print(f"{w:15s} {name:34s} {state} across {len(xs)} runs "
                  f"(seeds {sorted(seeds)})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
