"""Offline sweep behind the compiled executor's engine rule.

A compiled triangular step solves either through a hoisted SuperLU
``gstrs`` engine or through its kernel's own level sweep.  The executor
decides from structure alone (:func:`repro.core.executor.engine_rule`):
the kernel name, the rows, nnz/row and the number of levels in the
segment's level schedule — the features Algorithm 7 (§3.4) reads, with
thresholds taken from an offline sweep the way the paper takes its own.

This is that sweep.  For every engine-eligible triangle of
``scaled_suite(0.05)`` under recursive-block (its default depth) and
column-block and row-block (16 strips), it times the engine and the
kernel numerics on the host clock (best of ``REPEATS`` loop averages,
the two interleaved), then evaluates :func:`engine_rule` itself under
every candidate threshold on the grids below and keeps the thresholds
that lose the least host time against the faster path.  It writes
``BENCH_engine_rule.json``: per-segment features and times, the fitted
thresholds, and every segment the rule sends down the slower path.

    python bench_engine_rule.py            # sweep, fit, write the JSON
    python bench_engine_rule.py --check    # times nothing

``--check`` compares the executor's three threshold constants with the
committed JSON's fitted ones and exits non-zero when they differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from repro.core import executor
from repro.core.executor import (
    _engine_features,
    _GstrsEngine,
    _segment_prep,
    engine_rule,
)
from repro.core.plan import TriSegment
from repro.core.solver import SOLVERS
from repro.gpu.device import TITAN_RTX_SCALED
from repro.matrices.suite import scaled_suite

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine_rule.json"

SCALE = 0.05
#: method -> solver options (recursive-block keeps its §3.4 depth rule)
METHODS = {
    "recursive-block": {},
    "column-block": {"nseg": 16},
    "row-block": {"nseg": 16},
}
#: per path: best of REPEATS loop averages, each loop at least MIN_LOOP_S
REPEATS = 5
MIN_LOOP_S = 2e-3
#: candidate thresholds of the fit: max_levels 0 keeps no segment on its
#: kernel, 1.0 nnz/row and 16 rows are the features' floors (every row
#: holds its diagonal; shorter segments never take an engine), and rows
#: run in steps of sqrt(2) past the tallest segment
LEVEL_GRID = range(0, 17)
NNZ_ROW_GRID = (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.4, 1.5, 1.75, 2.0,
                2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 64.0, float("inf"))
ROWS_GRID = tuple(round(16 * 2 ** (k / 2)) for k in range(21))  # to 16384
#: threshold keyword of engine_rule -> the executor constant it defaults to
CONSTANTS = {
    "max_levels": "KERNEL_MAX_LEVELS",
    "max_nnz_per_row": "KERNEL_MAX_NNZ_PER_ROW",
    "min_rows": "KERNEL_MIN_ROWS",
}
#: thresholds under which no segment is tall enough to keep its kernel,
#: so engine_rule answers only whether a segment may take an engine
ANY_ENGINE = {"min_rows": float("inf")}


def _loop_time(fn, iters: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def _time_pair(engine_fn, kernel_fn) -> tuple[float, float]:
    """Best-of-``REPEATS`` per-call seconds of both paths, interleaved."""
    iters = []
    for fn in (engine_fn, kernel_fn):
        fn()  # warm-up
        t = _loop_time(fn, 1)
        iters.append(max(1, int(MIN_LOOP_S / max(t, 1e-7))))
    best = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        for i, fn in enumerate((engine_fn, kernel_fn)):
            best[i] = min(best[i], _loop_time(fn, iters[i]))
    return best[0], best[1]


def _features(seg: TriSegment) -> dict:
    """The features ``_TriStep`` hands :func:`executor.engine_rule`."""
    values = _engine_features(seg, _segment_prep(seg))
    return dict(zip(("kernel", "rows", "nnz_per_row", "nlevels"), values))


def _engine(row: dict, thresholds: dict) -> bool:
    """:func:`engine_rule` on one sweep row under ``thresholds``."""
    return engine_rule(row["kernel"], row["rows"], row["nnz_per_row"],
                       row["nlevels"], **thresholds)


def _measure(seg: TriSegment, rng) -> tuple[float, float]:
    prep = _segment_prep(seg)
    n = seg.hi - seg.lo
    f64 = np.dtype(np.float64)
    engine = _GstrsEngine(prep.L)
    vals = engine.values(prep.L.data, engine.perm, prep.diag, f64,
                         lambda: prep.L)
    b = rng.uniform(0.5, 1.5, n)
    out = np.empty(n)
    kernel, aux = seg.kernel, seg.aux

    def run_engine():
        engine.solve_into(vals, b, out)

    def run_kernel():
        out[:] = kernel.solve_numeric(aux, b, TITAN_RTX_SCALED)

    return _time_pair(run_engine, run_kernel)


def sweep() -> list[dict]:
    rng = np.random.default_rng(7)
    rows = []
    for spec in scaled_suite(SCALE):
        A = spec.build()
        for method, options in METHODS.items():
            plan = SOLVERS[method](
                device=TITAN_RTX_SCALED, **options
            ).prepare(A).plan
            for index, seg in enumerate(plan.segments):
                if not (
                    isinstance(seg, TriSegment)
                    and _segment_prep(seg) is not None
                    and _engine(_features(seg), ANY_ENGINE)
                ):
                    continue
                t_engine, t_kernel = _measure(seg, rng)
                rows.append({
                    "matrix": spec.name,
                    "method": method,
                    "segment": index,
                    **_features(seg),
                    "t_engine_s": t_engine,
                    "t_kernel_s": t_kernel,
                })
    return rows


def _lost(row: dict, engine: bool) -> float:
    """Host seconds per call lost against the faster path."""
    chosen = row["t_engine_s"] if engine else row["t_kernel_s"]
    return chosen - min(row["t_engine_s"], row["t_kernel_s"])


def fit(rows: list[dict]) -> dict:
    """Thresholds minimising the total time lost; ties go to the engine
    (the smaller kernel region)."""
    best = None
    for max_levels in LEVEL_GRID:
        for max_nnz_row in NNZ_ROW_GRID:
            for min_rows in ROWS_GRID:
                thresholds = {"max_levels": max_levels,
                              "max_nnz_per_row": max_nnz_row,
                              "min_rows": min_rows}
                lost = sum(_lost(r, _engine(r, thresholds)) for r in rows)
                key = (round(lost, 12), max_levels, max_nnz_row, -min_rows)
                if best is None or key < best[0]:
                    best = key, thresholds
    return best[1]


def _as_json(thresholds: dict) -> dict:
    cap = thresholds["max_nnz_per_row"]
    return {**thresholds, "max_nnz_per_row": cap if np.isfinite(cap) else None}


def _from_json(thresholds: dict) -> dict:
    cap = thresholds["max_nnz_per_row"]
    return {**thresholds,
            "max_nnz_per_row": float("inf") if cap is None else cap}


def summarize(rows: list[dict], thresholds: dict) -> dict:
    """Misclassified segments and the time they lose under the fitted
    rule, next to always choosing the engine and to the faster path
    throughout."""
    missed = []
    for r in rows:
        engine = _engine(r, thresholds)
        faster = r["t_engine_s"] < r["t_kernel_s"]
        if engine != faster:
            missed.append({
                **{k: r[k] for k in ("matrix", "method", "segment", "kernel",
                                     "rows", "nnz_per_row", "nlevels")},
                "rule": "engine" if engine else "kernel",
                "lost_s": _lost(r, engine),
                "slowdown": (
                    max(r["t_engine_s"], r["t_kernel_s"])
                    / min(r["t_engine_s"], r["t_kernel_s"])
                ),
            })
    kernel_faster = [r for r in rows if r["t_kernel_s"] <= r["t_engine_s"]]
    kept = [r for r in rows if not _engine(r, thresholds)]
    best_total = sum(min(r["t_engine_s"], r["t_kernel_s"]) for r in rows)
    return {
        "segments": len(rows),
        "kernel_faster": len(kernel_faster),
        "kernel_faster_max_ratio": max(
            (r["t_engine_s"] / r["t_kernel_s"] for r in kernel_faster),
            default=None,
        ),
        "kernel_region": len(kept),
        "kernel_region_matrices": sorted({r["matrix"] for r in kept}),
        "misclassified": len(missed),
        "lost_s_total": sum(m["lost_s"] for m in missed),
        "best_total_s": best_total,
        "always_engine_lost_s": sum(_lost(r, True) for r in rows),
        "misclassified_segments": missed,
    }


def run() -> dict:
    rows = sweep()
    thresholds = fit(rows)
    return {
        "workload": {
            "scale": SCALE,
            "methods": METHODS,
            "device": TITAN_RTX_SCALED.name,
            "work_dtype": "float64",
            "repeats": REPEATS,
            "min_loop_s": MIN_LOOP_S,
            "engine_min_rows": executor.ENGINE_MIN_ROWS,
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        },
        "thresholds": _as_json(thresholds),
        "summary": summarize(rows, thresholds),
        "segments": rows,
    }


def check(path: Path = BENCH_JSON) -> list[str]:
    """Differences between the executor's threshold constants and the
    committed sweep's fitted thresholds (empty when they agree)."""
    thresholds = _from_json(json.loads(path.read_text())["thresholds"])
    problems = []
    for key, name in CONSTANTS.items():
        have, want = getattr(executor, name), thresholds[key]
        if have != want:
            problems.append(f"executor.{name} = {have!r}, {path.name} "
                            f"fitted {want!r}")
    return problems


def render(result: dict) -> str:
    t, s = result["thresholds"], result["summary"]
    lines = [
        "engine rule sweep (SuperLU engine vs kernel sweep, host clock)",
        f"  {s['segments']} engine-eligible segments; the kernel is faster "
        f"on {s['kernel_faster']} (by at most "
        f"{s['kernel_faster_max_ratio'] or 0:.2f}x)",
        f"  fitted: a kernel with a level schedule keeps its sweep at "
        f"nlevels <= {t['max_levels']}, nnz/row <= {t['max_nnz_per_row']} "
        f"and rows >= {t['min_rows']}: {s['kernel_region']} segments, of "
        f"{', '.join(s['kernel_region_matrices']) or 'no matrix'}",
        f"  misclassified {s['misclassified']}: one solve of every segment "
        f"loses {s['lost_s_total'] * 1e6:.1f} us against the faster path "
        f"(always-engine: {s['always_engine_lost_s'] * 1e6:.1f} us; "
        f"the faster path throughout: {s['best_total_s'] * 1e6:.1f} us)",
    ]
    for m in s["misclassified_segments"]:
        lines.append(
            f"    {m['matrix']:<22} {m['method']:<16} seg {m['segment']:>3} "
            f"{m['kernel']:<9} rows {m['rows']:>5} nnz/row "
            f"{m['nnz_per_row']:5.2f} nlevels {m['nlevels']} -> {m['rule']} "
            f"({m['slowdown']:.2f}x slower, {m['lost_s'] * 1e6:.2f} us)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="time nothing; compare the executor's constants "
                         "with the committed thresholds")
    args = ap.parse_args(argv)
    if args.check:
        problems = check()
        for p in problems:
            print(p, file=sys.stderr)
        if not problems:
            print(f"executor engine-rule constants match {BENCH_JSON.name}")
        return 1 if problems else 0
    result = run()
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
