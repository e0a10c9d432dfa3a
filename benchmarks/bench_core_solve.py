"""Core solve-path regression suite: plan path vs compiled executor.

Times the repeated-solve hot path on six structurally distinct suite
matrices (deep chain, Stokes wall, KKT saddle, 2-D grid, wide band,
real ILU factor) in four series:

* ``cold_s``           — prepare + first solve (plan construction paid);
* ``warm_plan_s``      — ``plan.solve`` per call (the uncompiled path);
* ``warm_compiled_s``  — ``CompiledPlan.solve`` per call (the
  zero-allocation executor every cache hit lands on);
* ``multi_*_s``        — the fused ``solve_multi`` pair at k = 8;
* ``replan_s`` / ``rebind_s`` — values-only change: full plan rebuild
  vs rebinding the pattern plan onto new values (structural batching).

Writes ``BENCH_core.json`` at the repository root.  The acceptance gate
is *ratio-based* so it is stable across machines: per-call wall times
are best-of-``REPEATS`` loop averages taken in the same process, and the
headline is the geometric-mean compiled-over-plan speedup.  ``check``
fails if that speedup drops below ``SPEEDUP_FLOOR`` (1.3x, the PR's
claim) or regresses by more than 25% against a previously committed
``BENCH_core.json``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from dataclasses import replace

from repro import TITAN_RTX_SCALED
from repro.core.rebind import PlanRebinder, tracer_matrix
from repro.core.solver import SOLVERS
from repro.matrices.suite import scaled_suite

from conftest import publish

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_core.json"

METHOD = "recursive-block"
SCALE = 0.05
MATRICES = [
    "chain_tridiag",     # nlevels == n: the serial regime
    "stokes_deep_a",     # deep + heavy rows
    "kkt_mid_a",         # saddle-point two-phase structure
    "grid2d_160x120",    # PDE wavefronts
    "banded_256_1",      # wide band, dense-ish rows
    "ilu_factor_200x150",  # real ILU(0) factor
]
N_RHS = 8
#: per-series timing: best of REPEATS loop averages over ITERS calls
REPEATS = 3
ITERS = 10
#: acceptance floor for the geometric-mean compiled/plan speedup
SPEEDUP_FLOOR = 1.3
#: acceptance floor for the geomean replan/rebind speedup (values-only
#: change: rebinding the pattern plan must beat rebuilding it by >= 2x)
REBIND_FLOOR = 2.0
#: prepare is heavy; time the replan/rebind pair over fewer calls
REBIND_ITERS = 3
#: tolerated regression vs a previously committed BENCH_core.json
REGRESSION_RATIO = 0.75


def _best_loop(fn, iters: int = ITERS, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` average seconds per call over ``iters`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def _bench_matrix(spec) -> dict:
    A = spec.build()
    n = A.n_rows
    rng = np.random.default_rng(17)
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, N_RHS))
    device = TITAN_RTX_SCALED

    t0 = time.perf_counter()
    solver = SOLVERS[METHOD](device=device)
    prepared = solver.prepare(A)
    x_cold, _ = prepared.plan.solve(b, device)
    cold_s = time.perf_counter() - t0

    compiled = prepared.compile()
    # Correctness gate before any timing: the compiled executor must
    # reproduce the plan path (same promoted dtype, same values).
    x_plan, rep_plan = prepared.plan.solve(b, device)
    x_comp, rep_comp = compiled.solve(b)
    err = float(np.max(np.abs(x_comp - x_plan)))
    scale = max(1.0, float(np.max(np.abs(x_plan))))
    assert err <= 1e-9 * scale, (spec.name, err)
    assert rep_comp.time_s == rep_plan.time_s, spec.name
    assert rep_comp.launches == rep_plan.launches, spec.name
    X_plan, _ = prepared.plan.solve_multi(B, device)
    X_comp, _ = compiled.solve_multi(B)  # first call captures the width
    errm = float(np.max(np.abs(X_comp - X_plan)))
    assert errm <= 1e-9 * max(1.0, float(np.max(np.abs(X_plan)))), (
        spec.name, errm,
    )

    warm_plan_s = _best_loop(lambda: prepared.plan.solve(b, device))
    warm_compiled_s = _best_loop(lambda: compiled.solve(b))
    multi_plan_s = _best_loop(lambda: prepared.plan.solve_multi(B, device))
    multi_compiled_s = _best_loop(lambda: compiled.solve_multi(B))

    # Values-only change: replan from scratch vs rebind the pattern plan.
    A2 = replace(
        A,
        data=(A.data * rng.uniform(0.5, 1.5, A.nnz)).astype(A.data.dtype),
        _validated=True,
    )
    prepared_t = SOLVERS[METHOD](device=device).prepare(tracer_matrix(A))
    binder = PlanRebinder(prepared_t.compile(), A.nnz, A.data.dtype)
    # Correctness gate: the rebound values must solve like a fresh build
    # bitwise (same segments, same kernels, same engines — only the
    # values differ).
    x_fresh, _ = SOLVERS[METHOD](device=device).prepare(A2).solve(b)
    x_rebound, _ = prepared_t.solve(b, binder.bind(A2.data))
    assert np.array_equal(x_rebound, x_fresh), spec.name

    replan_s = _best_loop(
        lambda: SOLVERS[METHOD](device=device).prepare(A2),
        iters=REBIND_ITERS,
    )
    rebind_s = _best_loop(lambda: binder.bind(A2.data), iters=REBIND_ITERS)

    return {
        "n": n,
        "nnz": A.nnz,
        "cold_s": cold_s,
        "warm_plan_s": warm_plan_s,
        "warm_compiled_s": warm_compiled_s,
        "multi_plan_s": multi_plan_s,
        "multi_compiled_s": multi_compiled_s,
        "replan_s": replan_s,
        "rebind_s": rebind_s,
        "speedup_single": warm_plan_s / warm_compiled_s,
        "speedup_multi": multi_plan_s / multi_compiled_s,
        "speedup_rebind": replan_s / rebind_s,
    }


def _geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def run() -> dict:
    specs = {s.name: s for s in scaled_suite(SCALE)}
    missing = [name for name in MATRICES if name not in specs]
    assert not missing, f"suite is missing {missing}"
    series = {name: _bench_matrix(specs[name]) for name in MATRICES}
    singles = [row["speedup_single"] for row in series.values()]
    multis = [row["speedup_multi"] for row in series.values()]
    rebinds = [row["speedup_rebind"] for row in series.values()]
    return {
        "workload": {
            "method": METHOD,
            "scale": SCALE,
            "n_rhs": N_RHS,
            "iters": ITERS,
            "repeats": REPEATS,
            "matrices": {
                name: {"n": row["n"], "nnz": row["nnz"]}
                for name, row in series.items()
            },
        },
        "series": series,
        "headline": {
            "geomean_speedup_single": _geomean(singles),
            "geomean_speedup_multi": _geomean(multis),
            "geomean_rebind_speedup": _geomean(rebinds),
            "speedup_floor": SPEEDUP_FLOOR,
            "rebind_floor": REBIND_FLOOR,
        },
    }


def render(result: dict) -> str:
    lines = [
        f"core solve hot path ({METHOD}, plan path vs compiled executor)",
        f"  {'matrix':<20} {'n':>6} {'nnz':>7} "
        f"{'warm plan':>11} {'compiled':>11} {'speedup':>8} "
        f"{'multi x' + str(N_RHS):>9} {'rebind':>8}",
    ]
    for name, row in result["series"].items():
        lines.append(
            f"  {name:<20} {row['n']:>6} {row['nnz']:>7} "
            f"{row['warm_plan_s'] * 1e6:>9.1f}us {row['warm_compiled_s'] * 1e6:>9.1f}us "
            f"{row['speedup_single']:>7.2f}x {row['speedup_multi']:>8.2f}x "
            f"{row['speedup_rebind']:>7.2f}x"
        )
    h = result["headline"]
    lines.append(
        f"  geomean speedup: {h['geomean_speedup_single']:.2f}x single, "
        f"{h['geomean_speedup_multi']:.2f}x multi-RHS "
        f"(acceptance: >= {h['speedup_floor']}x); "
        f"values-only rebind {h['geomean_rebind_speedup']:.2f}x vs replan "
        f"(acceptance: >= {h['rebind_floor']}x)"
    )
    return "\n".join(lines)


def check(result: dict, baseline: dict | None = None) -> None:
    h = result["headline"]
    assert h["geomean_speedup_single"] >= SPEEDUP_FLOOR, h
    assert h["geomean_speedup_multi"] >= SPEEDUP_FLOOR, h
    assert h["geomean_rebind_speedup"] >= REBIND_FLOOR, h
    # Every matrix individually must at least not lose to the plan path,
    # and rebinding must never be slower than replanning.
    for name, row in result["series"].items():
        assert row["speedup_single"] >= 1.0, (name, row["speedup_single"])
        assert row["speedup_multi"] >= 1.0, (name, row["speedup_multi"])
        assert row["speedup_rebind"] >= 1.0, (name, row["speedup_rebind"])
    if baseline is not None:
        # Ratio-vs-ratio: both numbers are same-machine, same-process
        # wall-time ratios, so the comparison is machine-independent.
        old = baseline.get("headline", {}).get("geomean_speedup_single")
        if old:
            assert h["geomean_speedup_single"] >= REGRESSION_RATIO * old, (
                f"compiled-executor speedup regressed by more than "
                f"{(1 - REGRESSION_RATIO):.0%}: "
                f"{h['geomean_speedup_single']:.2f}x now vs {old:.2f}x committed"
            )


def _load_baseline() -> dict | None:
    if BENCH_JSON.exists():
        try:
            return json.loads(BENCH_JSON.read_text())
        except Exception:
            return None
    return None


def test_core_solve(benchmark):
    baseline = _load_baseline()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    check(result, baseline)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    publish("core_solve", render(result))


if __name__ == "__main__":
    baseline = _load_baseline()
    result = run()
    check(result, baseline)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    print(f"wrote {BENCH_JSON}")
