"""Serving-layer throughput: plan-cache amortization over a mixed workload.

Replays the repeated-matrix traffic the paper's Table 5 economics argue
for — a tour that builds every plan once (misses + evictions), a hot
phase that reuses cached plans (hits), a coalesced same-matrix batch,
and a failing planner that degrades to the level-set baseline — and
checks that cache-hit requests skip preprocessing entirely: hit-path
mean simulated latency must be under 50% of the miss-path mean.

A second phase replays same-pattern/different-values traffic (the
structural-batching case) through two fresh services — one with
``structural_batching`` on, one with it off — and gates the fused
service at >= ``FUSED_FLOOR`` the legacy wall-clock throughput, with
fused batch results bit-identical to per-request solves.

A third phase measures cold-start economics for the disk-backed
``PlanStore`` warm tier: a fresh process restarting against a
pre-warmed store must reach steady-state latency >=
``COLD_START_FLOOR`` times faster than one starting from an empty
store, with zero full pattern builds and solutions bit-identical to
the freshly built ones — and every empty-store repeat bit-identical to
the first.

Writes ``BENCH_serve.json`` at the repository root (and the rendered
table to ``benchmarks/results/``).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import TITAN_RTX_SCALED, register_solver, unregister_solver
from repro.core.solver import TriangularSolver
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.serve.workload import mixed_workload, replay, revalued_workload

from conftest import publish

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

N_MATRICES = 6
CACHE_CAPACITY = 4
HOT_MATRICES = 3
HOT_REQUESTS = 24
BATCH_REQUESTS = 8

# Structural-batching phase: same-pattern/different-values traffic.
# Every request is a distinct values variant (the re-factorization
# stream): the legacy path must plan each one, the structural path
# plans once per pattern and rebinds.
FUSED_PATTERNS = 3
FUSED_VALUES = 6
FUSED_REQUESTS = FUSED_PATTERNS * FUSED_VALUES
FUSED_BATCH = FUSED_REQUESTS
FUSED_REPEATS = 3
#: acceptance floor: fused service wall-clock speedup over the
#: structural_batching=False ablation on the revalued workload
FUSED_FLOOR = 2.0

# Plan-store warm-tier phase: cold-start-to-steady-state ramp with an
# empty store vs the same workload restarted against a pre-warmed one.
STORE_MATRICES = 5
STORE_STEADY_ROUNDS = 10
STORE_REPEATS = 3
#: acceptance floor: warm-store restart must reach steady state this
#: many times faster than an empty-store cold start
COLD_START_FLOOR = 5.0


class _ExplodingSolver(TriangularSolver):
    """A planner that always fails: exercises graceful degradation."""

    method = "exploding"

    def _prepare(self, L):
        raise RuntimeError("planner exploded (benchmark-injected failure)")


def _fused_service(structural: bool) -> SolveService:
    # Capacity holds every variant (legacy mode keys on full fingerprint)
    # so the comparison measures plan-build cost, not eviction thrash.
    return SolveService(ServiceConfig(
        method="recursive-block",
        device=TITAN_RTX_SCALED,
        cache_capacity=FUSED_PATTERNS * FUSED_VALUES + 1,
        max_workers=4,
        structural_batching=structural,
    ))


def fused_phase() -> dict:
    """Fused (structural) vs legacy replay of the revalued workload."""
    workload = revalued_workload(
        FUSED_REQUESTS,
        scale=0.05,
        n_patterns=FUSED_PATTERNS,
        n_values=FUSED_VALUES,
        seed=13,
    )

    def timed_replay(structural: bool) -> tuple[float, SolveService]:
        best, svc = float("inf"), None
        for _ in range(FUSED_REPEATS):
            with _fused_service(structural) as s:
                t0 = time.perf_counter()
                replay(s, workload, batch_size=FUSED_BATCH)
                elapsed = time.perf_counter() - t0
            if elapsed < best:
                best, svc = elapsed, s
        return best, svc

    legacy_s, _ = timed_replay(structural=False)
    fused_s, fused_svc = timed_replay(structural=True)
    stats = fused_svc.stats()

    # Bit-identity: a fused same-pattern batch must match per-request
    # solves through the same (warm) service, bit for bit.
    with _fused_service(structural=True) as svc:
        variants = [
            workload.matrices[name]
            for name in list(workload.matrices)[:FUSED_VALUES]
        ]
        b = np.ones(variants[0].n_rows)
        singles = [svc.solve(V, b) for V in variants]  # warm every overlay
        batch = svc.solve_batch([SolveRequest(A=V, b=b) for V in variants])
        assert len(batch.buckets) == 1 and batch.buckets[0].fused
        for single, fused in zip(singles, batch):
            assert np.array_equal(np.asarray(fused.x), np.asarray(single.x))

    return {
        "patterns": FUSED_PATTERNS,
        "values_per_pattern": FUSED_VALUES,
        "requests": FUSED_REQUESTS,
        "batch_size": FUSED_BATCH,
        "legacy_s": legacy_s,
        "fused_s": fused_s,
        "speedup": legacy_s / fused_s,
        "pattern_hits": stats.pattern_hits,
        "fused_requests": stats.fused_requests,
        "fused_floor": FUSED_FLOOR,
        "bit_identical": True,
    }


def _store_service(store_path: str) -> SolveService:
    return SolveService(ServiceConfig(
        method="recursive-block",
        device=TITAN_RTX_SCALED,
        cache_capacity=STORE_MATRICES + 1,
        max_workers=4,
        store_path=store_path,
    ))


def store_phase() -> dict:
    """Cold-start ramp with an empty PlanStore vs a pre-warmed one.

    The "cold start" is the first tour over every distinct matrix —
    the window during which a restarted service pays preprocessing
    before latency settles to the cached steady state.  With a warm
    store the tour deserializes plans instead of building them.
    """
    workload = mixed_workload(
        STORE_MATRICES, scale=0.1, n_matrices=STORE_MATRICES, seed=23
    )
    mats = list(workload.matrices.values())
    rhs = [np.ones(A.n_rows) for A in mats]

    def ramp(store_dir: str) -> tuple[float, float, list, object]:
        """One fresh process-equivalent: new service, tour, steady window."""
        with _store_service(store_dir) as svc:
            t0 = time.perf_counter()
            xs = [np.asarray(svc.solve(A, b).x) for A, b in zip(mats, rhs)]
            ramp_s = time.perf_counter() - t0
            lat = []
            for _ in range(STORE_STEADY_ROUNDS):
                for A, b in zip(mats, rhs):
                    t1 = time.perf_counter()
                    svc.solve(A, b)
                    lat.append(time.perf_counter() - t1)
            stats = svc.stats()
        p99 = float(np.percentile(np.asarray(lat), 99))
        return ramp_s, p99, xs, stats

    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as root:
        # Empty-store cold starts: each repeat gets a pristine directory
        # (a populated store would turn later repeats into warm starts).
        cold_runs = [
            ramp(str(Path(root) / f"cold{i}")) for i in range(STORE_REPEATS)
        ]
        cold_s = min(r[0] for r in cold_runs)
        cold_p99 = min(r[1] for r in cold_runs)
        # Warm restarts all replay the store the *first* cold run wrote.
        # Engine choices are structural, so every cold repeat must solve
        # bit for bit like that run, and so must the warm restarts.
        _, _, cold_xs, cold_stats = cold_runs[0]
        warm_dir = str(Path(root) / "cold0")
        warm_runs = [ramp(warm_dir) for _ in range(STORE_REPEATS)]
        warm_s = min(r[0] for r in warm_runs)
        warm_p99 = min(r[1] for r in warm_runs)
        _, _, warm_xs, warm_stats = warm_runs[0]

    bit_identical = all(
        np.array_equal(c, x)
        for _, _, xs, _ in cold_runs[1:] + warm_runs
        for c, x in zip(cold_xs, xs)
    )
    return {
        "matrices": STORE_MATRICES,
        "steady_rounds": STORE_STEADY_ROUNDS,
        "cold_start_empty_s": cold_s,
        "cold_start_warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "steady_p99_empty_s": cold_p99,
        "steady_p99_warm_s": warm_p99,
        "pattern_builds_empty": cold_stats.pattern_builds,
        "pattern_builds_warm": warm_stats.pattern_builds,
        "store_hits_warm": warm_stats.store_hits,
        "store": warm_stats.store.as_dict() if warm_stats.store else None,
        "bit_identical": bit_identical,
        "cold_start_floor": COLD_START_FLOOR,
    }


def run() -> dict:
    workload = mixed_workload(
        N_MATRICES + HOT_REQUESTS,
        scale=0.05,
        n_matrices=N_MATRICES,
        hot_matrices=HOT_MATRICES,
        seed=7,
    )
    config = ServiceConfig(
        method="recursive-block",
        device=TITAN_RTX_SCALED,
        cache_capacity=CACHE_CAPACITY,
        max_workers=4,
    )
    register_solver("exploding", _ExplodingSolver, replace=True)
    try:
        with SolveService(config) as service:
            # Phase 1+2 — tour then hot set, sequentially so the LRU
            # eviction sequence is deterministic.
            for name, b in workload.stream:
                service.solve(workload.matrices[name], b)
            # Phase 3 — a coalesced batch on the hottest matrix.
            hot_name = workload.stream[-1][0]
            hot = workload.matrices[hot_name]
            rng = np.random.default_rng(11)
            batch = [
                SolveRequest(A=hot, b=rng.standard_normal(hot.n_rows))
                for _ in range(BATCH_REQUESTS)
            ]
            for req, res in zip(batch, service.solve_batch(batch)):
                resid = float(np.abs(hot.matvec(np.asarray(res.x)) - req.b).max())
                assert resid < 1e-8, resid
            # Phase 4 — a method whose planner fails, twice: first builds
            # and caches the level-set fallback plan, second hits it.
            small_name = workload.stream[0][0]
            small = workload.matrices[small_name]
            for _ in range(2):
                res = service.solve(small, np.ones(small.n_rows), method="exploding")
                assert res.fallback and res.method == "levelset"
            stats = service.stats()
            records = [r.as_dict() for r in service.records()]
    finally:
        unregister_solver("exploding")

    hit_mean = stats.hit_mean_latency_s
    miss_mean = stats.miss_mean_latency_s
    result = {
        "workload": {
            "n_matrices": N_MATRICES,
            "cache_capacity": CACHE_CAPACITY,
            "hot_matrices": HOT_MATRICES,
            "hot_requests": HOT_REQUESTS,
            "coalesced_batch": BATCH_REQUESTS,
            "fallback_requests": 2,
            "matrices": {
                name: {"n": A.n_rows, "nnz": A.nnz}
                for name, A in workload.matrices.items()
            },
        },
        "stats": stats.as_dict(),
        "hit_mean_latency_s": hit_mean,
        "miss_mean_latency_s": miss_mean,
        "hit_over_miss_latency": hit_mean / miss_mean if miss_mean else None,
        "records": records,
        "fused": fused_phase(),
        "store": store_phase(),
    }
    return result


def profile_capture(result: dict) -> None:
    """Re-solve the largest workload matrix with observability on and
    attach its per-segment profile to the result.

    Runs *after* the timed benchmark — the timed path keeps
    observability disabled (that disabled path has its own < 3 %
    overhead acceptance bar).
    """
    from repro import Observability, solve_triangular
    from repro.analysis.inspect import render_profile

    matrices = result["workload"]["matrices"]
    name = max(matrices, key=lambda k: matrices[k]["nnz"])
    workload = mixed_workload(
        N_MATRICES, scale=0.05, n_matrices=N_MATRICES, seed=7
    )
    A = workload.matrices[name]
    obs = Observability()
    res = solve_triangular(
        A, np.ones(A.n_rows), method="recursive-block",
        device=TITAN_RTX_SCALED, trace=obs,
    )
    result["profile"] = {
        "matrix": name,
        "segments": res.report.profile,
        "rendered": render_profile(res.report),
        "kernel_launches": {
            s["labels"]["kernel"]: s["value"]
            for s in obs.metrics_dict()["repro_kernel_launches_total"]["samples"]
        },
    }


def render(result: dict) -> str:
    s = result["stats"]
    lines = [
        "serve throughput (plan-caching SolveService, recursive-block)",
        f"  requests {s['requests']}  hits {s['cache_hits']}  "
        f"misses {s['cache_misses']}  evictions {s['evictions']}  "
        f"fallbacks {s['fallbacks']}  coalesced {s['coalesced_requests']}",
        f"  miss-path mean latency {result['miss_mean_latency_s'] * 1e3:9.4f} ms "
        "(pays preprocessing)",
        f"  hit-path  mean latency {result['hit_mean_latency_s'] * 1e3:9.4f} ms "
        "(plan reused)",
        f"  hit/miss latency ratio {result['hit_over_miss_latency']:.3f} "
        "(acceptance: < 0.5)",
    ]
    f = result.get("fused")
    if f:
        lines.append(
            f"  structural batching: {f['requests']} requests over "
            f"{f['patterns']} patterns x {f['values_per_pattern']} values, "
            f"batch={f['batch_size']}"
        )
        lines.append(
            f"    legacy {f['legacy_s'] * 1e3:9.2f} ms   "
            f"fused {f['fused_s'] * 1e3:9.2f} ms   "
            f"speedup {f['speedup']:.2f}x (acceptance: >= {f['fused_floor']}x)"
        )
        lines.append(
            f"    pattern hits {f['pattern_hits']}  "
            f"fused requests {f['fused_requests']}  "
            f"bit-identical to per-request: {f['bit_identical']}"
        )
    st = result.get("store")
    if st:
        lines.append(
            f"  plan-store warm tier: {st['matrices']} matrices, "
            f"{st['steady_rounds']} steady rounds"
        )
        lines.append(
            f"    cold start (empty store) {st['cold_start_empty_s'] * 1e3:9.2f} ms   "
            f"warm restart {st['cold_start_warm_s'] * 1e3:9.2f} ms   "
            f"speedup {st['speedup']:.2f}x (acceptance: >= {st['cold_start_floor']}x)"
        )
        lines.append(
            f"    warm restart pattern builds {st['pattern_builds_warm']} "
            f"(acceptance: 0)  store hits {st['store_hits_warm']}  "
            f"bit-identical to fresh builds and across cold repeats: "
            f"{st['bit_identical']}"
        )
    if "profile" in result:
        lines.append(f"  per-segment profile of {result['profile']['matrix']} "
                     "(captured untimed, observability on):")
        lines.extend("    " + ln
                     for ln in result["profile"]["rendered"].splitlines())
    return "\n".join(lines)


def check(result: dict) -> None:
    s = result["stats"]
    total = N_MATRICES + HOT_REQUESTS + BATCH_REQUESTS + 2
    assert s["requests"] == total, s
    # One miss per distinct plan: 6 toured matrices + 1 fallback plan.
    assert s["cache_misses"] == N_MATRICES + 1, s
    assert s["cache_hits"] == total - s["cache_misses"], s
    # The tour inserts 6 plans into 4 slots (+1 later for the fallback
    # plan, which evicts another): 2 + 1 evictions.
    assert s["evictions"] == (N_MATRICES - CACHE_CAPACITY) + 1, s
    assert s["fallbacks"] == 2, s
    assert s["coalesced_requests"] == BATCH_REQUESTS, s
    assert s["failed"] == 0 and s["timeouts"] == 0, s
    # The headline: cached plans skip preprocessing entirely.
    assert result["hit_over_miss_latency"] < 0.5, result["hit_over_miss_latency"]
    # Structural-batching phase: fused throughput and pattern reuse.
    f = result["fused"]
    assert f["speedup"] >= FUSED_FLOOR, f
    assert f["bit_identical"], f
    # Every request after the first of its pattern rebinds the cached
    # pattern plan instead of rebuilding it.
    assert f["pattern_hits"] >= FUSED_REQUESTS - FUSED_PATTERNS, f
    assert f["fused_requests"] > 0, f
    # Plan-store phase: warm restart skips every pattern build, loads
    # plans that solve bit-identically, and amortizes the cold start.
    st = result["store"]
    assert st["pattern_builds_empty"] == STORE_MATRICES, st
    assert st["pattern_builds_warm"] == 0, st
    assert st["store_hits_warm"] == STORE_MATRICES, st
    assert st["bit_identical"], st
    assert st["speedup"] >= COLD_START_FLOOR, st


def test_serve_throughput(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    check(result)
    profile_capture(result)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    publish("serve_throughput", render(result))


if __name__ == "__main__":
    result = run()
    check(result)
    profile_capture(result)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    print(f"wrote {BENCH_JSON}")
