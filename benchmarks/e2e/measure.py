"""Measurement of one workload: set-up, timed runs, answer checks and
the metrics computed from them (see ``run.py`` for the command)."""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from hostspeed import probed, to_reference
from layers import LAYER_TARGETS, QUEUE_DELAY, LayerTracer
from repro import (
    TITAN_RTX_SCALED,
    RecursiveBlockSolver,
    matrix_fingerprint,
)
from repro.kernels.sptrsv_serial import solve_serial
from repro.validate.invariants import DEFAULT_RESIDUAL_TOL
from workloads import WORKLOADS

COLD_STARTS = 11
#: the traced run is this share of the untraced one
TRACED_SHARE = 0.3


class ShapeError(RuntimeError):
    """The workload's steady state is not the one it is meant to measure."""


def _percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs), q)) if len(xs) else float("nan")


def _iqm(xs) -> float:
    """Interquartile mean: the mean of the middle half of ``xs``."""
    xs = sorted(xs)
    quarter = len(xs) // 4
    return statistics.fmean(xs[quarter:len(xs) - quarter])


# --------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------- #
class References:
    """Fresh single-device compiled answers: one plan per distinct matrix,
    prepared the way ``repro.solve_triangular`` prepares it, plus the
    ``solve_serial`` oracle."""

    def __init__(self) -> None:
        self._solver = RecursiveBlockSolver(device=TITAN_RTX_SCALED)
        self._plans: dict = {}

    def answers(self, A, b):
        """``(compiled reference, oracle, oracle tolerance)``."""
        key = matrix_fingerprint(A)
        if key not in self._plans:
            self._plans[key] = self._solver.prepare(A)
        ref, _ = self._plans[key].solve(b)
        oracle = solve_serial(A, b)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        return ref, oracle, DEFAULT_RESIDUAL_TOL * scale


def check_sample(wl, svc, refs: References) -> dict:
    """Solve the sample twice, check every answer, read the model's counts.

    The first pass leaves the caches in a state fixed by the sample
    alone, so the second pass's simulated times repeat exactly for a
    given seed however long the timed run before it was.
    """
    passes = [wl.solve_sample(svc), wl.solve_sample(svc)]
    records = svc.records()[-len(passes[1]):]
    wrong = 0
    for i, (A, b, _) in enumerate(passes[1]):
        ref, oracle, tol = refs.answers(A, b)
        for n_pass, solved in enumerate(passes):
            x = solved[i][2].x
            bitwise = (
                x.dtype == ref.dtype and x.shape == ref.shape
                and x.tobytes() == ref.tobytes()
            )
            err = float(np.max(np.abs(x - oracle)))
            if not (bitwise and err <= tol):
                wrong += 1
                print(
                    f"{wl.name}: wrong answer for sample request {i} "
                    f"({A.n_rows} rows), pass {n_pass}: bit-identical to "
                    f"the reference {bitwise}, max |x - oracle| {err:.3g} "
                    f"(tolerance {tol:.3g})", file=sys.stderr,
                )
    reports = [r.report for _, _, r in passes[1]]
    return {
        "requests": sum(len(p) for p in passes),
        "wrong": wrong,
        "sim_us_per_req": 1e6 * statistics.fmean(
            r.sim_latency_s for r in records
        ),
        "launches_per_req": statistics.fmean(r.launches for r in reports),
        "mb_moved_per_req": statistics.fmean(
            r.bytes_moved for r in reports
        ) / 1e6,
    }


# --------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------- #
def counters(svc) -> dict:
    stats = svc.stats()
    cache = svc.cache.stats()
    store = svc.store.stats() if svc.store is not None else None
    return {
        "pattern_builds": stats.pattern_builds,
        "overlay_evictions": stats.overlay_evictions,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "store_hits": store.hits if store else 0,
        "store_misses": store.misses if store else 0,
    }


def timed_window(wl, svc, seconds: float, warmup_s: float, snapshot=dict):
    """Warm up, then run ``seconds`` and check the window's shape.

    Returns ``(phase, counter delta, (snapshot before, snapshot after))``.
    """
    gc.collect()  # garbage from set-up is not collected inside the window
    wl.run(svc, warmup_s)
    before, mark = counters(svc), snapshot()
    phase = wl.run(svc, seconds)
    after, end = counters(svc), snapshot()
    delta = {k: after[k] - before[k] for k in after}
    errors = wl.shape_errors(delta, phase)
    if errors:
        raise ShapeError(f"{wl.name}: " + "; ".join(errors))
    return phase, delta, (mark, end)


def host_metrics(phase) -> dict:
    """The phase's host-clock metrics, at reference host speed, from the
    windows ``hostspeed.py`` keeps."""
    kept = [
        (t, call)
        for t, call in zip(to_reference(phase), phase.calls)
        if t is not None
    ]
    ok = [(t, call[2]) for t, call in kept if call[3]]
    lat = [t for t, _ in ok]
    if phase.open_loop:
        # the schedule sets the pace: OK requests per wall second of the
        # schedule, or of the backlog's drain if that ended later
        last = max(s + t for s, t, *_ in phase.calls)
        rps = sum(c[2] for c in phase.calls if c[3]) / max(
            phase.elapsed_s, last
        )
    else:  # requests per second the client spent waiting on the service
        rps = sum(k for _, k in ok) / sum(lat)
    return {
        "latency_iqm_ms": 1e3 * _iqm(lat),
        "latency_p90_ms": 1e3 * _percentile(lat, 90),
        "throughput_rps": rps,
        "slo_met_frac": sum(
            k for t, k in ok if t <= phase.slo_per_request_s * k
        ) / sum(call[2] for _, call in kept),
    }


def end_to_end(phase, setup_s: list, check: dict, rss_mb: float) -> dict:
    attempted = phase.attempted + check["requests"]
    failed = sum(phase.failures.values()) + check["wrong"]
    return {
        **host_metrics(phase),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_s),
        "sim_us_per_req": check["sim_us_per_req"],
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    cold, cold_scale, mid, end, tphase, delta, check, untraced, uphase
) -> dict:
    """Per-layer metrics of the traced window (``mid`` -> ``end``) and of
    the traced cold start before it (``cold``, measured at ``cold_scale``).

    ``self_us`` values are per call; with ``serve.ingress.queue_delay_us``
    and the ``serve.service.self_us`` residual they add up to
    ``bench.trace.e2e_us``, the traced window's mean call latency.  All
    times are at reference host speed (``hostspeed.py``).
    """
    n = len(tphase.calls)
    # one scale for the whole window: reference over host time of the
    # calls hostspeed.py keeps
    kept = [
        (t, call[1])
        for t, call in zip(to_reference(tphase), tphase.calls)
        if t is not None
    ]
    scale = sum(t for t, _ in kept) / sum(host for _, host in kept)
    layer_names = {row[0] for row in LAYER_TARGETS} | {QUEUE_DELAY}
    win = {}
    for layer in layer_names:
        e, m = end.get(layer, (0, 0, 0)), mid.get(layer, (0, 0, 0))
        win[layer] = tuple(x - y for x, y in zip(e, m))

    def self_us(layer):
        return scale * win[layer][0] / n / 1e3

    def calls(layer):
        return win[layer][1] / n

    def per_call(totals, layer, unit):
        ns, k, _ = totals.get(layer, (0, 0, 0))
        return cold_scale * ns / k / unit if k else 0.0

    def frac(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    fp_ns, _, fp_bytes = win["serve.fingerprint"]
    e2e_us = scale * 1e6 * statistics.fmean(tphase.latencies_s)
    layered_us = sum(self_us(layer) for layer in layer_names)
    traced_ms = host_metrics(tphase)["latency_iqm_ms"]
    return {
        "formats.triangular.self_us": self_us("formats.triangular"),
        "formats.triangular.calls_per_req": calls("formats.triangular"),
        "serve.fingerprint.self_us": self_us("serve.fingerprint"),
        "serve.fingerprint.calls_per_req": calls("serve.fingerprint"),
        "serve.fingerprint.mb_per_s": (
            fp_bytes / 1e6 / (scale * fp_ns / 1e9) if fp_ns else 0.0
        ),
        "serve.cache.self_us": self_us("serve.cache"),
        "serve.cache.hit_frac": frac(
            delta["cache_hits"], delta["cache_misses"]
        ),
        "core.rebind.self_us": self_us("core.rebind"),
        "core.rebind.calls_per_req": calls("core.rebind"),
        "core.rebind.evictions_per_req": delta["overlay_evictions"] / n,
        "serve.store.load_us": self_us("serve.store.load"),
        "serve.store.write_us": per_call(cold, "serve.store.write", 1e3),
        "serve.store.hit_frac": frac(
            delta["store_hits"], delta["store_misses"]
        ),
        "core.solver.build_ms": per_call(cold, "core.solver.build", 1e6),
        "core.solver.builds_in_window": delta["pattern_builds"],
        "core.executor.compile_us": self_us("core.executor.compile"),
        "core.executor.solve_us": self_us("core.executor.solve"),
        "dist.executor.solve_us": self_us("dist.executor.solve"),
        "gpu.cost.launches_per_req": check["launches_per_req"],
        "gpu.cost.mb_moved_per_req": check["mb_moved_per_req"],
        "obs.runtime.note_us": self_us("obs.runtime.note"),
        "serve.ingress.queue_delay_us": self_us(QUEUE_DELAY),
        "serve.ingress.shed_frac": tphase.shed / tphase.attempted,
        "serve.service.self_us": e2e_us - layered_us,
        "bench.trace.e2e_us": e2e_us,
        "bench.sender.lag_p99_ms": (
            1e3 * _percentile(uphase.lags_s, 99) if uphase.lags_s else 0.0
        ),
        "bench.trace.overhead_frac": (
            traced_ms / untraced["latency_iqm_ms"] - 1.0
        ),
    }


def traced_seconds(seconds: int) -> int:
    return max(1, round(TRACED_SHARE * seconds))


def warmup_seconds(seconds: int) -> float:
    return min(1.0, 0.1 * seconds)


def run_workload(
    name: str, seed: int, seconds: int, traced: bool, work_dir: Path
) -> dict:
    """Set-up, untraced run and (with ``traced``) traced run of one
    workload in this process; returns its record."""
    work_dir.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir)
    try:
        wl = WORKLOADS[name](seed, work)
        refs = References()
        warmup_s = warmup_seconds(seconds)
        wl.cold_start().close()  # untimed: first-use imports and caches
        setup_s, svc = [], None
        for _ in range(COLD_STARTS):
            if svc is not None:
                svc.close()
            svc, host_s, scale = probed(wl.cold_start)
            setup_s.append(host_s * scale)
        phase, _, _ = timed_window(wl, svc, seconds, warmup_s)
        check = check_sample(wl, svc, refs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = end_to_end(phase, setup_s, check, rss_mb)
        p99 = _percentile(phase.latencies_s, 99)
        record = {
            "end_to_end": e2e,
            "diagnostics": {
                "latency_iqm_ms_unscaled": 1e3 * _iqm(phase.latencies_s),
                "probe_median_us": 1e6 * statistics.median(
                    p[1] for p in phase.probes
                ),
                "stolen_s": phase.probes[-1][2] - phase.probes[0][2],
                "probes": len(phase.probes),
                "latency_p99_ms_diag": 1e3 * p99,
                "latency_samples": len(phase.latencies_s),
                "samples_beyond_p99": sum(x > p99 for x in phase.latencies_s),
                "failures": phase.failures,
                "setup_s_all": setup_s,
            },
            "attempted": phase.attempted + check["requests"],
            "failed": sum(phase.failures.values()) + check["wrong"],
            "wrong": check["wrong"],
        }
        if traced:
            # The traced window runs on the same service right after the
            # untraced one, so the two differ only by the shims; a traced
            # cold start of its own gives the per-build and per-write costs.
            with LayerTracer() as tracer:
                cold_svc, _, cold_scale = probed(wl.cold_start)
                cold_svc.close()
                cold = tracer.totals()
                tphase, delta, (mid, end) = timed_window(
                    wl, svc, traced_seconds(seconds), warmup_s, tracer.totals
                )
            tcheck = check_sample(wl, svc, refs)
            record["per_layer"] = per_layer(
                cold, cold_scale, mid, end, tphase, delta, tcheck, e2e, phase
            )
            record["attempted"] += tphase.attempted + tcheck["requests"]
            record["failed"] += sum(tphase.failures.values()) + tcheck["wrong"]
            record["wrong"] += tcheck["wrong"]
        svc.close()
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
