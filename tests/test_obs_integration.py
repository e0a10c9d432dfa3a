"""Observability wired through the real solve paths: live traffic
counters vs the §3.2 model, serve-layer span trees under concurrency,
per-segment profiles, stats percentiles, and the CLI commands."""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import wait
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Observability, solve_triangular
from repro.analysis.inspect import render_profile
from repro.analysis.traffic import measured_traffic, predicted_traffic
from repro.core.solver import SOLVERS
from repro.gpu.device import TITAN_RTX_SCALED
from repro.matrices.generators import banded_random
from repro.obs import Tracer
from repro.obs.runtime import SolveTelemetry, record_solve_traffic
from repro.serve import ServiceConfig, SolveService
from repro.serve.stats import percentile


def _matrix(n: int = 192, seed: int = 0):
    return banded_random(n, max(2, n // 24), 5.0,
                         rng=np.random.default_rng(seed))


BLOCK_SCHEMES = {
    "column-block": {"nseg": 4},
    "row-block": {"nseg": 4},
    "recursive-block": {"depth": 2},
}


@pytest.mark.parametrize("method,options", sorted(BLOCK_SCHEMES.items()))
def test_live_traffic_equals_model_per_scheme(method, options):
    L = _matrix()
    obs = Observability()
    solver = SOLVERS[method](device=TITAN_RTX_SCALED, **options)
    with obs.activate():
        prepared = solver.prepare(L)
        x, _ = prepared.solve(np.ones(L.n_rows))
    assert np.all(np.isfinite(x))
    plan = prepared.plan
    m = obs.serve_metrics
    live = (int(m.b_writes.value(method=method, device="0")),
            int(m.x_loads.value(method=method, device="0")))
    assert live == tuple(measured_traffic(plan))
    # Power-of-two part counts: the closed-form Tables 1-2 expressions
    # must agree exactly with the per-segment accumulation.
    predicted = predicted_traffic(plan)
    assert predicted is not None
    assert live == (int(predicted[0]), int(predicted[1]))
    assert m.traffic_mismatch.total() == 0
    assert m.solves_total.value(method=method) == 1


def test_fused_multi_rhs_counts_traffic_once():
    L = _matrix()
    obs = Observability()
    solver = SOLVERS["recursive-block"](device=TITAN_RTX_SCALED, depth=2)
    with obs.activate():
        prepared = solver.prepare(L)
        prepared.solve_multi(np.ones((L.n_rows, 8)))
    m = obs.serve_metrics
    # The matrix streams once regardless of the RHS count.
    assert m.b_writes.value(method="recursive-block", device="0") == \
        measured_traffic(prepared.plan)[0]
    assert m.solves_total.value(method="recursive-block") == 1


def test_traffic_mismatch_is_counted():
    L = _matrix(96)
    obs = Observability()
    solver = SOLVERS["recursive-block"](device=TITAN_RTX_SCALED, depth=1)
    prepared = solver.prepare(L)
    record_solve_traffic(obs, prepared.plan, live_b=1, live_x=999)
    assert obs.serve_metrics.traffic_mismatch.value(
        method="recursive-block") == 1


def test_solve_report_profile_covers_every_segment():
    L = _matrix()
    obs = Observability()
    res = solve_triangular(L, np.ones(L.n_rows), method="recursive-block",
                           depth=2, trace=obs)
    solver = SOLVERS["recursive-block"](device=TITAN_RTX_SCALED, depth=2)
    plan = solver.prepare(L).plan
    profile = res.report.profile
    assert len(profile) == len(plan.segments)
    assert [row["index"] for row in profile] == list(range(len(profile)))
    for row, seg in zip(profile, plan.segments):
        assert row["kernel"] == seg.kernel.name
        assert row["nnz"] == seg.nnz
        assert row["wall_time_s"] >= 0.0
    rendered = render_profile(res.report)
    assert f"{len(profile)} segments" in rendered
    # Without observability the profile stays empty (zero-cost path).
    res2 = solve_triangular(L, np.ones(L.n_rows), method="recursive-block",
                            depth=2)
    assert res2.report.profile == []
    assert "empty" in render_profile(res2.report)


def test_solve_triangular_accepts_bare_tracer():
    L = _matrix(96)
    tr = Tracer()
    solve_triangular(L, np.ones(L.n_rows), method="row-block", nseg=2,
                     trace=tr)
    names = {s.name for s in tr.spans()}
    assert "solve_triangular" in names
    assert "planner.prepare" in names
    assert any(n.startswith("segment.") for n in names)
    assert tr.open_depth() == 0


def test_service_stress_no_span_leak_and_counters_match_records():
    """Satellite 3: many concurrent requests through the pool — every
    request gets its own span tree, and the aggregated counters equal
    the sums over per-request records."""
    n_requests = 24
    matrices = [_matrix(seed=s) for s in range(3)]
    obs = Observability()
    config = ServiceConfig(device=TITAN_RTX_SCALED, max_workers=4, obs=obs)
    with SolveService(config) as svc:
        futures = [
            svc.submit(matrices[i % 3], np.ones(matrices[i % 3].n_rows))
            for i in range(n_requests)
        ]
        wait(futures)
        for f in futures:
            f.result()  # re-raise any worker failure
        records = svc.records()

    spans = obs.tracer.spans()
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == n_requests
    assert all(r.name == "serve.request" for r in roots)
    # No cross-request adoption: every request is its own trace, and
    # every child's parent lives in the same trace.
    assert len({r.trace_id for r in roots}) == n_requests
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id is not None:
            assert by_id[s.parent_id].trace_id == s.trace_id
    # Each request's tree covers the lifecycle.
    for root in roots:
        names = {s.name for s in spans if s.trace_id == root.trace_id}
        assert {"serve.queue_wait", "serve.cache_lookup",
                "serve.solve"} <= names

    m = obs.serve_metrics
    assert len(records) == n_requests
    assert m.requests_total.value(status="ok", tenant="default") == n_requests
    assert m.cache_lookups.value(result="miss") == 3
    assert m.cache_lookups.value(result="hit") == n_requests - 3
    assert m.kernel_launches.total() == sum(r.launches for r in records)
    assert m.request_latency.snapshot(tenant="default")["count"] == n_requests
    assert m.request_latency.snapshot(tenant="default")["sum"] == pytest.approx(
        sum(r.wall_time_s for r in records))
    assert m.sim_latency.snapshot(tenant="default")["sum"] == pytest.approx(
        sum(r.prep_time_s + r.solve_time_s for r in records))
    assert m.queue_wait.snapshot(tenant="default")["count"] == n_requests
    assert m.solves_total.total() == n_requests
    assert m.traffic_mismatch.total() == 0
    assert m.fallbacks_total.total() == 0

    # The real serve exposition must survive an independent parse and
    # carry the cache, latency-histogram, and traffic families.
    from test_obs_metrics import parse_prometheus

    fams = parse_prometheus(obs.to_prometheus())
    assert fams["repro_cache_lookups_total"]["type"] == "counter"
    assert fams["repro_request_latency_seconds"]["type"] == "histogram"
    assert fams["repro_sim_latency_seconds"]["type"] == "histogram"
    assert fams["repro_b_writes_total"]["type"] == "counter"
    assert fams["repro_traffic_measured_items"]["type"] == "gauge"
    assert fams["repro_request_latency_seconds"]["samples"][
        ("repro_request_latency_seconds_count", (("tenant", "default"),))
    ] == n_requests


def test_disabled_observability_keeps_plain_records():
    L = _matrix(96)
    with SolveService(ServiceConfig(device=TITAN_RTX_SCALED)) as svc:
        res = svc.solve(L, np.ones(L.n_rows))
    assert res.report.profile == []


def test_percentile_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert percentile(xs, 50) == 50.0
    assert percentile(xs, 95) == 95.0
    assert percentile(xs, 99) == 99.0
    assert percentile(xs, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0
    # Always an observed value, never an interpolation.
    assert percentile([1.0, 10.0], 50) in (1.0, 10.0)


def test_service_stats_percentiles():
    L = _matrix(96)
    with SolveService(ServiceConfig(device=TITAN_RTX_SCALED)) as svc:
        for _ in range(9):
            svc.solve(L, np.ones(L.n_rows))
        stats = svc.stats()
        walls = sorted(r.wall_time_s for r in svc.records())
        sims = sorted(r.sim_latency_s for r in svc.records())
    assert stats.p50_wall_time_s == walls[4]
    assert stats.p95_wall_time_s == walls[8]
    assert stats.p99_wall_time_s == walls[8]
    assert stats.p50_sim_latency_s == sims[4]
    d = stats.as_dict()
    for key in ("p50_wall_time_s", "p95_wall_time_s", "p99_wall_time_s",
                "p50_sim_latency_s", "p95_sim_latency_s",
                "p99_sim_latency_s"):
        assert d[key] == getattr(stats, key)
    assert "p50/95/99" in stats.render()


def test_cli_trace_emits_tree_and_exports(tmp_path, capsys):
    from repro.cli import main

    jsonl = tmp_path / "spans.jsonl"
    prom = tmp_path / "metrics.prom"
    rc = main(["trace", "--size", "128", "--jsonl", str(jsonl),
               "--prom", str(prom)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "MISMATCH" not in out
    for phase in ("planner.partition", "planner.pack", "segment.tri",
                  "segment.spmv"):
        assert phase in out
    for method in ("column-block", "row-block", "recursive-block"):
        assert method in out
    lines = jsonl.read_text().splitlines()
    assert lines
    from repro.obs import SPAN_SCHEMA_FIELDS

    for line in lines:
        record = json.loads(line)
        assert all(k in record for k in SPAN_SCHEMA_FIELDS)
    text = prom.read_text()
    for family in ("repro_b_writes_total", "repro_x_loads_total",
                   "repro_traffic_measured_items",
                   "repro_kernel_launches_total"):
        assert f"# TYPE {family}" in text


def test_cli_stats_prints_snapshot_and_metrics(capsys):
    from repro.cli import main

    rc = main(["stats", "--requests", "6", "--matrices", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "service stats" in out
    assert "p50/95/99" in out
    assert "# TYPE repro_requests_total counter" in out
    assert 'repro_requests_total{status="ok",tenant="default"} 6' in out


def _telemetry(measured: tuple) -> SolveTelemetry:
    """A single-device plan of method ``m`` whose Table 1-2 accounting
    reads ``measured`` (its cached traffic stands in for the plan)."""
    plan = SimpleNamespace(method="m", _traffic_cache=(measured, measured))
    return SolveTelemetry(plan, None, None, measured[:1], measured[1:])


def _measured(m) -> tuple:
    return (
        m.traffic_measured.value(method="m", table="b_writes"),
        m.traffic_measured.value(method="m", table="x_loads"),
    )


class _ParkingLock:
    """A gauge lock that parks the thread named ``parked`` until
    released, between its plan's counter and gauge writes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.parked = threading.Event()
        self.release = threading.Event()

    def __enter__(self):
        if threading.current_thread().name == "parked":
            self.parked.set()
            assert self.release.wait(10)
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class TestTelemetryGauges:
    """The traffic gauges hold the values of the most recent publish."""

    def test_publish_alone_after_an_interleaved_one_sets_its_gauges(self):
        m = Observability().serve_metrics
        p1, p2 = _telemetry((10, 20)), _telemetry((30, 40))
        gate = m.traffic_measured._lock = _ParkingLock()
        slow = threading.Thread(target=p1.publish, args=(m,), name="parked")
        slow.start()
        assert gate.parked.wait(10)
        p2.publish(m)          # all of p2's publish, inside p1's
        gate.release.set()
        slow.join(10)
        assert not slow.is_alive()
        assert _measured(m) == (10, 20)
        p2.publish(m)
        assert _measured(m) == (30, 40)
        assert m.solves_total.value(method="m") == 3

    def test_alternating_publishers_then_one_alone(self):
        m = Observability().serve_metrics
        plans = [_telemetry((10, 20)), _telemetry((30, 40))]

        def publish(plan):
            for _ in range(300):
                plan.publish(m)

        threads = [threading.Thread(target=publish, args=(p,)) for p in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for last in (plans[1], plans[0], plans[1]):
            last.publish(m)
            assert _measured(m) == ((30, 40) if last is plans[1] else (10, 20))
        assert m.solves_total.value(method="m") == 603
