"""Units for repro.dist: DAG derivation, 2-D tiling, the scheduler
registry and its policies, both sync-mode timelines, the hierarchical
interconnect, the sharded executor, and the serve/CLI integration."""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.core.dag import build_segment_dag
from repro.core.plan import SpMVSegment, TriSegment
from repro.core.solver import SOLVERS
from repro.dist import (
    SCHEDULERS,
    SYNC_MODES,
    DistributedPlan,
    GreedyEFTScheduler,
    Interconnect,
    Scheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
    schedule_dag,
    tile_plan,
    unregister_scheduler,
)
from repro.errors import ValidationError
from repro.gpu.device import TITAN_RTX_SCALED
from repro.obs import Observability
from repro.serve import ServiceConfig, SolveService

from conftest import random_lower


def _prepare(method="column-block", n=300, seed=7, **options):
    L = random_lower(n, density=0.05, seed=seed)
    solver = SOLVERS[method](device=TITAN_RTX_SCALED, **options)
    return L, solver.prepare(L)


class TestInterconnect:
    def test_for_device_scales_with_memory_bandwidth(self):
        link = Interconnect.for_device(TITAN_RTX_SCALED)
        assert link.bandwidth_gbps == pytest.approx(
            0.5 * TITAN_RTX_SCALED.mem_bandwidth_gbps
        )

    def test_transfer_time_formula(self):
        link = Interconnect(bandwidth_gbps=8.0, latency_s=1e-6, item_bytes=8)
        # 0 items is a pure synchronization: latency only.
        assert link.transfer_time(0) == pytest.approx(1e-6)
        assert link.transfer_time(1000) == pytest.approx(
            1e-6 + 1000 * 8 / 8.0e9
        )

    def test_flat_link_ignores_endpoints(self):
        link = Interconnect(bandwidth_gbps=8.0, latency_s=1e-6)
        assert link.same_node(0, 7)
        assert link.transfer_time(500, 0, 7) == link.transfer_time(500)

    def test_hierarchical_two_tiers(self):
        link = Interconnect(
            bandwidth_gbps=8.0, latency_s=1e-6, item_bytes=8,
            node_size=4, inter_bandwidth_gbps=0.8, inter_latency_s=1e-5,
        )
        # devices 0-3 share node 0, 4-7 share node 1
        assert link.same_node(0, 3) and link.same_node(4, 7)
        assert not link.same_node(3, 4)
        intra = link.transfer_time(1000, 0, 3)
        inter = link.transfer_time(1000, 3, 4)
        assert intra == pytest.approx(1e-6 + 1000 * 8 / 8.0e9)
        assert inter == pytest.approx(1e-5 + 1000 * 8 / 0.8e9)
        assert inter > intra
        # endpoint-less pricing falls back to the intra tier
        assert link.transfer_time(1000) == intra

    def test_hierarchical_constructor_and_sync_latency(self):
        link = Interconnect.hierarchical(TITAN_RTX_SCALED, node_size=4)
        assert link.node_size == 4
        assert link.inter_bandwidth_gbps < link.bandwidth_gbps
        # one node syncs over the fast tier; spanning nodes pays the
        # slow tier's round trip
        assert link.sync_latency(4) == pytest.approx(2 * link.latency_s)
        assert link.sync_latency(8) == pytest.approx(
            2 * link.inter_latency_s
        )
        with pytest.raises(ValueError):
            Interconnect.hierarchical(TITAN_RTX_SCALED, node_size=0)

    def test_inter_tier_defaults_fall_back_to_intra(self):
        link = Interconnect(bandwidth_gbps=8.0, latency_s=1e-6, node_size=2)
        assert link.transfer_time(100, 0, 3) == link.transfer_time(100, 0, 1)


class TestSegmentDAG:
    def test_column_block_chain_before_tiling(self):
        # §3.1 column-block aggregates each strip's update into one tall
        # SpMV, so the untiled DAG is a serial chain: every segment
        # depends on its predecessor.
        _, prepared = _prepare(nseg=8)
        dag = build_segment_dag(prepared.plan)
        for j in range(1, dag.n_segments):
            assert dag.preds[j], f"segment {j} has no predecessor"
        assert dag.check_topological(range(dag.n_segments))

    def test_edge_payloads_match_intervals(self):
        _, prepared = _prepare(nseg=8)
        plan = tile_plan(prepared.plan)
        dag = build_segment_dag(plan)
        for e in dag.edges:
            src, dst = plan.segments[e.src], plan.segments[e.dst]
            if e.kind == "x":
                # x edges: tri output read by a later SpMV.
                assert isinstance(src, TriSegment)
                assert isinstance(dst, SpMVSegment)
                assert e.lo >= max(src.lo, dst.col_lo)
                assert e.hi <= min(src.hi, dst.col_hi)
                assert e.items == e.hi - e.lo
            elif e.kind == "war":
                assert e.items == 0

    def test_tri_waits_for_every_update_into_its_rows(self):
        _, prepared = _prepare(nseg=8)
        plan = tile_plan(prepared.plan)
        dag = build_segment_dag(plan)
        for j, seg in enumerate(plan.segments):
            if not isinstance(seg, TriSegment):
                continue
            for i in range(j):
                other = plan.segments[i]
                if isinstance(other, SpMVSegment) and not (
                    other.row_hi <= seg.lo or other.row_lo >= seg.hi
                ):
                    assert i in dag.preds[j], (i, j)

    def test_critical_path_bounds(self):
        _, prepared = _prepare(nseg=8)
        plan = tile_plan(prepared.plan)
        dag = build_segment_dag(plan)
        costs = [1.0] * dag.n_segments
        cp = dag.critical_path_s(costs)
        assert 0 < cp <= sum(costs)


class TestTilePlan:
    def test_splits_multi_part_spmvs(self):
        _, prepared = _prepare(nseg=8)
        tiled = tile_plan(prepared.plan)
        assert tiled is not prepared.plan
        assert tiled.n_spmv_segments > prepared.plan.n_spmv_segments
        # Triangular segments are shared, not copied.
        assert [id(s) for s in tiled.tri_segments] == [
            id(s) for s in prepared.plan.tri_segments
        ]
        # Same totals: tiling only re-slices rows, never drops entries.
        assert tiled.total_nnz == prepared.plan.total_nnz
        assert sum(s.n_rows for s in tiled.spmv_segments) <= sum(
            s.n_rows for s in prepared.plan.spmv_segments
        )  # zero-nnz slices are dropped

    def test_tiled_solution_is_bit_identical(self):
        L, prepared = _prepare(nseg=8)
        tiled = tile_plan(prepared.plan)
        b = np.random.default_rng(0).standard_normal(L.n_rows)
        x0, _ = prepared.plan.solve(b, TITAN_RTX_SCALED)
        x1, _ = tiled.solve(b, TITAN_RTX_SCALED)
        assert np.array_equal(x0, x1)

    def test_single_part_plan_is_returned_unchanged(self):
        _, prepared = _prepare(method="serial", n=64)
        assert tile_plan(prepared.plan) is prepared.plan


class TestScheduler:
    def _dag_costs(self, nseg=8):
        _, prepared = _prepare(nseg=nseg)
        plan = tile_plan(prepared.plan)
        dag = build_segment_dag(plan)
        rng = np.random.default_rng(42)
        costs = (rng.random(dag.n_segments) * 1e-5 + 1e-6).tolist()
        return dag, costs

    def test_single_device_makespan_is_total_cost(self):
        dag, costs = self._dag_costs()
        link = Interconnect()
        sched = schedule_dag(dag, costs, 1, link)
        assert sched.makespan_s == pytest.approx(sum(costs), rel=1e-12)
        assert sched.speedup() == pytest.approx(1.0)
        assert not sched.transfers
        sched.validate(dag, link)

    def test_multi_device_schedule_validates(self):
        dag, costs = self._dag_costs()
        link = Interconnect()
        for d in (2, 3, 4):
            sched = schedule_dag(dag, costs, d, link)
            sched.validate(dag, link)
            assert sched.makespan_s <= sum(costs) + 1e-15
            assert sched.makespan_s >= dag.critical_path_s(costs) - 1e-15

    def test_deterministic(self):
        dag, costs = self._dag_costs()
        link = Interconnect()
        a = schedule_dag(dag, costs, 3, link)
        b = schedule_dag(dag, costs, 3, link)
        assert a.as_dict() == b.as_dict()

    def test_rejects_bad_inputs(self):
        dag, costs = self._dag_costs()
        with pytest.raises(ValueError):
            schedule_dag(dag, costs, 0, Interconnect())
        with pytest.raises(ValueError):
            schedule_dag(dag, costs[:-1], 2, Interconnect())
        with pytest.raises(ValueError):
            schedule_dag(dag, costs, 2, Interconnect(), scheduler="nope")
        with pytest.raises(ValueError):
            schedule_dag(dag, costs, 2, Interconnect(), sync="nope")


def _wide_dag_costs(nseg=8, seed=7):
    """A tiled DAG with real parallel width plus its probe-free costs."""
    L = random_lower(300, density=0.05, seed=seed)
    prepared = SOLVERS["column-block"](
        device=TITAN_RTX_SCALED, nseg=nseg
    ).prepare(L)
    plan = tile_plan(prepared.plan)
    dag = build_segment_dag(plan)
    rng = np.random.default_rng(42)
    costs = (rng.random(dag.n_segments) * 1e-5 + 1e-6).tolist()
    return dag, costs


class TestSchedulerRegistry:
    def test_builtins_registered(self):
        assert available_schedulers() == ["eft", "lookahead-eft", "superstep"]
        for name in available_schedulers():
            assert get_scheduler(name).name == name

    def test_get_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("does-not-exist")

    def test_register_and_unregister_external(self):
        class Favorite(Scheduler):
            name = "favorite-device"

            def place(self, dag, costs_s, n_devices, interconnect):
                return [0] * dag.n_segments

        register_scheduler("favorite-device", Favorite())
        try:
            assert "favorite-device" in available_schedulers()
            dag, costs = _wide_dag_costs()
            sched = schedule_dag(
                dag, costs, 3, Interconnect(), scheduler="favorite-device"
            )
            sched.validate(dag, Interconnect())
            assert sched.scheduler == "favorite-device"
            assert set(sched.assignment) == {0}
        finally:
            unregister_scheduler("favorite-device")
        assert "favorite-device" not in SCHEDULERS

    def test_duplicate_requires_replace(self):
        class Stub(Scheduler):
            name = "stub"

            def place(self, dag, costs_s, n_devices, interconnect):
                return [0] * dag.n_segments

        register_scheduler("stub", Stub())
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler("stub", Stub())
            register_scheduler("stub", Stub(), replace=True)
        finally:
            unregister_scheduler("stub")

    def test_builtin_protected(self):
        with pytest.raises(ValueError, match="built in"):
            register_scheduler("eft", GreedyEFTScheduler())
        with pytest.raises(ValueError, match="built in"):
            unregister_scheduler("superstep")

    def test_rejects_bad_names_and_interfaces(self):
        with pytest.raises(ValueError):
            register_scheduler("", GreedyEFTScheduler())
        with pytest.raises(TypeError, match="Scheduler interface"):
            register_scheduler("bad", object())
        with pytest.raises(KeyError):
            unregister_scheduler("never-registered")


class TestSchedulingPolicies:
    def test_every_policy_validates_under_every_sync(self):
        dag, costs = _wide_dag_costs()
        link = Interconnect.hierarchical(TITAN_RTX_SCALED, node_size=2)
        for s in available_schedulers():
            for y in SYNC_MODES:
                sched = schedule_dag(
                    dag, costs, 4, link, scheduler=s, sync=y
                )
                sched.validate(dag, link)
                assert sched.scheduler == s and sched.sync == y
                assert dag.check_topological(sched.order)

    def test_p2p_default_matches_legacy_eft(self):
        # schedule_dag with no scheduler/sync arguments is the
        # pre-registry greedy EFT list scheduler, bit for bit.
        dag, costs = _wide_dag_costs()
        link = Interconnect()
        default = schedule_dag(dag, costs, 3, link)
        explicit = schedule_dag(
            dag, costs, 3, link, scheduler="eft", sync="p2p"
        )
        assert default.as_dict() == explicit.as_dict()
        assert default.scheduler == "eft" and default.sync == "p2p"

    def test_barrier_timeline_is_level_aligned(self):
        dag, costs = _wide_dag_costs()
        link = Interconnect()
        sched = schedule_dag(dag, costs, 3, link, sync="barrier")
        sched.validate(dag, link)
        # every segment starts at or after its level's superstep gate,
        # and no earlier level finishes after a later one starts on the
        # same device queue reset
        start = sched.start_s
        gates = []
        for level in dag.levels():
            gates.append(min(start[j] for j in level))
        assert gates == sorted(gates)
        # barrier rounds can only slow the clock relative to p2p
        p2p = schedule_dag(dag, costs, 3, link, sync="p2p")
        assert sched.makespan_s >= p2p.makespan_s - 1e-15

    def test_barrier_pays_sync_latency_between_levels(self):
        dag, costs = _wide_dag_costs()
        link = Interconnect()
        sched = schedule_dag(dag, costs, 1, link, sync="barrier")
        n_levels = len(dag.levels())
        expected = sum(costs) + (n_levels - 1) * link.sync_latency(1)
        assert sched.makespan_s == pytest.approx(expected, rel=1e-12)

    def test_superstep_balances_within_levels(self):
        dag, costs = _wide_dag_costs()
        sched = schedule_dag(
            dag, costs, 4, Interconnect(), scheduler="superstep"
        )
        # within each level the LPT rule keeps max/min device load tight:
        # no single reassignment can improve the balance
        for level in dag.levels():
            load = [0.0] * 4
            for j in level:
                load[sched.assignment[j]] += costs[j]
            busiest = max(range(4), key=lambda d: load[d])
            smallest = min(
                (costs[j] for j in level
                 if sched.assignment[j] == busiest),
                default=0.0,
            )
            assert load[busiest] - smallest <= min(load) + 1e-15

    def test_lookahead_never_worse_on_chain(self):
        # On a pure chain both EFT variants must serialize on one device.
        L = random_lower(150, density=0.04, seed=3)
        prepared = SOLVERS["column-block"](
            device=TITAN_RTX_SCALED, nseg=6
        ).prepare(L)
        dag = build_segment_dag(prepared.plan)  # untiled: serial chain
        costs = [1e-6] * dag.n_segments
        for s in ("eft", "lookahead-eft"):
            sched = schedule_dag(
                dag, costs, 4, Interconnect(), scheduler=s
            )
            assert len(set(sched.assignment)) == 1, s
            assert sched.makespan_s == pytest.approx(sum(costs))

    def test_schedulers_are_deterministic(self):
        dag, costs = _wide_dag_costs()
        link = Interconnect.hierarchical(TITAN_RTX_SCALED, node_size=2)
        for s in available_schedulers():
            for y in SYNC_MODES:
                a = schedule_dag(dag, costs, 4, link, scheduler=s, sync=y)
                b = schedule_dag(dag, costs, 4, link, scheduler=s, sync=y)
                assert a.as_dict() == b.as_dict(), (s, y)


class TestValidateStructuredErrors:
    def _valid_schedule(self):
        dag, costs = _wide_dag_costs()
        link = Interconnect()
        return dag, link, schedule_dag(dag, costs, 3, link)

    def test_assignment_device_out_of_range(self):
        dag, link, sched = self._valid_schedule()
        bad = dataclasses.replace(sched)
        bad.assignment = list(sched.assignment)
        bad.assignment[0] = 3  # devices are range(3)
        with pytest.raises(ValidationError) as exc_info:
            bad.validate(dag, link)
        err = exc_info.value
        assert err.kind == "schedule-devices"
        assert err.detail["n_devices"] == 3
        assert err.detail["bad_devices"] == [3]

    def test_negative_assignment_rejected(self):
        dag, link, sched = self._valid_schedule()
        bad = dataclasses.replace(sched)
        bad.assignment = list(sched.assignment)
        bad.assignment[-1] = -1
        with pytest.raises(ValidationError) as exc_info:
            bad.validate(dag, link)
        assert exc_info.value.detail["bad_devices"] == [-1]

    def test_transfer_endpoint_out_of_range(self):
        # A hand-built schedule whose transfer references a phantom
        # device must fail with the structured error, not an assert
        # (or worse, pass and explode inside the executor).
        dag, link, sched = self._valid_schedule()
        assert sched.transfers, "fixture needs at least one transfer"
        bad = dataclasses.replace(sched)
        bad.transfers = list(sched.transfers)
        t = bad.transfers[0]
        bad.transfers[0] = dataclasses.replace(t, dst=17)
        with pytest.raises(ValidationError) as exc_info:
            bad.validate(dag, link)
        err = exc_info.value
        assert err.kind == "schedule-devices"
        entry = err.detail["bad_transfers"][0]
        assert entry["dst"] == 17
        assert entry["producer"] == t.producer
        assert entry["consumer"] == t.consumer

    def test_valid_schedule_passes(self):
        dag, link, sched = self._valid_schedule()
        sched.validate(dag, link)  # no exception


class TestDistributedPlan:
    def test_bit_identical_to_single_device(self):
        L, prepared = _prepare(nseg=8)
        b = np.random.default_rng(1).standard_normal(L.n_rows)
        x1, _ = prepared.solve(b)
        for d in (1, 2, 4):
            dp = DistributedPlan.from_prepared(prepared, d)
            x, report = dp.solve(b)
            assert np.array_equal(x, x1), f"n_devices={d}"
            assert report.detail["n_devices"] == d

    def test_multi_rhs_bit_identical(self):
        L, prepared = _prepare(nseg=8)
        B = np.random.default_rng(2).standard_normal((L.n_rows, 5))
        X1, _ = prepared.solve_multi(B)
        dp = DistributedPlan.from_prepared(prepared, 3)
        X, report = dp.solve_multi(B)
        assert np.array_equal(X, X1)
        assert report.detail["n_rhs"] == 5

    def test_report_detail_fields(self):
        _, prepared = _prepare(nseg=8)
        dp = DistributedPlan.from_prepared(prepared, 4)
        _, report = dp.solve(np.ones(prepared.plan.n))
        d = report.detail
        for key in ("n_devices", "makespan_s", "single_device_s", "speedup",
                    "critical_path_s", "occupancy", "device_busy_s",
                    "transfers", "transfer_x_items", "transfer_b_items",
                    "transfer_time_s"):
            assert key in d, key
        assert report.time_s == pytest.approx(d["makespan_s"])
        assert len(d["occupancy"]) == 4
        assert d["speedup"] == pytest.approx(
            d["single_device_s"] / d["makespan_s"]
        )

    def test_reports_are_merged_once_and_owned_by_each_solve(
        self, monkeypatch
    ):
        """A pure plan merges its report once per RHS width; every solve
        gets an equal copy that owns its kernels, its detail and the
        lists inside it."""
        import repro.dist.executor as dist_executor

        _, prepared = _prepare(nseg=8)
        dp = DistributedPlan.from_prepared(prepared, 4)
        merges = []
        real = dist_executor.merge_reports

        def counted(*args, **kwargs):
            merges.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(dist_executor, "merge_reports", counted)
        n = prepared.plan.n
        for solve, rhs in ((dp.solve, np.ones(n)),
                           (dp.solve_multi, np.ones((n, 3)))):
            _, first = solve(rhs)
            _, second = solve(rhs)
            assert first == second
            assert first.kernels is not second.kernels
            assert first.detail is not second.detail
            for key, val in first.detail.items():
                if isinstance(val, list):
                    assert val is not second.detail[key], key
            first.detail["device_busy_s"][0] = -1.0
            first.detail["occupancy"].append(2.0)
            first.kernels.clear()
            _, third = solve(rhs)
            assert third == second
        assert len(merges) == 2  # one per RHS width

    def test_schedule_invariants_hold(self):
        _, prepared = _prepare(nseg=8)
        dp = DistributedPlan.from_prepared(prepared, 4)
        dp.schedule.validate(dp.dag, dp.interconnect)

    def test_rejects_bad_device_count_and_shape(self):
        _, prepared = _prepare(nseg=4)
        with pytest.raises(ValueError):
            DistributedPlan.from_prepared(prepared, 0)
        dp = DistributedPlan.from_prepared(prepared, 2)
        from repro.errors import ShapeMismatchError
        with pytest.raises(ShapeMismatchError):
            dp.solve(np.ones(prepared.plan.n + 1))
        with pytest.raises(ShapeMismatchError):
            dp.solve_multi(np.ones(prepared.plan.n))

    def test_observed_path_matches_and_exports_metrics(self):
        L, prepared = _prepare(nseg=8)
        b = np.random.default_rng(3).standard_normal(L.n_rows)
        # Observed or not, every executor runs the same compiled steps,
        # so the traced single-device solve is the bit-identity reference.
        with Observability().activate():
            x1, _ = prepared.solve(b)
        dp = DistributedPlan.from_prepared(prepared, 3)
        obs = Observability()
        with obs.activate():
            x, report = dp.solve(b)
        assert np.array_equal(x, x1)
        m = obs.serve_metrics
        method = prepared.plan.method
        # One segment.* leaf per tiled segment, tagged with the device
        # the schedule placed it on, and one profile row per segment.
        leaves = [s for s in obs.tracer.spans()
                  if s.name.startswith("segment.")]
        assert sorted(s.attrs["index"] for s in leaves) == \
            list(range(len(dp.plan.segments)))
        for s in leaves:
            assert s.attrs["device"] == dp.schedule.assignment[s.attrs["index"]]
        assert [row["index"] for row in report.profile] == dp.schedule.order
        # Per-(kernel, device) launch counters follow the placement and
        # sum to the report's launches.
        expected: dict = {}
        for idx, seg in enumerate(dp.plan.segments):
            key = (seg.kernel.name, str(dp.schedule.assignment[idx]))
            expected[key] = expected.get(key, 0) + dp._reports[idx].launches
        got = {(labels["kernel"], labels["device"]): n
               for labels, n in m.kernel_launches.samples()}
        assert got == expected
        assert sum(got.values()) == report.launches
        assert m.dist_solves.value(
            method=method, n_devices="3", scheduler="eft"
        ) == 1
        assert m.dist_sync_solves.value(sync="p2p", scheduler="eft") == 1
        assert m.traffic_mismatch.total() == 0
        # Per-device live counters sum to the plan-level accounting.
        from repro.analysis.traffic import measured_traffic
        tiled_b, tiled_x = measured_traffic(dp.plan)
        got_b = sum(
            m.b_writes.value(method=method, device=str(dev))
            for dev in range(3)
        )
        got_x = sum(
            m.x_loads.value(method=method, device=str(dev))
            for dev in range(3)
        )
        assert (got_b, got_x) == (tiled_b, tiled_x)
        assert m.dist_transfer_items.value(method=method, kind="x") == \
            dp.schedule.x_transfer_items


class TestServiceIntegration:
    def test_n_devices_routes_through_dist(self):
        L = random_lower(200, density=0.06, seed=11)
        b = np.random.default_rng(4).standard_normal(L.n_rows)
        with SolveService(method="column-block",
                          solver_options={"nseg": 8},
                          n_devices=3) as svc:
            res = svc.solve(L, b)
            entry = next(iter(svc.cache._entries.values()))
        assert entry.template_dist is not None
        assert res.report.detail["n_devices"] == 3
        # Bit-identical to the single-device path of the same pattern
        # plan, built directly on the values.
        x1, _ = SOLVERS["column-block"](
            device=svc.config.device, nseg=8
        ).prepare(L).solve(b)
        assert np.array_equal(res.x, x1)
        # The pattern's own plans hold tracer positions: they solve
        # only through an overlay.
        with pytest.raises(ValueError, match="overlay"):
            entry.template.solve(b)
        with pytest.raises(ValueError, match="overlay"):
            entry.template_dist.solve(b)

    def test_single_device_service_attaches_no_dist(self):
        L = random_lower(120, density=0.08, seed=12)
        with SolveService(method="column-block",
                          solver_options={"nseg": 4}) as svc:
            svc.solve(L, np.ones(L.n_rows))
            entry = next(iter(svc.cache._entries.values()))
            assert entry.template_dist is None

    def test_rejects_nonpositive_device_count(self):
        with pytest.raises(ValueError):
            SolveService(ServiceConfig(n_devices=0))

    def test_obs_service_records_dist_metrics(self):
        L = random_lower(200, density=0.06, seed=13)
        obs = Observability()
        with SolveService(method="column-block",
                          solver_options={"nseg": 8},
                          n_devices=2, obs=obs) as svc:
            svc.solve(L, np.ones(L.n_rows))
        m = obs.serve_metrics
        assert m.dist_solves.value(
            method="column-block", n_devices="2", scheduler="eft"
        ) == 1
        assert m.requests_total.value(status="ok", tenant="default") == 1

    def test_service_scheduler_and_sync_route_through(self):
        L = random_lower(200, density=0.06, seed=14)
        b = np.random.default_rng(5).standard_normal(L.n_rows)
        obs = Observability()
        with SolveService(method="column-block",
                          solver_options={"nseg": 8},
                          n_devices=3, scheduler="superstep",
                          sync_mode="barrier", obs=obs) as svc:
            res = svc.solve(L, b)
            entry = next(iter(svc.cache._entries.values()))
        assert entry.template_dist.schedule.scheduler == "superstep"
        assert entry.template_dist.schedule.sync == "barrier"
        assert res.report.detail["scheduler"] == "superstep"
        assert res.report.detail["sync"] == "barrier"
        # still bit-identical to the single-device path
        x1, _ = SOLVERS["column-block"](
            device=svc.config.device, nseg=8
        ).prepare(L).solve(b)
        assert np.array_equal(res.x, x1)
        m = obs.serve_metrics
        assert m.dist_solves.value(
            method="column-block", n_devices="3", scheduler="superstep"
        ) == 1
        assert m.dist_sync_solves.value(
            sync="barrier", scheduler="superstep"
        ) == 1

    def test_service_rejects_unknown_scheduler_and_sync(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            SolveService(ServiceConfig(n_devices=2, scheduler="nope"))
        with pytest.raises(ValueError, match="unknown sync_mode"):
            SolveService(ServiceConfig(n_devices=2, sync_mode="nope"))


class TestCLI:
    def test_dist_check_smoke(self, capsys):
        assert main(["dist", "kkt_mid_a", "--scale", "0.05",
                     "--devices", "2", "--nseg", "16", "--check"]) == 0
        out = capsys.readouterr().out
        assert "schedule invariants OK" in out
        assert "bit-identical to single-device: True" in out
        assert "fused 3-RHS bit-identical: True" in out

    def test_dist_scaling_experiment_registered(self, capsys):
        assert main(["experiment", "dist_scaling", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Strong scaling" in out
