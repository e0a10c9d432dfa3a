"""`DistributedPlan`: execute one plan's schedule across N devices.

Numerics and timing are deliberately decoupled:

* **Numerics** run the compiled steps of the single-device executor in
  the schedule's topological segment order (:class:`CompiledPlan`'s one
  step loop).  Each floating-point operation sees the same operands in
  the same per-interval order as the single-device solve, so the
  solution is *bit-identical* for every device count.
* **Timing** comes from the schedule's simulated per-device queues and
  communication events; per-RHS-width timelines are scheduled once and
  cached, priced from the compiled plan's frozen per-segment reports.

With an active :class:`repro.obs.Observability` the same loop emits the
single-device telemetry tagged with each segment's scheduled device:
per-segment spans and profile rows, device-tagged kernel launch and live
traffic counters, and the schedule's occupancy / critical path /
transfer volume as gauges.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.dag import build_segment_dag
from repro.core.executor import CompiledPlan, compile_plan
from repro.core.plan import ExecutionPlan, TriSegment
from repro.dist.partition import tile_plan
from repro.dist.schedule import (
    SYNC_MODES,
    DistSchedule,
    Interconnect,
    get_scheduler,
    schedule_dag,
)
from repro.gpu.device import DeviceModel
from repro.gpu.report import SolveReport, merge_reports

__all__ = ["DistributedPlan"]


class DistributedPlan:
    """A sharded executor over an :class:`ExecutionPlan`.

    >>> dp = DistributedPlan.from_prepared(prepared, n_devices=4)  # doctest: +SKIP
    >>> x, report = dp.solve(b)                                    # doctest: +SKIP

    ``report.time_s`` is the schedule makespan; ``report.detail``
    carries the occupancy/transfer/critical-path accounting.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceModel,
        n_devices: int,
        *,
        interconnect: Interconnect | None = None,
        compiled: CompiledPlan | None = None,
        template: "DistributedPlan | None" = None,
        schedule: DistSchedule | None = None,
        scheduler: str = "eft",
        sync: str = "p2p",
    ) -> None:
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {n_devices}")
        if sync not in SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {sync!r}; choose from {SYNC_MODES}"
            )
        get_scheduler(scheduler)  # fail fast on unknown policy names
        self.source_plan = plan
        self.device = device
        self.n_devices = int(n_devices)
        self.scheduler = scheduler
        self.sync = sync
        self.interconnect = interconnect or Interconnect.for_device(device)
        #: the executed plan: the source with every multi-part SpMV split
        #: at triangular boundaries (bitwise-equal refinement) so the
        #: DAG has width to shard
        self.plan = tile_plan(plan)
        if template is not None and not (
            template.n_devices == self.n_devices
            and template.plan.method == self.plan.method
            and len(template.plan.segments) == len(self.plan.segments)
        ):
            template = None
        self.compiled = self._compile_tiled(
            plan, compiled or compile_plan(plan, device), template
        )
        #: RHS width -> schedule
        self._multi: dict[int, DistSchedule] = {}
        self._multi_lock = threading.Lock()
        if template is not None:
            # the DAG and the compiled plan's frozen reports read only
            # segment structure and simulated per-segment costs — both
            # pinned by the pattern key, so values-only overlays share
            # them.  Schedules are policy products: shared only when the
            # template was scheduled under the same scheduler and sync
            # mode, else recomputed from the shared frozen costs.
            self.dag = template.dag
            if (
                getattr(template, "scheduler", "eft") == scheduler
                and getattr(template, "sync", "p2p") == sync
            ):
                self.schedule = template.schedule
                self._multi = template._multi
                self._multi_lock = template._multi_lock
            else:
                self.schedule = self._schedule(self._reports)
        else:
            self.dag = build_segment_dag(self.plan)
            # A persisted schedule (repro.serve.store) is injected only
            # when it provably describes this very DAG shape; anything
            # else silently falls back to recomputing — a wrong schedule
            # would break the dependency order, not just the timings.
            if schedule is not None and (
                schedule.n_devices == self.n_devices
                and schedule.method == self.plan.method
                and sorted(schedule.order) == list(self.compiled._order)
                and getattr(schedule, "scheduler", "eft") == scheduler
                and getattr(schedule, "sync", "p2p") == sync
            ):
                self.schedule = schedule
            else:
                self.schedule = self._schedule(self._reports)

    @classmethod
    def from_prepared(
        cls,
        prepared,
        n_devices: int,
        *,
        interconnect: Interconnect | None = None,
        template: "DistributedPlan | None" = None,
        schedule: DistSchedule | None = None,
        scheduler: str = "eft",
        sync: str = "p2p",
    ) -> "DistributedPlan":
        """Build from a :class:`repro.PreparedSolve`, reusing (or
        building) its compiled executor for the numerics.

        With ``template`` (a DistributedPlan over the same segment
        structure — the serve layer's pattern-level instance) the DAG,
        frozen reports, and schedules are shared instead of recomputed,
        so a values-only overlay pays gather cost rather than a full
        schedule rebuild.  ``schedule`` injects a persisted
        :class:`DistSchedule` (the plan store's warm-start path); it is
        used only if it matches this plan's method, device count,
        tiled segment count, scheduler, and sync mode, else recomputed.
        ``scheduler`` names a registered placement policy and ``sync``
        the dependency-resolution mode (see :mod:`repro.dist.schedule`).
        """
        return cls(
            prepared.plan,
            prepared.device,
            n_devices,
            interconnect=interconnect,
            compiled=prepared.compile(),
            template=template,
            schedule=schedule,
            scheduler=scheduler,
            sync=sync,
        )

    def _compile_tiled(
        self,
        source: ExecutionPlan,
        base: CompiledPlan,
        template: "DistributedPlan | None" = None,
    ) -> CompiledPlan:
        """Compile the tiled plan, *sharing* the source's compiled
        triangular steps.

        Whether a compiled triangular step uses a SuperLU engine is a
        structural decision, so an independent compilation would choose
        the same engines; sharing the base plan's step objects (the
        tiled plan shares its TriSegment instances) saves building and
        accuracy-probing each engine twice, and makes the sharded
        numerics run literally the same triangular code paths as the
        single-device compiled plan.  The SpMV row slices are bitwise
        equal by row-locality.
        """
        if self.plan is source:  # nothing was split
            return base
        if template is not None:
            tiled = CompiledPlan(
                self.plan, self.device, share_from=template.compiled
            )
        else:
            tiled = compile_plan(self.plan, self.device)
        tri_steps = {
            id(seg): step
            for seg, step in zip(source.segments, base._steps)
            if isinstance(seg, TriSegment)
        }
        for i, seg in enumerate(self.plan.segments):
            step = tri_steps.get(id(seg))
            if step is not None:
                tiled._steps[i] = step
        return tiled

    # -- simulated per-segment costs ----------------------------------- #
    @property
    def _reports(self) -> list:
        """The single-vector per-segment reports the scheduler prices:
        the compiled plan's frozen capture."""
        return self.compiled._captures[0][0]

    def _schedule(self, reports: list) -> DistSchedule:
        return schedule_dag(
            self.dag,
            [r.time_s for r in reports],
            self.n_devices,
            self.interconnect,
            method=self.plan.method,
            scheduler=self.scheduler,
            sync=self.sync,
        )

    def _schedule_for(self, k: int) -> DistSchedule:
        """The (cached) schedule for RHS width ``k`` (0 = one vector),
        priced from the compiled plan's frozen reports at that width."""
        if k == 0:
            return self.schedule
        sched = self._multi.get(k)
        if sched is None:
            sched = self._schedule(self.compiled._captured(k)[0])
            with self._multi_lock:
                sched = self._multi.setdefault(k, sched)
        return sched

    # -- reporting ------------------------------------------------------ #
    def _report(
        self, sched: DistSchedule, reports: list, profile, **detail
    ) -> SolveReport:
        merged = merge_reports(
            self.plan.method,
            reports,
            n_tri=self.plan.n_tri_segments,
            n_spmv=self.plan.n_spmv_segments,
        )
        occ = sched.occupancy()
        report = SolveReport(
            method=self.plan.method,
            time_s=sched.makespan_s,
            flops=merged.flops,
            launches=merged.launches,
            bytes_moved=merged.bytes_moved
            + sched.transfer_items * self.interconnect.item_bytes,
            kernels=list(merged.kernels),
            detail={
                "n_devices": sched.n_devices,
                "scheduler": sched.scheduler,
                "sync": sched.sync,
                "makespan_s": sched.makespan_s,
                "single_device_s": sched.total_cost_s,
                "speedup": sched.speedup(),
                "critical_path_s": sched.critical_path_s,
                "occupancy": occ,
                "device_busy_s": list(sched.device_busy_s),
                "transfers": len(sched.transfers),
                "transfer_x_items": sched.x_transfer_items,
                "transfer_b_items": sched.b_transfer_items,
                "transfer_time_s": sched.transfer_time_s,
                **detail,
            },
        )
        if profile is not None:
            report.profile = profile
        return report

    # -- execution ------------------------------------------------------ #
    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """One sharded SpTRSV; drop-in for ``plan.solve(b, device)``
        with the schedule makespan as the simulated time."""
        b = self.compiled._check_b(b)
        sched = self._schedule_for(0)
        x, reports, profile = self.compiled._execute(b, 0, sched.order, sched)
        return x, self._report(sched, reports, profile)

    def solve_multi(self, B: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS sharded solve."""
        B = self.compiled._check_B(B)
        k = B.shape[1]
        sched = self._schedule_for(k)
        X, reports, profile = self.compiled._execute(B, k, sched.order, sched)
        return X, self._report(sched, reports, profile, n_rhs=k, fused=True)
