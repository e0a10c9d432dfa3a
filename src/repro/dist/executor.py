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
from repro.core.executor import CompiledPlan, Overlay, compile_plan
from repro.core.plan import ExecutionPlan, TriSegment
from repro.dist.partition import tile_plan
from repro.dist.schedule import (
    SYNC_MODES,
    DistSchedule,
    Interconnect,
    get_scheduler,
    price_placement,
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
    carries the occupancy/transfer/critical-path accounting.  Like
    :class:`CompiledPlan`, ``solve``/``solve_multi`` take an optional
    :class:`~repro.core.executor.Overlay` bound onto :attr:`compiled`,
    so one sharded executor serves every values vector of a pattern.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceModel,
        n_devices: int,
        *,
        interconnect: Interconnect | None = None,
        compiled: CompiledPlan | None = None,
        placement: dict | None = None,
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
        self.compiled = self._compile_tiled(
            plan, compiled or compile_plan(plan, device)
        )
        #: RHS width -> schedule
        self._multi: dict[int, DistSchedule] = {}
        self._multi_lock = threading.Lock()
        #: RHS width -> the report every solve at that width copies
        #: (pure plans only: a live step's report changes per solve)
        self._solved: dict[int, SolveReport] = {}
        self.dag = build_segment_dag(self.plan)
        # A persisted placement (repro.serve.store) is priced only when it
        # was chosen for this device count, policy and sync mode; anything
        # else is recomputed.  Its order must be topological on this very
        # DAG (price_placement raises otherwise): a wrong order would
        # break the dependency order, not just the timings.
        if placement is not None and (
            placement.get("n_devices") == self.n_devices
            and placement.get("scheduler") == scheduler
            and placement.get("sync") == sync
        ):
            self.schedule = price_placement(
                self.dag, [r.time_s for r in self._reports],
                placement["assignment"], self.n_devices, self.interconnect,
                method=self.plan.method, scheduler=scheduler, sync=sync,
                order=placement["order"],
            )
        else:
            self.schedule = self._schedule(self._reports)

    @classmethod
    def from_prepared(
        cls,
        prepared,
        n_devices: int,
        *,
        interconnect: Interconnect | None = None,
        placement: dict | None = None,
        scheduler: str = "eft",
        sync: str = "p2p",
    ) -> "DistributedPlan":
        """Build from a :class:`repro.PreparedSolve`, reusing (or
        building) its compiled executor for the numerics.

        ``placement`` injects a persisted schedule's decisions (the plan
        store's warm-start path): ``{"n_devices", "scheduler", "sync",
        "assignment", "order"}`` as :meth:`placement` gives them.  It is
        priced, not trusted: used only if its device count, scheduler and
        sync mode match, and refused (raising) unless its order is a
        topological order of the tiled plan's DAG.  ``scheduler`` names a
        registered placement policy and ``sync`` the dependency-resolution
        mode (see :mod:`repro.dist.schedule`).
        """
        return cls(
            prepared.plan,
            prepared.device,
            n_devices,
            interconnect=interconnect,
            compiled=prepared.compile(),
            placement=placement,
            scheduler=scheduler,
            sync=sync,
        )

    def placement(self) -> dict:
        """The one-vector schedule's decisions, as a plan store keeps
        them (JSON-able; see ``placement`` of :meth:`from_prepared`)."""
        sched = self.schedule
        return {
            "n_devices": sched.n_devices,
            "scheduler": sched.scheduler,
            "sync": sched.sync,
            "assignment": list(sched.assignment),
            "order": list(sched.order),
        }

    def _compile_tiled(
        self, source: ExecutionPlan, base: CompiledPlan
    ) -> CompiledPlan:
        """Compile the tiled plan, *sharing* the source's compiled
        triangular steps.

        Whether a compiled triangular step uses a SuperLU engine is a
        structural decision, so an independent compilation would choose
        the same engines; sharing the base plan's step objects (the
        tiled plan shares its TriSegment instances) shares their CSC
        layouts, and makes the sharded numerics run literally the same
        triangular code paths as the single-device compiled plan.  The
        SpMV row slices are bitwise equal by row-locality.  When nothing
        was split the base plan itself executes, so its overlays solve
        here too.
        """
        if self.plan is source:  # nothing was split
            return base
        # Reports are pure functions of segment structure: a shared
        # segment keeps its frozen report, a split SpMV piece gets its
        # kernel's, so the tiled plan probes nothing.
        shared = dict(zip(map(id, source.segments), base._captured(0)[0]))
        frozen = [
            shared.get(id(seg)) or seg.kernel.report(seg.matrix, self.device)
            for seg in self.plan.segments
        ]
        return compile_plan(self.plan, self.device, frozen=frozen, share=base)

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
        self, k: int, sched: DistSchedule, reports: list, profile, **detail
    ) -> SolveReport:
        """One solve's report at RHS width ``k``: over the frozen reports,
        a copy of one merged per width, owning its kernels and detail."""
        frozen = reports is self.compiled._captures[k][0]
        solved = self._solved.get(k) if frozen else None
        if solved is None:
            merged = merge_reports(
                self.plan.method,
                reports,
                n_tri=self.plan.n_tri_segments,
                n_spmv=self.plan.n_spmv_segments,
            )
            solved = SolveReport(
                method=self.plan.method,
                time_s=sched.makespan_s,
                flops=merged.flops,
                launches=merged.launches,
                bytes_moved=merged.bytes_moved
                + sched.transfer_items * self.interconnect.item_bytes,
                kernels=merged.kernels,
                detail={
                    "n_devices": sched.n_devices,
                    "scheduler": sched.scheduler,
                    "sync": sched.sync,
                    "makespan_s": sched.makespan_s,
                    "single_device_s": sched.total_cost_s,
                    "speedup": sched.speedup(),
                    "critical_path_s": sched.critical_path_s,
                    "occupancy": sched.occupancy(),
                    "device_busy_s": list(sched.device_busy_s),
                    "transfers": len(sched.transfers),
                    "transfer_x_items": sched.x_transfer_items,
                    "transfer_b_items": sched.b_transfer_items,
                    "transfer_time_s": sched.transfer_time_s,
                    **detail,
                },
            )
            if frozen:
                self._solved.setdefault(k, solved)
        report = SolveReport(
            method=solved.method,
            time_s=solved.time_s,
            flops=solved.flops,
            launches=solved.launches,
            bytes_moved=solved.bytes_moved,
            kernels=list(solved.kernels),
            detail={
                key: list(val) if isinstance(val, list) else val
                for key, val in solved.detail.items()
            },
        )
        if profile is not None:
            report.profile = profile
        return report

    # -- execution ------------------------------------------------------ #
    def solve(self, b: np.ndarray, overlay: Overlay | None = None
              ) -> tuple[np.ndarray, SolveReport]:
        """One sharded SpTRSV; drop-in for ``plan.solve(b, device)``
        with the schedule makespan as the simulated time.  ``overlay``
        (bound onto :attr:`compiled`) solves another values vector of
        the plan's pattern."""
        b = self.compiled._check_b(b)
        sched = self._schedule_for(0)
        x, reports, profile = self.compiled._execute(
            b, 0, sched.order, sched, overlay
        )
        return x, self._report(0, sched, reports, profile)

    def solve_multi(self, B: np.ndarray, overlay: Overlay | None = None
                    ) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS sharded solve."""
        B = self.compiled._check_B(B)
        k = B.shape[1]
        sched = self._schedule_for(k)
        X, reports, profile = self.compiled._execute(
            B, k, sched.order, sched, overlay
        )
        return X, self._report(
            k, sched, reports, profile, n_rhs=k, fused=True
        )
