"""Pluggable cost-model scheduling of plan segments onto N devices.

Scheduling is split into three orthogonal pieces:

* a **placement policy** — a :class:`Scheduler` from the registry
  (``eft``, ``lookahead-eft``, ``superstep``; extensible via
  :func:`register_scheduler`) maps each DAG node to a device;
* a **sync mode** — how cross-device dependencies are resolved in the
  simulated timeline: ``"p2p"`` per-edge ready notifications (each
  consumer starts as soon as its own inputs arrived, every cross-device
  edge priced individually) or ``"barrier"`` bulk-synchronous rounds
  (devices run one DAG level per superstep and globally synchronize
  between supersteps, every barrier paying the slowest link's latency);
* an **interconnect model** — :class:`Interconnect`, optionally a
  two-tier hierarchy (fast intra-node links, slow inter-node links,
  ``node_size`` devices per node) in the spirit of multi-GPU SpTRSV
  systems whose scaling is set by the interconnect hierarchy.

Per-segment costs are the simulated :class:`KernelReport` times of the
cost model (never wall clock), so schedules and the numbers derived
from them are machine-independent.  Every scheduler is deterministic:
ties break to the lowest device/segment index, so a schedule is a pure
function of (plan, costs, n_devices, interconnect, scheduler, sync).
Links are point-to-point and non-contending: concurrent transfers
between different device pairs do not slow each other down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dag import SegmentDAG
from repro.errors import ValidationError
from repro.gpu.device import DeviceModel

__all__ = [
    "Interconnect",
    "Transfer",
    "DistSchedule",
    "Scheduler",
    "GreedyEFTScheduler",
    "LookaheadEFTScheduler",
    "SuperstepScheduler",
    "SCHEDULERS",
    "SYNC_MODES",
    "available_schedulers",
    "get_scheduler",
    "register_scheduler",
    "unregister_scheduler",
    "schedule_dag",
    "price_placement",
]

#: the executor's dependency-resolution styles (see module docstring)
SYNC_MODES = ("p2p", "barrier")


@dataclass(frozen=True)
class Interconnect:
    """Latency/bandwidth model of the inter-device links.

    Defaults come from :meth:`for_device`: an NVLink-class link running
    at ``ratio`` of the device's DRAM bandwidth — expressing the link
    relative to the device keeps the compute/communication balance
    invariant under the dataset-scale device scaling — plus a fixed
    physical hop latency.

    With ``node_size > 0`` the interconnect is a **two-tier
    hierarchy**: devices ``[k * node_size, (k + 1) * node_size)`` share
    a node and talk over the fast intra-node link above, while devices
    in different nodes pay the (slower) ``inter_bandwidth_gbps`` /
    ``inter_latency_s`` link instead.  ``node_size = 0`` is the flat
    single-tier model, identical to the pre-hierarchy behavior.
    """

    name: str = "nvlink-like"
    #: per-direction intra-node link bandwidth (GB/s)
    bandwidth_gbps: float = 6.72
    #: fixed per-transfer intra-node latency (seconds), paid per hop
    latency_s: float = 2.0e-6
    #: bytes per transferred x/b item (float64)
    item_bytes: int = 8
    #: devices per node (0 = flat: every pair uses the intra link)
    node_size: int = 0
    #: inter-node link bandwidth; ``None`` falls back to the intra value
    inter_bandwidth_gbps: float | None = None
    #: inter-node hop latency; ``None`` falls back to the intra value
    inter_latency_s: float | None = None

    @classmethod
    def for_device(
        cls,
        device: DeviceModel,
        *,
        ratio: float = 0.5,
        latency_s: float = 2.0e-6,
    ) -> "Interconnect":
        """A flat link at ``ratio`` of ``device``'s memory bandwidth."""
        return cls(
            name=f"{device.name} x{ratio:g} link",
            bandwidth_gbps=device.mem_bandwidth_gbps * ratio,
            latency_s=latency_s,
        )

    @classmethod
    def hierarchical(
        cls,
        device: DeviceModel,
        *,
        node_size: int = 4,
        intra_ratio: float = 0.5,
        inter_ratio: float = 0.05,
        intra_latency_s: float = 2.0e-6,
        inter_latency_s: float = 2.0e-5,
    ) -> "Interconnect":
        """A two-tier hierarchy relative to ``device``'s bandwidth:
        NVLink-class links inside a node of ``node_size`` devices, an
        order-of-magnitude slower network between nodes."""
        if node_size < 1:
            raise ValueError(f"node_size must be >= 1, got {node_size}")
        return cls(
            name=f"{device.name} x{intra_ratio:g}/x{inter_ratio:g} "
            f"hierarchy ({node_size}/node)",
            bandwidth_gbps=device.mem_bandwidth_gbps * intra_ratio,
            latency_s=intra_latency_s,
            node_size=node_size,
            inter_bandwidth_gbps=device.mem_bandwidth_gbps * inter_ratio,
            inter_latency_s=inter_latency_s,
        )

    def same_node(self, src: int, dst: int) -> bool:
        """Do two device indices share a node (always True when flat)?"""
        if self.node_size <= 0:
            return True
        return src // self.node_size == dst // self.node_size

    def link(self, src: int | None = None, dst: int | None = None) -> tuple[float, float]:
        """``(bandwidth_gbps, latency_s)`` of the ``src -> dst`` link
        (the intra-node link when either endpoint is unknown)."""
        if (
            src is not None
            and dst is not None
            and not self.same_node(src, dst)
        ):
            return (
                self.inter_bandwidth_gbps or self.bandwidth_gbps,
                self.inter_latency_s
                if self.inter_latency_s is not None
                else self.latency_s,
            )
        return self.bandwidth_gbps, self.latency_s

    def transfer_time(
        self, items: int, src: int | None = None, dst: int | None = None
    ) -> float:
        """Seconds to move ``items`` vector items one ``src -> dst``
        hop (0 items is a pure synchronization: latency only).  Without
        endpoints the flat/intra-node link is priced — the pre-hierarchy
        signature, still exact for ``node_size = 0``."""
        bw, lat = self.link(src, dst)
        return lat + items * self.item_bytes / (bw * 1e9)

    def sync_latency(self, n_devices: int) -> float:
        """Cost of one global barrier across ``n_devices``: the
        round-trip latency of the slowest tier the group spans."""
        if self.node_size > 0 and n_devices > self.node_size:
            lat = (
                self.inter_latency_s
                if self.inter_latency_s is not None
                else self.latency_s
            )
        else:
            lat = self.latency_s
        return 2.0 * lat


@dataclass(frozen=True)
class Transfer:
    """One inter-device communication event of a schedule."""

    #: producing / consuming segment indices
    producer: int
    consumer: int
    #: source / destination device indices
    src: int
    dst: int
    #: solution-vector items moved (the §3.2 cross-shard x reads)
    x_items: int
    #: partially accumulated right-hand-side items moved
    b_items: int
    start_s: float
    end_s: float

    @property
    def items(self) -> int:
        return self.x_items + self.b_items

    def as_dict(self) -> dict:
        return {
            "producer": self.producer,
            "consumer": self.consumer,
            "src": self.src,
            "dst": self.dst,
            "x_items": self.x_items,
            "b_items": self.b_items,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }


@dataclass
class DistSchedule:
    """A deterministic placement + timeline of plan segments on devices."""

    method: str
    n_devices: int
    #: device index per segment (plan index space)
    assignment: list[int]
    #: segment indices sorted by simulated start time — a topological
    #: order of the DAG, and the order the executor runs numerics in
    order: list[int]
    costs_s: list[float]
    start_s: list[float]
    finish_s: list[float]
    transfers: list[Transfer] = field(default_factory=list)
    makespan_s: float = 0.0
    device_busy_s: list[float] = field(default_factory=list)
    #: DAG longest path under the same costs, zero communication — the
    #: makespan lower bound at infinite devices
    critical_path_s: float = 0.0
    #: registry name of the placement policy that produced this schedule
    scheduler: str = "eft"
    #: dependency-resolution style the timeline was priced under
    sync: str = "p2p"

    # -- derived accounting ------------------------------------------- #
    @property
    def total_cost_s(self) -> float:
        """Sum of segment costs — the single-device makespan."""
        return sum(self.costs_s)

    @property
    def x_transfer_items(self) -> int:
        """Cross-shard §3.2 x reads: solution items crossing devices."""
        return sum(t.x_items for t in self.transfers)

    @property
    def b_transfer_items(self) -> int:
        return sum(t.b_items for t in self.transfers)

    @property
    def transfer_items(self) -> int:
        return self.x_transfer_items + self.b_transfer_items

    @property
    def transfer_time_s(self) -> float:
        """Summed (possibly overlapping) link busy time."""
        return sum(t.end_s - t.start_s for t in self.transfers)

    @property
    def idle_time_s(self) -> float:
        """Summed simulated device idle time under this timeline —
        what the sync mode costs on top of the raw work."""
        return self.n_devices * self.makespan_s - sum(self.device_busy_s)

    def speedup(self) -> float:
        """Simulated strong-scaling speedup over one device."""
        return self.total_cost_s / self.makespan_s if self.makespan_s else 0.0

    def occupancy(self) -> list[float]:
        """Per-device busy fraction of the makespan."""
        if self.makespan_s <= 0.0:
            return [0.0] * self.n_devices
        return [busy / self.makespan_s for busy in self.device_busy_s]

    def _check_device_ranges(self) -> None:
        """Structured rejection of out-of-range device references —
        both segment assignments and transfer endpoints — so a corrupt
        or hand-built schedule fails here with a diagnosable error
        instead of deep inside the executor's device loops."""
        bad = sorted({
            d for d in self.assignment if not 0 <= d < self.n_devices
        })
        if bad:
            raise ValidationError(
                f"schedule assigns segments to devices {bad} outside "
                f"range({self.n_devices})",
                kind="schedule-devices",
                detail={"n_devices": self.n_devices, "bad_devices": bad},
            )
        bad_t = [
            (k, t.producer, t.consumer, t.src, t.dst)
            for k, t in enumerate(self.transfers)
            if not (0 <= t.src < self.n_devices and 0 <= t.dst < self.n_devices)
        ]
        if bad_t:
            k, p, c, src, dst = bad_t[0]
            raise ValidationError(
                f"transfer {k} ({p} -> {c}) references device pair "
                f"({src}, {dst}) outside range({self.n_devices})",
                kind="schedule-devices",
                detail={
                    "n_devices": self.n_devices,
                    "bad_transfers": [
                        {"index": k, "producer": p, "consumer": c,
                         "src": s, "dst": d}
                        for k, p, c, s, d in bad_t
                    ],
                },
            )

    def validate(self, dag: SegmentDAG, interconnect: Interconnect) -> None:
        """Check the schedule invariants (used by tests and the CLI
        smoke): device references in range (structured
        :class:`~repro.errors.ValidationError`, ``kind
        "schedule-devices"``), unique assignment, DAG-respecting start
        times, no same-device overlap, conserved busy time, and
        transfer volume equal to the DAG's cross-device payload."""
        n = dag.n_segments
        assert len(self.assignment) == n and sorted(self.order) == list(range(n))
        self._check_device_ranges()
        pos = {idx: k for k, idx in enumerate(self.order)}
        for j in range(n):
            for p in dag.preds[j]:
                assert pos[p] < pos[j], (p, j)
                gap = self.start_s[j] - self.finish_s[p]
                if self.assignment[p] != self.assignment[j]:
                    x_items, b_items = dag.payload_items(p, j)
                    gap -= interconnect.transfer_time(
                        x_items + b_items,
                        self.assignment[p],
                        self.assignment[j],
                    )
                assert gap >= -1e-12, (p, j, gap)
        per_dev: dict[int, list[tuple[float, float]]] = {}
        for j in range(n):
            per_dev.setdefault(self.assignment[j], []).append(
                (self.start_s[j], self.finish_s[j])
            )
        for spans in per_dev.values():
            spans.sort()
            for (s0, f0), (s1, _) in zip(spans, spans[1:]):
                assert s1 >= f0 - 1e-12, (s0, f0, s1)
        assert abs(sum(self.device_busy_s) - self.total_cost_s) <= 1e-9 * max(
            1.0, self.total_cost_s
        )
        want_x = want_b = 0
        for (p, j), (x_items, b_items) in dag.payload.items():
            if self.assignment[p] != self.assignment[j]:
                want_x += x_items
                want_b += b_items
        assert (self.x_transfer_items, self.b_transfer_items) == (
            want_x, want_b,
        ), "transfer accounting drifted from the DAG payload"

    def as_dict(self) -> dict:
        """JSON-able form (the golden-fixture format)."""
        return {
            "method": self.method,
            "scheduler": self.scheduler,
            "sync": self.sync,
            "n_devices": self.n_devices,
            "assignment": list(self.assignment),
            "order": list(self.order),
            "costs_s": list(self.costs_s),
            "start_s": list(self.start_s),
            "finish_s": list(self.finish_s),
            "transfers": [t.as_dict() for t in self.transfers],
            "makespan_s": self.makespan_s,
            "device_busy_s": list(self.device_busy_s),
            "critical_path_s": self.critical_path_s,
            "x_transfer_items": self.x_transfer_items,
            "b_transfer_items": self.b_transfer_items,
        }

    def render(self, max_rows: int = 40) -> str:
        """Human-readable timeline + occupancy summary."""
        lines = [
            f"schedule: {len(self.assignment)} segments on "
            f"{self.n_devices} device(s) "
            f"[{self.scheduler}, {self.sync} sync], makespan "
            f"{self.makespan_s * 1e6:.1f}us "
            f"(1-device {self.total_cost_s * 1e6:.1f}us, "
            f"speedup {self.speedup():.2f}x, "
            f"critical path {self.critical_path_s * 1e6:.1f}us)",
        ]
        for d, occ in enumerate(self.occupancy()):
            segs = sum(1 for a in self.assignment if a == d)
            lines.append(
                f"  dev{d}: {segs:3d} segments, busy "
                f"{self.device_busy_s[d] * 1e6:8.1f}us, occupancy {occ:6.1%}"
            )
        lines.append(
            f"  transfers: {len(self.transfers)} "
            f"({self.x_transfer_items} x items, "
            f"{self.b_transfer_items} b items, "
            f"{self.transfer_time_s * 1e6:.1f}us link time)"
        )
        shown = self.order[:max_rows]
        for idx in shown:
            lines.append(
                f"  [{self.start_s[idx] * 1e6:9.2f} -> "
                f"{self.finish_s[idx] * 1e6:9.2f}us] dev"
                f"{self.assignment[idx]} seg {idx}"
            )
        if len(self.order) > max_rows:
            lines.append(f"  ... {len(self.order) - max_rows} more segments")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Sync-mode timelines
# --------------------------------------------------------------------- #
def _p2p_timeline(
    dag: SegmentDAG,
    costs_s: list[float],
    assignment: list[int],
    n_devices: int,
    interconnect: Interconnect,
) -> tuple[list[float], list[float]]:
    """Per-edge ready notifications: a segment starts as soon as its
    device is free and each predecessor's data arrived (cross-device
    edges individually priced; same-device edges are free)."""
    n = dag.n_segments
    start = [0.0] * n
    finish = [0.0] * n
    free = [0.0] * n_devices
    for j in range(n):  # plan order is topological
        d = assignment[j]
        ready = free[d]
        for p in dag.preds[j]:
            t = finish[p]
            if assignment[p] != d:
                x_items, b_items = dag.payload_items(p, j)
                t += interconnect.transfer_time(
                    x_items + b_items, assignment[p], d
                )
            if t > ready:
                ready = t
        start[j] = ready
        finish[j] = ready + costs_s[j]
        free[d] = finish[j]
    return start, finish


def _barrier_timeline(
    dag: SegmentDAG,
    costs_s: list[float],
    assignment: list[int],
    n_devices: int,
    interconnect: Interconnect,
) -> tuple[list[float], list[float]]:
    """Bulk-synchronous rounds: each DAG level is one superstep.  All
    devices start a superstep together; between supersteps every device
    waits at a global barrier until all of the previous level's work
    *and* all cross-device payloads bound for the next level have
    landed, plus the barrier's own sync latency (the slowest tier's
    round trip — this is exactly what p2p notification buys back on
    hierarchical interconnects)."""
    n = dag.n_segments
    start = [0.0] * n
    finish = [0.0] * n
    barrier = interconnect.sync_latency(n_devices)
    t_step = 0.0
    for k, level in enumerate(dag.levels()):
        if k > 0:
            t_step += barrier
        for j in level:
            for p in dag.preds[j]:
                if assignment[p] != assignment[j]:
                    x_items, b_items = dag.payload_items(p, j)
                    arrival = finish[p] + interconnect.transfer_time(
                        x_items + b_items, assignment[p], assignment[j]
                    )
                    if arrival > t_step:
                        t_step = arrival
        free = [t_step] * n_devices
        for j in level:  # plan order within the superstep
            d = assignment[j]
            start[j] = free[d]
            finish[j] = free[d] + costs_s[j]
            free[d] = finish[j]
        t_step = max(free)
    return start, finish


_TIMELINES = {"p2p": _p2p_timeline, "barrier": _barrier_timeline}


def _build_transfers(
    dag: SegmentDAG,
    assignment: list[int],
    finish: list[float],
    interconnect: Interconnect,
) -> list[Transfer]:
    transfers = []
    for (p, j), (x_items, b_items) in sorted(dag.payload.items()):
        if assignment[p] == assignment[j]:
            continue
        t0 = finish[p]
        transfers.append(Transfer(
            producer=p, consumer=j,
            src=assignment[p], dst=assignment[j],
            x_items=x_items, b_items=b_items,
            start_s=t0,
            end_s=t0 + interconnect.transfer_time(
                x_items + b_items, assignment[p], assignment[j]
            ),
        ))
    return transfers


# --------------------------------------------------------------------- #
# Placement policies
# --------------------------------------------------------------------- #
class Scheduler:
    """The pluggable scheduler interface.

    A scheduler maps a segment DAG with per-segment simulated costs
    onto ``n_devices`` device queues.  Subclasses implement
    :meth:`place` (assignment only); the shared :meth:`schedule` driver
    prices the timeline under the requested sync mode, builds the
    transfer list, and packages a validated :class:`DistSchedule`.

    External policies plug in via :func:`register_scheduler`; anything
    with a compatible ``schedule(dag, costs_s, n_devices, interconnect,
    *, method=..., sync=...)`` callable qualifies — subclassing just
    supplies the driver for free.
    """

    #: registry name, stamped onto every produced schedule
    name = "abstract"

    def place(
        self,
        dag: SegmentDAG,
        costs_s: list[float],
        n_devices: int,
        interconnect: Interconnect,
    ) -> list[int]:
        """Return one device index per segment (plan index space)."""
        raise NotImplementedError

    def schedule(
        self,
        dag: SegmentDAG,
        costs_s,
        n_devices: int,
        interconnect: Interconnect,
        *,
        method: str = "plan",
        sync: str = "p2p",
    ) -> DistSchedule:
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {n_devices}")
        if sync not in _TIMELINES:
            raise ValueError(
                f"unknown sync mode {sync!r}; choose from {SYNC_MODES}"
            )
        n = dag.n_segments
        costs_s = [float(c) for c in costs_s]
        if len(costs_s) != n:
            raise ValueError(f"need {n} segment costs, got {len(costs_s)}")
        assignment = self.place(dag, costs_s, n_devices, interconnect)
        return price_placement(
            dag, costs_s, assignment, n_devices, interconnect,
            method=method, scheduler=self.name, sync=sync,
        )


def price_placement(
    dag: SegmentDAG,
    costs_s: list[float],
    assignment: list[int],
    n_devices: int,
    interconnect: Interconnect,
    *,
    method: str,
    scheduler: str,
    sync: str,
    order: list[int] | None = None,
) -> DistSchedule:
    """The :class:`DistSchedule` of a given placement: its timeline under
    ``sync``, transfers and accounting, stamped with the ``scheduler``
    that chose it.  The executor runs segments in start-time order, or
    in ``order`` (a persisted one), which must be a topological order of
    ``dag``; a placement or order that is not one raises
    :class:`~repro.errors.ValidationError` before anything is priced."""
    n = dag.n_segments
    if len(assignment) != n or not all(
        isinstance(d, int) and 0 <= d < n_devices for d in assignment
    ):
        raise ValidationError(
            f"placement of {len(assignment)} segments does not fit "
            f"{n} segments on {n_devices} devices",
            kind="schedule-devices",
            detail={"n_segments": n, "n_devices": n_devices},
        )
    if order is not None and not (
        sorted(order) == list(range(n)) and dag.check_topological(order)
    ):
        raise ValidationError(
            "persisted order is not a topological order of the DAG",
            kind="schedule-order", detail={"n_segments": n},
        )
    start, finish = _TIMELINES[sync](
        dag, costs_s, assignment, n_devices, interconnect
    )
    busy = [0.0] * n_devices
    for j in range(n):
        busy[assignment[j]] += costs_s[j]
    if order is None:
        order = sorted(range(n), key=lambda j: (start[j], j))
    return DistSchedule(
        method=method,
        n_devices=n_devices,
        assignment=list(assignment),
        order=list(order),
        costs_s=costs_s,
        start_s=start,
        finish_s=finish,
        transfers=_build_transfers(dag, assignment, finish, interconnect),
        makespan_s=max(finish, default=0.0),
        device_busy_s=busy,
        critical_path_s=dag.critical_path_s(costs_s),
        scheduler=scheduler,
        sync=sync,
    )


class GreedyEFTScheduler(Scheduler):
    """Greedy earliest-finish-time list scheduling in plan order.

    Each segment goes to the device minimizing its estimated finish
    time, where readiness accounts each cross-device predecessor's
    priced transfer.  Myopic but strong: the historical default, and
    the baseline every other policy is benchmarked against.
    """

    name = "eft"

    def place(self, dag, costs_s, n_devices, interconnect):
        n = dag.n_segments
        assignment = [0] * n
        finish = [0.0] * n
        free = [0.0] * n_devices
        for j in range(n):
            best_d = 0
            best_finish = float("inf")
            for d in range(n_devices):
                ready = free[d]
                for p in dag.preds[j]:
                    t = finish[p]
                    if assignment[p] != d:
                        x_items, b_items = dag.payload_items(p, j)
                        t += interconnect.transfer_time(
                            x_items + b_items, assignment[p], d
                        )
                    if t > ready:
                        ready = t
                f = ready + costs_s[j]
                if f < best_finish:  # strict: ties keep the lowest index
                    best_d, best_finish = d, f
            assignment[j] = best_d
            finish[j] = best_finish
            free[best_d] = best_finish
        return assignment


class LookaheadEFTScheduler(Scheduler):
    """One-step lookahead EFT: score a placement by its *critical
    descendant's* finish, not its own.

    For each candidate device the policy provisionally places the
    segment, then greedily places its most critical unscheduled
    successor (largest bottom-level — the longest chain it heads) on
    the best device for *it*, and uses that successor's finish time as
    the score.  Where greedy EFT banks a cheap local finish and pays
    for it one hop later (a cross-device transfer right on the critical
    path), the lookahead sees the bill coming.  Ties fall back to the
    segment's own finish, then the lowest device index.
    """

    name = "lookahead-eft"

    def place(self, dag, costs_s, n_devices, interconnect):
        n = dag.n_segments
        # Bottom level: the longest cost chain a segment heads (own
        # cost included, communication ignored) — criticality ranking.
        blevel = [0.0] * n
        for j in range(n - 1, -1, -1):
            blevel[j] = costs_s[j] + max(
                (blevel[s] for s in dag.succs[j]), default=0.0
            )
        assignment = [0] * n
        finish = [0.0] * n
        free = [0.0] * n_devices
        for j in range(n):
            child = max(
                (s for s in dag.succs[j]),
                key=lambda s: (blevel[s], -s),
                default=None,
            )
            best_d = 0
            best_key = (float("inf"), float("inf"))
            for d in range(n_devices):
                ready = free[d]
                for p in dag.preds[j]:
                    t = finish[p]
                    if assignment[p] != d:
                        x_items, b_items = dag.payload_items(p, j)
                        t += interconnect.transfer_time(
                            x_items + b_items, assignment[p], d
                        )
                    if t > ready:
                        ready = t
                f = ready + costs_s[j]
                score = f
                if child is not None:
                    c_items = sum(dag.payload_items(j, child))
                    child_best = float("inf")
                    for e in range(n_devices):
                        r = f if e == d else free[e]
                        arrive = f if e == d else f + interconnect.transfer_time(
                            c_items, d, e
                        )
                        if arrive > r:
                            r = arrive
                        for p in dag.preds[child]:
                            if p == j or p > j:  # unplaced preds unknown
                                continue
                            t = finish[p]
                            if assignment[p] != e:
                                x_items, b_items = dag.payload_items(p, child)
                                t += interconnect.transfer_time(
                                    x_items + b_items, assignment[p], e
                                )
                            if t > r:
                                r = t
                        child_best = min(child_best, r + costs_s[child])
                    score = child_best
                key = (score, f)
                if key < best_key:  # strict: ties keep the lowest device
                    best_d, best_key = d, key
            assignment[j] = best_d
            ready = free[best_d]
            for p in dag.preds[j]:
                t = finish[p]
                if assignment[p] != best_d:
                    x_items, b_items = dag.payload_items(p, j)
                    t += interconnect.transfer_time(
                        x_items + b_items, assignment[p], best_d
                    )
                if t > ready:
                    ready = t
            finish[j] = ready + costs_s[j]
            free[best_d] = finish[j]
        return assignment


class SuperstepScheduler(Scheduler):
    """BSP superstep partitioning: level-aligned load balancing.

    Segments are grouped by DAG depth — each level is one superstep —
    and within a level placed longest-processing-time-first onto the
    least-loaded device (classic LPT), communication-oblivious by
    design: in the BSP model all of a superstep's traffic is absorbed
    by the following barrier, so only the per-level compute balance
    matters.  Its natural sync mode is ``"barrier"`` (where the
    barrier cost it assumes is actually priced), but like every
    scheduler it can be timed under either mode.
    """

    name = "superstep"

    def place(self, dag, costs_s, n_devices, interconnect):
        assignment = [0] * dag.n_segments
        for level in dag.levels():
            load = [0.0] * n_devices
            for j in sorted(level, key=lambda j: (-costs_s[j], j)):
                d = min(range(n_devices), key=lambda d: (load[d], d))
                assignment[j] = d
                load[d] += costs_s[j]
        return assignment


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
#: registry used by the executor, serve layer, CLI, and benchmarks
SCHEDULERS: dict[str, Scheduler] = {
    "eft": GreedyEFTScheduler(),
    "lookahead-eft": LookaheadEFTScheduler(),
    "superstep": SuperstepScheduler(),
}

#: the policies shipped with the library; never removable
_BUILTIN_SCHEDULERS = frozenset(SCHEDULERS)


def available_schedulers() -> list[str]:
    """Registered scheduler names, in registration order."""
    return list(SCHEDULERS)


def get_scheduler(name: str) -> Scheduler:
    """Look up a registered scheduler by name."""
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None


def register_scheduler(
    name: str, scheduler: Scheduler, *, replace: bool = False
) -> Scheduler:
    """Add a placement policy to the public registry.

    External schedulers plug in here instead of mutating
    ``SCHEDULERS``: once registered the policy is usable from
    :class:`repro.dist.DistributedPlan`, ``ServiceConfig(scheduler=...)``,
    the CLI (``repro dist --scheduler``), and it is automatically picked
    up by the scheduler-conformance property suite.

    Parameters
    ----------
    name:
        Registry key (also stamped onto produced schedules).
    scheduler:
        A :class:`Scheduler` instance — or anything exposing a
        compatible ``schedule(...)`` callable.
    replace:
        Allow overwriting an earlier external registration.  Built-in
        policies can never be replaced or removed.

    Returns
    -------
    ``scheduler`` unchanged, so registration can be chained.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"scheduler name must be a non-empty string, got {name!r}"
        )
    if name in _BUILTIN_SCHEDULERS:
        raise ValueError(f"scheduler {name!r} is built in and cannot be replaced")
    if name in SCHEDULERS and not replace:
        raise ValueError(
            f"scheduler {name!r} is already registered "
            f"({type(SCHEDULERS[name]).__name__}); pass replace=True to override"
        )
    if not callable(getattr(scheduler, "schedule", None)):
        raise TypeError(
            f"{scheduler!r} does not implement the Scheduler interface: "
            "it needs a schedule(dag, costs_s, n_devices, interconnect) "
            "method (subclass repro.dist.Scheduler and implement place() "
            "to get the timeline driver for free)"
        )
    SCHEDULERS[name] = scheduler
    return scheduler


def unregister_scheduler(name: str) -> Scheduler:
    """Remove an externally registered scheduler; returns it."""
    if name in _BUILTIN_SCHEDULERS:
        raise ValueError(f"scheduler {name!r} is built in and cannot be removed")
    if name not in SCHEDULERS:
        raise KeyError(f"scheduler {name!r} is not registered")
    return SCHEDULERS.pop(name)


def schedule_dag(
    dag: SegmentDAG,
    costs_s,
    n_devices: int,
    interconnect: Interconnect,
    *,
    method: str = "plan",
    scheduler: str = "eft",
    sync: str = "p2p",
) -> DistSchedule:
    """Place every DAG node on one of ``n_devices`` device queues with
    the named registered policy, timed under ``sync`` (see the module
    docstring).  The ``eft``/``p2p`` defaults reproduce the historical
    greedy list scheduler exactly."""
    return get_scheduler(scheduler).schedule(
        dag, costs_s, n_devices, interconnect, method=method, sync=sync
    )
