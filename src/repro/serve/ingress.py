"""Deadline-aware asyncio ingress over :class:`~repro.serve.service.SolveService`.

The thread-pool service admits against a bounded permit count and runs FIFO:
under overload every request waits the same queue, deadlines are only
checked once a worker picks the job up, and the only relief valve is a
hard :class:`ServiceOverloadedError` at the door.  This module rebuilds
the front door as a single-threaded asyncio event loop in front of that
pool:

* **Priority classes** — each request lands in one of a small set of
  named classes (``interactive`` / ``standard`` / ``batch`` by
  default).  Classes are strictly ordered by ``rank``; a lower rank
  always dispatches first.
* **EDF dispatch** — within a class, the request with the earliest
  absolute deadline runs next (ties broken by arrival order).  Requests
  without a deadline sort after every deadlined one.
* **Load shedding** — explicit, attributed drops instead of unbounded
  queueing: at admission when a class queue stays full past the
  backpressure budget (``reason="admission"``), at admission overflow
  when a heavier tenant's queued request is evicted to make room for a
  lighter one (``reason="evicted"`` — the per-tenant fairness rule), and
  at dequeue when the deadline already passed in queue
  (``reason="expired"`` — the request never touches the cache or a
  worker).  Shed requests fail fast with :class:`IngressShedError`.
* **Cooperative backpressure** — ``await submit()`` blocks up to
  ``backpressure_s`` waiting for queue space before the shed decision,
  so well-behaved async producers slow down instead of being dropped.

Every terminal outcome is mirrored into the service's
:class:`~repro.obs.runtime.Observability` bundle when one is attached:
``repro_ingress_*`` metric families, flight-recorder frames, and SLO
evaluation (a shed counts as a breach for error-rate policies).

Usage::

    async with AsyncSolveService(service) as ingress:
        x = await ingress.submit(A, b, priority="interactive")
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import IngressShedError, ServiceClosedError
from repro.formats.csr import CSRMatrix
from repro.obs.clock import monotonic
from repro.serve.service import ServiceTimeoutError, SolveService, _snapshot

__all__ = [
    "DEFAULT_CLASSES",
    "AsyncSolveService",
    "IngressConfig",
    "IngressStats",
    "PriorityClass",
]


@dataclass(frozen=True)
class PriorityClass:
    """One named admission class of the ingress.

    Attributes
    ----------
    name:
        Class label; also the ``class`` label on ingress metrics.
    rank:
        Strict dispatch priority — lower ranks always dispatch before
        higher ones.  Ties are invalid (ranks must be unique).
    queue_limit:
        Maximum queued (admitted, not yet dispatched) requests for this
        class before shedding kicks in.
    deadline_s:
        Default relative deadline applied to requests submitted under
        this class without an explicit ``deadline_s``.  ``None`` means
        no deadline (the request never expires in queue).
    """

    name: str
    rank: int = 0
    queue_limit: int = 256
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority class name must be non-empty")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


#: Default three-tier split: latency-sensitive interactive traffic,
#: ordinary request/response work, and deadline-free bulk jobs.
DEFAULT_CLASSES = (
    PriorityClass("interactive", rank=0, queue_limit=128, deadline_s=0.25),
    PriorityClass("standard", rank=1, queue_limit=256, deadline_s=1.0),
    PriorityClass("batch", rank=2, queue_limit=512, deadline_s=None),
)


@dataclass(frozen=True)
class IngressConfig:
    """Tuning knobs for :class:`AsyncSolveService`."""

    #: admission classes, any order; dispatch follows ``rank``.
    classes: tuple = DEFAULT_CLASSES
    #: class used when ``submit`` gives no ``priority``.
    default_class: str = "standard"
    #: how long ``submit`` cooperatively waits for queue space before
    #: the shed decision (0 = shed immediately on a full queue).
    backpressure_s: float = 0.05
    #: concurrent dispatches into the backend service; ``None`` means
    #: the backend's ``max_workers`` (keep the pool exactly busy).
    max_inflight: int | None = None
    #: shed dequeued requests whose deadline already passed instead of
    #: paying cache lookup + solve for a result nobody will read.
    shed_expired: bool = True

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("at least one priority class is required")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        ranks = [c.rank for c in self.classes]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate class ranks: {ranks}")
        if self.default_class not in names:
            raise ValueError(
                f"default_class {self.default_class!r} not among {names}"
            )
        if self.backpressure_s < 0:
            raise ValueError(
                f"backpressure_s must be >= 0, got {self.backpressure_s}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )

    def resolve(self, name: str | None) -> PriorityClass:
        label = self.default_class if name is None else name
        for c in self.classes:
            if c.name == label:
                return c
        raise ValueError(
            f"unknown priority class {label!r}; configured: "
            f"{[c.name for c in self.classes]}"
        )


@dataclass
class IngressStats:
    """Snapshot of ingress lifetime counters (see :meth:`AsyncSolveService.stats`)."""

    submitted: int = 0
    admitted: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    #: shed counts keyed by reason ("admission" / "evicted" / "expired"
    #: / "shutdown")
    shed: dict = field(default_factory=dict)
    #: current queue depth per class (point-in-time, not lifetime)
    queued: dict = field(default_factory=dict)
    #: per-class lifetime counters: admitted / dispatched / shed
    per_class: dict = field(default_factory=dict)
    #: per-tenant lifetime counters: submitted / admitted / shed /
    #: completed / shed_rate
    per_tenant: dict = field(default_factory=dict)
    #: submits that had to wait on backpressure before admission
    backpressure_waits: int = 0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def shed_rate_spread(self, tenants: list[str] | None = None) -> float:
        """Max − min per-tenant shed rate (absolute), the fairness gauge.

        Restricted to ``tenants`` when given; tenants with zero
        submissions are ignored.
        """
        rates = [
            d["shed_rate"]
            for t, d in self.per_tenant.items()
            if (tenants is None or t in tenants) and d["submitted"] > 0
        ]
        if len(rates) < 2:
            return 0.0
        return max(rates) - min(rates)

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "queued": dict(self.queued),
            "per_class": {k: dict(v) for k, v in self.per_class.items()},
            "per_tenant": {k: dict(v) for k, v in self.per_tenant.items()},
            "backpressure_waits": self.backpressure_waits,
        }

    def render(self) -> str:
        shed = ", ".join(
            f"{k} {v}" for k, v in sorted(self.shed.items())
        ) or "none"
        lines = [
            "ingress stats",
            f"  submitted {self.submitted}, admitted {self.admitted}, "
            f"dispatched {self.dispatched}, completed {self.completed}",
            f"  failed {self.failed}, timeouts {self.timeouts}, "
            f"shed {self.shed_total} ({shed}), "
            f"backpressure waits {self.backpressure_waits}",
        ]
        for name, d in sorted(self.per_class.items()):
            lines.append(
                f"  class {name}: admitted {d.get('admitted', 0)}, "
                f"dispatched {d.get('dispatched', 0)}, "
                f"shed {d.get('shed', 0)}, "
                f"queued {self.queued.get(name, 0)}"
            )
        for name, d in sorted(self.per_tenant.items()):
            lines.append(
                f"  tenant {name}: submitted {d['submitted']}, "
                f"shed {d['shed']} ({d['shed_rate']:.1%}), "
                f"completed {d['completed']}"
            )
        return "\n".join(lines)


class _Pending:
    """One admitted request waiting in a class queue."""

    __slots__ = (
        "A", "b", "method", "tenant", "klass", "deadline",
        "enq_t", "future", "state",
    )

    def __init__(self, A, b, *, method, tenant, klass, deadline, future):
        self.A = A
        self.b = b
        self.method = method
        self.tenant = tenant
        self.klass = klass
        self.deadline = deadline
        self.enq_t = monotonic()
        self.future = future
        self.state = "queued"  # -> "shed" | "dispatched"


#: heap sort key: deadlined requests before deadline-free ones, then
#: earliest deadline, then arrival order.
def _edf_key(deadline: float | None, seq: int) -> tuple:
    if deadline is None:
        return (1, 0.0, seq)
    return (0, deadline, seq)


class AsyncSolveService:
    """Asyncio front door for a :class:`SolveService` (see module docs).

    All queue state lives on the event loop — ``submit`` must be awaited
    from a single running loop.  The backend service still runs in its
    own thread pool; results cross back via :func:`asyncio.wrap_future`.
    ``stats()`` is thread-safe.

    Parameters
    ----------
    service:
        Backend to dispatch into.  ``None`` builds a default
        :class:`SolveService` owned (and closed) by this ingress.
    config:
        :class:`IngressConfig`; keyword overrides (``classes=...``,
        ``backpressure_s=...``) build one when omitted.
    """

    def __init__(
        self,
        service: SolveService | None = None,
        *,
        config: IngressConfig | None = None,
        **overrides,
    ) -> None:
        if config is not None and overrides:
            raise ValueError("pass either config or overrides, not both")
        self.config = config if config is not None else IngressConfig(**overrides)
        self._owns_service = service is None
        self.service = service if service is not None else SolveService()
        inflight = self.config.max_inflight
        if inflight is None:
            inflight = self.service.config.max_workers
        # Never dispatch more than the backend will admit, or dispatches
        # would bounce off its own admission permits.
        self._max_inflight = min(inflight, self.service.config.queue_limit)
        self._by_rank = sorted(self.config.classes, key=lambda c: c.rank)
        self._queues: dict[str, list] = {c.name: [] for c in self.config.classes}
        self._depth: dict[str, int] = {c.name: 0 for c in self.config.classes}
        #: queued-request count per (class, tenant) — the fairness ledger
        self._tenant_depth: dict[tuple, int] = {}
        self._space: dict[str, asyncio.Event] = {}
        self._seq = 0
        self._active = 0
        self._closed = False
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._work: asyncio.Event | None = None
        self._inflight: asyncio.Semaphore | None = None
        self._dispatcher: asyncio.Task | None = None
        self._run_tasks: set = set()
        self._stats_lock = threading.Lock()
        self._life = {
            "submitted": 0, "admitted": 0, "dispatched": 0,
            "completed": 0, "failed": 0, "timeouts": 0,
            "backpressure_waits": 0,
        }
        self._shed_by_reason: dict[str, int] = {}
        self._per_class: dict[str, dict] = {
            c.name: {"admitted": 0, "dispatched": 0, "shed": 0}
            for c in self.config.classes
        }
        self._per_tenant: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._inflight = asyncio.Semaphore(self._max_inflight)
        self._space = {c.name: asyncio.Event() for c in self.config.classes}
        self._dispatcher = self._loop.create_task(
            self._dispatch_loop(), name="repro-ingress-dispatch"
        )
        self._started = True

    async def __aenter__(self) -> "AsyncSolveService":
        self._ensure_started()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self, *, drain: bool = True) -> None:
        """Stop the ingress.

        ``drain=True`` (default) waits for every queued and in-flight
        request to reach a terminal state first; ``drain=False`` sheds
        all queued requests with ``reason="shutdown"`` and only waits
        for the in-flight ones.
        """
        if self._closed:
            return
        self._closed = True
        if self._started:
            if not drain:
                for name in self._queues:
                    for _, _, p in self._queues[name]:
                        if p.state == "queued":
                            self._shed(p, "shutdown")
                    self._queues[name].clear()
            while self.total_depth() > 0 or self._active > 0:
                self._work.set()
                await asyncio.sleep(0.002)
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._owns_service:
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.close
            )

    # ------------------------------------------------------------------
    # submission path

    async def submit(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        method: str | None = None,
        tenant: str = "default",
        priority: str | None = None,
        deadline_s: float | None = None,
    ):
        """Admit one request and await its :class:`SolveResult`.

        ``A``'s arrays are copied when the request is admitted to a
        queue, so nothing the caller does to them afterwards changes
        what is digested and solved; ``b`` is copied when the request
        is handed to the backend.  Both are free for reuse once this
        returns.

        Raises :class:`IngressShedError` when the request is shed (at
        admission, by fairness eviction, on in-queue deadline expiry, or
        at shutdown), :class:`ServiceTimeoutError` when the deadline
        expires mid-solve, and :class:`ServiceClosedError` after
        :meth:`close`.
        """
        if self._closed:
            raise ServiceClosedError("ingress has been shut down")
        self._ensure_started()
        klass = self.config.resolve(priority)
        t_submit = monotonic()
        rel = deadline_s if deadline_s is not None else klass.deadline_s
        deadline = None if rel is None else t_submit + rel
        with self._stats_lock:
            self._life["submitted"] += 1
            self._tenant_counts(tenant)["submitted"] += 1

        if self._depth[klass.name] >= klass.queue_limit:
            admitted = await self._wait_for_space(klass, t_submit)
            if not admitted:
                victim = self._fairness_victim(klass, tenant)
                if victim is not None:
                    self._shed(victim, "evicted")
                else:
                    self._count_shed(klass.name, tenant, "admission", t_submit)
                    raise IngressShedError(
                        f"class {klass.name!r} queue full "
                        f"({klass.queue_limit} queued) past the "
                        f"{self.config.backpressure_s:.3f}s backpressure "
                        "budget",
                        reason="admission", tenant=tenant,
                    )

        self._seq += 1
        try:
            A = _snapshot(A)
        except Exception:  # noqa: BLE001 - fails in the backend, counted
            pass
        pending = _Pending(
            A, b, method=method, tenant=tenant, klass=klass,
            deadline=deadline,
            future=self._loop.create_future(),
        )
        heapq.heappush(
            self._queues[klass.name],
            (_edf_key(deadline, self._seq), self._seq, pending),
        )
        self._depth[klass.name] += 1
        key = (klass.name, tenant)
        self._tenant_depth[key] = self._tenant_depth.get(key, 0) + 1
        with self._stats_lock:
            self._life["admitted"] += 1
            self._per_class[klass.name]["admitted"] += 1
            self._tenant_counts(tenant)["admitted"] += 1
        obs = self.service.observability
        if obs is not None:
            m = obs.serve_metrics
            m.ingress_admitted.inc(**{"class": klass.name, "tenant": tenant})
            m.ingress_admission_latency.observe(
                monotonic() - t_submit, **{"class": klass.name}
            )
            m.ingress_queue_depth.set(
                self._depth[klass.name], **{"class": klass.name}
            )
        self._work.set()
        return await pending.future

    async def _wait_for_space(self, klass: PriorityClass, t0: float) -> bool:
        """Cooperative backpressure: block for queue space up to the
        configured budget.  True means space opened up."""
        budget = self.config.backpressure_s
        if budget <= 0:
            return False
        with self._stats_lock:
            self._life["backpressure_waits"] += 1
        t_end = t0 + budget
        ev = self._space[klass.name]
        while True:
            if self._depth[klass.name] < klass.queue_limit:
                return True
            remaining = t_end - monotonic()
            if remaining <= 0:
                return False
            ev.clear()
            # re-check after clear: a pop between the depth check and
            # clear() would otherwise be a lost wakeup
            if self._depth[klass.name] < klass.queue_limit:
                return True
            try:
                await asyncio.wait_for(ev.wait(), remaining)
            except asyncio.TimeoutError:
                return False

    def _fairness_victim(
        self, klass: PriorityClass, tenant: str
    ) -> _Pending | None:
        """Pick the queued request to evict so ``tenant`` can be admitted.

        The per-tenant fairness rule: evict from the most-queued tenant
        only when it would still hold at least as many queued requests
        as the newcomer's tenant *after* the swap (``depth > mine + 1``)
        — anything less trades one tenant's request for another's
        without improving the balance.  Among the heaviest tenant's
        requests the one with the latest deadline (least urgent) goes.
        Returns ``None`` when no such tenant exists — then the newcomer
        is shed instead.
        """
        mine = self._tenant_depth.get((klass.name, tenant), 0)
        heaviest, heaviest_depth = None, mine + 1
        for (cname, t), d in self._tenant_depth.items():
            if cname == klass.name and d > heaviest_depth:
                heaviest, heaviest_depth = t, d
        if heaviest is None:
            return None
        victim = None
        victim_key = None
        for key, _, p in self._queues[klass.name]:
            if p.state == "queued" and p.tenant == heaviest:
                if victim is None or key > victim_key:
                    victim, victim_key = p, key
        return victim

    # ------------------------------------------------------------------
    # shed bookkeeping

    def _count_shed(
        self, class_name: str, tenant: str, reason: str, since: float,
        queued: bool = False,
    ) -> None:
        """Attribute one shed of a request that arrived at ``since``: the
        reason, class and tenant counts, and with a bundle the shed
        counter plus a recorder frame and SLO evaluation (a shed is a
        breach for error-rate policies).  A ``queued`` request's frame
        carries its wait in queue."""
        wall = monotonic() - since
        with self._stats_lock:
            self._shed_by_reason[reason] = (
                self._shed_by_reason.get(reason, 0) + 1
            )
            self._per_class[class_name]["shed"] += 1
            self._tenant_counts(tenant)["shed"] += 1
        obs = self.service.observability
        if obs is not None:
            obs.serve_metrics.ingress_sheds.inc(reason=reason, tenant=tenant)
            obs.note_request(
                tenant=tenant,
                queue_wait_s=wall if queued else None,
                wall_s=wall,
                outcome=f"shed:{reason}",
            )

    def _shed(self, pending: _Pending, reason: str) -> None:
        """Drop a queued request: mark it (lazy heap deletion), free its
        depth, fail its future, and attribute the drop."""
        if pending.state != "queued":
            return
        pending.state = "shed"
        self._release_slot(pending)
        self._count_shed(
            pending.klass.name, pending.tenant, reason, pending.enq_t,
            queued=True,
        )
        if not pending.future.done():
            pending.future.set_exception(
                IngressShedError(
                    f"request shed from class {pending.klass.name!r} "
                    f"({reason})",
                    reason=reason, tenant=pending.tenant,
                )
            )

    def _release_slot(self, pending: _Pending) -> None:
        """A request left its queue (shed or dispatched): update depth,
        the fairness ledger, the depth gauge, and wake space waiters."""
        name = pending.klass.name
        self._depth[name] -= 1
        key = (name, pending.tenant)
        left = self._tenant_depth.get(key, 1) - 1
        if left <= 0:
            self._tenant_depth.pop(key, None)
        else:
            self._tenant_depth[key] = left
        obs = self.service.observability
        if obs is not None:
            obs.serve_metrics.ingress_queue_depth.set(
                self._depth[name], **{"class": name}
            )
        if name in self._space:
            self._space[name].set()

    # ------------------------------------------------------------------
    # dispatch path

    def _pop_next(self) -> _Pending | None:
        """Highest-priority class first, EDF within the class; sheds
        expired entries and skips lazily-deleted ones on the way."""
        now = monotonic()
        for klass in self._by_rank:
            heap = self._queues[klass.name]
            while heap:
                _, _, pending = heapq.heappop(heap)
                if pending.state != "queued":
                    continue  # lazily-deleted eviction victim
                if pending.future.done():
                    # submitter went away (cancelled) while queued
                    pending.state = "shed"
                    self._release_slot(pending)
                    continue
                if (
                    self.config.shed_expired
                    and pending.deadline is not None
                    and now > pending.deadline
                ):
                    # The bugfix path: never pay cache lookup + solve
                    # for a request whose deadline died in queue.
                    self._shed(pending, "expired")
                    continue
                pending.state = "dispatched"
                self._release_slot(pending)
                return pending
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            await self._work.wait()
            await self._inflight.acquire()
            pending = self._pop_next()
            if pending is None:
                self._inflight.release()
                self._work.clear()
                if self.total_depth() > 0:
                    # raced with an enqueue between pop and clear
                    self._work.set()
                continue
            self._active += 1
            with self._stats_lock:
                self._life["dispatched"] += 1
                self._per_class[pending.klass.name]["dispatched"] += 1
            obs = self.service.observability
            if obs is not None:
                m = obs.serve_metrics
                m.ingress_dispatched.inc(**{"class": pending.klass.name})
                m.ingress_queue_delay.observe(
                    monotonic() - pending.enq_t,
                    **{"class": pending.klass.name},
                )
            task = self._loop.create_task(self._run(pending))
            self._run_tasks.add(task)
            task.add_done_callback(self._run_tasks.discard)

    async def _run(self, pending: _Pending) -> None:
        try:
            timeout_s = None
            if pending.deadline is not None:
                timeout_s = max(0.0, pending.deadline - monotonic())
            cf = self.service.submit(
                pending.A, pending.b,
                method=pending.method,
                timeout_s=timeout_s,
                tenant=pending.tenant,
            )
            batch = await asyncio.wrap_future(cf)
            result = batch[0]
            with self._stats_lock:
                self._life["completed"] += 1
                self._tenant_counts(pending.tenant)["completed"] += 1
            if not pending.future.done():
                pending.future.set_result(result)
        except asyncio.CancelledError:
            if not pending.future.done():
                pending.future.cancel()
            raise
        except BaseException as exc:
            with self._stats_lock:
                if isinstance(exc, ServiceTimeoutError):
                    self._life["timeouts"] += 1
                else:
                    self._life["failed"] += 1
                self._tenant_counts(pending.tenant)["failed"] += 1
            if not pending.future.done():
                pending.future.set_exception(exc)
        finally:
            self._active -= 1
            self._inflight.release()
            self._work.set()

    # ------------------------------------------------------------------
    # introspection

    def _tenant_counts(self, tenant: str) -> dict:
        """``tenant``'s lifetime counters; the caller holds
        ``_stats_lock``."""
        d = self._per_tenant.get(tenant)
        if d is None:
            d = self._per_tenant[tenant] = {
                "submitted": 0, "admitted": 0, "shed": 0,
                "completed": 0, "failed": 0,
            }
        return d

    def total_depth(self) -> int:
        """Live queued requests across every class."""
        return sum(self._depth.values())

    def queue_depths(self) -> dict[str, int]:
        return dict(self._depth)

    @property
    def inflight(self) -> int:
        """Requests currently running in the backend."""
        return self._active

    def stats(self) -> IngressStats:
        with self._stats_lock:
            per_tenant = {}
            for t, d in self._per_tenant.items():
                block = dict(d)
                block["shed_rate"] = (
                    d["shed"] / d["submitted"] if d["submitted"] else 0.0
                )
                per_tenant[t] = block
            return IngressStats(
                submitted=self._life["submitted"],
                admitted=self._life["admitted"],
                dispatched=self._life["dispatched"],
                completed=self._life["completed"],
                failed=self._life["failed"],
                timeouts=self._life["timeouts"],
                shed=dict(self._shed_by_reason),
                queued=dict(self._depth),
                per_class={k: dict(v) for k, v in self._per_class.items()},
                per_tenant=per_tenant,
                backpressure_waits=self._life["backpressure_waits"],
            )
