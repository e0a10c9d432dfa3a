"""`SolveService`: a plan-caching, structurally-batching solve front end.

The paper's Table 5 argument — preprocessing is paid once and amortized
over many solves — is exactly the access pattern of a triangular-solve
*service*: ILU-preconditioned Krylov loops and repeated right-hand-side
streams hit the same factor over and over.  This module packages that
economy behind one object:

* incoming CSR matrices are fingerprinted at two levels
  (:func:`structure_fingerprint` / :func:`values_fingerprint`): the
  expensive artifacts — segment layout, level schedules, compiled step
  graph, distributed schedule — are cached per *pattern*, and each
  distinct values vector gets a small rebind overlay (a handful of
  ``data[posmap]`` gathers) instead of a full re-plan;
* same-matrix requests inside a batch are coalesced into one fused
  ``solve_multi`` call, and same-*pattern* requests are bucketed into
  one fused structural batch that runs all values-groups over the
  shared pattern plan (continuous batching for SpTRSV);
* independent buckets run concurrently on a thread pool behind a
  bounded admission queue, with per-request deadlines;
* a planner failure degrades gracefully to the level-set baseline and
  is recorded as a fallback;
* every request emits a :class:`RequestRecord`; :meth:`SolveService.stats`
  aggregates them into a :class:`ServiceStats` snapshot.

>>> with SolveService(max_workers=4, cache_capacity=16) as svc:
...     r = svc.solve(L, b)                 # miss: prepares, caches
...     r2 = svc.solve(L, b2)               # hit: plan reused
...     print(r2.cache_hit, svc.stats().hit_speedup)
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api import SolveResult, validate_solver_options
from repro.core.executor import compile_plan
from repro.core.rebind import PlanRebinder, RebindError, tracer_matrix
from repro.core.solver import SOLVERS, PreparedSolve
from repro.errors import (
    NotTriangularError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import (
    triangle_orientation,
    upper_to_lower_mirror,
)
from repro.gpu.cost import CostModel
from repro.gpu.device import TITAN_RTX_SCALED, DeviceModel
from repro.obs.clock import monotonic
from repro.obs.runtime import Observability
from repro.serve.batch import BatchResult, BucketInfo
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import fingerprints, plan_key, structure_key
from repro.serve.stats import RequestRecord, ServiceStats
from repro.serve.store import PlanStore
from repro.validate.invariants import (
    DEFAULT_RESIDUAL_TOL,
    check_plan,
    check_residual,
)

__all__ = [
    "ServiceConfig",
    "SolveRequest",
    "SolveService",
    "ServiceTimeoutError",
]


class ServiceTimeoutError(ServiceError):
    """A request's deadline expired before its solve could run."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`SolveService`."""

    #: default method for requests that don't name one
    method: str = "recursive-block"
    device: DeviceModel = TITAN_RTX_SCALED
    #: LRU capacity of the prepared-plan cache (patterns, not bytes)
    cache_capacity: int = 32
    #: worker threads executing requests
    max_workers: int = 4
    #: bound on admitted-but-unfinished requests (backpressure)
    queue_limit: int = 256
    #: default per-request deadline in wall seconds (None = no deadline)
    timeout_s: float | None = None
    #: degrade to ``fallback_method`` when the requested planner fails
    fallback: bool = True
    fallback_method: str = "levelset"
    #: request records retained for stats (a ring: oldest dropped
    #: first; lifetime outcome counters stay exact past the cap, while
    #: percentiles describe the retained window — see ServiceStats)
    history_limit: int = 100_000
    #: options forwarded to the default method's constructor
    solver_options: dict = field(default_factory=dict)
    #: verify plan well-formedness after prepare() and the residual
    #: ``‖A x − b‖`` after every solve (raises ValidationError)
    check: bool = False
    #: relative residual tolerance used when ``check`` is on
    check_tol: float = DEFAULT_RESIDUAL_TOL
    #: observability bundle (tracer + metrics) activated around every
    #: request; ``None`` (default) disables instrumentation entirely
    obs: Observability | None = None
    #: shard every solve across this many simulated devices via
    #: :class:`repro.dist.DistributedPlan` (1 = the single-device
    #: compiled path; results are bit-identical either way)
    n_devices: int = 1
    #: placement policy for the sharded executor — any name from
    #: :func:`repro.dist.available_schedulers` (``"eft"``,
    #: ``"lookahead-eft"``, ``"superstep"``, or externally registered)
    scheduler: str = "eft"
    #: dependency-resolution mode the sharded timeline is priced under:
    #: ``"p2p"`` per-edge ready notifications or ``"barrier"``
    #: bulk-synchronous rounds.  Numerics are identical either way.
    sync_mode: str = "p2p"
    #: key the plan cache by sparsity *structure* and rebind values
    #: onto the shared pattern plan; batches additionally fuse
    #: same-pattern requests into one bucket.  False restores the
    #: 1.1-era full-content keying (every distinct values vector pays
    #: a full re-plan) — kept as an ablation/bisection switch.
    structural_batching: bool = True
    #: values overlays retained per cached pattern (LRU)
    overlay_capacity: int = 4
    #: directory of the disk-backed second-level plan store
    #: (:class:`repro.serve.store.PlanStore`): cache misses consult it
    #: before building, successful builds write back asynchronously, and
    #: a restarted service warms from it with zero full pattern builds.
    #: ``None`` (default) disables persistence.
    store_path: str | None = None
    #: a pre-built :class:`PlanStore` to share across services (takes
    #: precedence over ``store_path``; the caller owns its lifecycle)
    store: PlanStore | None = None


@dataclass
class SolveRequest:
    """One unit of work: solve ``A x = b`` (``b`` may be 2D multi-RHS)."""

    A: CSRMatrix
    b: np.ndarray
    method: str | None = None
    #: submitting tenant: flows into spans, request records, the
    #: ``tenant`` label on serve metrics, and SLO policy matching
    tenant: str = "default"


def _malformed_request(pos: int, reason: str) -> ValidationError:
    """The structured error for request ``pos`` of a batch."""
    return ValidationError(
        f"request {pos} of the batch is malformed: {reason}",
        kind="malformed-request",
        detail={"position": pos, "reason": reason},
    )


@dataclass
class _PlanEntry:
    """One executable values overlay: a prepared plan plus provenance."""

    prepared: PreparedSolve
    method: str
    fallback: bool
    #: mirror permutation for upper-triangular inputs (None for lower)
    perm: np.ndarray | None = None
    #: sharded executor when the service runs with n_devices > 1
    dist: object | None = None
    #: simulated preprocessing cost this overlay actually paid (full
    #: plan build for pattern misses, gather-only rebind for values
    #: misses on a cached pattern)
    prep_time_s: float = 0.0


@dataclass
class _GroupJob:
    """One coalesced group: same matrix content, same method."""

    rids: list
    A: CSRMatrix
    bs: list
    method: str | None
    tenant: str = "default"
    fp: str | None = None
    sfp: str | None = None
    vfp: str | None = None
    #: triangle orientation ("L"/"U"/"G"), computed once per request and
    #: threaded through fingerprinting and plan building
    orient: str | None = None
    positions: list = field(default_factory=list)


class _PatternEntry:
    """What the cache stores: a pattern-level plan plus values overlays.

    For *rebindable* patterns the plan was built once on a tracer
    matrix (:func:`repro.core.rebind.tracer_matrix`) and every distinct
    values vector binds onto it with gathers, inheriting the compiled
    step graph, arena pool, and engine decisions.  Patterns whose value
    flow cannot be traced (external prepared types, opaque kernels)
    fall back to one full build per values vector — same cache shape,
    no sharing.
    """

    __slots__ = (
        "method",
        "fallback",
        "perm",
        "requested_method",
        "rebindable",
        "binder",
        "template",
        "template_compiled",
        "template_dist",
        "build_prep_s",
        "rebind_prep_s",
        "overlays",
        "capacity",
        "evict_cb",
        "_lock",
        "_flights",
    )

    def __init__(
        self,
        *,
        method: str,
        fallback: bool,
        perm,
        requested_method: str,
        rebindable: bool,
        binder: PlanRebinder | None,
        template: PreparedSolve | None,
        template_compiled,
        template_dist,
        build_prep_s: float,
        rebind_prep_s: float,
        capacity: int,
        evict_cb=None,
    ) -> None:
        self.method = method
        self.fallback = fallback
        self.perm = perm
        self.requested_method = requested_method
        self.rebindable = rebindable
        self.binder = binder
        self.template = template
        self.template_compiled = template_compiled
        self.template_dist = template_dist
        self.build_prep_s = build_prep_s
        self.rebind_prep_s = rebind_prep_s
        self.overlays: OrderedDict[str, _PlanEntry] = OrderedDict()
        self.capacity = capacity
        self.evict_cb = evict_cb
        self._lock = threading.Lock()
        self._flights: dict[str, threading.Event] = {}

    @property
    def _latest(self) -> _PlanEntry | None:
        """The most recently used overlay (None before the first bind)."""
        with self._lock:
            if not self.overlays:
                return None
            return next(reversed(self.overlays.values()))

    @property
    def prepared(self):
        """Latest overlay's prepared plan — the 1.1-era entry surface."""
        entry = self._latest
        return entry.prepared if entry is not None else None

    @property
    def dist(self):
        """Latest overlay's sharded executor (None for n_devices == 1)."""
        entry = self._latest
        return entry.dist if entry is not None else None

    def _install(self, vfp: str, entry: _PlanEntry) -> None:
        evicted = 0
        with self._lock:
            self.overlays[vfp] = entry
            self.overlays.move_to_end(vfp)
            while len(self.overlays) > self.capacity:
                self.overlays.popitem(last=False)
                evicted += 1
        # Overlay-capacity thrash (the revalued-workload failure mode)
        # must be diagnosable: report evictions to the owning service
        # outside our lock.
        if evicted and self.evict_cb is not None:
            self.evict_cb(evicted)

    def overlay_for(
        self, vfp: str, A: CSRMatrix, service: "SolveService"
    ) -> tuple[_PlanEntry, bool]:
        """The overlay for values digest ``vfp``, single-flight per key.

        Returns ``(entry, values_hit)``; concurrent requests for the
        same values wait for the one in-flight build and count as hits
        (they paid no preprocessing).
        """
        while True:
            with self._lock:
                entry = self.overlays.get(vfp)
                if entry is not None:
                    self.overlays.move_to_end(vfp)
                    return entry, True
                event = self._flights.get(vfp)
                if event is None:
                    event = self._flights[vfp] = threading.Event()
                    building = True
                else:
                    building = False
            if not building:
                event.wait()
                with self._lock:
                    entry = self.overlays.get(vfp)
                if entry is not None:
                    return entry, True
                continue  # the builder failed; this waiter takes over
            try:
                entry = service._build_overlay(self, A)
            except BaseException:
                with self._lock:
                    self._flights.pop(vfp, None)
                event.set()
                raise
            self._install(vfp, entry)
            with self._lock:
                self._flights.pop(vfp, None)
            event.set()
            return entry, False


class SolveService:
    """Concurrent, plan-caching triangular-solve service.

    Parameters mirror :class:`ServiceConfig`; pass either a ``config``
    or keyword overrides::

        svc = SolveService(method="recursive-block", cache_capacity=8)
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        fault_injector=None,
        **overrides,
    ) -> None:
        cfg = config or ServiceConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        if cfg.method not in SOLVERS:
            raise ValueError(
                f"unknown method {cfg.method!r}; choose from {sorted(SOLVERS)}"
            )
        if cfg.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {cfg.n_devices}")
        from repro.dist.schedule import SYNC_MODES, get_scheduler

        get_scheduler(cfg.scheduler)  # unknown names raise ValueError
        if cfg.sync_mode not in SYNC_MODES:
            raise ValueError(
                f"unknown sync_mode {cfg.sync_mode!r}; "
                f"choose from {SYNC_MODES}"
            )
        if cfg.overlay_capacity < 1:
            raise ValueError(
                f"overlay_capacity must be >= 1, got {cfg.overlay_capacity}"
            )
        if cfg.history_limit < 1:
            raise ValueError(
                f"history_limit must be >= 1, got {cfg.history_limit}"
            )
        validate_solver_options(cfg.method, cfg.solver_options)
        self.config = cfg
        self.cache = PlanCache(cfg.cache_capacity)
        if cfg.store is not None:
            self.store: PlanStore | None = cfg.store
            self._owns_store = False
        elif cfg.store_path is not None:
            self.store = PlanStore(cfg.store_path)
            self._owns_store = True
        else:
            self.store = None
            self._owns_store = False
        self._counter_lock = threading.Lock()
        self._overlay_evictions = 0
        self._pattern_builds = 0
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.max_workers, thread_name_prefix="repro-serve"
        )
        self._admission = threading.BoundedSemaphore(cfg.queue_limit)
        self._records: deque[RequestRecord] = deque(maxlen=cfg.history_limit)
        self._records_lock = threading.Lock()
        # Lifetime outcome counters: exact past the retention cap, where
        # the ring above starts dropping its oldest records.
        self._lifetime = {
            "requests": 0, "completed": 0, "failed": 0, "timeouts": 0,
            "shed_expired": 0,
        }
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._rejected = 0
        self._rejected_by_tenant: dict[str, int] = {}
        self._closed = False
        self._fault_injector = fault_injector
        self._obs = cfg.obs

    @property
    def observability(self) -> Observability | None:
        """The bundle currently instrumenting requests (None = off)."""
        return self._obs

    def set_observability(self, obs: Observability | None) -> None:
        """Attach, swap, or (with ``None``) detach telemetry live.

        Requests picked up after the call run under ``obs``; in-flight
        requests finish under the bundle they started with.  Detaching
        restores the obs-off fast path exactly — no spans, no metric
        families touched, one thread-local check per instrumentation
        point — which is what lets a single warmed service A/B its own
        instrumentation cost (see ``benchmarks/bench_obs_overhead.py``).
        """
        self._obs = obs

    def install_fault_injector(self, injector) -> None:
        """Install (or, with ``None``, remove) a fault injector.

        The injector — typically a
        :class:`repro.validate.FaultInjector` — is consulted at two
        hook points: inside plan construction (``before_build``, where a
        raise exercises the fallback path like a real planner failure)
        and after the cache lookup (``before_solve``, where a delay
        deterministically expires deadlines).
        """
        self._fault_injector = injector

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Finish in-flight requests and reject new ones."""
        self._closed = True
        self._pool.shutdown(wait=True)
        if self.store is not None:
            if self._owns_store:
                self.store.close()  # flushes queued write-backs
            else:
                self.store.flush()  # shared store stays open

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _take_ids(self, k: int) -> list[int]:
        with self._id_lock:
            ids = list(range(self._next_id, self._next_id + k))
            self._next_id += k
        return ids

    def _admit(self, tenants: list[str]) -> None:
        """Acquire one admission permit per request, all-or-nothing.

        On overflow every already-acquired permit is released (no
        leaks) and *every* request in the submission is counted as
        rejected under its own tenant — the attribution the shed
        fairness view needs.
        """
        acquired = 0
        for _ in tenants:
            if self._admission.acquire(blocking=False):
                acquired += 1
            else:
                for _ in range(acquired):
                    self._admission.release()
                with self._records_lock:
                    self._rejected += len(tenants)
                    for t in tenants:
                        self._rejected_by_tenant[t] = (
                            self._rejected_by_tenant.get(t, 0) + 1
                        )
                if self._obs is not None:
                    counter = self._obs.serve_metrics.rejected_total
                    for t in set(tenants):
                        counter.inc(tenants.count(t), tenant=t)
                raise ServiceOverloadedError(
                    f"admission queue full ({self.config.queue_limit} in flight); "
                    "retry later or raise queue_limit"
                )

    def _release(self, k: int) -> None:
        for _ in range(k):
            self._admission.release()

    @property
    def admission_available(self) -> int:
        """Free admission permits right now.  Equals
        ``config.queue_limit`` when the service is fully drained — the
        invariant the permit-leak regression tests assert."""
        return self._admission._value

    def _deadline(self, timeout_s: float | None) -> float | None:
        t = self.config.timeout_s if timeout_s is None else timeout_s
        return None if t is None else monotonic() + t

    def submit(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        method: str | None = None,
        timeout_s: float | None = None,
        tenant: str = "default",
    ) -> Future:
        """Enqueue one request; the future resolves to a
        :class:`BatchResult` holding one :class:`SolveResult`
        (``fut.result()[0]`` — the sequence interface is unchanged from
        the old list return).

        Raises :class:`ServiceOverloadedError` when the bounded queue is
        full and :class:`ServiceClosedError` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosedError("service has been shut down")
        self._admit([tenant])
        rid = self._take_ids(1)[0]
        deadline = self._deadline(timeout_s)
        job = _GroupJob(
            rids=[rid], A=A, bs=[np.asarray(b)], method=method,
            tenant=tenant, positions=[0],
        )
        try:
            return self._pool.submit(
                self._run_bucket_task, [job], deadline, monotonic(), True
            )
        except RuntimeError:
            self._release(1)
            raise ServiceClosedError("service has been shut down")

    def solve(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        method: str | None = None,
        timeout_s: float | None = None,
        tenant: str = "default",
    ) -> SolveResult:
        """Synchronous single solve through the full service path."""
        return self.submit(
            A, b, method=method, timeout_s=timeout_s, tenant=tenant
        ).result()[0]

    def solve_batch(
        self,
        requests: list[SolveRequest | tuple],
        *,
        timeout_s: float | None = None,
    ) -> BatchResult:
        """Solve a batch with structural fusion.

        Requests are bucketed by sparsity pattern (structure digest +
        values dtype + method); within a bucket, same-content requests
        coalesce into one fused multi-RHS call, and distinct values
        vectors run back-to-back over the shared pattern plan — the
        second and later groups pay only a values rebind, never a
        re-plan.  Buckets run concurrently.

        ``requests`` items are :class:`SolveRequest` or ``(A, b)``
        tuples.  Returns a :class:`BatchResult` (list-compatible,
        results in request order) carrying per-bucket fusion info.
        A request whose ``A`` is not a readable :class:`CSRMatrix`
        fails the batch with a :class:`ValidationError` of kind
        ``"malformed-request"`` whose ``detail["position"]`` names it.
        """
        if self._closed:
            raise ServiceClosedError("service has been shut down")
        reqs = [
            r if isinstance(r, SolveRequest) else SolveRequest(A=r[0], b=np.asarray(r[1]))
            for r in requests
        ]
        if not reqs:
            return BatchResult([])
        # A malformed request fails the whole batch, naming its position,
        # and the batch leaves every admission permit free.
        for pos, r in enumerate(reqs):
            if not isinstance(r.A, CSRMatrix):
                raise _malformed_request(
                    pos, f"A must be a CSRMatrix, got {type(r.A).__name__}"
                )
        t_batch = monotonic()
        self._admit([r.tenant for r in reqs])
        deadline = self._deadline(timeout_s)
        structural = self.config.structural_batching
        # One structure scan per request: the orientation feeds both the
        # fingerprint's triangle tag and the mirror decision at build
        # time (previously re-scanned O(nnz) inside each).
        # Two passes, scans then digests: interleaving them made the
        # scans slower.
        orients: list[str] = []
        fps: list[tuple[str, str, str]] = []
        try:
            for r in reqs:
                orients.append(triangle_orientation(r.A))
            for r, orient in zip(reqs, orients):
                fps.append(fingerprints(r.A, orientation=orient))
        except Exception as exc:
            self._release(len(reqs))
            pos = len(orients) if len(orients) < len(reqs) else len(fps)
            raise _malformed_request(
                pos, f"{type(exc).__name__}: {exc}"
            ) from exc
        ids = self._take_ids(len(reqs))
        # Bucket by pattern (or by full content when structural batching
        # is off) and tenant — buckets stay tenant-homogeneous so every
        # per-bucket observation carries one attribution label;
        # coalesce same-content requests into one group each.
        buckets: dict[tuple, dict[str, _GroupJob]] = {}
        for pos, (r, (full, sfp, vfp)) in enumerate(zip(reqs, fps)):
            if structural:
                bkey = (sfp, str(r.A.data.dtype), r.method, r.tenant)
            else:
                bkey = (full, None, r.method, r.tenant)
            groups = buckets.setdefault(bkey, {})
            job = groups.get(full)
            if job is None:
                job = groups[full] = _GroupJob(
                    rids=[], A=r.A, bs=[], method=r.method, tenant=r.tenant,
                    fp=full, sfp=sfp, vfp=vfp, orient=orients[pos],
                )
            job.rids.append(ids[pos])
            job.bs.append(np.asarray(r.b))
            job.positions.append(pos)
        futures: list[tuple[list[int], Future]] = []
        submitted = 0
        submitted_at = monotonic()
        try:
            for bkey, groups in buckets.items():
                jobs = list(groups.values())
                positions = [p for j in jobs for p in j.positions]
                fut = self._pool.submit(
                    self._run_bucket_task, jobs, deadline, submitted_at, False
                )
                submitted += len(positions)
                futures.append((positions, fut))
        except RuntimeError:
            self._release(len(reqs) - submitted)
            raise ServiceClosedError("service has been shut down")
        out: list[SolveResult | None] = [None] * len(reqs)
        infos: list[BucketInfo] = []
        pending_error: Exception | None = None
        for positions, fut in futures:
            try:
                results, info = fut.result()
            except Exception as exc:  # noqa: BLE001 - propagate after draining
                pending_error = exc
                continue
            infos.append(info)
            for pos, res in zip(positions, results):
                out[pos] = res
        if pending_error is not None:
            raise pending_error
        return BatchResult(out, infos, monotonic() - t_batch)

    # ------------------------------------------------------------------ #
    # Execution (worker threads)
    # ------------------------------------------------------------------ #
    def _record(self, rec: RequestRecord) -> None:
        with self._records_lock:
            self._records.append(rec)
            life = self._lifetime
            life["requests"] += 1
            if rec.timed_out:
                life["timeouts"] += 1
                if rec.shed_expired:
                    life["shed_expired"] += 1
            elif rec.error is not None:
                life["failed"] += 1
            else:
                life["completed"] += 1

    def _attach_dist(self, prepared, template=None) -> object | None:
        """The sharded executor for ``prepared`` when the service is
        configured with more than one device."""
        if self.config.n_devices <= 1 or not isinstance(prepared, PreparedSolve):
            return None
        from repro.dist import DistributedPlan

        return DistributedPlan.from_prepared(
            prepared,
            self.config.n_devices,
            template=template,
            scheduler=self.config.scheduler,
            sync=self.config.sync_mode,
        )

    def _build_entry(
        self, A: CSRMatrix, method: str, orientation: str | None = None
    ) -> _PlanEntry:
        """Prepare a plan, mirroring upper systems and degrading on failure.

        ``orientation`` is the request's precomputed triangle tag; when
        absent one O(nnz) structure scan runs here (the fingerprint path
        always passes it, so hot requests never rescan)."""
        orient = (
            orientation if orientation is not None else triangle_orientation(A)
        )
        if orient == "L":
            L, perm = A, None
        elif orient == "U":
            L, perm = upper_to_lower_mirror(A.sort_indices())
        else:
            raise NotTriangularError(
                "matrix is neither lower- nor upper-triangular; use "
                "repro.lower_triangular_from to prepare it first"
            )
        options = self.config.solver_options if method == self.config.method else {}
        try:
            validate_solver_options(method, options)
            solver = SOLVERS[method](device=self.config.device, **options)
            if self._fault_injector is not None:
                self._fault_injector.before_build(method)
            prepared = solver.prepare(L)
            if self.config.check and getattr(prepared, "plan", None) is not None:
                check_plan(prepared.plan, L, context=f"service:{method}")
            # Compile at cache-insert time: every later hit (and every
            # coalesced batch) lands on the zero-allocation executor.
            if isinstance(prepared, PreparedSolve):
                prepared._compile_quiet()
            return _PlanEntry(
                prepared=prepared, method=method, fallback=False,
                perm=perm, dist=self._attach_dist(prepared),
                prep_time_s=getattr(prepared, "preprocessing_time_s", 0.0),
            )
        except NotTriangularError:
            raise
        except Exception:
            if not self.config.fallback or method == self.config.fallback_method:
                raise
            solver = SOLVERS[self.config.fallback_method](device=self.config.device)
            prepared = solver.prepare(L)
            if self.config.check and getattr(prepared, "plan", None) is not None:
                check_plan(
                    prepared.plan, L,
                    context=f"service:{self.config.fallback_method} (fallback)",
                )
            if isinstance(prepared, PreparedSolve):
                prepared._compile_quiet()
            return _PlanEntry(
                prepared=prepared,
                method=self.config.fallback_method,
                fallback=True,
                perm=perm,
                dist=self._attach_dist(prepared),
                prep_time_s=getattr(prepared, "preprocessing_time_s", 0.0),
            )

    def _rebind_cost(self, A: CSRMatrix) -> float:
        """Simulated cost of a values rebind: one pass reading the new
        data array and writing the gathered copies (vs the 5-10x-solve
        cost of a full plan build, Table 5)."""
        cost = CostModel(self.config.device)
        return cost.launch_time() + cost.stream_time(
            2.0 * A.nnz * A.data.itemsize
        )

    def _build_pattern(
        self,
        A: CSRMatrix,
        method: str,
        vfp: str,
        orientation: str | None = None,
    ) -> _PatternEntry:
        """Build the pattern-level cache entry (runs under the cache's
        single-flight lock), installing ``A``'s values as the first
        overlay so the building request never binds twice."""
        cfg = self.config
        with self._counter_lock:
            self._pattern_builds += 1
        if cfg.structural_batching:
            try:
                tracer = tracer_matrix(A)
                entry_t = self._build_entry(tracer, method, orientation)
                prepared_t = entry_t.prepared
                # Exact type, not isinstance: a subclass may override
                # solve() with behavior a rebound plain PreparedSolve
                # would silently drop (e.g. the fuzzer's sign-flip canary).
                if type(prepared_t) is not PreparedSolve:
                    raise RebindError(
                        f"external prepared type {type(prepared_t).__qualname__}"
                    )
                binder = PlanRebinder(prepared_t.plan, A.nnz, A.data.dtype)
                pattern = _PatternEntry(
                    method=entry_t.method,
                    fallback=entry_t.fallback,
                    perm=entry_t.perm,
                    requested_method=method,
                    rebindable=True,
                    binder=binder,
                    template=prepared_t,
                    template_compiled=prepared_t._compile_quiet(),
                    template_dist=entry_t.dist,
                    build_prep_s=entry_t.prep_time_s,
                    rebind_prep_s=self._rebind_cost(A),
                    capacity=cfg.overlay_capacity,
                    evict_cb=self._overlay_evicted,
                )
                # The first values variant pays the full (simulated)
                # plan-build cost; later variants pay only the rebind.
                first = self._build_overlay(
                    pattern, A, prep_time_s=pattern.build_prep_s
                )
                pattern._install(vfp, first)
                return pattern
            except RebindError:
                pass  # untraceable value flow: full builds per values
        entry = self._build_entry(A, method, orientation)
        pattern = _PatternEntry(
            method=entry.method,
            fallback=entry.fallback,
            perm=entry.perm,
            requested_method=method,
            rebindable=False,
            binder=None,
            template=None,
            template_compiled=None,
            template_dist=None,
            build_prep_s=entry.prep_time_s,
            rebind_prep_s=0.0,
            capacity=cfg.overlay_capacity,
            evict_cb=self._overlay_evicted,
        )
        pattern._install(vfp, entry)
        return pattern

    def _overlay_evicted(self, n: int) -> None:
        """Count values overlays dropped under ``overlay_capacity``."""
        with self._counter_lock:
            self._overlay_evictions += n
        obs = self._obs
        if obs is not None:
            obs.serve_metrics.overlay_evictions.inc(n)

    # ------------------------------------------------------------------ #
    # Disk warm tier (repro.serve.store)
    # ------------------------------------------------------------------ #
    def _load_pattern(
        self,
        key: tuple,
        job: _GroupJob,
        method: str,
        obs: Observability | None,
    ) -> _PatternEntry | None:
        """Reconstruct a pattern entry from the disk store, or ``None``.

        Every failure mode — damaged bytes, version drift, a stale
        fingerprint, a payload that no longer reconstructs — degrades to
        ``None`` (a counted miss, so the caller falls through to a cold
        build); nothing propagates to the request.
        """
        cfg = self.config
        A = job.A
        expect = {
            "kind": "pattern",
            "structure_fp": job.sfp,
            "dtype": str(A.data.dtype),
            "method": method,
            "device": cfg.device.name,
        }
        if obs is not None:
            with obs.span("serve.store.load", method=method) as sp:
                result, loaded = self.store.lookup(key, expect=expect)
                pattern = self._reconstruct(loaded, key, job)
                if loaded is not None and pattern is None:
                    result = "corrupt"
                sp.set(result=result)
        else:
            result, loaded = self.store.lookup(key, expect=expect)
            pattern = self._reconstruct(loaded, key, job)
            if loaded is not None and pattern is None:
                result = "corrupt"
        if obs is not None:
            obs.serve_metrics.store_lookups.inc(result=result)
        return pattern

    def _reconstruct(
        self, loaded, key: tuple, job: _GroupJob
    ) -> _PatternEntry | None:
        if loaded is None:
            return None
        try:
            header, payload = loaded
            pattern = self._pattern_from_payload(payload)
            # Bind the *incoming* values as the first overlay: a warm
            # start pays one gather-rebind, never the Table 5 analysis.
            first = self._build_overlay(pattern, job.A)
            pattern._install(job.vfp, first)
            if header.get("values_fp") == job.vfp:
                # Identical value bytes to the entry's writer: adopt its
                # verified engine verdicts instead of re-probing them.
                compiled = first.prepared._compiled
                steps = getattr(compiled, "_steps", None) or []
                for idx, dec in enumerate(
                    payload.get("engine_decisions") or []
                ):
                    if not dec or idx >= len(steps):
                        continue
                    trust = getattr(steps[idx], "_trust_engine", None)
                    if callable(trust):
                        for dt, keep in dec.items():
                            if keep:
                                trust(np.dtype(dt))
        except Exception:  # noqa: BLE001 - stale payload = counted miss
            self.store.count_corrupt(key)
            return None
        return pattern

    def _pattern_from_payload(self, payload: dict) -> _PatternEntry:
        """A live :class:`_PatternEntry` from a deserialized payload.

        Only the pure-data artifacts were persisted (the template
        :class:`ExecutionPlan`, its preprocess report, the mirror perm,
        the :class:`DistSchedule`); the compiled step graph, the
        rebinder's position maps, and the sharded executor are rebuilt
        here — cheap derivations compared to the planning they encode.
        """
        cfg = self.config
        if payload.get("kind") != "pattern" or not payload.get("rebindable"):
            raise ValueError("not a rebindable pattern payload")
        plan = payload["template_plan"]
        dtype = np.dtype(payload["dtype"])
        binder = PlanRebinder(plan, int(payload["nnz"]), dtype)
        prepared_t = PreparedSolve(
            payload["method"], plan, cfg.device, payload["preprocess_report"]
        )
        # Captured reports ride along in the payload: injecting them
        # skips the compile-time probe solve, the same way values
        # overlays inherit them from the pattern template in-process.
        template_compiled = None
        frozen = payload.get("frozen_reports")
        if frozen is not None:
            try:
                template_compiled = compile_plan(
                    plan, cfg.device, frozen=tuple(frozen)
                )
                prepared_t._compiled = template_compiled
            except Exception:  # noqa: BLE001 - fall back to a fresh probe
                template_compiled = None
        if template_compiled is None:
            template_compiled = prepared_t._compile_quiet()
        if template_compiled is not None:
            for idx, dec in enumerate(payload.get("engine_decisions") or []):
                if not dec or idx >= len(template_compiled._steps):
                    continue
                seed = getattr(
                    template_compiled._steps[idx], "_seed_engine", None
                )
                if callable(seed):
                    for dt, keep in dec.items():
                        seed(np.dtype(dt), bool(keep))
        template_dist = None
        if cfg.n_devices > 1:
            sched = payload.get("dist_schedule")
            if payload.get("dist_n_devices") != cfg.n_devices:
                sched = None
            from repro.dist import DistributedPlan

            # the executor itself re-checks scheduler/sync against the
            # persisted schedule's stamps and recomputes on mismatch
            template_dist = DistributedPlan.from_prepared(
                prepared_t,
                cfg.n_devices,
                schedule=sched,
                scheduler=cfg.scheduler,
                sync=cfg.sync_mode,
            )
        return _PatternEntry(
            method=payload["method"],
            fallback=bool(payload.get("fallback", False)),
            perm=payload.get("perm"),
            requested_method=payload.get(
                "requested_method", payload["method"]
            ),
            rebindable=True,
            binder=binder,
            template=prepared_t,
            template_compiled=template_compiled,
            template_dist=template_dist,
            build_prep_s=float(payload.get("build_prep_s", 0.0)),
            rebind_prep_s=float(payload.get("rebind_prep_s", 0.0)),
            capacity=cfg.overlay_capacity,
            evict_cb=self._overlay_evicted,
        )

    def _persist_pattern(
        self,
        key: tuple,
        job: _GroupJob,
        method: str,
        pattern: _PatternEntry,
        obs: Observability | None,
    ) -> None:
        """Write a freshly built pattern back to the store.

        Encoding runs here (the plan objects must be captured before
        later solves touch their cost caches); the disk write happens on
        the store's background writer.  Non-rebindable patterns carry
        per-values state that cannot warm another process, so they are
        counted as skipped instead of written.
        """
        cfg = self.config
        if not pattern.rebindable or pattern.template is None:
            self.store.count_skipped()
            return
        A = job.A
        payload = {
            "kind": "pattern",
            "rebindable": True,
            "method": pattern.method,
            "requested_method": pattern.requested_method,
            "fallback": pattern.fallback,
            "perm": pattern.perm,
            "template_plan": pattern.template.plan,
            "preprocess_report": pattern.template.preprocess_report,
            "nnz": int(pattern.binder.nnz),
            "dtype": str(pattern.binder.dtype),
            "build_prep_s": pattern.build_prep_s,
            "rebind_prep_s": pattern.rebind_prep_s,
            "engine_decisions": self._engine_decisions(
                pattern, pattern.binder.dtype
            ),
            "frozen_reports": (
                (
                    pattern.template_compiled._frozen,
                    pattern.template_compiled._merged,
                )
                if pattern.template_compiled is not None
                and pattern.template_compiled.pure
                else None
            ),
            "dist_n_devices": cfg.n_devices,
            "dist_schedule": (
                pattern.template_dist.schedule
                if pattern.template_dist is not None
                else None
            ),
        }
        header = {
            "kind": "pattern",
            "structure_fp": job.sfp,
            "values_fp": job.vfp,
            "dtype": str(A.data.dtype),
            "method": method,
            "device": cfg.device.name,
            "n": A.n_rows,
            "nnz": A.nnz,
        }
        if obs is not None:
            with obs.span("serve.store.write", method=method):
                self.store.put(key, header, payload)
            obs.serve_metrics.store_writes.inc()
        else:
            self.store.put(key, header, payload)

    def _engine_decisions(self, pattern: _PatternEntry, dtype) -> list:
        """Resolve and capture the compiled template's per-segment numeric
        engine choices for ``dtype``.

        The keep-or-drop decision includes a *timed* probe (engine vs
        kernel); re-running that race in a loading process could flip
        the winner and break loaded-vs-built bit identity, so the
        writing process resolves it now and ships the verdicts.
        """
        compiled = pattern.template_compiled
        if compiled is None:
            return []
        dt = np.dtype(dtype)
        out: list = []
        for step in compiled._steps:
            resolve = getattr(step, "_engine_for", None)
            if getattr(step, "try_engine", False) and callable(resolve):
                try:
                    engine = resolve(dt)
                except Exception:  # noqa: BLE001 - probe failure = kernel path
                    engine = None
                out.append({str(dt): engine is not None})
            else:
                out.append(None)
        return out

    def _build_overlay(
        self, pattern: _PatternEntry, A: CSRMatrix, *, prep_time_s: float | None = None
    ) -> _PlanEntry:
        """Bind ``A``'s values onto the pattern plan (or, for patterns
        that could not be traced, run a full per-values build)."""
        if not pattern.rebindable:
            return self._build_entry(A, pattern.requested_method)
        cfg = self.config
        plan = pattern.binder.bind(A.data)
        prepared = PreparedSolve(
            pattern.method,
            plan,
            cfg.device,
            pattern.template.preprocess_report,
        )
        prepared._compile_shared(pattern.template_compiled)
        if cfg.check:
            L = (
                A
                if pattern.perm is None
                else upper_to_lower_mirror(A.sort_indices())[0]
            )
            check_plan(plan, L, context=f"service:{pattern.method} (rebound)")
        return _PlanEntry(
            prepared=prepared,
            method=pattern.method,
            fallback=pattern.fallback,
            perm=pattern.perm,
            dist=self._attach_dist(prepared, template=pattern.template_dist),
            prep_time_s=(
                pattern.rebind_prep_s if prep_time_s is None else prep_time_s
            ),
        )

    def _check_deadline(self, deadline: float | None) -> None:
        if deadline is not None and monotonic() > deadline:
            raise ServiceTimeoutError("request deadline expired")

    # ------------------------------------------------------------------ #
    # Bucket execution
    # ------------------------------------------------------------------ #
    def _run_bucket_task(
        self,
        jobs: list[_GroupJob],
        deadline: float | None,
        submitted_at: float | None,
        as_batch: bool,
    ):
        """Worker-thread entry for one structural bucket: activate
        observability (when configured), run every values-group over the
        shared pattern plan, then release admissions for the bucket."""
        t0 = monotonic()
        total = sum(len(j.rids) for j in jobs)
        fused = len(jobs) > 1
        obs = self._obs
        tenant = jobs[0].tenant  # buckets are tenant-homogeneous
        qwait = None if submitted_at is None else max(0.0, t0 - submitted_at)
        try:
            if obs is None:
                results, errors, pattern_hit = self._run_bucket_inner(
                    jobs, deadline, t0, None, submitted_at, fused, qwait
                )
            else:
                with obs.activate():
                    if fused:
                        with obs.span(
                            "serve.bucket",
                            method=jobs[0].method or self.config.method,
                            tenant=tenant,
                            n_groups=len(jobs),
                            n_requests=total,
                        ):
                            if submitted_at is not None:
                                obs.tracer.record_span(
                                    "serve.queue_wait", submitted_at, t0
                                )
                                obs.serve_metrics.queue_wait.observe(
                                    qwait, tenant=tenant
                                )
                            results, errors, pattern_hit = self._run_bucket_inner(
                                jobs, deadline, t0, obs, None, fused, qwait
                            )
                    else:
                        results, errors, pattern_hit = self._run_bucket_inner(
                            jobs, deadline, t0, obs, submitted_at, fused, qwait
                        )
                    metrics = obs.serve_metrics
                    metrics.batch_bucket_occupancy.observe(float(total))
                    if fused:
                        metrics.batch_fused_total.inc()
        finally:
            self._release(total)
        if errors:
            raise errors[0]
        info = BucketInfo(
            structure=jobs[0].sfp if self.config.structural_batching else None,
            method=jobs[0].method or self.config.method,
            tenant=tenant,
            n_requests=total,
            n_groups=len(jobs),
            n_rhs=sum(
                1 if b.ndim == 1 else b.shape[1] for j in jobs for b in j.bs
            ),
            fused=fused,
            pattern_hit=pattern_hit,
            wall_time_s=monotonic() - t0,
        )
        if as_batch:
            return BatchResult(results, [info], monotonic() - t0)
        return results, info

    def _run_bucket_inner(
        self,
        jobs: list[_GroupJob],
        deadline: float | None,
        t0: float,
        obs: Observability | None,
        submitted_at: float | None,
        fused: bool,
        qwait: float | None = None,
    ):
        """Run the bucket's groups sequentially over the shared pattern
        plan; a failing group doesn't stop the remaining ones."""
        results: list[SolveResult] = []
        errors: list[Exception] = []
        pattern_hit = False
        bucket_n = len(jobs)
        for job in jobs:
            try:
                if obs is None:
                    group_results, p_hit = self._run_group_inner(
                        job, deadline, None, t0, fused, bucket_n, qwait
                    )
                else:
                    metrics = obs.serve_metrics
                    with obs.span(
                        "serve.request",
                        method=job.method or self.config.method,
                        tenant=job.tenant,
                        coalesced=len(job.rids),
                    ) as req_span:
                        if submitted_at is not None:
                            obs.tracer.record_span(
                                "serve.queue_wait", submitted_at, t0
                            )
                            metrics.queue_wait.observe(
                                max(0.0, t0 - submitted_at), tenant=job.tenant
                            )
                            submitted_at = None
                        try:
                            group_results, p_hit = self._run_group_inner(
                                job, deadline, obs, t0, fused, bucket_n, qwait
                            )
                        except ServiceTimeoutError:
                            metrics.requests_total.inc(
                                len(job.rids), status="timeout",
                                tenant=job.tenant,
                            )
                            self._note_failure(
                                obs, job, req_span, t0, qwait, "timeout"
                            )
                            raise
                        except Exception:
                            metrics.requests_total.inc(
                                len(job.rids), status="error",
                                tenant=job.tenant,
                            )
                            self._note_failure(
                                obs, job, req_span, t0, qwait, "error"
                            )
                            raise
                results.extend(group_results)
                pattern_hit = pattern_hit or p_hit
            except Exception as exc:  # noqa: BLE001 - collected, first re-raised
                errors.append(exc)
        return results, errors, pattern_hit

    def _note_failure(
        self,
        obs: Observability,
        job: _GroupJob,
        req_span,
        t0: float,
        qwait: float | None,
        outcome: str,
    ) -> None:
        """Feed a failed group to the recorder + SLO engine, then dump
        the flight recorder for the incident (bounded by its cap)."""
        wall = monotonic() - t0
        tid = req_span.trace_id if req_span is not None else None
        for _ in job.rids:
            obs.note_request(
                tenant=job.tenant,
                fingerprint=job.fp,
                method=job.method or self.config.method,
                queue_wait_s=qwait,
                wall_s=wall,
                outcome=outcome,
                trace_id=tid,
            )
        obs.note_incident(outcome, trace_id=tid)

    def _run_group_inner(
        self,
        job: _GroupJob,
        deadline: float | None,
        obs: Observability | None,
        t0: float,
        fused: bool,
        bucket_n: int,
        qwait: float | None = None,
    ) -> tuple[list[SolveResult], bool]:
        cfg = self.config
        A = job.A
        # read defensively: a malformed A (not a CSRMatrix) must still
        # leave its failure records behind
        n, nnz = getattr(A, "n_rows", 0), getattr(A, "nnz", 0)
        method = job.method or cfg.method
        coalesced = len(job.rids)
        n_dev = cfg.n_devices
        dev_label = "0" if n_dev == 1 else f"0-{n_dev - 1}"
        ncols = [1 if b.ndim == 1 else b.shape[1] for b in job.bs]
        if deadline is not None and monotonic() > deadline:
            # The deadline expired while the request sat in queue: shed
            # it *now*, before paying the fingerprint, cache lookup, and
            # solve it can no longer use.  Recorded as shed_expired — a
            # sub-category of timeouts distinct from mid-solve expiry
            # (the queue wait was already measured by the caller).
            wall = monotonic() - t0
            for rid, k in zip(job.rids, ncols):
                self._record(RequestRecord(
                    request_id=rid, fingerprint=job.fp or "", method=method,
                    n=n, nnz=nnz, n_rhs=k, tenant=job.tenant,
                    coalesced=coalesced, fused=fused, bucket=bucket_n,
                    wall_time_s=wall, device=dev_label,
                    timed_out=True, shed_expired=True,
                ))
            if obs is not None:
                obs.serve_metrics.ingress_sheds.inc(
                    len(job.rids), reason="expired", tenant=job.tenant
                )
            raise ServiceTimeoutError(
                "request deadline expired while queued (shed before solve)"
            )
        trace_id: int | None = None

        def fail_records(error: str | None, timed_out: bool = False) -> None:
            wall = monotonic() - t0
            for rid, k in zip(job.rids, ncols):
                self._record(RequestRecord(
                    request_id=rid, fingerprint=job.fp or "", method=method,
                    n=n, nnz=nnz, n_rhs=k, tenant=job.tenant,
                    coalesced=coalesced,
                    fused=fused, bucket=bucket_n,
                    wall_time_s=wall, device=dev_label,
                    trace_id=trace_id,
                    error=error, timed_out=timed_out,
                ))

        try:
            if job.fp is None:  # submit path: fingerprints not yet computed
                job.orient = triangle_orientation(A)
                job.fp, job.sfp, job.vfp = fingerprints(
                    A, orientation=job.orient
                )
            fp = job.fp
            if obs is not None:
                current = obs.tracer.current()
                if current is not None:
                    current.set(fingerprint=fp, n=n, nnz=nnz,
                                n_rhs=sum(ncols))
                    trace_id = current.trace_id
            if method not in SOLVERS:
                raise ValueError(
                    f"unknown method {method!r}; choose from {sorted(SOLVERS)}"
                )
            self._check_deadline(deadline)
            options = cfg.solver_options if method == cfg.method else {}
            if cfg.structural_batching:
                key = structure_key(
                    job.sfp, method, cfg.device, options, A.data.dtype
                )
            else:
                key = plan_key(fp, method, cfg.device, options)
            vfp = job.vfp
            from_store: list = []

            def build() -> _PatternEntry:
                # Cache miss: the disk warm tier is consulted before the
                # cold build; a loaded pattern skips the Table 5 analysis
                # entirely, a fresh build is written back asynchronously.
                if self.store is not None:
                    loaded = self._load_pattern(key, job, method, obs)
                    if loaded is not None:
                        from_store.append(True)
                        return loaded
                pattern = self._build_pattern(A, method, vfp, job.orient)
                if self.store is not None:
                    self._persist_pattern(key, job, method, pattern, obs)
                return pattern

            if obs is None:
                pattern, p_hit = self.cache.get_or_build(key, build)
                entry, v_hit = pattern.overlay_for(vfp, A, self)
                hit = p_hit and v_hit
            else:
                with obs.span("serve.cache_lookup", method=method) as sp:
                    pattern, p_hit = self.cache.get_or_build(key, build)
                    entry, v_hit = pattern.overlay_for(vfp, A, self)
                    hit = p_hit and v_hit
                    sp.set(
                        result="hit" if hit else "miss",
                        pattern="hit" if p_hit else "miss",
                    )
                obs.serve_metrics.cache_lookups.inc(
                    result="hit" if hit else "miss"
                )
            if self._fault_injector is not None:
                self._fault_injector.before_solve(entry.method)
            # The plan (possibly just built and cached) survives a
            # deadline miss — the next request amortizes it anyway.
            self._check_deadline(deadline)

            cols = [b[:, None] if b.ndim == 1 else b for b in job.bs]
            B0 = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)
            B = B0 if entry.perm is None else B0[entry.perm]
            total = B.shape[1]
            executor = entry.dist if entry.dist is not None else entry.prepared
            if obs is None:
                if total == 1:
                    y, report = executor.solve(B[:, 0])
                    Y = y[:, None]
                else:
                    Y, report = executor.solve_multi(B)
            else:
                with obs.span(
                    "serve.solve", method=entry.method, n_rhs=total,
                    n_devices=cfg.n_devices,
                ) as sp:
                    if total == 1:
                        y, report = executor.solve(B[:, 0])
                        Y = y[:, None]
                    else:
                        Y, report = executor.solve_multi(B)
                    sp.set(sim_time_s=report.time_s, launches=report.launches)
            if entry.perm is not None:
                X = np.empty_like(Y)
                X[entry.perm] = Y
            else:
                X = Y
            if cfg.check:
                check_residual(
                    A, X, B0, tol=cfg.check_tol,
                    context=f"service:{entry.method}",
                )

            wall = monotonic() - t0
            prep_s = 0.0 if hit else entry.prep_time_s
            results: list[SolveResult] = []
            col = 0
            for rid, b, k in zip(job.rids, job.bs, ncols):
                share = (
                    report if total == k
                    else report.scaled(k / total, coalesced=coalesced)
                )
                x = X[:, col] if b.ndim == 1 else X[:, col:col + k]
                col += k
                results.append(SolveResult(
                    x=x, report=share, method=entry.method,
                    cache_hit=hit, fallback=entry.fallback,
                ))
                self._record(RequestRecord(
                    request_id=rid, fingerprint=fp, method=entry.method,
                    n=n, nnz=nnz, n_rhs=k, tenant=job.tenant,
                    cache_hit=hit,
                    pattern_hit=p_hit, store_hit=bool(from_store),
                    fallback=entry.fallback,
                    coalesced=coalesced, fused=fused, bucket=bucket_n,
                    prep_time_s=prep_s, solve_time_s=share.time_s,
                    launches=share.launches, gflops=share.gflops,
                    wall_time_s=wall, device=dev_label,
                    trace_id=trace_id,
                ))
                if obs is not None:
                    metrics = obs.serve_metrics
                    sim_s = prep_s + share.time_s
                    metrics.requests_total.inc(
                        status="ok", tenant=job.tenant
                    )
                    metrics.request_latency.observe(
                        wall, exemplar=trace_id, tenant=job.tenant
                    )
                    metrics.sim_latency.observe(
                        sim_s, exemplar=trace_id, tenant=job.tenant
                    )
                    if entry.fallback:
                        metrics.fallbacks_total.inc()
                    obs.note_request(
                        tenant=job.tenant,
                        fingerprint=fp,
                        method=entry.method,
                        queue_wait_s=qwait,
                        wall_s=wall,
                        sim_s=sim_s,
                        digest=(
                            f"{share.launches}l/"
                            f"{len(getattr(share, 'kernels', ()) or ())}k"
                        ),
                        outcome="ok",
                        trace_id=trace_id,
                    )
            return results, p_hit
        except ServiceTimeoutError:
            fail_records(None, timed_out=True)
            raise
        except Exception as exc:
            fail_records(f"{type(exc).__name__}: {exc}")
            raise

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def records(self) -> list[RequestRecord]:
        """Copy of the retained per-request records (oldest first)."""
        with self._records_lock:
            return list(self._records)

    def stats(self) -> ServiceStats:
        """Aggregate snapshot over retained records + cache/store counters."""
        with self._records_lock:
            records = list(self._records)
            rejected = self._rejected
            rejected_by_tenant = dict(self._rejected_by_tenant)
            lifetime = dict(self._lifetime)
        with self._counter_lock:
            overlay_evictions = self._overlay_evictions
            pattern_builds = self._pattern_builds
        return ServiceStats.from_records(
            records,
            self.cache.stats(),
            rejected=rejected,
            rejected_by_tenant=rejected_by_tenant,
            store=self.store.stats() if self.store is not None else None,
            overlay_evictions=overlay_evictions,
            pattern_builds=pattern_builds,
            lifetime=lifetime,
        )
