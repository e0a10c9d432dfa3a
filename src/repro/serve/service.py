"""`SolveService`: a plan-caching, structurally-batching solve front end.

The paper's Table 5 argument — preprocessing is paid once and amortized
over many solves — is exactly the access pattern of a triangular-solve
*service*: ILU-preconditioned Krylov loops and repeated right-hand-side
streams hit the same factor over and over.  This module packages that
economy behind one object:

* every request is solved from the service's own copy of its matrix
  and right-hand side, taken at admission (callers may reuse their
  buffers as soon as ``submit`` returns);
* incoming CSR matrices are fingerprinted at two levels
  (:func:`structure_fingerprint` / :func:`values_fingerprint`): the
  expensive artifacts — segment layout, level schedules, compiled step
  graph, distributed schedule — are cached per *pattern*, and each
  distinct values vector is bound onto the pattern's one compiled plan
  as an overlay: the few arrays a handful of ``data[posmap]`` gathers
  produce (:class:`repro.core.rebind.PlanRebinder`), with no new plan,
  step or executor object;
* same-matrix requests inside a batch are coalesced into one fused
  ``solve_multi`` call, and same-*pattern* requests are bucketed into
  one fused structural batch that runs all values-groups over the
  shared pattern plan (continuous batching for SpTRSV);
* :meth:`SolveService.solve` and :meth:`SolveService.solve_batch` run
  on the caller's own thread (a batch runs its buckets one after
  another); ``submit`` and the async ingress hand their buckets to a
  thread pool; both paths sit behind one bounded admission queue, with
  per-request deadlines;
* a planner failure degrades gracefully to the level-set baseline and
  is recorded as a fallback;
* every admitted request emits exactly one :class:`RequestRecord`, on
  every exit — solved, failed, timed out mid-solve, shed at pickup,
  interrupted, or kept from running by an interrupt — and with a bundle
  attached its metric samples, recorder frame and SLO evaluation derive
  from that record; :meth:`SolveService.stats` aggregates the records
  into a :class:`ServiceStats` snapshot.

>>> with SolveService(max_workers=4, cache_capacity=16) as svc:
...     r = svc.solve(L, b)                 # miss: prepares, caches
...     r2 = svc.solve(L, b2)               # hit: plan reused
...     print(r2.cache_hit, svc.stats().hit_speedup)
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.api import SolveResult, validate_solver_options
from repro.core.executor import Overlay, StoredTri, compile_plan
from repro.core.plan import ExecutionPlan, SpMVSegment, TriSegment
from repro.core.rebind import (
    PlanRebinder,
    RebindError,
    check_stored,
    stored_layout,
    tracer_matrix,
)
from repro.core.solver import SOLVERS, PreparedSolve
from repro.errors import (
    NotTriangularError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShapeMismatchError,
    SparseFormatError,
    ValidationError,
)
from repro.formats.csr import INDEX_DTYPE, INDPTR_DTYPE, CSRMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.formats.triangular import (
    triangle_orientation,
    upper_to_lower_mirror,
)
from repro.gpu.cost import CostModel
from repro.gpu.device import TITAN_RTX_SCALED, DeviceModel
from repro.gpu.report import KernelReport, SolveReport
from repro.kernels import SPMV_KERNELS, SPTRSV_KERNELS
from repro.kernels.sptrsv_serial import SerialKernel
from repro.obs.clock import monotonic
from repro.obs.runtime import _NULL_CM, Observability
from repro.serve.batch import BatchResult, BucketInfo
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import (
    fingerprints,
    pattern_key,
    plan_key,
    plan_spec,
)
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


#: the triangular kernels a plan-store entry may name
_TRI_KERNELS = {**SPTRSV_KERNELS, SerialKernel.name: SerialKernel}

#: the attributes each serve span opens with, in the order :func:`_span`
#: takes their values
_SPAN_ATTRS = {
    "serve.bucket": ("method", "tenant", "n_groups", "n_requests"),
    "serve.request": ("method", "tenant", "coalesced"),
    "serve.cache_lookup": ("method",),
    "serve.solve": ("method", "n_rhs", "n_devices"),
    "serve.store.load": ("method",),
    "serve.store.write": ("method",),
}

#: what a request that ran no solve reports: no simulated time, no launches
_NO_REPORT = SolveReport("", 0.0, 0.0, 0)

#: the lifetime counter of each terminal status
_LIFETIME = {"ok": "completed", "timeout": "timeouts", "error": "failed"}


def _span(obs: Observability | None, name: str, *values):
    """Span ``name`` on the service's own bundle ``obs``, opened with
    ``values`` for its :data:`_SPAN_ATTRS`; without a bundle, a shared
    no-op context manager, so no attribute dict is built and a bundle
    the caller activated sees no serve span."""
    if obs is None:
        return _NULL_CM
    span = obs.tracer.span(name)
    span.attrs.update(zip(_SPAN_ATTRS[name], values))
    return span


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
    #: worker threads of the pool that runs ``submit`` and async-ingress
    #: requests; ``solve`` and ``solve_batch`` run on their caller's
    #: thread and take no worker (``queue_limit`` bounds both)
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
    #: options forwarded to the default method's constructor (the
    #: service copies them when it is built)
    solver_options: dict = field(default_factory=dict)
    #: verify plan well-formedness after prepare(), every SuperLU engine
    #: against its kernel before a solve and the residual ``‖A x − b‖``
    #: after it (raises ValidationError)
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


class _Snapshot(CSRMatrix):
    """A request matrix the service owns: copied at admission."""


def _snapshot(A: CSRMatrix, like: _Snapshot | None = None) -> _Snapshot:
    """The service's own copy of a request matrix, taken at admission.

    Everything downstream — digests, binds, solves — reads only this
    copy, so a caller that reuses its buffers after ``submit`` can never
    make the cache hold values under another matrix's digest.  The O(1)
    length checks here stand in for a full validation: a cache hit's
    equal structure digest means its index arrays equal a pattern that
    was already built and checked, and a miss runs the O(nnz) checks
    while it builds.  The copied index arrays are read-only.  ``like``
    is the snapshot of a matrix that holds the very same index arrays
    as ``A`` (values variants of one batch): its copies are shared, and
    only ``A``'s ``data`` is copied.  A snapshot passes through unchanged
    (the async ingress takes it before queueing).
    """
    if type(A) is _Snapshot:
        return A
    n = A.n_rows
    indptr, indices, data = A.indptr, A.indices, A.data
    if len(indptr) != n + 1 or not indptr[-1] == len(indices) == len(data):
        raise SparseFormatError(
            f"inconsistent CSR arrays: {n} rows, indptr of length "
            f"{len(indptr)}, {len(indices)} indices, {len(data)} values"
        )
    if like is not None:
        return _Snapshot(
            n, A.n_cols, like.indptr, like.indices, data.copy(),
            _validated=True,
        )
    snap = _Snapshot(
        n, A.n_cols, indptr.copy(), indices.copy(), data.copy(),
        _validated=True,
    )
    snap.indptr.setflags(write=False)
    snap.indices.setflags(write=False)
    return snap


def _rhs(b, n: int) -> np.ndarray:
    """The service's own copy of a right-hand side for an ``n``-row
    system, taken at admission: 1-D of length ``n``, or 2-D ``(n, k)``
    with ``k >= 1``.  Any other shape raises
    :class:`ShapeMismatchError`, so every accepted ``b`` solves as one
    vector or as ``k`` columns."""
    try:
        b = np.array(b)
    except ValueError as exc:  # a ragged sequence
        raise ShapeMismatchError(f"b is not an array: {exc}") from None
    if b.ndim == 1 and len(b) == n or (
        b.ndim == 2 and len(b) == n and b.shape[1] >= 1
    ):
        return b
    raise ShapeMismatchError(
        f"b must have shape ({n},) or ({n}, k) with k >= 1, "
        f"got {b.shape}"
    )


def _n_rhs(b) -> int:
    """Right-hand sides a request's ``b`` holds, as its record counts
    them: its columns if it is 2-D, else one (a malformed ``b`` too)."""
    return b.shape[1] if b.ndim > 1 else 1


def _malformed_request(pos: int, reason: str) -> ValidationError:
    """The structured error for request ``pos`` of a batch."""
    return ValidationError(
        f"request {pos} of the batch is malformed: {reason}",
        kind="malformed-request",
        detail={"position": pos, "reason": reason},
    )


@dataclass
class _PlanEntry:
    """One executable values variant: what solves it, plus provenance."""

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
    #: the values bound onto a rebindable pattern's plan, which
    #: ``prepared`` and ``dist`` then are (None: a full per-values build)
    overlay: Overlay | None = None


@dataclass(slots=True)
class _GroupJob:
    """One coalesced group: same matrix content, right-hand-side dtype
    and method."""

    rids: list
    A: CSRMatrix
    bs: list
    method: str | None
    tenant: str = "default"
    fp: str | None = None
    sfp: str | None = None
    vfp: str | None = None
    positions: list = field(default_factory=list)
    #: why the admission snapshot failed; raised by the worker, so the
    #: request is accounted like any other failed solve
    error: Exception | None = None


@dataclass(eq=False)
class _PatternEntry:
    """What the cache stores: a pattern-level plan plus values overlays.

    For *rebindable* patterns the plan was built once on a tracer
    matrix (:func:`repro.core.rebind.tracer_matrix`) and every distinct
    values vector binds onto it with gathers: an overlay is the arrays
    those gathers produce, solved by the pattern's one compiled plan
    (``template``) and, with ``n_devices > 1``, its one sharded executor
    (``template_dist``).  Patterns whose value flow cannot be traced
    (external prepared types, opaque kernels) fall back to one full
    build per values vector — same cache shape, no sharing.
    """

    method: str
    fallback: bool
    #: mirror permutation for upper-triangular inputs (None for lower)
    perm: np.ndarray | None
    requested_method: str
    #: values overlays retained (LRU), and a weak reference to the method
    #: that hears of evictions (a strong one would make the owning
    #: service and its patterns a cycle that outlives ``close()``)
    capacity: int
    evict_cb: object = None
    #: rebindable patterns only: the tracer-built plan, its sharded
    #: executor, and the rebinder that binds values onto them
    template: PreparedSolve | None = None
    template_dist: object = None
    binder: PlanRebinder | None = None
    build_prep_s: float = 0.0
    rebind_prep_s: float = 0.0
    #: loaded from the disk store, not built: the request whose cache
    #: miss loaded it is a store hit
    from_store: bool = False
    overlays: OrderedDict = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _flights: dict = field(default_factory=dict)

    @property
    def rebindable(self) -> bool:
        return self.binder is not None

    def _install(self, vfp: str, entry: _PlanEntry) -> None:
        evicted = []
        with self._lock:
            self.overlays[vfp] = entry
            self.overlays.move_to_end(vfp)
            while len(self.overlays) > self.capacity:
                evicted.append(self.overlays.popitem(last=False))
        if not evicted:
            return
        # Overlay-capacity thrash (the revalued-workload failure mode)
        # must be diagnosable: report evictions to the owning service
        # outside our lock.
        notify = self.evict_cb() if self.evict_cb is not None else None
        if notify is not None:
            notify(len(evicted))

    def overlay_for(
        self, vfp: str, A: CSRMatrix, service: "SolveService"
    ) -> tuple[_PlanEntry, bool]:
        """The overlay for values digest ``vfp``, single-flight per key.

        Returns ``(entry, values_hit)``; concurrent requests for the
        same values wait for the one in-flight build and count as hits
        (they paid no preprocessing).  A flight is a lock its builder
        holds until the overlay is installed or the build failed;
        waiters block on it, then look again (and one of them takes
        over a failed flight).
        """
        while True:
            with self._lock:
                entry = self.overlays.get(vfp)
                if entry is not None:
                    self.overlays.move_to_end(vfp)
                    return entry, True
                flight = self._flights.get(vfp)
                building = flight is None
                if building:
                    flight = self._flights[vfp] = threading.Lock()
                    flight.acquire()
            if not building:
                with flight:  # blocks until the builder is done
                    pass
                continue
            try:
                entry = service._build_overlay(self, A)
                self._install(vfp, entry)
            finally:
                with self._lock:
                    del self._flights[vfp]
                flight.release()
            return entry, False


def _on_caller_thread(door):
    """Run a front door on its caller's thread, counted so that close()
    waits for it as the pool's shutdown waits for its workers; refused
    once close() has begun."""

    @functools.wraps(door)
    def counted(self, *args, **kwargs):
        with self._callers_lock:
            if self._closed:
                raise ServiceClosedError("service has been shut down")
            self._callers += 1
        try:
            return door(self, *args, **kwargs)
        finally:
            with self._callers_lock:
                self._callers -= 1
                # only close() waits, and it sets _closed under this
                # lock before it waits, so no waiter can be missed
                if self._closed and not self._callers:
                    self._callers_cv.notify_all()

    return counted


class SolveService:
    """Thread-safe, plan-caching triangular-solve service.

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
        # The default method's options, copied once: every build and
        # every cache key reads this copy, so the plan spec that keys a
        # method's patterns (with the request's structure digest and
        # values dtype) is built once per method, not per lookup.
        self._solver_options = dict(cfg.solver_options)
        self._specs: dict[str, tuple] = {}
        #: every record's device label
        self._device = (
            "0" if cfg.n_devices == 1 else f"0-{cfg.n_devices - 1}"
        )
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
        # free admission permits: taking or returning k is one step
        self._permits = cfg.queue_limit
        self._permits_lock = threading.Lock()
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
        # Synchronous solves running on their callers' threads: close()
        # waits for this count to reach zero, as the pool's shutdown
        # waits for its workers.  Callers update the count under the
        # plain lock (a condition's enter and exit run in Python);
        # close() waits on the condition over it.
        self._callers = 0
        self._callers_lock = threading.Lock()
        self._callers_cv = threading.Condition(self._callers_lock)
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
        """Finish in-flight requests and reject new ones.

        Pool work and the synchronous solves running on their callers'
        threads both finish before the store closes, so every plan an
        in-flight request builds still reaches the store."""
        with self._callers_cv:
            self._closed = True
        self._pool.shutdown(wait=True)
        with self._callers_cv:
            self._callers_cv.wait_for(lambda: not self._callers)
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
    def _take_ids(self, k: int) -> int:
        """The first of ``k`` consecutive request ids."""
        with self._id_lock:
            first = self._next_id
            self._next_id += k
        return first

    def _admit(self, tenants: list[str]) -> None:
        """Take one admission permit per request, all-or-nothing.

        On overflow no permit is taken and *every* request in the
        submission is counted as rejected under its own tenant — the
        attribution the shed fairness view needs.
        """
        with self._permits_lock:
            if self._permits >= len(tenants):
                self._permits -= len(tenants)
                return
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
        """Return ``k`` permits; returning more than were taken raises
        ``ValueError``, as a bounded semaphore does."""
        with self._permits_lock:
            if self._permits + k > self.config.queue_limit:
                raise ValueError("admission permits released too many times")
            self._permits += k

    @property
    def admission_available(self) -> int:
        """Free admission permits right now.  Equals
        ``config.queue_limit`` when the service is fully drained — the
        invariant the permit-leak regression tests assert."""
        return self._permits

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

        ``A``'s arrays and ``b`` are copied before this returns, so the
        caller may reuse or mutate them as soon as it does.  A matrix
        whose arrays cannot be copied consistently fails the future like
        any other failed solve.

        Raises :class:`ServiceOverloadedError` when the bounded queue is
        full and :class:`ServiceClosedError` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosedError("service has been shut down")
        job, deadline = self._admit_one(A, b, method, timeout_s, tenant)
        try:
            return self._pool.submit(
                self._run_submitted, job, deadline, monotonic()
            )
        except RuntimeError:
            self._release(1)
            raise ServiceClosedError("service has been shut down")

    def _run_submitted(self, job: _GroupJob, deadline: float | None,
                       submitted_at: float) -> BatchResult:
        """A submitted request's pool task: its one-group bucket, as a
        :class:`BatchResult` with the bucket's :class:`BucketInfo`."""
        infos: list[BucketInfo] = []
        results = self._run_bucket_task([job], deadline, submitted_at, infos)
        return BatchResult(results, infos, infos[0].wall_time_s)

    @_on_caller_thread
    def solve(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        method: str | None = None,
        timeout_s: float | None = None,
        tenant: str = "default",
    ) -> SolveResult:
        """Synchronous single solve through the full service path.

        The request runs on the calling thread: it is admitted and
        copied as :meth:`submit` does, then solved right here, with no
        pool hand-off.  Its spans record the caller's thread name, and a
        solve made inside an open span of the service's own tracer nests
        its ``serve.request`` span under that span (same trace id); with
        no span open it starts its own trace, as a pool request does.
        """
        job, deadline = self._admit_one(A, b, method, timeout_s, tenant)
        return self._run_bucket_task([job], deadline, monotonic())[0]

    def _admit_one(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        method: str | None,
        timeout_s: float | None,
        tenant: str,
    ) -> tuple[_GroupJob, float | None]:
        """Admit one request and take its snapshot; a matrix whose
        arrays cannot be copied consistently, or a right-hand side that
        is not 1-D of length n or 2-D ``(n, k)``, becomes the job's
        error, raised where the job runs."""
        self._admit([tenant])
        rid = self._take_ids(1)
        deadline = self._deadline(timeout_s)
        job = _GroupJob([rid], A, [], method, tenant, positions=[0])
        try:
            job.A = _snapshot(A)
            job.bs.append(_rhs(b, job.A.n_rows))
        except Exception as exc:  # noqa: BLE001 - raised where the job runs
            job.error = exc
            try:
                job.bs = [np.asarray(b)]
            except Exception:  # noqa: BLE001 - not array-like: one RHS
                job.bs = [np.empty(0)]
        return job, deadline

    @_on_caller_thread
    def solve_batch(
        self,
        requests: list[SolveRequest | tuple],
        *,
        timeout_s: float | None = None,
    ) -> BatchResult:
        """Solve a batch with structural fusion, on the calling thread.

        Requests are bucketed by sparsity pattern (structure digest +
        values dtype + method); within a bucket, same-content requests
        whose right-hand sides share one dtype coalesce into one fused
        multi-RHS call (so each result keeps its own request's dtype and
        bits), and distinct values vectors run back-to-back over the
        shared pattern plan — the
        second and later groups pay only a values rebind, never a
        re-plan, and reuse the pattern the first group looked up (one
        plan-cache lookup per bucket).  Per-pattern admission work is
        paid once too: matrices that hold the very same ``indptr`` and
        ``indices`` arrays (values variants made with
        :func:`dataclasses.replace`) share one read-only copy of them
        and one structure digest, and only their ``data`` is copied and
        hashed apart.  Buckets run one after another, in the order of their
        first requests, under one deadline set at admission: a bucket
        that starts after it is shed as expired, and its queue wait is
        the time it waited behind the earlier buckets.

        ``requests`` items are :class:`SolveRequest` or ``(A, b)``
        tuples.  Returns a :class:`BatchResult` (list-compatible,
        results in request order) carrying per-bucket fusion info.
        Every bucket runs even if an earlier one fails; the first
        failing bucket's exception is then raised.  An interrupt stops
        the batch: the buckets it kept from running are accounted as
        failed with it before it propagates.
        Every matrix and right-hand side is copied at admission, so the
        caller may reuse them once this returns (it returns only after
        the whole batch is solved).
        A request whose ``A`` is not a readable :class:`CSRMatrix`, or
        whose ``b`` is not 1-D of length n or 2-D ``(n, k)`` with
        ``k >= 1``, fails the batch with a :class:`ValidationError` of
        kind ``"malformed-request"`` whose ``detail["position"]`` names
        it.
        """
        reqs = [
            r if isinstance(r, SolveRequest) else SolveRequest(A=r[0], b=r[1])
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
        # Snapshot and digest each distinct matrix object once (requests
        # passing the same object share its copy), and each distinct
        # structure once: matrices holding the very same index arrays
        # (values variants made with dataclasses.replace, say) share one
        # read-only copy of them and its digest, and only their data is
        # copied and hashed apart.  Identity is safe here because this
        # one call holds every request, so no id can be reused inside
        # it.  A damaged matrix fails the O(1) checks of its snapshot, a
        # malformed right-hand side its shape check, and either frees the
        # batch's permits.
        snaps: list[tuple] = []
        copies: dict[int, tuple] = {}
        structures: dict[tuple, tuple] = {}
        try:
            for r in reqs:
                taken = copies.get(id(r.A))
                if taken is None:
                    M = r.A
                    skey = (M.n_rows, M.n_cols, id(M.indptr), id(M.indices))
                    shared = structures.get(skey)
                    if shared is None:
                        A = _snapshot(M)
                        fps = fingerprints(A)
                        structures[skey] = (A, fps[1])
                    else:
                        A = _snapshot(M, shared[0])
                        fps = fingerprints(A, shared[1])
                    taken = copies[id(M)] = (A, fps)
                snaps.append((taken[0], _rhs(r.b, taken[0].n_rows), taken[1]))
        except Exception as exc:
            self._release(len(reqs))
            raise _malformed_request(
                len(snaps), f"{type(exc).__name__}: {exc}"
            ) from exc
        first_id = self._take_ids(len(reqs))
        # Bucket by pattern (or by full content when structural batching
        # is off) and tenant — buckets stay tenant-homogeneous so every
        # per-bucket observation carries one attribution label;
        # coalesce same-content requests whose right-hand sides share a
        # dtype into one group each (a fused solve runs in one dtype).
        buckets: dict[tuple, dict[tuple, _GroupJob]] = {}
        for pos, (r, (A, b, (full, sfp, vfp))) in enumerate(zip(reqs, snaps)):
            if structural:
                bkey = (sfp, A.data.dtype.str, r.method, r.tenant)
            else:
                bkey = (full, None, r.method, r.tenant)
            groups = buckets.setdefault(bkey, {})
            gkey = (full, b.dtype)
            job = groups.get(gkey)
            if job is None:
                job = groups[gkey] = _GroupJob(
                    rids=[], A=A, bs=[], method=r.method, tenant=r.tenant,
                    fp=full, sfp=sfp, vfp=vfp,
                )
            job.rids.append(first_id + pos)
            job.bs.append(b)
            job.positions.append(pos)
        out: list[SolveResult | None] = [None] * len(reqs)
        infos: list[BucketInfo] = []
        first_error: Exception | None = None
        pending = [list(groups.values()) for groups in buckets.values()]
        started = 0
        submitted_at = monotonic()
        try:
            for jobs in pending:
                started += 1
                try:
                    results = self._run_bucket_task(
                        jobs, deadline, submitted_at, infos
                    )
                except Exception as exc:  # noqa: BLE001 - raised after the rest
                    if first_error is None:
                        first_error = exc
                    continue
                positions = [p for j in jobs for p in j.positions]
                for pos, res in zip(positions, results):
                    out[pos] = res
        except BaseException as exc:
            self._account_unrun(pending[started:], submitted_at, exc)
            raise
        if first_error is not None:
            raise first_error
        return BatchResult(out, infos, monotonic() - t_batch)

    # ------------------------------------------------------------------ #
    # Execution (pool workers and synchronous callers)
    # ------------------------------------------------------------------ #
    def _attach_dist(self, prepared, placement=None) -> object | None:
        """The sharded executor for ``prepared`` when the service is
        configured with more than one device (``placement``: a persisted
        schedule's, used only where it matches)."""
        if self.config.n_devices <= 1 or not isinstance(prepared, PreparedSolve):
            return None
        from repro.dist import DistributedPlan

        return DistributedPlan.from_prepared(
            prepared,
            self.config.n_devices,
            placement=placement,
            scheduler=self.config.scheduler,
            sync=self.config.sync_mode,
        )

    @staticmethod
    def _rebinder(prepared_t: PreparedSolve, dist, nnz: int,
                  dtype) -> PlanRebinder:
        """The rebinder of a tracer-built pattern, over the plan that
        executes its overlays (the sharded executor's, if any)."""
        compiled = prepared_t.compile()
        compiled.pattern_only = True
        if dist is not None:
            compiled = dist.compiled
        return PlanRebinder(compiled, nnz, dtype)

    def _build_entry(
        self, A: CSRMatrix, method: str, orient: str
    ) -> _PlanEntry:
        """Prepare a plan, mirroring upper systems and degrading on failure.

        ``orient`` is the pattern's :func:`triangle_orientation`, scanned
        once per pattern build."""
        if orient == "L":
            L, perm = A, None
        elif orient == "U":
            L, perm = upper_to_lower_mirror(A.sort_indices())
        else:
            raise NotTriangularError(
                "matrix is neither lower- nor upper-triangular; use "
                "repro.lower_triangular_from to prepare it first"
            )
        options = self._options(method)
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
                prepared.compile()
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
                prepared.compile()
            return _PlanEntry(
                prepared=prepared,
                method=self.config.fallback_method,
                fallback=True,
                perm=perm,
                dist=self._attach_dist(prepared),
                prep_time_s=getattr(prepared, "preprocessing_time_s", 0.0),
            )

    def _options(self, method: str) -> dict:
        """The solver options of ``method``: the service's own copy of
        the configured ones for its default method, none for another."""
        return self._solver_options if method == self.config.method else {}

    def _rebind_cost(self, A: CSRMatrix) -> float:
        """Simulated cost of a values rebind: one pass reading the new
        data array and writing the gathered copies (vs the 5-10x-solve
        cost of a full plan build, Table 5)."""
        cost = CostModel(self.config.device)
        return cost.launch_time() + cost.stream_time(
            2.0 * A.nnz * A.data.itemsize
        )

    def _build_pattern(
        self, A: CSRMatrix, method: str, vfp: str
    ) -> _PatternEntry:
        """Build the pattern-level cache entry (runs under the cache's
        single-flight lock), installing ``A``'s values as the first
        overlay so the building request never binds twice.

        The only orientation scan of a pattern runs here; later requests
        read the mirror decision from the cached entry's ``perm``."""
        cfg = self.config
        with self._counter_lock:
            self._pattern_builds += 1
        orient = triangle_orientation(A)
        binder = None
        if cfg.structural_batching:
            try:
                entry = self._build_entry(tracer_matrix(A), method, orient)
                # Exact type, not isinstance: a subclass may override
                # solve() with behavior a rebound plain PreparedSolve
                # would silently drop (e.g. the fuzzer's sign-flip canary).
                if type(entry.prepared) is not PreparedSolve:
                    raise RebindError(
                        "external prepared type "
                        f"{type(entry.prepared).__qualname__}"
                    )
                binder = self._rebinder(
                    entry.prepared, entry.dist, A.nnz, A.data.dtype
                )
            except RebindError:
                pass  # untraceable value flow: full builds per values
        if binder is None:
            entry = self._build_entry(A, method, orient)
        pattern = _PatternEntry(
            method=entry.method,
            fallback=entry.fallback,
            perm=entry.perm,
            requested_method=method,
            capacity=cfg.overlay_capacity,
            evict_cb=weakref.WeakMethod(self._overlay_evicted),
            build_prep_s=entry.prep_time_s,
        )
        if binder is not None:
            pattern.template = entry.prepared
            pattern.template_dist = entry.dist
            pattern.binder = binder
            pattern.rebind_prep_s = self._rebind_cost(A)
            # The first values variant pays the full (simulated)
            # plan-build cost; later variants pay only the rebind.
            entry = self._build_overlay(
                pattern, A, prep_time_s=pattern.build_prep_s
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

        Every failure of the entry — damaged bytes, version drift, a
        stale fingerprint, arrays that do not describe the request's
        structure — degrades to ``None`` (a counted miss, so the caller
        falls through to a cold build).  The request's own values are
        bound afterwards: values that fail to bind (a zero diagonal, say)
        are that request's error, and the healthy entry stays on disk.
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
        with _span(obs, "serve.store.load", method) as sp:
            result, loaded = self.store.lookup(key, expect=expect)
            pattern = self._reconstruct(loaded, key, A)
            if loaded is not None and pattern is None:
                result = "corrupt"
            sp.set(result=result)
        if obs is not None:
            obs.serve_metrics.store_lookups.inc(result=result)
        if pattern is not None:
            # Bind the *incoming* values as the first overlay: a warm
            # start pays one gather-rebind, never the Table 5 analysis.
            first = self._build_overlay(pattern, A)
            pattern._install(job.vfp, first)
        return pattern

    def _reconstruct(self, loaded, key: tuple, A) -> _PatternEntry | None:
        if loaded is None:
            return None
        try:
            return self._pattern_from_entry(A, *loaded[1:])
        except Exception:  # noqa: BLE001 - a refused entry = counted miss
            self.store.count_corrupt(key)
            return None

    def _pattern_from_entry(self, A, decisions: dict,
                            arrays: dict) -> _PatternEntry:
        """A live :class:`_PatternEntry` from a format-6 entry's
        decisions and arrays (the schema :meth:`_pattern_entry` writes).

        Every stored array is checked against ``A``'s own structure
        first (:func:`repro.core.rebind.check_stored`, with the plan's
        segment bounds by :func:`check_plan`), so an entry that does not
        describe ``A`` raises before anything is built on it.  Then the
        compiled plan is built over the stored engine layouts and
        position maps, with the stored reports frozen in: no planner,
        no probe, and no triangular step's kernel-path state, which the
        compiled plan derives from the stored arrays only when an overlay
        first needs that path.
        """
        cfg = self.config
        dtype = A.data.dtype
        segments: list = []
        layout: list = []
        stored: dict = {}
        for i, seg in enumerate(decisions["segments"]):
            indptr, indices, pos = (
                arrays[f"{i}.{name}"] for name in ("indptr", "indices", "pos")
            )
            if "tri" in seg:
                lo, hi = (int(x) for x in seg["tri"])
                idx = (np.intc, np.intc) if seg["csc"] else (
                    INDPTR_DTYPE, INDEX_DTYPE)
                tri = StoredTri(
                    seg["csc"], np.asarray(indptr, dtype=idx[0]),
                    np.asarray(indices, dtype=idx[1]), pos,
                    seg["nlevels"], dtype,
                )
                stored[i] = tri
                layout.append(tri)
                segments.append(TriSegment(
                    lo=lo, hi=hi, kernel=_TRI_KERNELS[seg["kernel"]](),
                    aux=None, nnz=int(seg["nnz"]),
                ))
                continue
            row_lo, row_hi, col_lo, col_hi = (int(x) for x in seg["spmv"])
            kernel = SPMV_KERNELS[seg["kernel"]]()
            data = (pos + 1).astype(dtype)  # the tracer build's values
            if kernel.wants_dcsr:
                matrix = DCSRMatrix(row_hi - row_lo, col_hi - col_lo,
                                    arrays[f"{i}.row_ids"], indptr, indices,
                                    data)
            else:
                matrix = CSRMatrix(row_hi - row_lo, col_hi - col_lo,
                                   indptr, indices, data)
            layout.append(pos)
            segments.append(SpMVSegment(row_lo, row_hi, col_lo, col_hi,
                                        matrix, kernel))
        prep_report = KernelReport(**decisions["preprocess_report"])
        plan = ExecutionPlan(
            method=decisions["plan_method"], n=A.n_rows, segments=segments,
            perm=arrays.get("perm"), preprocess_report=prep_report,
        )
        mirror = arrays.get("mirror")
        check_plan(plan, A)
        check_stored(A, plan, layout, mirror)
        prepared_t = PreparedSolve(
            decisions["method"], plan, cfg.device, prep_report
        )
        prepared_t._compiled = compile_plan(
            plan, cfg.device,
            frozen=[KernelReport(**r) for r in decisions["reports"]],
            stored=stored,
        )
        template_dist = self._attach_dist(prepared_t, decisions["placement"])
        binder = self._rebinder(prepared_t, template_dist, A.nnz, dtype)
        pattern = _PatternEntry(
            method=decisions["method"],
            fallback=bool(decisions["fallback"]),
            perm=None if mirror is None else np.asarray(mirror),
            requested_method=decisions["requested_method"],
            capacity=cfg.overlay_capacity,
            evict_cb=weakref.WeakMethod(self._overlay_evicted),
            template=prepared_t,
            template_dist=template_dist,
            binder=binder,
            build_prep_s=float(decisions["build_prep_s"]),
            rebind_prep_s=float(decisions["rebind_prep_s"]),
            from_store=True,
        )
        return pattern

    @staticmethod
    def _pattern_entry(pattern: _PatternEntry, A) -> tuple:
        """``(decisions, arrays)`` of a tracer-built pattern of ``A``, the
        format-6 entry schema: per segment its bounds and kernel, the
        engine-rule feature ``nlevels`` and the arrays of
        :func:`repro.core.rebind.stored_layout` (a triangular step's
        factor structure, CSC for an engine step, and data positions; an
        SpMV matrix's structure and data positions); the template and
        mirror permutations; the frozen and preprocess reports; and the
        sharded schedule's placement.  Raises
        :class:`RebindError` for a plan that cannot be stored as data,
        and for one whose arrays a loader would refuse (a pattern that
        repeats an entry, say): the checks are the loader's."""
        template = pattern.template
        plan, compiled = template.plan, template.compile()
        layout = stored_layout(compiled)
        check_stored(A, plan, layout, pattern.perm)
        arrays: dict = {}
        if plan.perm is not None:
            arrays["perm"] = plan.perm
        if pattern.perm is not None:
            arrays["mirror"] = pattern.perm
        # positions below 2**31 are stored in half the bytes
        pos_dtype = np.int32 if A.nnz < 2**31 else np.int64
        segments = []
        for i, (seg, st) in enumerate(zip(plan.segments, layout)):
            if isinstance(seg, TriSegment):
                segments.append({
                    "tri": [seg.lo, seg.hi], "kernel": seg.kernel.name,
                    "nnz": seg.nnz, "nlevels": st.nlevels, "csc": st.csc,
                })
                indptr, indices, pos = st.indptr, st.indices, st.pos
            else:
                matrix = seg.matrix
                segments.append({
                    "spmv": [seg.row_lo, seg.row_hi, seg.col_lo, seg.col_hi],
                    "kernel": seg.kernel.name,
                })
                indptr, indices, pos = matrix.indptr, matrix.indices, st
                if isinstance(matrix, DCSRMatrix):
                    arrays[f"{i}.row_ids"] = matrix.row_ids
            arrays[f"{i}.indptr"] = indptr
            arrays[f"{i}.indices"] = indices
            arrays[f"{i}.pos"] = pos.astype(pos_dtype)
        decisions = {
            "method": pattern.method,
            "plan_method": plan.method,
            "requested_method": pattern.requested_method,
            "fallback": pattern.fallback,
            "build_prep_s": pattern.build_prep_s,
            "rebind_prep_s": pattern.rebind_prep_s,
            "preprocess_report": asdict(template.preprocess_report),
            "segments": segments,
            "reports": [asdict(r) for r in compiled._captured(0)[0]],
            "placement": (
                pattern.template_dist.placement()
                if pattern.template_dist is not None else None
            ),
        }
        return decisions, arrays

    def _persist_pattern(
        self,
        key: tuple,
        job: _GroupJob,
        method: str,
        pattern: _PatternEntry,
        obs: Observability | None,
    ) -> None:
        """Write a freshly built pattern back to the store.

        Encoding runs here (the arrays are captured from the live plan
        before later solves run); the disk write happens on the store's
        background writer.  Non-rebindable patterns carry per-values
        state that cannot warm another process, and a plan with a kernel
        whose state is not data, or whose arrays a loader would refuse,
        cannot be stored: all are counted as skipped instead of written.
        """
        cfg = self.config
        A = job.A
        try:
            if not pattern.rebindable:
                raise RebindError("per-values plans are not stored")
            decisions, arrays = self._pattern_entry(pattern, A)
        except RebindError:
            self.store.count_skipped()
            return
        header = {
            "kind": "pattern",
            "structure_fp": job.sfp,
            "dtype": str(A.data.dtype),
            "method": method,
            "device": cfg.device.name,
            "n": A.n_rows,
            "nnz": A.nnz,
        }
        with _span(obs, "serve.store.write", method):
            self.store.put(key, header, decisions, arrays)
        if obs is not None:
            obs.serve_metrics.store_writes.inc()

    def _build_overlay(
        self,
        pattern: _PatternEntry,
        A: CSRMatrix,
        *,
        prep_time_s: float | None = None,
    ) -> _PlanEntry:
        """Bind ``A``'s values onto the pattern plan (or, for patterns
        that could not be traced, run a full per-values build).  Each
        engine step decides at the overlay's first solve whether its
        engine serves these values."""
        if not pattern.rebindable:
            return self._build_entry(
                A, pattern.requested_method,
                "L" if pattern.perm is None else "U",
            )
        overlay = pattern.binder.bind(A.data)
        if self.config.check:
            # the rebound values solve on the template's segments, with
            # a loaded template's kernel-path state derived and checked
            pattern.binder.compiled.materialize()
            L = (
                A
                if pattern.perm is None
                else upper_to_lower_mirror(A.sort_indices())[0]
            )
            check_plan(
                pattern.template.plan, L,
                context=f"service:{pattern.method} (rebound)",
            )
        return _PlanEntry(
            prepared=pattern.template,
            method=pattern.method,
            fallback=pattern.fallback,
            perm=pattern.perm,
            dist=pattern.template_dist,
            prep_time_s=(
                pattern.rebind_prep_s if prep_time_s is None else prep_time_s
            ),
            overlay=overlay,
        )

    def _resolve_pattern(
        self,
        job: _GroupJob,
        method: str,
        obs: Observability | None,
        resolved: list[_PatternEntry],
    ) -> tuple[_PatternEntry, bool, bool]:
        """``(pattern, pattern_hit, store_hit)`` of ``job``'s bucket.

        One lookup per bucket: the first group to resolve the pattern
        appends it to ``resolved``, and a later group reuses it as the
        pattern hit its own lookup would have been.  The key's plan spec
        is built once per method.  A cache miss consults the disk warm
        tier before the cold build; a loaded pattern skips the Table 5
        analysis entirely, and a fresh build is written back
        asynchronously.
        """
        if resolved:
            return resolved[0], True, False
        cfg = self.config
        if cfg.structural_batching:
            spec = self._specs.get(method)
            if spec is None:
                spec = self._specs[method] = plan_spec(
                    method, cfg.device, self._options(method)
                )
            key = pattern_key(job.sfp, job.A.data.dtype, spec)
        else:
            key = plan_key(job.fp, method, cfg.device, self._options(method))
        pattern, p_hit = self.cache.get_or_build(
            key, self._load_or_build, key, job, method, obs
        )
        resolved.append(pattern)
        return pattern, p_hit, not p_hit and pattern.from_store

    def _load_or_build(self, key: tuple, job: _GroupJob, method: str,
                       obs: Observability | None) -> _PatternEntry:
        """A missed pattern: loaded from the disk store when it holds a
        usable entry, else built and written back."""
        if self.store is not None:
            loaded = self._load_pattern(key, job, method, obs)
            if loaded is not None:
                return loaded
        pattern = self._build_pattern(job.A, method, job.vfp)
        if self.store is not None:
            self._persist_pattern(key, job, method, pattern, obs)
        return pattern

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
        submitted_at: float,
        infos: list[BucketInfo] | None = None,
    ) -> list[SolveResult]:
        """Entry for one structural bucket, on a pool worker or a
        synchronous caller's thread: under the service's bundle (taken
        here, so the whole bucket reports to the bundle it started
        with), run every values-group over the shared pattern plan, then
        release the bucket's admissions.  Returns the bucket's results
        and, given ``infos``, appends its :class:`BucketInfo` there (a
        ``solve`` asks for none).  A failing group doesn't stop
        the remaining ones; an interrupt does, and the groups it kept
        from running are accounted as failed with it before it
        propagates."""
        t0 = monotonic()
        n_groups = len(jobs)
        fused = n_groups > 1
        total = sum(len(j.rids) for j in jobs)
        obs = self._obs
        method = jobs[0].method or self.config.method
        tenant = jobs[0].tenant  # buckets are tenant-homogeneous
        bucket = (t0, max(0.0, t0 - submitted_at), n_groups)
        results: list[SolveResult] = []
        errors: list[Exception] = []
        pattern_hit = False
        resolved: list[_PatternEntry] = []
        try:
            with _NULL_CM if obs is None else obs.activate(), _span(
                obs if fused else None, "serve.bucket",
                method, tenant, n_groups, total,
            ):
                # the queue wait goes under the bucket's first serve span
                if fused and obs is not None:
                    self._note_queue_wait(obs, tenant, submitted_at, bucket)
                for i, job in enumerate(jobs):
                    try:
                        group, p_hit = self._run_group(
                            job, deadline, obs, bucket, resolved,
                            None if fused else submitted_at,
                        )
                    except Exception as exc:  # noqa: BLE001 - first re-raised
                        errors.append(exc)
                        continue
                    except BaseException as exc:
                        for unrun in jobs[i + 1:]:
                            self._account(obs, unrun, bucket, None, exc)
                        raise
                    results.extend(group)
                    pattern_hit = pattern_hit or p_hit
                if obs is not None:
                    metrics = obs.serve_metrics
                    metrics.batch_bucket_occupancy.observe_key(
                        (), float(total)
                    )
                    if fused:
                        metrics.batch_fused_total.inc()
        finally:
            self._release(total)
        if errors:
            raise errors[0]
        if infos is not None:
            infos.append(BucketInfo(
                structure=(
                    jobs[0].sfp if self.config.structural_batching else None
                ),
                method=method,
                tenant=tenant,
                n_requests=total,
                n_groups=n_groups,
                n_rhs=sum(_n_rhs(b) for j in jobs for b in j.bs),
                fused=fused,
                pattern_hit=pattern_hit,
                wall_time_s=monotonic() - t0,
            ))
        return results

    @staticmethod
    def _note_queue_wait(obs: Observability, tenant: str,
                         submitted_at: float, bucket: tuple) -> None:
        """A bucket's queue wait: a ``serve.queue_wait`` span under the
        current span and one ``repro_queue_wait_seconds`` sample."""
        t0, qwait = bucket[0], bucket[1]
        obs.tracer.record_span("serve.queue_wait", submitted_at, t0)
        metrics = obs.serve_metrics
        metrics.queue_wait.observe_key(metrics.tenant_keys(tenant)[1], qwait)

    def _run_group(
        self,
        job: _GroupJob,
        deadline: float | None,
        obs: Observability | None,
        bucket: tuple,
        resolved: list[_PatternEntry],
        submitted_at: float | None,
    ) -> tuple[list[SolveResult], bool]:
        """Serve one group under its ``serve.request`` span and account
        for it on every exit; returns ``(results, pattern_hit)``.
        ``submitted_at`` is set when the group's span is the first of its
        bucket, which then records the queue wait.  A group whose
        deadline expired while it was queued is shed before paying the
        fingerprint, cache lookup and solve it can no longer use: a
        timeout whose records say ``shed_expired``."""
        with _span(
            obs, "serve.request",
            job.method or self.config.method, job.tenant, len(job.rids),
        ) as sp:
            trace_id = None
            if obs is not None:
                trace_id = sp.trace_id
                if submitted_at is not None:
                    self._note_queue_wait(obs, job.tenant, submitted_at, bucket)
            shed = deadline is not None and monotonic() > deadline
            try:
                if shed:
                    raise ServiceTimeoutError(
                        "request deadline expired while queued "
                        "(shed before solve)"
                    )
                done = self._solve_group(job, deadline, obs, sp, resolved)
            except BaseException as exc:
                self._account(obs, job, bucket, trace_id, exc, shed=shed)
                raise
            self._account(obs, job, bucket, trace_id, done=done)
        return done[0], done[1]

    def _account_unrun(self, buckets: list, submitted_at: float,
                       exc: BaseException) -> None:
        """Account for a batch's buckets that an interrupt kept from
        running as failed with it, and free their permits."""
        obs = self._obs
        now = monotonic()
        try:
            for jobs in buckets:
                for job in jobs:
                    bucket = (now, max(0.0, now - submitted_at), len(jobs))
                    self._account(obs, job, bucket, None, exc)
        finally:
            self._release(sum(len(j.rids) for jobs in buckets for j in jobs))

    def _account(
        self,
        obs: Observability | None,
        job: _GroupJob,
        bucket: tuple,
        trace_id: int | None,
        exc: BaseException | None = None,
        *,
        done: tuple | None = None,
        shed: bool = False,
    ) -> None:
        """Account for every request of ``job``: the one place a service
        request is accounted for, on every exit.

        ``done`` is a solved group's ``(results, pattern_hit, store_hit,
        prep_time_s)``; otherwise ``exc`` ended the group: a
        :class:`ServiceTimeoutError` (mid-solve, or ``shed`` at pickup)
        is a timeout, anything else — an interrupt, or a group an
        interrupt kept from running, included — an error.  ``bucket`` is
        ``(start, queue wait, groups)`` of the group's bucket.

        Each request's :class:`RequestRecord` is built once and joins the
        ring and the lifetime counts.  With a bundle, the rest derives
        from those records and the group's shared facts — wall time,
        trace id, queue wait, profile digest: the request counter,
        latency, simulated-latency and fallback samples, the expired
        shed count, one recorder frame and SLO evaluation per request,
        and one incident dump per failed group.
        """
        t0, qwait, bucket_n = bucket
        wall = monotonic() - t0
        if done is None:
            timed_out = isinstance(exc, ServiceTimeoutError)
            status = "timeout" if timed_out else "error"
            error = None if timed_out else f"{type(exc).__name__}: {exc}"
            method = job.method or self.config.method
            hit = p_hit = store_hit = fallback = False
            prep_s, shares = 0.0, [_NO_REPORT] * len(job.rids)
        else:
            timed_out, status, error = False, "ok", None
            results, p_hit, store_hit, prep_s = done
            first = results[0]
            method, hit, fallback = first.method, first.cache_hit, first.fallback
            shares = [r.report for r in results]
        # read defensively: a malformed A (not a CSRMatrix) is accounted too
        n, nnz = getattr(job.A, "n_rows", 0), getattr(job.A, "nnz", 0)
        fp, tenant, coalesced = job.fp or "", job.tenant, len(job.rids)
        fused, device = bucket_n > 1, self._device
        # positional, in RequestRecord's field order: a call naming all
        # 24 fields costs several times as much to bind
        records = [
            RequestRecord(
                rid, fp, method, n, nnz, _n_rhs(b), tenant,
                hit, p_hit, store_hit, fallback, coalesced, fused, bucket_n,
                prep_s, share.time_s, share.launches, share.gflops, wall,
                device, trace_id, error, timed_out, shed,
            )
            for rid, b, share in zip(job.rids, job.bs, shares)
        ]
        k = len(records)
        with self._records_lock:
            self._records.extend(records)
            life = self._lifetime
            life["requests"] += k
            life[_LIFETIME[status]] += k
            if shed:
                life["shed_expired"] += k
        if obs is None:
            return
        metrics = obs.serve_metrics
        status_keys, tenant_key = metrics.tenant_keys(tenant)
        metrics.requests_total.inc_key(status_keys[status], k)
        if shed:
            metrics.ingress_sheds.inc(k, reason="expired", tenant=tenant)
        if fallback:
            metrics.fallbacks_total.inc(k)
        digest = None
        if done is not None:
            report = shares[0]
            digest = (f"{report.launches}l/"
                      f"{len(getattr(report, 'kernels', ()) or ())}k")
        for rec in records:
            sim_s = rec.sim_latency_s
            if done is not None:
                metrics.request_latency.observe_key(tenant_key, wall, trace_id)
                metrics.sim_latency.observe_key(tenant_key, sim_s, trace_id)
            obs.note_request(
                tenant=rec.tenant, fingerprint=rec.fingerprint,
                method=method, queue_wait_s=qwait, wall_s=wall, sim_s=sim_s,
                digest=digest, outcome=status, trace_id=trace_id,
            )
        if done is None:
            obs.note_incident(status, trace_id=trace_id)

    def _solve_group(
        self,
        job: _GroupJob,
        deadline: float | None,
        obs: Observability | None,
        request_span,
        resolved: list[_PatternEntry],
    ) -> tuple:
        """Solve one group; returns ``(results, pattern_hit, store_hit,
        prep_time_s)``.  ``resolved`` holds the bucket's pattern once a
        group has resolved it.  A group of one request solves its ``b``
        as it came (one vector by the 1-D solve, ``k`` columns by the
        fused one); a larger group stacks its right-hand sides as the
        columns of one fused solve and hands each request its share."""
        cfg = self.config
        if job.error is not None:
            raise job.error
        A = job.A
        if job.fp is None:  # submit path: fingerprints not yet computed
            job.fp, job.sfp, job.vfp = fingerprints(A)
        bs = job.bs
        if obs is not None:
            request_span.set(fingerprint=job.fp, n=A.n_rows, nnz=A.nnz,
                             n_rhs=sum(map(_n_rhs, bs)))
        method = job.method or cfg.method
        if method not in SOLVERS:
            raise ValueError(
                f"unknown method {method!r}; choose from {sorted(SOLVERS)}"
            )
        self._check_deadline(deadline)
        with _span(obs, "serve.cache_lookup", method) as sp:
            pattern, p_hit, store_hit = self._resolve_pattern(
                job, method, obs, resolved
            )
            entry, v_hit = pattern.overlay_for(job.vfp, A, self)
            hit = p_hit and v_hit
            if obs is not None:
                sp.set(
                    result="hit" if hit else "miss",
                    pattern="hit" if p_hit else "miss",
                )
                metrics = obs.serve_metrics
                metrics.cache_lookups.inc_key(metrics.lookup_keys[hit])
        if self._fault_injector is not None:
            self._fault_injector.before_solve(entry.method)
        # The plan (possibly just built and cached) survives a
        # deadline miss — the next request amortizes it anyway.
        self._check_deadline(deadline)

        if len(bs) == 1:
            B0 = bs[0]
        else:
            B0 = np.concatenate(
                [b[:, None] if b.ndim == 1 else b for b in bs], axis=1
            )
        B = B0 if entry.perm is None else B0[entry.perm]
        total = _n_rhs(B)
        executor = entry.dist if entry.dist is not None else entry.prepared
        # an external prepared type takes no overlay argument
        overlay = () if entry.overlay is None else (entry.overlay,)
        if cfg.check and isinstance(entry.prepared, PreparedSolve):
            # the accuracy probe the engine rule stands for
            compiled = (entry.prepared.compile() if entry.dist is None
                        else entry.dist.compiled)
            compiled.probe_engines(B.dtype, entry.overlay)
        with _span(obs, "serve.solve", entry.method, total,
                   cfg.n_devices) as sp:
            if total == 1:  # one vector, of an (n,) or an (n, 1) b
                Y, report = executor.solve(
                    B if B.ndim == 1 else B[:, 0], *overlay
                )
            else:
                Y, report = executor.solve_multi(B, *overlay)
            if obs is not None:
                sp.set(sim_time_s=report.time_s, launches=report.launches)
        if entry.perm is not None:
            X = np.empty_like(Y)
            X[entry.perm] = Y
        else:
            X = Y
        if cfg.check:
            check_residual(
                A, X.reshape(len(X), -1), B0.reshape(len(B0), -1),
                tol=cfg.check_tol, context=f"service:{entry.method}",
            )

        if len(bs) == 1:
            x = X if X.ndim == bs[0].ndim else X[:, None]
            results = [
                SolveResult(x, report, entry.method, hit, entry.fallback)
            ]
        else:
            results = []
            col = 0
            for b in bs:
                k = _n_rhs(b)
                share = report.scaled(k / total, coalesced=len(job.rids))
                x = X[:, col] if b.ndim == 1 else X[:, col:col + k]
                col += k
                results.append(SolveResult(
                    x, share, entry.method, hit, entry.fallback
                ))
        return results, p_hit, store_hit, 0.0 if hit else entry.prep_time_s

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
