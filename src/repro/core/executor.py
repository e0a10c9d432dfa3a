"""Compiled execution plans: the one executor every solve runs through.

An :class:`ExecutionPlan` is built once and then solved thousands of
times (the Table 5 economics — ILU factors inside Krylov loops, repeated
right-hand-side streams).  The plan's reference loop pays, on every
call, per-segment ``isinstance`` dispatch, a re-derived work dtype,
fresh work/output allocations, and the construction of one
:class:`KernelReport` per segment even though every built-in kernel's
report is a pure function of ``(aux, device, n_rhs)``.

:func:`compile_plan` hoists all of that to compile time:

* each segment becomes a prebound step object — kernel, aux, slice
  bounds and numeric engine resolved once, no type tests on the hot path;
* one simulated :class:`KernelReport` per segment is *frozen* by one
  probe execution per RHS width (guarded by the kernels' ``pure_report``
  contract) and re-merged cheaply per solve; a segment whose kernel does
  not declare ``pure_report`` becomes a live step that runs the kernel's
  reporting path and contributes its live report instead;
* work/scratch buffers come from a per-plan :class:`_ArenaPool`, keyed
  by ``(dtype, n_rhs)`` and safe under the serve thread pool, so warm
  solves allocate nothing but the result array they hand back;
* the dtype-promotion decision (`solve_dtype`) is memoized per input
  dtype;
* per triangular segment, a *numeric engine* is chosen at compile time:
  when SciPy's SuperLU bindings are importable, the segment's factor is
  converted to CSC once and repeated solves call ``gstrs`` directly
  (everything ``scipy.sparse.linalg.spsolve_triangular`` re-derives per
  call — the CSC conversion, diagonal scaling, index casts — is hoisted
  here).  The CSR-to-CSC *layout* depends only on the sparsity pattern,
  so it is computed once per pattern and kept on the pattern template's
  step; each values overlay then builds its engine with two gathers and
  one multiply, array-for-array equal to the SciPy construction, which
  remains only as the fallback for duplicate entries and exact-zero
  products.  Whether a segment uses the engine is decided from its
  structure alone (:func:`engine_rule`), so every plan over one pattern
  chooses alike and nothing is timed; a chosen engine must still
  *reproduce the kernel's result on the plan's own values*, or the
  kernel's ``solve_numeric`` runs unchanged.  An overlay bound to value
  bytes an earlier overlay already verified adopts that overlay's
  verdicts (:meth:`CompiledPlan.adopt_engine_verdicts`) instead of
  probing again.  With SciPy absent everything still works on the
  kernel path.

Single-RHS, multi-RHS, plan-order and schedule-order solves, observed or
not, all run one step loop (:meth:`CompiledPlan._execute`), so they are
bit-identical from the first call.  With an active
:class:`repro.obs.Observability` that loop emits one ``segment.*`` span,
profile row, launch count and traffic share per step, tagged with the
step's device (0 without a schedule) — recorded as one timestamp per
step and built into spans and rows when read; the per-segment simulated
reports are read from the frozen captures instead of being rebuilt, so a
traced solve keeps the compiled numerics and pays only for the
instrumentation itself.  The disabled-obs check remains a single thread-local lookup.
"""

from __future__ import annotations

import threading
from array import array
from functools import partial

import numpy as np

from repro.errors import ShapeMismatchError
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport, SolveReport, merge_reports
from repro.kernels.base import PreparedLower, solve_dtype
from repro.core.plan import ExecutionPlan, TriSegment, run_segment
from repro.obs import runtime as obs_runtime
from repro.obs.clock import monotonic
from repro.obs.trace import LeafBlock

__all__ = ["CompiledPlan", "compile_plan"]

try:  # pragma: no cover - exercised only where SciPy is installed
    from scipy.sparse import csr_array, diags_array
    from scipy.sparse._sparsetools import csr_tocsc
    from scipy.sparse.linalg._dsolve import _superlu

    _HAVE_SUPERLU = True
except Exception:  # pragma: no cover - SciPy absent or layout changed
    _HAVE_SUPERLU = False

#: engines must reproduce the kernel's probe solution to this relative
#: tolerance or the segment stays on the kernel path
ENGINE_VERIFY_RTOL = 1e-9
#: segments smaller than this never get a SuperLU engine (the per-call
#: library overhead exceeds any win on a handful of rows)
ENGINE_MIN_ROWS = 16
#: a kernel that sweeps a level schedule keeps its own numerics on
#: segments at most this deep and nnz/row dense and at least this tall
#: (fitted offline by benchmarks/bench_engine_rule.py, whose --check
#: holds these equal to the committed BENCH_engine_rule.json)
KERNEL_MAX_LEVELS = 3
KERNEL_MAX_NNZ_PER_ROW = 1.75
KERNEL_MIN_ROWS = 181
#: arenas retained per (dtype, n_rhs) key when idle
_POOL_KEEP = 8


# --------------------------------------------------------------------- #
# Numeric engines
# --------------------------------------------------------------------- #
def _csc_layout(L) -> tuple:
    """``(perm, col, indices, indptr)`` of ``L``'s CSC form.

    ``perm[k]`` is the CSR position of CSC entry ``k`` and ``col[k]`` its
    column; ``indices``/``indptr`` are the ``intc`` arrays SuperLU
    takes, read-only because every values overlay of the pattern shares
    them.  Derived from the sparsity pattern alone — the routine SciPy's
    ``tocsc`` runs, called on the entry positions instead of the values
    and straight into ``intc`` index arrays.
    Returns ``()`` when a row repeats a column: SciPy's construction
    sums duplicates, which a gather cannot reproduce.
    """
    if not L.has_sorted_indices():
        # prepare_lower sorted L, so a row whose columns do not strictly
        # increase repeats one
        return ()
    n, nnz = L.n_rows, L.nnz
    perm = np.empty(nnz, dtype=np.intp)
    indices = np.empty(nnz, dtype=np.intc)
    indptr = np.empty(n + 1, dtype=np.intc)
    csr_tocsc(
        n, n, L.indptr.astype(np.intc), L.indices.astype(np.intc),
        np.arange(nnz, dtype=np.intp), indptr, indices, perm,
    )
    layout = (
        perm,
        np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr)),
        indices,
        indptr,
    )
    for arr in layout[2:]:
        arr.flags.writeable = False
    return layout


def _scipy_scaled_csc(L, invdiag: np.ndarray, dtype: np.dtype) -> tuple:
    """``L D^{-1}`` in CSC through SciPy's sparse conversions."""
    n = L.n_rows
    A = csr_array(
        (L.data.astype(dtype, copy=False), L.indices, L.indptr),
        shape=(n, n),
    ).tocsc()
    A = (A @ diags_array(invdiag)).astype(dtype, copy=False)
    A.sum_duplicates()
    return (
        A.data,
        A.indices.astype(np.intc, copy=False),
        A.indptr.astype(np.intc, copy=False),
    )


class _GstrsEngine:
    """A hoisted SuperLU forward-substitution for one triangular segment.

    Precomputes what ``scipy.sparse.linalg.spsolve_triangular`` rebuilds
    on every call: the CSC form of the unit-scaled factor ``L D^{-1}``,
    the ``intc`` index arrays SuperLU wants, the empty upper factor, and
    the inverse diagonal applied to the returned solution.

    Given the pattern's :func:`_csc_layout`, the scaled factor is two
    gathers and one multiply.  SciPy's sparse matmul drops exact-zero
    products, so a product with a zero falls back to the SciPy
    construction, as do patterns without a layout and dtypes ``gstrs``
    does not solve in; either way the arrays are the ones SciPy builds.
    """

    __slots__ = (
        "n", "dtype", "l_nnz", "l_data", "l_indices", "l_indptr",
        "u_nnz", "u_data", "u_indices", "u_indptr", "invdiag",
    )

    def __init__(self, prep: PreparedLower, dtype: np.dtype,
                 layout: tuple = ()) -> None:
        L = prep.L
        n = L.n_rows
        invdiag = (1.0 / prep.diag).astype(dtype, copy=False)
        csc = None
        if layout and dtype.char in "fd":
            perm, col, indices, indptr = layout
            data = np.multiply(L.data[perm], invdiag[col], dtype=dtype)
            if data.all():
                csc = (data, indices, indptr)
        if csc is None:
            csc = _scipy_scaled_csc(L, invdiag, dtype)
        self.n = n
        self.dtype = dtype
        self.l_data, self.l_indices, self.l_indptr = csc
        self.l_nnz = len(self.l_data)
        # SuperLU's gstrs interface also takes the (here empty) U factor.
        self.u_nnz = 0
        self.u_data = np.zeros(0, dtype=dtype)
        self.u_indices = np.zeros(0, dtype=np.intc)
        self.u_indptr = np.zeros(n + 1, dtype=np.intc)
        self.invdiag = invdiag

    def solve_into(self, bseg: np.ndarray, outseg: np.ndarray,
                   scratch: np.ndarray) -> None:
        """``outseg = L^{-1} bseg`` using ``scratch`` as the mutable RHS."""
        scratch[...] = bseg
        x, info = _superlu.gstrs(
            "N",
            self.n, self.l_nnz, self.l_data, self.l_indices, self.l_indptr,
            self.n, self.u_nnz, self.u_data, self.u_indices, self.u_indptr,
            scratch,
        )
        if info:
            raise RuntimeError(f"SuperLU gstrs failed (info={info})")
        x = x.reshape(scratch.shape)
        if x.ndim == 2:
            np.multiply(x, self.invdiag[:, None], out=outseg, casting="unsafe")
        else:
            np.multiply(x, self.invdiag, out=outseg, casting="unsafe")


def engine_rule(kernel: str, rows: int, nnz_per_row: float,
                nlevels: int | None, *,
                max_levels: int = KERNEL_MAX_LEVELS,
                max_nnz_per_row: float = KERNEL_MAX_NNZ_PER_ROW,
                min_rows: float = KERNEL_MIN_ROWS) -> bool:
    """Whether a triangular segment solves through a SuperLU engine,
    from its kernel, rows, nnz/row and ``nlevels`` of its level schedule
    (``None`` for a kernel without one) — the features Algorithm 7
    (§3.4) chooses kernels by.  The thresholds default to the fitted
    constants; the offline sweep passes candidates."""
    if rows < ENGINE_MIN_ROWS or kernel == "diagonal":
        return False
    return not (
        nlevels is not None
        and nlevels <= max_levels
        and nnz_per_row <= max_nnz_per_row
        and rows >= min_rows
    )


# --------------------------------------------------------------------- #
# Compiled steps
# --------------------------------------------------------------------- #
class _TriStep:
    """One prebound triangular sub-solve.

    Whether it may use a SuperLU engine is decided at construction by
    :func:`engine_rule`, from features the segment already carries; the
    engine is built per work dtype on first use and kept only if it
    passes the accuracy probe on this step's values.
    """

    __slots__ = ("lo", "hi", "kernel", "aux", "device", "prep",
                 "try_engine", "_engines", "_template", "_layout")

    def __init__(self, seg: TriSegment, device: DeviceModel,
                 template: "_TriStep | None" = None) -> None:
        self.lo = int(seg.lo)
        self.hi = int(seg.hi)
        self.kernel = seg.kernel
        self.aux = seg.aux
        self.device = device
        self.prep = _segment_prep(seg)
        self.try_engine = bool(
            _HAVE_SUPERLU
            and self.prep is not None
            and engine_rule(*_engine_features(seg, self.prep))
        )
        #: work dtype -> verified engine, or None after a failed attempt
        self._engines: dict = {}
        #: same step of the pattern-template plan, whose CSC layout this
        #: values overlay shares
        self._template = template
        #: this step's :func:`_csc_layout`, once computed
        self._layout = None

    # -- engine management ------------------------------------------- #
    def _new_engine(self, compute: np.dtype) -> _GstrsEngine:
        """An engine over this step's values, built from the pattern's
        CSC layout — the template's when this overlay shares its index
        arrays, so the layout is computed once per pattern."""
        owner = self
        tmpl = self._template
        L = self.prep.L
        if (
            tmpl is not None
            and tmpl.prep.L.indices is L.indices
            and tmpl.prep.L.indptr is L.indptr
        ):
            owner = tmpl
        layout = owner._layout
        if layout is None:
            # overlays racing here each compute the same layout; any of
            # them may be the one kept
            layout = owner._layout = _csc_layout(owner.prep.L)
        return _GstrsEngine(self.prep, compute, layout)

    def _trust_engine(self, work_dtype, keep: bool) -> None:
        """Adopt a keep-or-drop verdict already verified on *these value
        bytes*, without re-running the accuracy probe.

        Verdicts come from an earlier overlay of the same pattern bound
        to the same values digest (see
        :meth:`CompiledPlan.engine_verdicts`): an overlay evicted in this
        process, or the first overlay of the process that wrote a plan
        store entry, which settles its engines on the real values before
        persisting them.  Either way :meth:`_build_engine` ran the probe
        on exactly these bytes, and an engine rebuilt from the same bytes
        by the same code solves identically, so probing again would
        recompute a deterministic check.  ``keep=False`` pins the kernel
        path; ``keep=True`` builds the engine unless the build fails.  A
        step the structural rule keeps on the kernel path ignores both.
        """
        dt = np.dtype(work_dtype)
        if dt in self._engines or not self.try_engine:
            return
        engine = None
        if keep:
            try:
                compute = solve_dtype(self.prep.L.data.dtype, dt)
                engine = self._new_engine(compute)
            except Exception:
                pass  # a failed build pins the kernel path
        self._engines[dt] = engine

    def _build_engine(self, work_dtype: np.dtype):
        """Build an engine for this work dtype and check it reproduces
        the kernel's result on this step's values; None on failure."""
        try:
            compute = solve_dtype(self.prep.L.data.dtype, work_dtype)
            engine = self._new_engine(compute)
            n = self.hi - self.lo
            probe = np.linspace(0.5, 1.5, n).astype(work_dtype, copy=False)
            ref = np.asarray(
                self.kernel.solve_numeric(self.aux, probe, self.device)
            )
            got = np.empty(n, dtype=work_dtype)
            engine.solve_into(probe, got, np.empty(n, dtype=compute))
            scale = max(1.0, float(np.max(np.abs(ref))) if n else 0.0)
            err = float(np.max(np.abs(got - ref))) if n else 0.0
            if not np.isfinite(err) or err > ENGINE_VERIFY_RTOL * scale:
                return None
            return engine
        except Exception:
            return None

    def _engine_for(self, work_dtype):
        key = work_dtype
        if key not in self._engines:
            self._engines[key] = self._build_engine(np.dtype(work_dtype))
        return self._engines[key]

    # -- hot path ----------------------------------------------------- #
    def run(self, work: np.ndarray, out: np.ndarray,
            scratch: np.ndarray | None, multi: bool) -> None:
        lo, hi = self.lo, self.hi
        if self.try_engine and scratch is not None:
            engine = self._engine_for(out.dtype)
            if engine is not None:
                engine.solve_into(work[lo:hi], out[lo:hi], scratch[lo:hi])
                return
        kernel = self.kernel
        solve = kernel.solve_numeric_multi if multi else kernel.solve_numeric
        out[lo:hi] = solve(self.aux, work[lo:hi], self.device)


class _SpMVStep:
    """One prebound rectangular update ``b[rows] -= A @ x[cols]``."""

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi", "matrix", "kernel")

    def __init__(self, seg) -> None:
        self.row_lo = int(seg.row_lo)
        self.row_hi = int(seg.row_hi)
        self.col_lo = int(seg.col_lo)
        self.col_hi = int(seg.col_hi)
        self.matrix = seg.matrix
        self.kernel = seg.kernel

    def run(self, work, out, scratch, multi: bool) -> None:
        kernel = self.kernel
        run = kernel.run_numeric_multi if multi else kernel.run_numeric
        run(
            self.matrix,
            out[self.col_lo:self.col_hi],
            work[self.row_lo:self.row_hi],
        )


class _LiveStep:
    """A segment whose kernel does not declare ``pure_report``.

    Its simulated report may depend on the right-hand side, so it runs
    the kernel's reporting path on every solve and returns the live
    report, which replaces the segment's frozen capture.
    """

    __slots__ = ("seg", "device")

    def __init__(self, seg, device: DeviceModel) -> None:
        self.seg = seg
        self.device = device

    def run(self, work, out, scratch, multi: bool) -> KernelReport:
        return run_segment(self.seg, work, out, self.device, multi)


def _segment_prep(seg: TriSegment) -> PreparedLower | None:
    """The segment's :class:`PreparedLower`, however the kernel stores it."""
    aux = seg.aux
    if isinstance(aux, PreparedLower):
        return aux
    sched = getattr(aux, "sched", None)
    prep = getattr(sched, "prep", None)
    if isinstance(prep, PreparedLower):
        return prep
    return None


def _engine_features(seg: TriSegment, prep: PreparedLower) -> tuple:
    """``(kernel, rows, nnz/row, nlevels)``: what :func:`engine_rule`
    decides a segment from (``nlevels`` of its level schedule, ``None``
    for a kernel without one)."""
    rows = seg.hi - seg.lo
    sched = getattr(seg.aux, "sched", None)
    return (seg.kernel.name, rows, prep.nnz / max(rows, 1),
            getattr(sched, "nlevels", None))


# --------------------------------------------------------------------- #
# Scratch arenas
# --------------------------------------------------------------------- #
class _Arena:
    """Work + permuted-output + engine-scratch buffers for one solve."""

    __slots__ = ("work", "out", "scratch", "key")

    def __init__(self, n: int, k: int, work_dtype, scratch_dtype,
                 with_out: bool) -> None:
        # k == 0 encodes the 1-D single-RHS shape; (n, 1) stays 2-D.
        shape = (n,) if k == 0 else (n, k)
        self.work = np.empty(shape, dtype=work_dtype)
        self.out = np.empty(shape, dtype=work_dtype) if with_out else None
        self.scratch = (
            np.empty(shape, dtype=scratch_dtype)
            if scratch_dtype is not None else None
        )
        #: the free-list this arena belongs to — derived from its actual
        #: buffers, so a release can never file it under the wrong shape
        self.key = (self.work.dtype, k)


class _ArenaPool:
    """Bounded free-lists of arenas keyed by ``(dtype, n_rhs)``.

    Thread-safe: concurrent solves on the serve pool each check out
    their own arena, so buffer reuse can never mix two requests' data.
    """

    def __init__(self, n: int, scratch_dtype_for, with_out: bool) -> None:
        self._n = n
        self._scratch_dtype_for = scratch_dtype_for
        self._with_out = with_out
        self._lock = threading.Lock()
        self._free: dict[tuple, list[_Arena]] = {}

    def acquire(self, dtype: np.dtype, k: int) -> _Arena:
        key = (dtype, k)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                return stack.pop()
        return _Arena(
            self._n, k, dtype, self._scratch_dtype_for(dtype), self._with_out
        )

    def release(self, arena: _Arena) -> None:
        # Key derived from the arena itself (not caller-supplied): a
        # mismatched release could otherwise poison a free-list with
        # wrong-shaped buffers that a later acquire hands out as-is.
        with self._lock:
            stack = self._free.setdefault(arena.key, [])
            if len(stack) < _POOL_KEEP:
                stack.append(arena)


# --------------------------------------------------------------------- #
# The compiled plan
# --------------------------------------------------------------------- #
class CompiledPlan:
    """The executor every solve runs through.

    Built via :func:`compile_plan` (or lazily by
    :meth:`repro.PreparedSolve.compile`).  ``solve``/``solve_multi`` are
    drop-ins for the plan's reference loop — same dtype promotion, same
    simulated :class:`SolveReport` — but a warm solve does no
    per-segment dispatch, no report construction and no work-buffer
    allocation.  ``solve_ordered``/``solve_multi_ordered`` run the same
    steps in another topological order of the segment DAG, which is all
    a sharded schedule is (see :class:`repro.dist.DistributedPlan`).
    Segments whose kernels do not declare ``pure_report`` run as live
    steps that rebuild their report on every solve.
    """

    def __init__(self, plan: ExecutionPlan, device: DeviceModel, *,
                 share_from: "CompiledPlan | None" = None,
                 frozen: tuple | None = None) -> None:
        self.plan = plan
        self.device = device
        self.n = plan.n
        self.method = plan.method
        self.perm = plan.perm
        #: every kernel declares ``pure_report``, so no step is live
        self.pure = all(
            getattr(seg.kernel, "pure_report", False) for seg in plan.segments
        )
        self._order = range(len(plan.segments))
        #: instrumentation constants per (RHS width, schedule)
        self._obs_cache: dict = {}
        if share_from is not None:
            self._init_shared(share_from)
            return
        self._dtype_cache: dict = {}
        #: RHS width (0 = one vector) -> frozen (per-segment reports, merged)
        self._captures: dict[int, tuple[list[KernelReport], SolveReport]] = {}
        self._capture_lock = threading.Lock()
        self._steps = [self._step(seg) for seg in plan.segments]
        # Triangular segments tiling [0, n) exactly means every output
        # element is written before it is read — no zero-fill needed.
        spans = sorted((s.lo, s.hi) for s in plan.tri_segments)
        tiled, edge = True, 0
        for lo, hi in spans:
            if lo != edge:
                tiled = False
                break
            edge = hi
        self._needs_zero = not (tiled and edge == self.n)
        mat_dtypes = [
            s.prep.L.data.dtype for s in self._steps
            if isinstance(s, _TriStep) and s.try_engine
        ]
        self._mat_dtype = np.result_type(*mat_dtypes) if mat_dtypes else None
        self._pool = _ArenaPool(
            self.n, self._scratch_dtype, with_out=self.perm is not None
        )
        # Frozen reports are pure functions of segment structure +
        # device, so a caller that already holds them (the plan store's
        # load path) can inject them and skip the capture probe — the
        # same sharing `_init_shared` does between values overlays.
        if frozen is not None and len(frozen) == 2 \
                and len(frozen[0]) == len(plan.segments):
            self._captures[0] = tuple(frozen)
        else:
            self._capture(0)

    def _step(self, seg, template=None):
        if not getattr(seg.kernel, "pure_report", False):
            return _LiveStep(seg, self.device)
        if isinstance(seg, TriSegment):
            return _TriStep(seg, self.device, template)
        return _SpMVStep(seg)

    def _init_shared(self, tmpl: "CompiledPlan") -> None:
        """Compile as a values overlay of a pattern template.

        Everything value-independent is shared outright: the frozen
        reports of every RHS width (pure functions of segment structure
        + device, both pinned by the pattern-level cache key), the
        dtype-promotion memo, and — the big one — the arena pool, so all
        overlays of one pattern draw scratch buffers from a single
        bounded free-list.  Only the step objects are rebuilt, each
        aimed at this plan's value arrays and sharing its template
        step's CSC layout; the engine decision is structural, so each
        step reaches the template's on its own.
        """
        if (
            tmpl.n != self.n
            or len(tmpl._steps) != len(self.plan.segments)
            or tmpl.method != self.method
        ):
            raise ValueError("template plan structure does not match")
        steps = []
        for seg, tstep in zip(self.plan.segments, tmpl._steps):
            step = self._step(seg, tstep)
            if type(step) is not type(tstep):
                raise ValueError("template segment kinds do not match")
            steps.append(step)
        self._steps = steps
        self._dtype_cache = tmpl._dtype_cache
        self._captures = tmpl._captures
        self._capture_lock = tmpl._capture_lock
        self._needs_zero = tmpl._needs_zero
        self._mat_dtype = tmpl._mat_dtype
        self._pool = tmpl._pool

    # -- engine verdicts ---------------------------------------------- #
    def engine_verdicts(self, resolve=None) -> tuple:
        """Per step, the engine verdicts settled so far as ``{work dtype:
        keep}`` (``None`` for a step that never tries an engine).

        With ``resolve``, every step first settles that work dtype,
        running whatever probe it still owes.  Otherwise a verdict
        another thread is still probing is simply absent: a step stores
        a verdict only once its probe has finished.
        """
        out = []
        for step in self._steps:
            if not (isinstance(step, _TriStep) and step.try_engine):
                out.append(None)
                continue
            if resolve is not None:
                step._engine_for(np.dtype(resolve))
            # one C-level copy, safe against a concurrent solve adding
            # a verdict while we read
            engines = step._engines.copy()
            out.append({dt: e is not None for dt, e in engines.items()})
        return tuple(out)

    def adopt_engine_verdicts(self, verdicts) -> None:
        """Install verdicts captured by :meth:`engine_verdicts` without
        probing, through :meth:`_TriStep._trust_engine`: ``verdicts``
        must have been verified on this plan's exact value bytes."""
        for step, decided in zip(self._steps, verdicts):
            if not decided:
                continue
            for dt, keep in decided.items():
                step._trust_engine(dt, keep)

    # -- frozen reports ----------------------------------------------- #
    def _scratch_dtype(self, work_dtype):
        if self._mat_dtype is None:
            return None
        return solve_dtype(self._mat_dtype, work_dtype)

    def _capture(self, k: int) -> tuple[list[KernelReport], SolveReport]:
        """One probe execution at RHS width ``k`` (0 = one vector)
        through the kernels' reporting path, freezing the per-segment
        reports for every later solve at this width.

        Valid under the ``pure_report`` contract: the simulated report
        depends only on ``(aux, device, n_rhs)``.  A live step's entry is
        only a placeholder, replaced by its live report on every solve.
        """
        n = self.n
        shape = (n, k) if k else (n,)
        work = np.linspace(0.5, 1.5, n * max(k, 1)).reshape(shape)
        out = np.zeros(shape)
        reports = [
            run_segment(seg, work, out, self.device, k > 0)
            for seg in self.plan.segments
        ]
        captured = (reports, self._merge(reports, k))
        with self._capture_lock:
            return self._captures.setdefault(k, captured)

    def _captured(self, k: int) -> tuple[list[KernelReport], SolveReport]:
        """The frozen capture at RHS width ``k``, probed on first use."""
        return self._captures.get(k) or self._capture(k)

    def _merge(self, reports: list, k: int) -> SolveReport:
        if k:
            return merge_reports(self.method, reports, n_rhs=k, fused=True)
        return merge_reports(
            self.method,
            reports,
            n_tri=self.plan.n_tri_segments,
            n_spmv=self.plan.n_spmv_segments,
        )

    def _work_dtype(self, b_dtype) -> np.dtype:
        dt = self._dtype_cache.get(b_dtype)
        if dt is None:
            dt = solve_dtype(b_dtype)
            self._dtype_cache[b_dtype] = dt
        return dt

    def _report(self, k: int, reports: list, profile) -> SolveReport:
        """A fresh report of one solve at RHS width ``k``: the frozen
        merge, or a new one when live steps replaced some reports."""
        frozen, merged = self._captures[k]
        if reports is frozen:
            report = SolveReport(
                method=merged.method,
                time_s=merged.time_s,
                flops=merged.flops,
                launches=merged.launches,
                bytes_moved=merged.bytes_moved,
                kernels=list(merged.kernels),
                detail=dict(merged.detail),
            )
        else:
            report = self._merge(reports, k)
        if profile is not None:
            report.profile = profile
        return report

    # -- the step loop ------------------------------------------------- #
    def _execute(self, B: np.ndarray, k: int, order, schedule=None):
        """The one step loop behind every solve.

        Checks an arena out of the pool, permutes ``B`` (RHS width ``k``,
        0 = one vector) into it, runs the steps in ``order``, and
        un-permutes the result.  Returns ``(x, reports, profile)``: the
        per-segment reports are the frozen capture at this width with
        live steps' reports substituted, and ``profile`` builds the
        per-segment rows under an active observability bundle (``None``
        otherwise).  ``schedule`` tags the instrumentation with each
        segment's device; without one every segment runs on device 0.
        For any topological order of the segment DAG every step sees the
        same operands, so the result is bit-identical across orders.
        """
        obs = obs_runtime.active()
        reports = self._captured(k)[0]
        profile = None
        dtype = self._work_dtype(B.dtype)
        arena = self._pool.acquire(dtype, k)
        try:
            work = arena.work
            perm = self.perm
            if perm is not None:
                if B.dtype == dtype:
                    np.take(B, perm, axis=0, out=work)
                else:
                    work[...] = B[perm]
            else:
                np.copyto(work, B, casting="unsafe")
            result = np.empty(work.shape, dtype=dtype)
            out = result if perm is None else arena.out
            if self._needs_zero:
                out.fill(0)
            scratch = arena.scratch
            if obs is None and self.pure:
                steps = self._steps
                multi = k > 0
                for idx in order:
                    steps[idx].run(work, out, scratch, multi)
            else:
                reports, profile = self._run_traced(
                    obs, order, schedule, work, out, scratch, k, reports
                )
            if perm is not None:
                result[perm] = out
        finally:
            self._pool.release(arena)
        return result, reports, profile

    def _obs_static(self, k: int, schedule) -> tuple:
        """Instrumentation constants for one (RHS width, schedule).

        Everything a traced solve emits except the wall times and the
        live steps' reports — span attributes, profile-row templates and
        the metric additions of a
        :class:`~repro.obs.runtime.SolveTelemetry` (per-(kernel, device)
        launch totals, per-device traffic) — is a pure function of the
        segment layout, the frozen capture at this width and the device
        assignment, so it is computed once and replayed on every warm
        observed solve.
        """
        key = (k, id(schedule))
        cached = self._obs_cache.get(key)
        if cached is not None:
            return cached
        if schedule is None:
            n_devices, assignment = 1, [0] * len(self._steps)
        else:
            n_devices, assignment = schedule.n_devices, schedule.assignment
        rows: list[tuple] = []
        launches: dict[tuple, int] = {}
        live_b = [0] * n_devices
        live_x = [0] * n_devices
        for idx, (seg, step, rep, dev) in enumerate(zip(
            self.plan.segments, self._steps, self._captures[k][0], assignment
        )):
            kname = seg.kernel.name
            if isinstance(seg, TriSegment):
                kind = "tri"
                seg_rows = cols = f"{seg.lo}:{seg.hi}"
            else:
                kind = "spmv"
                seg_rows = f"{seg.row_lo}:{seg.row_hi}"
                cols = f"{seg.col_lo}:{seg.col_hi}"
                live_x[dev] += seg.n_cols
            live_b[dev] += seg.n_rows
            attrs = {"index": idx, "kernel": kname, "device": dev,
                     "rows": seg_rows, "nnz": seg.nnz,
                     "sim_time_s": rep.time_s}
            row = {"index": idx, "kind": kind, "kernel": kname,
                   "rows": seg_rows, "cols": cols, "nnz": seg.nnz,
                   "sim_time_s": rep.time_s, "wall_time_s": 0.0,
                   "launches": rep.launches}
            rows.append(("segment." + kind, attrs, row))
            if not isinstance(step, _LiveStep):
                # (kernel, device): the kernel_launches label key
                label = (kname, str(dev))
                launches[label] = launches.get(label, 0) + rep.launches
        telemetry = obs_runtime.SolveTelemetry(
            self.plan, schedule, launches, live_b, live_x
        )
        # the schedule rides along so its id cannot be reused while cached
        cached = (rows, telemetry, schedule)
        self._obs_cache[key] = cached
        return cached

    def _run_traced(self, obs, order, schedule, work, out, scratch, k,
                    reports):
        """The step loop when a solve has something to record: the live
        reports of steps without ``pure_report`` and, under an active
        bundle, one ``segment.*`` leaf span, profile row, launch count
        and traffic share per step, tagged with the step's device.

        The numerics are the bare loop's.  The loop itself only reads
        the clock once per step boundary; the solve is then handed to
        the tracer as one :class:`~repro.obs.trace.LeafBlock` over the
        precomputed span templates, its metric additions are replayed
        from the plan's :class:`~repro.obs.runtime.SolveTelemetry`, and
        the profile rows are returned as a function that builds them
        when the report's ``profile`` is first read.
        """
        steps = self._steps
        multi = k > 0
        if not self.pure:
            reports = list(reports)
        if obs is None:
            for idx in order:
                rep = steps[idx].run(work, out, scratch, multi)
                if rep is not None:
                    reports[idx] = rep
            return reports, None
        rows, telemetry, _ = self._obs_static(k, schedule)
        now = monotonic
        ts = array("d", (now(),))
        tick = ts.append
        live = None
        for idx in order:
            rep = steps[idx].run(work, out, scratch, multi)
            tick(now())
            if rep is not None:
                reports[idx] = rep
                if live is None:
                    live = {}
                live[idx] = rep
        live_attrs = live_launches = None
        if live is not None:
            live_attrs, live_launches = {}, []
            for idx, rep in live.items():
                attrs = rows[idx][1]
                live_attrs[idx] = dict(attrs, sim_time_s=rep.time_s)
                live_launches.append(
                    ((attrs["kernel"], str(attrs["device"])), rep.launches)
                )
        obs.tracer.record_block(LeafBlock(rows, order, ts, live_attrs))
        telemetry.publish(obs.serve_metrics, live_launches)
        return reports, partial(_profile_rows, rows, order, ts, live)

    # -- entry points -------------------------------------------------- #
    def _check_b(self, b) -> np.ndarray:
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise ShapeMismatchError(f"b must have shape ({self.n},)")
        return b

    def _check_B(self, B) -> np.ndarray:
        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ShapeMismatchError(f"B must have shape ({self.n}, k)")
        return B

    def _check_order(self, order) -> None:
        if sorted(order) != list(self._order):
            raise ValueError(
                f"order must be a permutation of range({len(self._steps)})"
            )

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """One SpTRSV; drop-in for ``plan.solve(b, device)``."""
        x, reports, profile = self._execute(self._check_b(b), 0, self._order)
        return x, self._report(0, reports, profile)

    def solve_multi(self, B: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS solve; drop-in for ``plan.solve_multi``."""
        B = self._check_B(B)
        k = B.shape[1]
        X, reports, profile = self._execute(B, k, self._order)
        return X, self._report(k, reports, profile)

    def solve_ordered(self, b: np.ndarray, order) -> np.ndarray:
        """Run the compiled steps in ``order`` (a permutation of segment
        indices) and return the solution.

        For any topological order of the plan's segment DAG this performs
        the same floating-point operations on the same operands as
        :meth:`solve`, so the result is bit-identical to it.  No report
        is built — a sharded schedule times itself.
        """
        self._check_order(order)
        return self._execute(self._check_b(b), 0, order)[0]

    def solve_multi_ordered(self, B: np.ndarray, order) -> np.ndarray:
        """Multi-RHS :meth:`solve_ordered`; bit-identical to
        :meth:`solve_multi` for topological orders."""
        self._check_order(order)
        B = self._check_B(B)
        return self._execute(B, B.shape[1], order)[0]


def _profile_rows(rows, order, ts, live) -> list[dict]:
    """The per-segment profile of one traced solve, in execution order
    (see :attr:`repro.gpu.report.SolveReport.profile`)."""
    out = []
    for pos, idx in enumerate(order):
        row = dict(rows[idx][2])
        rep = live.get(idx) if live is not None else None
        if rep is not None:
            row.update(sim_time_s=rep.time_s, launches=rep.launches)
        row["wall_time_s"] = ts[pos + 1] - ts[pos]
        out.append(row)
    return out


def compile_plan(plan: ExecutionPlan, device: DeviceModel, *,
                 frozen: tuple | None = None) -> CompiledPlan:
    """Compile ``plan`` for repeated solves on ``device``.

    Compilation itself costs roughly one probe solve per plan (plus one
    CSC conversion per engine-eligible triangular segment) and is paid
    once — the serve layer compiles at cache-insert time, so every
    cache hit lands on the compiled hot path.  ``frozen`` injects
    previously captured ``(reports, merged)`` state (e.g. deserialized
    by :class:`repro.serve.store.PlanStore`), skipping the probe.
    """
    return CompiledPlan(plan, device, frozen=frozen)
