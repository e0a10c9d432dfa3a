"""Compiled execution plans: the one executor every solve runs through.

An :class:`ExecutionPlan` is built once and then solved thousands of
times (the Table 5 economics — ILU factors inside Krylov loops, repeated
right-hand-side streams).  The plan's reference loop pays, on every
call, per-segment ``isinstance`` dispatch, a re-derived work dtype,
fresh work/output allocations, and the construction of one
:class:`KernelReport` per segment even though every built-in kernel's
report is a pure function of ``(aux, device, n_rhs)``.

:func:`compile_plan` hoists all of that to compile time:

* each segment becomes a prebound step object — kernel, slice bounds
  and numeric engine resolved once, no type tests on the hot path;
* one simulated :class:`KernelReport` per segment is *frozen* by one
  probe execution per RHS width (guarded by the kernels' ``pure_report``
  contract) and re-merged cheaply per solve; a segment whose kernel does
  not declare ``pure_report`` becomes a live step that runs the kernel's
  reporting path and contributes its live report instead;
* work/output buffers come from a per-plan :class:`_ArenaPool`, keyed
  by ``(dtype, n_rhs)`` and safe under the serve thread pool, so warm
  solves allocate nothing but the result array they hand back;
* the dtype-promotion decision (`solve_dtype`) is memoized per input
  dtype;
* per triangular segment, a *numeric engine* is chosen at compile time:
  when SciPy's SuperLU bindings are importable, repeated solves call
  ``gstrs`` directly (everything ``scipy.sparse.linalg.spsolve_triangular``
  re-derives per call — the CSC conversion, diagonal scaling, index
  casts — is hoisted here).  The CSR-to-CSC *layout* depends only on the
  sparsity pattern, so each step computes it once; a values vector's
  engine is then one gather and one in-place column scaling,
  array-for-array equal to the SciPy construction, which remains only
  as the fallback for duplicate entries and exact-zero products.
  Whether a segment uses the engine is decided from its structure alone
  (:func:`engine_rule`), so every plan over one pattern chooses alike
  and nothing is timed; the engine then serves only finite float64
  values in a float64 work buffer, or the kernel's ``solve_numeric``
  runs unchanged (the accuracy probe this stands for runs only under
  ``check=True``, :meth:`CompiledPlan.probe_engines`).  With SciPy
  absent everything still works on the kernel path.  ``gstrs`` leaves an
  entry per call in an allocation registry SciPy keeps per thread, so
  each thread drops that registry every ``REGISTRY_RELEASE_EVERY``
  engine solves.

Steps hold no values: every solve reads them from an :class:`Overlay`,
the arrays one values vector puts on the plan's steps.  A plan built on
real values solves a default overlay of its own arrays; a pattern
template built on tracer values (:mod:`repro.core.rebind`) solves only
the overlays :class:`~repro.core.rebind.PlanRebinder` binds onto it, so
one compiled plan serves every values vector of its pattern.

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
from repro.formats.csr import CSRMatrix
from repro.kernels.base import PreparedLower, prepare_lower, solve_dtype
from repro.core.plan import ExecutionPlan, TriSegment, run_segment
from repro.obs import runtime as obs_runtime
from repro.obs.clock import monotonic
from repro.obs.trace import LeafBlock
from repro.utils.arrays import counts_to_indptr

__all__ = ["CompiledPlan", "Overlay", "StoredTri", "compile_plan"]

try:  # pragma: no cover - exercised only where SciPy is installed
    from scipy.sparse import csr_array, diags_array
    from scipy.sparse._sparsetools import csr_scale_rows, csr_tocsc
    from scipy.sparse.linalg._dsolve import _superlu

    _HAVE_SUPERLU = True
except Exception:  # pragma: no cover - SciPy absent or layout changed
    _HAVE_SUPERLU = False

#: under ``check=True`` engines must reproduce the kernel's probe solution
#: to this relative tolerance or the segment stays on the kernel path
ENGINE_VERIFY_RTOL = 1e-9
#: value and work dtypes a SuperLU engine serves: the probe rejected every
#: float32 factor and float32 work buffer it met
ENGINE_DTYPES = (np.dtype(np.float64),)
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
    """``(perm, indices, indptr)`` of ``L``'s CSC form.

    ``perm[k]`` is the CSR position of CSC entry ``k``;
    ``indices``/``indptr`` are the ``intc`` arrays SuperLU takes,
    read-only because every values overlay of the pattern shares them.
    Derived from the sparsity pattern alone — the routine SciPy's
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
    indices.flags.writeable = False
    indptr.flags.writeable = False
    return perm, indices, indptr


def _csr_of_csc(n: int, indptr: np.ndarray, indices: np.ndarray,
                pos: np.ndarray) -> tuple:
    """``(indptr, indices, pos)`` of the CSR form of an ``n x n`` factor
    stored in CSC with one value (``pos``) per entry; columns come out
    sorted within each row."""
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(indices.astype(np.int64) * n + cols, kind="stable")
    counts = np.bincount(indices, minlength=n)
    return counts_to_indptr(counts), cols[order], pos[order]


class _GstrsEngine:
    """A hoisted SuperLU forward substitution for one triangular step.

    Holds what ``scipy.sparse.linalg.spsolve_triangular`` rebuilds on
    every call yet no values change: the CSC layout of the step's factor
    (:func:`_csc_layout`) and the empty upper factor ``gstrs`` also
    takes.  The unit-scaled factor ``L D^{-1}`` in CSC and the inverse
    diagonal are one tuple per values vector and compute dtype
    (:meth:`values`), which :meth:`solve_into` is handed.
    """

    __slots__ = ("n", "perm", "indices", "indptr", "u_indices", "u_indptr")

    def __init__(self, L) -> None:
        self._setup(L.n_rows, _csc_layout(L))

    @classmethod
    def from_layout(cls, n: int, indices: np.ndarray,
                    indptr: np.ndarray) -> "_GstrsEngine":
        """An engine over a stored CSC layout, whose gathers come
        composed (``perm`` is ``None``)."""
        engine = cls.__new__(cls)
        engine._setup(n, (None, indices, indptr))
        return engine

    def _setup(self, n: int, layout: tuple) -> None:
        #: ``None`` throughout when the factor repeats a column (no layout)
        self.perm, self.indices, self.indptr = layout or (None, None, None)
        self.n = n
        self.u_indices = np.zeros(0, dtype=np.intc)
        self.u_indptr = np.zeros(n + 1, dtype=np.intc)

    def values(self, src: np.ndarray, gather, diag: np.ndarray,
               dtype: np.dtype, factor) -> tuple:
        """``(l_data, l_indices, l_indptr, invdiag)`` of one values vector
        in compute dtype ``dtype``: ``src[gather]`` are the factor's
        values in CSC order (``gather`` is None without a layout),
        ``diag`` its diagonal, and ``factor()`` the factor itself.

        One gather and one in-place column scaling.  SciPy's sparse
        matmul drops exact-zero products, so a product with a zero falls
        back to the SciPy construction over ``factor()``, as do patterns
        without a layout and dtypes ``gstrs`` does not solve in; either
        way the arrays are the ones SciPy builds.
        """
        invdiag = (1.0 / diag).astype(dtype, copy=False)
        if gather is not None and dtype.char in "fd":
            data = src.take(gather).astype(dtype, copy=False)
            # column j times invdiag[j], in place: the products SciPy's
            # L @ diag(invdiag) forms, entry for entry
            n = self.n
            csr_scale_rows(n, n, self.indptr, self.indices, data, invdiag)
            if data.all():
                return data, self.indices, self.indptr, invdiag
        L, n = factor(), self.n
        A = csr_array(
            (L.data.astype(dtype, copy=False), L.indices, L.indptr),
            shape=(n, n),
        ).tocsc()
        A = (A @ diags_array(invdiag)).astype(dtype, copy=False)
        A.sum_duplicates()
        return (A.data, A.indices.astype(np.intc, copy=False),
                A.indptr.astype(np.intc, copy=False), invdiag)

    def solve_into(self, vals: tuple, bseg: np.ndarray,
                   outseg: np.ndarray) -> None:
        """``outseg = L^{-1} bseg`` over the engine values ``vals``.

        ``gstrs`` solves in a copy of ``bseg`` it makes in the values'
        dtype; ``bseg`` may still be overwritten, so a caller passes a
        right-hand side it does not read again (a step's slice of the
        work buffer is dead once the step has run)."""
        l_data, l_indices, l_indptr, invdiag = vals
        if bseg.dtype != l_data.dtype:
            bseg = bseg.astype(l_data.dtype)
        x, info = _superlu.gstrs(
            "N",
            self.n, len(l_data), l_data, l_indices, l_indptr,
            self.n, 0, l_data[:0], self.u_indices, self.u_indptr,
            bseg,
        )
        calls = _engine_calls.n + 1
        if calls >= REGISTRY_RELEASE_EVERY:
            calls = 0
            _release_superlu_registry()
        _engine_calls.n = calls
        if info:
            raise RuntimeError(f"SuperLU gstrs failed (info={info})")
        x = x.reshape(bseg.shape)
        if x.ndim == 2:
            np.multiply(x, invdiag[:, None], out=outseg, casting="unsafe")
        else:
            np.multiply(x, invdiag, out=outseg, casting="unsafe")


# SciPy's SuperLU bindings list every block they allocate in a dict kept
# per thread, under this key of the thread's state dict, so that an
# aborted call can free them; ``gstrs`` leaves one block listed per call
# (SciPy 1.17.1).  A thread's memory would grow ~140 B per engine solve
# for as long as it lives, and each regrowth of that dict's table lifts
# the process's peak RSS by a step (~10 MB past ~87k solves).  Dropping
# the registry frees the dict and its keys; SciPy makes a fresh one on
# the thread's next call, and only the ~32 B block itself stays leaked.
_SUPERLU_REGISTRY = b"scipy.sparse.linalg._dsolve._superlu.__global_object"
#: engine solves a thread makes between two drops of its SciPy registry
REGISTRY_RELEASE_EVERY = 4096

try:
    import ctypes

    _thread_state_dict = ctypes.PYFUNCTYPE(ctypes.c_void_p)(
        ("PyThreadState_GetDict", ctypes.pythonapi)
    )
    _dict_del_item = ctypes.PYFUNCTYPE(
        ctypes.c_int, ctypes.c_void_p, ctypes.c_char_p
    )(("PyDict_DelItemString", ctypes.pythonapi))
    #: None until probed (:func:`_registry_drop_is_safe`)
    _registry_release: bool | None = None
except (ImportError, AttributeError):  # pragma: no cover - not CPython
    _registry_release = False


class _EngineCalls(threading.local):
    """Engine solves this thread made since it last dropped its registry."""

    n = 0


_engine_calls = _EngineCalls()


def _drop_superlu_registry() -> bool:
    """Drop the calling thread's SciPy registry.  True when SciPy's
    dealloc of it stumbled over an entry: it reads each entry's value
    (``None``) as the block's address, so it frees no block and leaves a
    ``TypeError`` set, which the call raises here."""
    try:
        _dict_del_item(_thread_state_dict(), _SUPERLU_REGISTRY)
    except TypeError:
        return True
    except KeyError:  # no registry on this thread
        pass
    return False


def _registry_drop_is_safe() -> bool:
    """Whether a drop leaves every listed block allocated, so that a
    SuperLU factor still alive on the thread keeps its memory (SciPy
    then never frees that factor's blocks, as for a factor freed on
    another thread).  Probed once on a thread of its own, whose registry
    lists only the block one ``gstrs`` call leaves; False also when that
    call leaves none, as nothing then needs dropping."""
    verdict = []

    def probe() -> None:
        one, idx = np.ones(1), np.array([0, 1], dtype=np.intc)
        _superlu.gstrs("N", 1, 1, one, idx[:1], idx, 1, 0, one[:0],
                       idx[:0], np.zeros(2, dtype=np.intc), np.ones(1))
        verdict.append(_drop_superlu_registry())

    thread = threading.Thread(target=probe, name="superlu-registry-probe")
    thread.start()
    thread.join()
    return verdict == [True]


def _release_superlu_registry() -> None:
    """Drop the calling thread's SciPy registry where that is safe."""
    global _registry_release
    if _registry_release is None:
        _registry_release = _registry_drop_is_safe()
    if _registry_release:
        _drop_superlu_registry()


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
class StoredTri:
    """A triangular step as a plan store keeps it: data, no objects.

    ``indptr``/``indices`` are the structure of the step's factor — in
    CSC, the SuperLU layout, for a step stored as an engine step
    (``csc``), else in CSR — and ``pos[k]`` is the position of entry
    ``k`` in the pattern's data array.  ``nlevels`` (the depth of the
    kernel's level schedule, ``None`` for a kernel without one) is the
    engine-rule feature the structure alone does not give, and
    ``dtype`` the pattern's value dtype.
    """

    __slots__ = ("csc", "indptr", "indices", "pos", "nlevels", "dtype")

    def __init__(self, csc: bool, indptr: np.ndarray, indices: np.ndarray,
                 pos: np.ndarray, nlevels: int | None, dtype) -> None:
        self.csc = bool(csc)
        self.indptr = indptr
        self.indices = indices
        self.pos = pos
        self.nlevels = nlevels
        self.dtype = np.dtype(dtype)

    def csr(self) -> tuple:
        """``(indptr, indices, pos)`` of the factor in CSR order."""
        if not self.csc:
            return self.indptr, self.indices, self.pos
        return _csr_of_csc(
            len(self.indptr) - 1, self.indptr, self.indices, self.pos
        )

    def tracer_prep(self) -> PreparedLower:
        """The factor as the pattern's tracer build held it: its values
        are the data positions ``pos + 1``."""
        indptr, indices, pos = self.csr()
        n = len(indptr) - 1
        return prepare_lower(CSRMatrix(
            n, n, indptr, indices, (pos + 1).astype(self.dtype),
            _validated=True,
        ))


class _TriStep:
    """One prebound triangular sub-solve.

    Whether it may use a SuperLU engine is decided at construction by
    :func:`engine_rule`, from features the segment already carries.  The
    step holds no values: per overlay and work dtype, the engine's
    values are built on first use if the engine serves them.

    A step compiled from a :class:`StoredTri` (``stored``) takes its
    engine layout from it; its segment's kernel-path state (the
    auxiliary data its kernel's ``preprocess`` builds) is derived from it
    only when something first needs it (:meth:`CompiledPlan.segment_aux`).
    """

    __slots__ = ("lo", "hi", "kernel", "device", "prep", "stored", "dtype",
                 "try_engine", "_engine", "_compute")

    def __init__(self, seg: TriSegment, device: DeviceModel,
                 stored: StoredTri | None = None) -> None:
        self.lo = int(seg.lo)
        self.hi = int(seg.hi)
        self.kernel = seg.kernel
        self.device = device
        self.stored = stored
        self._engine = None
        if stored is None:
            self.prep = prep = _segment_prep(seg)
            self.dtype = None if prep is None else prep.L.data.dtype
            features = prep is not None and _engine_features(seg, prep)
        else:
            self.prep = None
            self.dtype = stored.dtype
            rows = self.hi - self.lo
            features = (seg.kernel.name, rows, seg.nnz / max(rows, 1),
                        stored.nlevels)
        self.try_engine = bool(
            _HAVE_SUPERLU and features and engine_rule(*features)
        )
        if self.try_engine and stored is not None and stored.csc:
            self._engine = _GstrsEngine.from_layout(
                self.hi - self.lo, stored.indices, stored.indptr
            )
        #: work dtype -> the dtype its engine computes in
        self._compute: dict = {}

    # -- engine management ------------------------------------------- #
    def engine(self) -> _GstrsEngine:
        """The step's engine, its CSC layout computed from the pattern on
        first use (racing callers may each build one; any may be kept)."""
        engine = self._engine
        if engine is None:
            if self.stored is None:
                L = self.prep.L
            else:
                indptr, indices, _ = self.stored.csr()
                n = self.hi - self.lo
                L = CSRMatrix(n, n, indptr, indices, np.empty(len(indices)),
                              _validated=True)
            engine = self._engine = _GstrsEngine(L)
        return engine

    def _engine_values(self, ov: "Overlay", i: int, work_dtype) -> tuple:
        compute = self._compute.get(work_dtype)
        if compute is None:
            compute = self._compute[work_dtype] = solve_dtype(
                self.dtype, work_dtype
            )
        if ov.source is None:  # the plan's own values: this step's factor
            engine, prep = self.engine(), self.prep
            return engine.values(prep.L.data, engine.perm, prep.diag,
                                 compute, lambda: prep.L)
        return ov.source.engine_values(i, ov.data, ov.diags[i], compute)

    def _build_engine(self, ov: "Overlay", i: int, work_dtype: np.dtype):
        """Engine values of overlay ``ov`` at this work dtype if the engine
        serves them (values and work buffer in :data:`ENGINE_DTYPES`,
        every engine value finite), else None: the kernel path."""
        if self.dtype not in ENGINE_DTYPES or work_dtype not in ENGINE_DTYPES:
            return None
        try:
            vals = self._engine_values(ov, i, work_dtype)
        except Exception:
            return None
        # the factor scaled by its inverse diagonal: a NaN or inf in the
        # factor, or a scaling that overflows, shows here
        return vals if np.isfinite(vals[0]).all() else None

    def _engine_for(self, ov: "Overlay", i: int, work_dtype):
        engines = ov.engines[i]
        if work_dtype not in engines:
            engines[work_dtype] = self._build_engine(
                ov, i, np.dtype(work_dtype)
            )
        return engines[work_dtype]

    def probe(self, ov: "Overlay", i: int, work_dtype: np.dtype) -> bool:
        """Whether the engine reproduces the kernel's solution of a probe
        right-hand side over ``ov``'s values, to ENGINE_VERIFY_RTOL."""
        try:
            vals = self._engine_values(ov, i, work_dtype)
            n = self.hi - self.lo
            probe = np.linspace(0.5, 1.5, n).astype(work_dtype, copy=False)
            ref = np.asarray(
                self.kernel.solve_numeric(ov.bound_for(i), probe, self.device)
            )
            got = np.empty(n, dtype=work_dtype)
            self._engine.solve_into(vals, probe, got)
            scale = max(1.0, float(np.max(np.abs(ref))) if n else 0.0)
            err = float(np.max(np.abs(got - ref))) if n else 0.0
        except Exception:
            return False
        return bool(np.isfinite(err) and err <= ENGINE_VERIFY_RTOL * scale)

    # -- hot path ----------------------------------------------------- #
    def run(self, work: np.ndarray, out: np.ndarray, multi: bool,
            ov: "Overlay", i: int) -> None:
        lo, hi = self.lo, self.hi
        if self.try_engine:
            vals = self._engine_for(ov, i, out.dtype)
            if vals is not None:
                self._engine.solve_into(vals, work[lo:hi], out[lo:hi])
                return
        kernel = self.kernel
        solve = kernel.solve_numeric_multi if multi else kernel.solve_numeric
        out[lo:hi] = solve(ov.bound_for(i), work[lo:hi], self.device)


class _SpMVStep:
    """One prebound rectangular update ``b[rows] -= A @ x[cols]``."""

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi", "kernel")

    def __init__(self, seg) -> None:
        self.row_lo = int(seg.row_lo)
        self.row_hi = int(seg.row_hi)
        self.col_lo = int(seg.col_lo)
        self.col_hi = int(seg.col_hi)
        self.kernel = seg.kernel

    def run(self, work, out, multi: bool, ov: "Overlay", i: int) -> None:
        kernel = self.kernel
        run = kernel.run_numeric_multi if multi else kernel.run_numeric
        run(
            ov.bound[i],
            out[self.col_lo:self.col_hi],
            work[self.row_lo:self.row_hi],
        )


class _LiveStep:
    """A segment whose kernel does not declare ``pure_report``.

    Its simulated report may depend on the right-hand side, so it runs
    the kernel's reporting path over the overlay's segment on every
    solve and returns the live report, which replaces the segment's
    frozen capture.
    """

    __slots__ = ("device",)

    def __init__(self, device: DeviceModel) -> None:
        self.device = device

    def run(self, work, out, multi: bool, ov: "Overlay",
            i: int) -> KernelReport:
        return run_segment(ov.bound_for(i), work, out, self.device, multi)


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
# Work arenas
# --------------------------------------------------------------------- #
class _Arena:
    """Work + permuted-output buffers for one solve."""

    __slots__ = ("work", "out", "key")

    def __init__(self, n: int, k: int, work_dtype, with_out: bool) -> None:
        # k == 0 encodes the 1-D single-RHS shape; (n, 1) stays 2-D.
        shape = (n,) if k == 0 else (n, k)
        self.work = np.empty(shape, dtype=work_dtype)
        self.out = np.empty(shape, dtype=work_dtype) if with_out else None
        #: the free-list this arena belongs to — derived from its actual
        #: buffers, so a release can never file it under the wrong shape
        self.key = (self.work.dtype, k)


class _ArenaPool:
    """Bounded free-lists of arenas keyed by ``(dtype, n_rhs)``.

    Thread-safe: concurrent solves on the serve pool each check out
    their own arena, so buffer reuse can never mix two requests' data.
    """

    def __init__(self, n: int, with_out: bool) -> None:
        self._n = n
        self._with_out = with_out
        self._lock = threading.Lock()
        self._free: dict[tuple, list[_Arena]] = {}

    def acquire(self, dtype: np.dtype, k: int) -> _Arena:
        key = (dtype, k)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                return stack.pop()
        return _Arena(self._n, k, dtype, self._with_out)

    def release(self, arena: _Arena) -> None:
        # Key derived from the arena itself (not caller-supplied): a
        # mismatched release could otherwise poison a free-list with
        # wrong-shaped buffers that a later acquire hands out as-is.
        with self._lock:
            stack = self._free.setdefault(arena.key, [])
            if len(stack) < _POOL_KEEP:
                stack.append(arena)


class Overlay:
    """One values vector on a :class:`CompiledPlan`: what a solve reads
    that the plan's steps do not hold.

    Per step ``i``, ``engines[i]`` maps a work dtype to its engine values
    (:meth:`_GstrsEngine.values`), or to None where the step takes its
    kernel path — a dict only for steps whose structure chose an engine;
    ``bound[i]`` is what the step's kernel path runs on (auxiliary data,
    an SpMV matrix, a live step's segment); ``diags[i]`` is a triangular
    step's diagonal, gathered and checked once.  ``source`` (a
    :class:`~repro.core.rebind.PlanRebinder`) builds what is missing from
    ``data``; an overlay of the plan's own values has no source.  The
    overlay keeps the plan's step list, not the plan, so the plan may
    keep its own overlay without a reference cycle.
    """

    __slots__ = ("steps", "source", "data", "engines", "bound", "diags")

    def __init__(self, compiled: "CompiledPlan", source, data) -> None:
        self.steps = compiled._steps
        self.source = source
        self.data = data
        self.engines = [{} if e else None for e in compiled._engine_steps]
        self.bound = [None] * len(compiled._engine_steps)
        #: per triangular step, the diagonal ``source`` checked at bind
        self.diags = [None] * len(compiled._engine_steps)

    def bound_for(self, i: int):
        """Step ``i``'s kernel-path operand, bound on first use."""
        bound = self.bound[i]
        if bound is None and self.source is not None:
            bound = self.bound[i] = self.source.bind_step(i, self.data)
        return bound


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

    Every entry point takes an optional :class:`Overlay` bound onto this
    plan; without one it solves the plan's own values.

    A plan compiled from a plan store's arrays (``stored``: a
    :class:`StoredTri` per triangular segment, whose ``aux`` is then
    ``None``) holds its segments' kernel-path state only once something
    needs it (:meth:`segment_aux`).  A plan compiled with ``share``
    reuses that plan's step objects for the triangular segments the two
    plans hold in common.
    """

    def __init__(self, plan: ExecutionPlan, device: DeviceModel, *,
                 frozen: list | None = None,
                 stored: dict | None = None,
                 share: "CompiledPlan | None" = None) -> None:
        self.plan = plan
        self.device = device
        self.n = plan.n
        self.method = plan.method
        self.perm = plan.perm
        #: every kernel declares ``pure_report``, so no step is live
        self.pure = all(
            getattr(seg.kernel, "pure_report", False) for seg in plan.segments
        )
        #: the plan's values are tracer positions (a pattern template):
        #: it solves only overlays a PlanRebinder binds onto it
        self.pattern_only = False
        self._own: Overlay | None = None
        self._order = range(len(plan.segments))
        #: instrumentation constants per (RHS width, schedule)
        self._obs_cache: dict = {}
        self._dtype_cache: dict = {}
        #: RHS width (0 = one vector) -> frozen (per-segment reports, merged)
        self._captures: dict[int, tuple[list[KernelReport], SolveReport]] = {}
        self._capture_lock = threading.Lock()
        stored = stored or {}
        shared = {} if share is None else {
            id(seg): step
            for seg, step in zip(share.plan.segments, share._steps)
            if isinstance(seg, TriSegment)
        }
        self._steps = [shared.get(id(seg)) or self._step(seg, stored.get(i))
                       for i, seg in enumerate(plan.segments)]
        #: per step, whether its structure chose a SuperLU engine
        self._engine_steps = tuple(
            isinstance(s, _TriStep) and s.try_engine for s in self._steps
        )
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
        self._pool = _ArenaPool(self.n, with_out=self.perm is not None)
        # Frozen reports are pure functions of segment structure +
        # device, so a caller that already holds them (the plan store's
        # load path, a tiled plan sharing its source's segments) can
        # inject them and skip the capture probe.
        if frozen is not None and len(frozen) == len(plan.segments):
            self._captures[0] = (list(frozen), self._merge(frozen, 0))
        else:
            self._capture(0)

    def _step(self, seg, stored: StoredTri | None = None):
        if not getattr(seg.kernel, "pure_report", False):
            return _LiveStep(self.device)
        if isinstance(seg, TriSegment):
            return _TriStep(seg, self.device, stored)
        return _SpMVStep(seg)

    # -- kernel-path state -------------------------------------------- #
    def segment_aux(self, i: int):
        """Segment ``i``'s auxiliary data, derived on first use for a
        step compiled from a :class:`StoredTri`: the factor its tracer
        build held, through the kernel's own ``preprocess``, so it equals
        the writer's array for array.  Racing callers may each derive
        it; any result may be kept."""
        seg = self.plan.segments[i]
        if seg.aux is None:
            step = self._steps[i]
            seg.aux = step.kernel.preprocess(
                step.stored.tracer_prep(), self.device
            )[0]
        return seg.aux

    def materialize(self) -> None:
        """Derive every lazily held segment's kernel-path state now."""
        for i, step in enumerate(self._steps):
            if isinstance(step, _TriStep) and step.stored is not None:
                self.segment_aux(i)

    # -- values ------------------------------------------------------- #
    def _overlay(self, overlay: Overlay | None) -> Overlay:
        """``overlay`` (bound onto this plan), or the overlay of the plan's
        own values, which a pattern template's tracer positions refuse."""
        if overlay is not None:
            if overlay.steps is not self._steps:
                raise ValueError("the overlay was bound onto another plan")
            return overlay
        if self._own is None:
            if self.pattern_only:
                raise ValueError(
                    "a pattern template holds tracer positions, not "
                    "values; solve it through an overlay from "
                    "PlanRebinder.bind"
                )
            with self._capture_lock:
                if self._own is None:
                    own = Overlay(self, None, None)
                    own.bound[:] = [
                        seg if isinstance(step, _LiveStep)
                        else seg.aux if isinstance(seg, TriSegment)
                        else seg.matrix
                        for seg, step in zip(self.plan.segments, self._steps)
                    ]
                    self._own = own
        return self._own

    # -- engines ------------------------------------------------------ #
    def engines_served(self, b_dtype=np.float64,
                       overlay: Overlay | None = None) -> tuple:
        """Per step, whether its engine serves ``overlay`` (default: the
        plan's own values) for a ``b_dtype`` right-hand side, decided
        now if no solve has yet (None: no engine)."""
        ov = self._overlay(overlay)
        dt = self._work_dtype(np.dtype(b_dtype))
        return tuple(
            None if ov.engines[i] is None
            else step._engine_for(ov, i, dt) is not None
            for i, step in enumerate(self._steps)
        )

    def probe_engines(self, b_dtype, overlay: Overlay | None = None
                      ) -> tuple:
        """Probe every engine of ``overlay`` for a ``b_dtype`` right-hand
        side, pinning the kernel path where rejected; per step, the
        probe's verdict (None: no engine)."""
        ov = self._overlay(overlay)
        dt = self._work_dtype(np.dtype(b_dtype))
        out = []
        for i, step in enumerate(self._steps):
            engines = ov.engines[i]
            keep = None if engines is None else step.probe(ov, i, dt)
            if keep is False:
                engines[dt] = None
            out.append(keep)
        return tuple(out)

    # -- frozen reports ----------------------------------------------- #
    def _capture(self, k: int) -> tuple[list[KernelReport], SolveReport]:
        """One probe execution at RHS width ``k`` (0 = one vector)
        through the kernels' reporting path, freezing the per-segment
        reports for every later solve at this width.

        Valid under the ``pure_report`` contract: the simulated report
        depends only on ``(aux, device, n_rhs)``.  A live step's entry is
        only a placeholder, replaced by its live report on every solve.
        """
        self.materialize()
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
        frozen, m = self._captures[k]
        if reports is frozen:
            report = SolveReport(
                m.method, m.time_s, m.flops, m.launches, m.bytes_moved,
                list(m.kernels), dict(m.detail),
            )
        else:
            report = self._merge(reports, k)
        if profile is not None:
            report.profile = profile
        return report

    # -- the step loop ------------------------------------------------- #
    def _execute(self, B: np.ndarray, k: int, order, schedule=None,
                 overlay: Overlay | None = None):
        """The one step loop behind every solve.

        Checks an arena out of the pool, permutes ``B`` (RHS width ``k``,
        0 = one vector) into it, runs the steps in ``order`` over the
        values of ``overlay`` (default: the plan's own), and un-permutes
        the result.  Returns ``(x, reports, profile)``: the
        per-segment reports are the frozen capture at this width with
        live steps' reports substituted, and ``profile`` builds the
        per-segment rows under an active observability bundle (``None``
        otherwise).  ``schedule`` tags the instrumentation with each
        segment's device; without one every segment runs on device 0.
        For any topological order of the segment DAG every step sees the
        same operands, so the result is bit-identical across orders.
        """
        if overlay is None or overlay.steps is not self._steps:
            overlay = self._overlay(overlay)
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
                    B.take(perm, axis=0, out=work)
                else:
                    work[...] = B[perm]
            else:
                np.copyto(work, B, casting="unsafe")
            result = np.empty(work.shape, dtype=dtype)
            out = result if perm is None else arena.out
            if self._needs_zero:
                out.fill(0)
            if obs is None and self.pure:
                steps = self._steps
                multi = k > 0
                for idx in order:
                    steps[idx].run(work, out, multi, overlay, idx)
            else:
                reports, profile = self._run_traced(
                    obs, order, schedule, work, out, k, reports, overlay
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

    def _run_traced(self, obs, order, schedule, work, out, k, reports, ov):
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
                rep = steps[idx].run(work, out, multi, ov, idx)
                if rep is not None:
                    reports[idx] = rep
            return reports, None
        rows, telemetry, _ = self._obs_static(k, schedule)
        now = monotonic
        ts = array("d", (now(),))
        tick = ts.append
        live = None
        for idx in order:
            rep = steps[idx].run(work, out, multi, ov, idx)
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

    def solve(self, b: np.ndarray, overlay: Overlay | None = None
              ) -> tuple[np.ndarray, SolveReport]:
        """One SpTRSV; drop-in for ``plan.solve(b, device)``."""
        x, reports, profile = self._execute(
            self._check_b(b), 0, self._order, None, overlay
        )
        return x, self._report(0, reports, profile)

    def solve_multi(self, B: np.ndarray, overlay: Overlay | None = None
                    ) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS solve; drop-in for ``plan.solve_multi``."""
        B = self._check_B(B)
        k = B.shape[1]
        X, reports, profile = self._execute(B, k, self._order, None, overlay)
        return X, self._report(k, reports, profile)

    def solve_ordered(self, b: np.ndarray, order,
                      overlay: Overlay | None = None) -> np.ndarray:
        """Run the compiled steps in ``order`` (a permutation of segment
        indices) and return the solution.

        For any topological order of the plan's segment DAG this performs
        the same floating-point operations on the same operands as
        :meth:`solve`, so the result is bit-identical to it.  No report
        is built — a sharded schedule times itself.
        """
        self._check_order(order)
        return self._execute(self._check_b(b), 0, order, None, overlay)[0]

    def solve_multi_ordered(self, B: np.ndarray, order,
                            overlay: Overlay | None = None) -> np.ndarray:
        """Multi-RHS :meth:`solve_ordered`; bit-identical to
        :meth:`solve_multi` for topological orders."""
        self._check_order(order)
        B = self._check_B(B)
        return self._execute(B, B.shape[1], order, None, overlay)[0]


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
                 frozen: list | None = None,
                 stored: dict | None = None,
                 share: CompiledPlan | None = None) -> CompiledPlan:
    """Compile ``plan`` for repeated solves on ``device``.

    Compilation itself costs roughly one probe solve per plan (plus one
    CSC conversion per engine-eligible triangular segment) and is paid
    once — the serve layer compiles at cache-insert time, so every
    cache hit lands on the compiled hot path.  ``frozen`` injects
    previously captured per-segment reports at one RHS vector (e.g. read
    from :class:`repro.serve.store.PlanStore`), skipping the probe.
    ``stored`` maps the index of each triangular segment held without
    its auxiliary data to its :class:`StoredTri`; ``share`` is a
    compiled plan whose triangular steps this one reuses.
    """
    return CompiledPlan(plan, device, frozen=frozen, stored=stored,
                        share=share)
