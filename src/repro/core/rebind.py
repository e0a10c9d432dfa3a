"""Value rebinding: bind new matrix values onto a pattern-compiled plan.

The planners (§3.1-3.4) decide everything — segment boundaries, kernel
selection, level schedules, block layouts — from the sparsity structure;
the numeric values only ever flow through *gathers* (``data[order]``,
``strict.data[flat]``, diagonal extraction).  That makes the whole
pipeline traceable: build the plan once on a *tracer* matrix whose data
array is ``[1, 2, ..., nnz]``, then read the value arrays embedded in
the finished plan back as position maps into the original data array.

Binding a new values vector is then a handful of ``data[posmap]``
gathers into an :class:`~repro.core.executor.Overlay` — no re-planning,
no level discovery, no block re-layout, and no plan or executor object:
the pattern's one compiled plan solves whichever overlay it is handed.

This is the mechanism behind the serve layer's structural batching: the
same-pattern/different-values workloads of factorization-driven solvers
(ICCG re-solves, repeated Li-style amortization) skip the 5-10x
preprocessing cost entirely after the first values variant.

Anything the tracer cannot represent exactly (non-float dtypes, nnz
beyond the dtype's exact-integer range, external kernels with opaque
auxiliary state) raises :class:`RebindError`; callers fall back to a
full per-values build.

The same maps are what a plan store keeps of a pattern
(:func:`stored_layout`): per triangular step its factor's structure and
data positions, per SpMV step its matrix's.  :func:`check_stored` checks
such arrays against a request's own structure before anything is built
on them, so a damaged or crafted entry is refused, never solved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from functools import partial

import numpy as np

from repro.core.executor import (
    CompiledPlan,
    Overlay,
    StoredTri,
    _LiveStep,
    _SpMVStep,
    _TriStep,
)
from repro.core.plan import SpMVSegment, TriSegment
from repro.formats.triangular import check_solvable_diagonal
from repro.kernels.base import PreparedLower
from repro.kernels.sweep import LevelSchedule

__all__ = [
    "RebindError",
    "tracer_matrix",
    "PlanRebinder",
    "stored_layout",
    "check_stored",
]

#: largest integer each float itemsize represents exactly — a tracer
#: position beyond this would round and corrupt the position map
_MAX_EXACT_INT = {2: 2048, 4: 1 << 24, 8: 1 << 53}


class RebindError(Exception):
    """The plan's value flow cannot be traced back to data positions."""


def tracer_matrix(A):
    """``A`` with its data replaced by the positions ``1..nnz``.

    The values are 1-based so every diagonal entry is nonzero — the
    tracer must survive the same singularity validation the real build
    runs.  Raises :class:`RebindError` when the dtype cannot hold every
    position exactly (non-float data, or nnz beyond the exact-integer
    range of the dtype).
    """
    dt = A.data.dtype
    if not np.issubdtype(dt, np.floating):
        raise RebindError(f"tracer requires float data, got {dt}")
    limit = _MAX_EXACT_INT.get(dt.itemsize)
    if limit is None or A.nnz + 1 > limit:
        raise RebindError(
            f"nnz={A.nnz} exceeds exact-integer range of {dt}"
        )
    data = np.arange(1, A.nnz + 1, dtype=dt)
    return replace(A, data=data, _validated=True)


def _bind_segment(seg, bind, data):
    """A live step's segment, its aux or matrix bound to ``data``."""
    if isinstance(seg, TriSegment):
        return replace(seg, aux=bind(data))
    return replace(seg, matrix=bind(data))


def _prep_of(aux) -> PreparedLower:
    """The :class:`PreparedLower` inside a triangular kernel's aux."""
    if isinstance(aux, PreparedLower):
        return aux
    if dataclasses.is_dataclass(aux) and isinstance(
        getattr(aux, "sched", None), LevelSchedule
    ):
        return aux.sched.prep
    raise RebindError(f"unrecognized auxiliary type {type(aux).__qualname__}")


def _positions(arr: np.ndarray) -> np.ndarray:
    """A tracer value array as the data positions it holds."""
    return np.subtract(arr, 1, dtype=np.int64, casting="unsafe")


class PlanRebinder:
    """Compose position maps from a tracer-built compiled plan; bind new
    values onto it as overlays.

    Construct with the :class:`CompiledPlan` that executes the plan
    prepared from a :func:`tracer_matrix` (for a sharded executor, the
    :class:`~repro.dist.DistributedPlan`'s tiled ``compiled``), which it
    marks ``pattern_only``.  Every value array in the plan is decoded
    into an ``int64`` map of positions into the original data array and
    composed once into what each step reads: its diagonal map; for a
    SuperLU-engine step, the factor's map indexed by the step's CSC
    permutation; the binder of its kernel-path operand.  Construction
    raises :class:`RebindError` on any value array that is not an exact
    gather of tracer positions — e.g. an external kernel whose
    preprocessing does arithmetic on the values.

    A triangular step compiled from a plan store's
    :class:`~repro.core.executor.StoredTri` brings its maps with it; its
    kernel-path binder is decoded, like a tracer-built one, from the
    auxiliary data :meth:`CompiledPlan.segment_aux` derives the first
    time an overlay needs that path.
    """

    def __init__(self, compiled: CompiledPlan, nnz: int, dtype) -> None:
        self.compiled = compiled
        self.plan = compiled.plan
        self.nnz = int(nnz)
        self.dtype = np.dtype(dtype)
        #: (step index, diagonal map) per triangular step
        self._diags: list = []
        #: engine step index -> its CSC gather (None: no CSC layout)
        self._engines: dict = {}
        #: per step, the binder of its kernel-path operand (None until a
        #: stored step's kernel path is first needed)
        self._binders: list = []
        for i, (seg, step) in enumerate(zip(self.plan.segments,
                                            compiled._steps)):
            if isinstance(seg, TriSegment):
                bind = self._tri(i, seg, step)
            elif isinstance(seg, SpMVSegment):
                bind = self.matrix_binder(seg.matrix)
            else:
                raise RebindError(
                    f"unrecognized segment type {type(seg).__qualname__}"
                )
            if isinstance(step, _LiveStep):  # it runs the whole segment
                bind = partial(_bind_segment, seg, bind)
            self._binders.append(bind)
        #: (step index, matrix binder) per pure SpMV step, bound eagerly
        self._spmv = [(i, self._binders[i])
                      for i, step in enumerate(compiled._steps)
                      if isinstance(step, _SpMVStep)]
        compiled.pattern_only = True

    # ------------------------------------------------------------------ #
    # Position-map extraction
    # ------------------------------------------------------------------ #
    def _pos_map(self, arr: np.ndarray) -> np.ndarray:
        """Decode a tracer value array back into data positions."""
        arr = np.asarray(arr)
        if arr.dtype != self.dtype:
            raise RebindError(
                f"value array dtype {arr.dtype} != matrix dtype {self.dtype}"
            )
        with np.errstate(invalid="ignore"):  # NaN/inf cast to garbage
            pos = arr.astype(np.int64)
        # Only a tracer position, an exact integer in [1, nnz], survives
        # the round trip: fractions, NaN and inf compare unequal.
        if arr.size and (
            not np.array_equal(pos, arr)
            or pos.min() < 1
            or pos.max() > self.nnz
        ):
            raise RebindError("value array is not a pure gather of the data")
        pos -= 1
        return pos

    def matrix_binder(self, m, pmap: np.ndarray | None = None):
        """Binder for a CSR/DCSR-like dataclass carrying a ``data`` array
        (``pmap``: its already decoded position map)."""
        if not dataclasses.is_dataclass(m) or not hasattr(m, "data"):
            raise RebindError(f"unrecognized matrix type {type(m).__qualname__}")
        if pmap is None:
            pmap = self._pos_map(m.data)
        trusted = {"_validated": True} if any(
            f.name == "_validated" for f in dataclasses.fields(m)
        ) else {}
        return lambda data: replace(m, data=data[pmap], **trusted)

    def _tri(self, i: int, seg: TriSegment, step):
        """Record triangular step ``i``'s maps; returns its aux binder."""
        stored = getattr(step, "stored", None)
        if stored is None:
            dmap, lmap, bind_aux = self._aux_maps(seg.aux)
        else:
            # the diagonal leads each CSC column and ends each CSR row
            ends = stored.indptr[:-1] if stored.csc else stored.indptr[1:] - 1
            dmap, lmap, bind_aux = stored.pos[ends], stored.pos, None
        self._diags.append((i, dmap))
        if isinstance(step, _TriStep) and step.try_engine:
            engine = step.engine()
            if stored is not None and stored.csc:
                self._engines[i] = lmap  # stored in CSC order already
            else:
                self._engines[i] = (
                    None if engine.perm is None else lmap[engine.perm]
                )
        return bind_aux

    def _aux_maps(self, aux) -> tuple:
        """``(diagonal map, factor map, aux binder)`` decoded from a
        triangular kernel's tracer-valued auxiliary data."""
        prep = _prep_of(aux)
        sched = None if aux is prep else aux.sched
        lmap = self._pos_map(prep.L.data)
        dmap = self._pos_map(prep.diag)
        bind_L = self.matrix_binder(prep.L, lmap)
        bind_strict = self.matrix_binder(prep.strict)

        def bind_prep(data):
            return PreparedLower(bind_L(data), bind_strict(data), data[dmap])

        if sched is None:
            return dmap, lmap, bind_prep
        emap = self._pos_map(sched.entry_vals)

        # replace() passes the existing _cost_cache through, so all
        # overlays share one cache — its keys are value-independent
        # (device, value_bytes, mode), which the pattern key pins.
        def bind_aux(data):
            return replace(aux, sched=replace(
                sched, prep=bind_prep(data), entry_vals=data[emap]
            ))

        return dmap, lmap, bind_aux

    def bind_step(self, i: int, data: np.ndarray):
        """Step ``i``'s kernel-path operand over ``data`` (a stored
        step's kernel path is derived and decoded on first use)."""
        bind = self._binders[i]
        if bind is None:
            bind = self._aux_maps(self.compiled.segment_aux(i))[2]
            self._binders[i] = bind
        return bind(data)

    def engine_values(self, i: int, data: np.ndarray, diag: np.ndarray,
                      dtype: np.dtype) -> tuple:
        """Engine values of step ``i`` over ``data``, whose diagonal
        ``diag`` the bind already gathered and checked."""
        return self.compiled._steps[i].engine().values(
            data, self._engines[i], diag, dtype,
            lambda: _prep_of(self.bind_step(i, data)).L,
        )

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, data: np.ndarray) -> Overlay:
        """An overlay of ``data`` on the compiled plan.

        Every diagonal is gathered and checked once (the tracer build
        validated *its* diagonal; a zero pivot in the real values must
        still raise) and every SpMV matrix bound.  The rest — engine
        values, kernel-path operands — is built on first use from
        ``data``, which the overlay keeps: do not modify it afterwards.
        """
        data = np.asarray(data)
        if data.shape != (self.nnz,) or data.dtype != self.dtype:
            raise RebindError(
                f"data must have shape ({self.nnz},) dtype {self.dtype}, "
                f"got {data.shape} {data.dtype}"
            )
        ov = Overlay(self.compiled, self, data)
        diags = ov.diags
        for i, dmap in self._diags:
            diag = data.take(dmap)
            check_solvable_diagonal(diag)
            diags[i] = diag
        for i, bind in self._spmv:
            ov.bound[i] = bind(data)
        return ov


# --------------------------------------------------------------------- #
# Plan-store layouts
# --------------------------------------------------------------------- #
def stored_layout(compiled: CompiledPlan) -> list:
    """What a plan store keeps of a tracer-built compiled plan, per
    segment: a :class:`~repro.core.executor.StoredTri` for a triangular
    step (an engine step in its CSC layout, with its composed gather),
    and an SpMV matrix's data positions.  Raises :class:`RebindError`
    for a step that runs a kernel's reporting path (``pure_report``
    unset): its state cannot be re-derived from arrays."""
    out: list = []
    for seg, step in zip(compiled.plan.segments, compiled._steps):
        if isinstance(step, _LiveStep):
            raise RebindError(f"kernel {seg.kernel.name!r} is not pure")
        if isinstance(step, _SpMVStep):
            out.append(_positions(seg.matrix.data))
            continue
        prep = _prep_of(seg.aux)
        nlevels = getattr(getattr(seg.aux, "sched", None), "nlevels", None)
        lmap = _positions(prep.L.data)
        engine = step.engine() if step.try_engine else None
        if engine is not None and engine.perm is not None:
            out.append(StoredTri(True, engine.indptr, engine.indices,
                                 lmap[engine.perm], nlevels, step.dtype))
        else:
            out.append(StoredTri(False, prep.L.indptr, prep.L.indices,
                                 lmap, nlevels, step.dtype))
    return out


def check_stored(A, plan, layout: list, mirror: np.ndarray | None) -> None:
    """Raise :class:`RebindError` unless ``layout`` (as
    :func:`stored_layout` gives it, for the segments of ``plan``) holds
    every entry of ``A`` exactly once, each at its own place.

    An entry's place is its row and column in the plan's coordinates:
    through the mirror permutation ``mirror`` (``perm[k]`` is the row of
    ``A`` at slot ``k``; ``None`` for a lower pattern), then through
    ``plan.perm``.  The keys ``col * n + row`` (a CSC step) or
    ``row * n + col`` of what a step stores are compared with those of
    the entries its map gathers.  ``plan.perm`` must already be known to
    be a bijection (:func:`~repro.validate.invariants.check_plan`); the
    mirror is checked here.  A triangular step's keys must strictly
    increase and its diagonal lead each CSC column (end each CSR row):
    then it is a lower-triangular factor with its diagonal, sorted,
    without repeats, and its entries are distinct.  The triangular
    blocks are disjoint and the SpMV blocks lie below them (``plan``'s
    segment bounds are checked by
    :func:`repro.validate.invariants.check_plan`, not here), so all maps
    together are a permutation of ``A``'s data once the SpMV maps repeat
    no position and the maps hold ``A.nnz`` positions in all.
    """
    n, nnz = A.n_rows, A.nnz
    # keys below n * n fit int32, which halves their memory traffic
    kdt = np.int32 if n * n <= 2**31 else np.int64
    if mirror is not None and (mirror.shape != (n,) or not (
        np.bincount(mirror, minlength=n) == 1
    ).all()):
        raise RebindError("the stored mirror is not a bijection")
    q = None
    for perm in (mirror, plan.perm):
        if perm is None:
            continue
        inv = np.empty(n, dtype=kdt)
        inv[perm] = np.arange(n, dtype=kdt)
        q = inv if q is None else inv.take(q)
    if q is None:
        q = np.arange(n, dtype=kdt)
    counts = np.diff(A.indptr)
    keys: dict = {}

    def key(csc: bool) -> np.ndarray:
        k = keys.get(csc)
        if k is None:
            if csc:
                k = (q * n).take(A.indices) + np.repeat(q, counts)
            else:
                k = np.repeat(q * n, counts) + q.take(A.indices)
            keys[csc] = k
        return k

    spmv_seen = None
    used = spmv_used = 0
    for seg, stored in zip(plan.segments, layout):
        if isinstance(seg, TriSegment):
            lo, m = seg.lo, seg.hi - seg.lo
            indptr, minor, pos = stored.indptr, stored.indices, stored.pos
            if indptr.shape != (m + 1,) or indptr[0] != 0 or not (
                minor.shape == pos.shape == (seg.nnz,) == (indptr[-1],)
            ):
                raise RebindError("a triangular step's arrays disagree")
            steps = np.diff(indptr)
            # with the diagonal leading each CSC column (ending each CSR
            # row) and keys increasing, a column's rows lie in [col, m)
            # (a row's columns in [0, row]) once the outer bound holds
            if (steps < 1).any() or (m and (
                minor.max() >= m if stored.csc else minor.min() < 0
            )):
                raise RebindError("a triangular step lacks a diagonal")
            first = indptr[:-1] if stored.csc else indptr[1:] - 1
            if (minor.take(first) != np.arange(m)).any():
                raise RebindError("a triangular step is not lower-triangular")
            if seg.kernel.name == "diagonal" and len(pos) != m:
                raise RebindError("a diagonal step stores off-diagonal entries")
            base = np.arange(lo, lo + m, dtype=kdt) * n + lo
            want = np.repeat(base, steps) + minor
            if (want[1:] <= want[:-1]).any():
                raise RebindError("a triangular step is unsorted or repeats")
            csc = stored.csc
        else:
            pos, mat = stored, seg.matrix
            if pos.shape != (mat.nnz,) or mat.indptr[0] != 0:
                raise RebindError("an SpMV step's arrays disagree")
            rows = getattr(mat, "row_ids", None)
            rows = np.arange(mat.n_rows) if rows is None else rows
            base = (rows.astype(kdt) + seg.row_lo) * n + seg.col_lo
            want = np.repeat(base, np.diff(mat.indptr)) + mat.indices
            csc = False
            if spmv_seen is None:
                spmv_seen = np.zeros(nnz, dtype=bool)
        # take() below refuses a position past the end, not a negative one
        if len(pos) and pos.min() < 0:
            raise RebindError("a stored position is out of range")
        if not np.array_equal(key(csc).take(pos), want):
            raise RebindError("a stored map does not gather its entries")
        if not isinstance(seg, TriSegment):
            spmv_seen[pos] = True
            spmv_used += len(pos)
        used += len(pos)
    if used != nnz or (
        spmv_used and np.count_nonzero(spmv_seen) != spmv_used
    ):
        raise RebindError("the stored maps do not cover the data once")
