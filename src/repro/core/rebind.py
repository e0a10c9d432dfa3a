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
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from functools import partial

import numpy as np

from repro.core.executor import (
    CompiledPlan,
    Overlay,
    _LiveStep,
    _SpMVStep,
    _TriStep,
)
from repro.core.plan import SpMVSegment, TriSegment
from repro.formats.triangular import check_solvable_diagonal
from repro.kernels.base import PreparedLower
from repro.kernels.sweep import LevelSchedule

__all__ = ["RebindError", "tracer_matrix", "PlanRebinder", "remap_verdicts"]

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


def remap_verdicts(verdicts: tuple, src, dst) -> tuple:
    """Engine verdicts indexed by the segments of plan ``src``, re-indexed
    onto plan ``dst``, which holds the same triangular segments in the
    same order (:func:`repro.dist.tile_plan` splits only SpMV segments,
    and those never carry a verdict)."""
    tri = iter([v for v, seg in zip(verdicts, src.segments)
                if isinstance(seg, TriSegment)])
    return tuple(next(tri) if isinstance(seg, TriSegment) else None
                 for seg in dst.segments)


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
    preprocessing does arithmetic on the values.  ``verified=True``
    skips that check for a plan whose arrays already passed it byte for
    byte: a plan-store entry, written only after the writer's own
    rebinder accepted the same checksummed arrays.
    """

    def __init__(self, compiled: CompiledPlan, nnz: int, dtype, *,
                 verified: bool = False) -> None:
        self.compiled = compiled
        self.plan = compiled.plan
        self.nnz = int(nnz)
        self.dtype = np.dtype(dtype)
        self._verified = verified
        #: (step index, diagonal map) per triangular step
        self._diags: list = []
        #: engine step index -> (CSC gather or None, diag map, factor binder)
        self._engines: dict = {}
        #: per step, the binder of its kernel-path operand
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
        if self._verified:
            return np.subtract(arr, 1, dtype=np.int64, casting="unsafe")
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
        aux = seg.aux
        if isinstance(aux, PreparedLower):
            prep, sched = aux, None
        elif dataclasses.is_dataclass(aux) and isinstance(
            getattr(aux, "sched", None), LevelSchedule
        ):
            prep, sched = aux.sched.prep, aux.sched
        else:
            raise RebindError(
                f"unrecognized auxiliary type {type(aux).__qualname__}"
            )
        lmap = self._pos_map(prep.L.data)
        dmap = self._pos_map(prep.diag)
        bind_L = self.matrix_binder(prep.L, lmap)
        bind_strict = self.matrix_binder(prep.strict)

        # The diagonal was checked when the overlay was bound.
        def bind_prep(data):
            return PreparedLower(bind_L(data), bind_strict(data), data[dmap])

        if sched is None:
            bind_aux = bind_prep
        else:
            emap = self._pos_map(sched.entry_vals)
            # replace() passes the existing _cost_cache through, so all
            # overlays share one cache — its keys are value-independent
            # (device, value_bytes, mode), which the pattern key pins.
            def bind_aux(data):
                return replace(aux, sched=replace(
                    sched, prep=bind_prep(data), entry_vals=data[emap]
                ))

        self._diags.append((i, dmap))
        if isinstance(step, _TriStep) and step.try_engine:
            engine = step.engine()
            gather = None if engine.perm is None else lmap[engine.perm]
            self._engines[i] = (gather, dmap, bind_L)
        return bind_aux

    def bind_step(self, i: int, data: np.ndarray):
        """Step ``i``'s kernel-path operand over ``data``."""
        return self._binders[i](data)

    def engine_values(self, i: int, data: np.ndarray,
                      dtype: np.dtype) -> tuple:
        """Engine values of step ``i`` over ``data``."""
        gather, dmap, bind_L = self._engines[i]
        return self.compiled._steps[i].engine().values(
            data, gather, data[dmap], dtype, lambda: bind_L(data)
        )

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, data: np.ndarray, verdicts: tuple | None = None
             ) -> Overlay:
        """An overlay of ``data`` on the compiled plan.

        Every diagonal is checked (the tracer build validated *its*
        diagonal; a zero pivot in the real values must still raise) and
        every SpMV matrix bound.  ``verdicts`` (see
        :meth:`CompiledPlan.adopt_engine_verdicts`) build the kept
        engines' values now.  The rest is built on first use from
        ``data``, which the overlay keeps: do not modify it afterwards.
        """
        data = np.asarray(data)
        if data.shape != (self.nnz,) or data.dtype != self.dtype:
            raise RebindError(
                f"data must have shape ({self.nnz},) dtype {self.dtype}, "
                f"got {data.shape} {data.dtype}"
            )
        compiled = self.compiled
        ov = Overlay(compiled, self, data)
        for i, dmap in self._diags:
            check_solvable_diagonal(data[dmap])
        for i, bind in self._spmv:
            ov.bound[i] = bind(data)
        if verdicts:
            compiled.adopt_engine_verdicts(verdicts, ov)
        return ov
