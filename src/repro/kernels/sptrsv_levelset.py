"""Algorithm 2 — the basic level-set SpTRSV kernel.

One GPU kernel per level set with a global barrier (the kernel boundary)
in between: lines 13–21 of Algorithm 2.  The cost model charges a full
kernel-launch latency per level — the method's defining overhead — plus a
roofline term per level, so the kernel is excellent for shallow, wide
matrices and degrades linearly in the level count.

The per-row mapping adapts like production level-set kernels do: a thread
per row ("scalar") for short rows, a warp per row ("vector") when the
average row is long enough to occupy the lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport
from repro.kernels.base import (
    INDEX_BYTES,
    PTR_BYTES,
    PreparedLower,
    SpTRSVKernel,
    solve_flops,
)
from repro.kernels.sweep import (
    LevelSchedule,
    build_level_schedule,
    sweep_solve,
    sweep_solve_multi,
)

__all__ = ["LevelSetKernel"]

#: rows with more strict entries than this use a warp per row
VECTOR_MODE_THRESHOLD = 8.0
#: simulated preprocessing: level discovery cost per nonzero (seconds)
PREPROCESS_S_PER_NNZ = 2.0e-9
#: simulated preprocessing: per-level bookkeeping (seconds)
PREPROCESS_S_PER_LEVEL = 0.5e-6
#: issue latency of one dependent FMA step in a scalar row (cycles)
ROW_CHAIN_CYCLES = 8.0
#: warp-reduction tail of vector mode (cycles)
VECTOR_REDUCE_CYCLES = 30.0
#: intra-kernel synchronization between merged levels (grid-wide sync /
#: cooperative-groups barrier) — far cheaper than a kernel launch
INTRA_SYNC_S = 0.4e-6


@dataclass
class _LevelSetAux:
    sched: LevelSchedule
    vector_mode: bool
    #: group boundaries over levels when small-level merging is enabled
    #: (Naumov's optimization: consecutive small levels share one kernel)
    group_ptr: np.ndarray | None = None


def merge_small_levels(
    sched: LevelSchedule, device: DeviceModel, *, waves: float = 2.0
) -> np.ndarray:
    """Greedy grouping of consecutive levels into single kernels.

    Levels are merged while the running row count stays below
    ``waves * cuda_cores`` (a group bigger than a couple of thread waves
    gains nothing from merging but pays the intra-kernel barrier).
    Returns a ``group_ptr`` over levels (``group_ptr[g]:group_ptr[g+1]``
    = levels of kernel ``g``).
    """
    budget = max(1.0, waves * device.cuda_cores)
    boundaries = [0]
    acc = 0.0
    for lv in range(sched.nlevels):
        rows = float(sched.level_rows[lv])
        if acc > 0 and acc + rows > budget:
            boundaries.append(lv)
            acc = 0.0
        acc += rows
    boundaries.append(sched.nlevels)
    return np.asarray(boundaries, dtype=np.int64)


def _sweep_cost(
    sched: LevelSchedule,
    device: DeviceModel,
    *,
    vector_mode: bool,
    step_overhead_s: float,
    fixed_overhead_s: float,
    mem_factor: float = 1.0,
    thin_row_pipeline_s: float = 0.0,
    n_rhs: int = 1,
    group_ptr: np.ndarray | None = None,
) -> tuple[float, float]:
    """Vectorized-over-levels cost of a level-ordered sweep.

    Shared by the basic level-set kernel and the cuSPARSE stand-in, which
    differ only in their per-step overhead (full launch vs persistent-
    kernel step), fixed call overhead and memory efficiency factor.
    Returns ``(total_time_s, total_bytes)``.
    """
    cost = CostModel(device)
    prep = sched.prep
    vb = prep.value_bytes
    # x and b working set for the gather model; a fused multi-RHS sweep
    # streams the matrix once per level but moves n_rhs-wide vector rows.
    ws = 2.0 * prep.n * vb * n_rhs
    z = sched.level_nnz.astype(np.float64)
    r = sched.level_rows.astype(np.float64)
    maxlen = sched.level_maxlen.astype(np.float64)
    # --- memory: streamed CSR arrays + random x gathers ---
    payload = INDEX_BYTES + vb
    if vector_mode:
        entry_bytes = np.full(len(z), float(payload))
    else:
        # thread-per-row striding: see CostModel.scalar_entry_bytes
        avg_len = z / np.maximum(r, 1.0)
        entry_bytes = np.clip(avg_len * payload, payload, device.sector_bytes)
    stream_bytes = z * entry_bytes + r * (2 * PTR_BYTES + 3 * vb * n_rhs)
    gather_unit = cost.gather_time(1.0, vb * n_rhs, ws)
    mem = (
        stream_bytes / (device.bandwidth_bytes * device.stream_efficiency)
        + z * gather_unit
    ) * mem_factor
    # --- compute: throughput term + per-row dependent-chain stall ---
    if vector_mode:
        threads = r * device.warp_size
        flops = (
            2.0 * sched.level_padded.astype(np.float64) + 8.0 * r
        ) * n_rhs
        stall_cycles = (
            np.ceil(maxlen / device.warp_size) * ROW_CHAIN_CYCLES
            + VECTOR_REDUCE_CYCLES
        )
    else:
        threads = r
        flops = (2.0 * z + r) * n_rhs
        stall_cycles = maxlen * ROW_CHAIN_CYCLES
    util = np.minimum(1.0, np.maximum(threads, 1.0) / device.cuda_cores)
    warps = r if vector_mode else r / device.warp_size
    issue = warps * CostModel.WARP_ISSUE_CYCLES / (
        device.clock_hz * max(device.sm_count, 1)
    )
    comp = flops / (device.peak_flops * util) + stall_cycles / device.clock_hz + issue
    if thin_row_pipeline_s > 0.0:
        # Generic-library tax: rows whose useful work is smaller than
        # their per-row metadata handling are pipeline-throughput bound
        # (the cuSPARSE-on-mawi pathology; see sptrsv_cusparse.py).
        comp = comp + sched.level_thin_rows.astype(np.float64) * (
            thin_row_pipeline_s / max(device.sm_count, 1)
        )
    per_level = np.maximum(np.maximum(mem, comp), device.min_kernel_s)
    if group_ptr is not None:
        # Merged execution: one step overhead per *group* of levels, a
        # cheap intra-kernel barrier between merged neighbours.
        n_groups = len(group_ptr) - 1
        overheads = (
            n_groups * step_overhead_s
            + (len(per_level) - n_groups) * INTRA_SYNC_S
        )
        total = fixed_overhead_s + float(np.sum(per_level)) + overheads
    else:
        total = fixed_overhead_s + float(np.sum(per_level + step_overhead_s))
    return total, float(stream_bytes.sum() + z.sum() * vb)


class LevelSetKernel(SpTRSVKernel):
    """SPTRSV-LEVEL-SET of Algorithm 7 / Algorithm 2.

    ``merge_levels=True`` enables Naumov's optimization (referenced in
    the paper's related work): consecutive small level sets share one
    kernel with an intra-kernel barrier instead of paying a full launch
    each — a large win on deep matrices with thin levels.
    """

    name = "levelset"
    pure_report = True
    level_schedule = True

    def __init__(self, merge_levels: bool = False) -> None:
        self.merge_levels = merge_levels

    def solve_numeric(
        self, aux: _LevelSetAux, b: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        return sweep_solve(aux.sched, b)

    def solve_numeric_multi(
        self, aux: _LevelSetAux, B: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        return sweep_solve_multi(aux.sched, B)

    def preprocess(
        self, prep: PreparedLower, device: DeviceModel
    ) -> tuple[_LevelSetAux, KernelReport]:
        sched = build_level_schedule(prep)
        avg_row = prep.strict.nnz / prep.n if prep.n else 0.0
        group_ptr = (
            merge_small_levels(sched, device) if self.merge_levels else None
        )
        aux = _LevelSetAux(
            sched=sched,
            vector_mode=avg_row > VECTOR_MODE_THRESHOLD,
            group_ptr=group_ptr,
        )
        time = (
            CostModel(device).launch_time()
            + prep.nnz * PREPROCESS_S_PER_NNZ
            + sched.nlevels * PREPROCESS_S_PER_LEVEL
        )
        return aux, KernelReport(
            "levelset-preprocess",
            time,
            launches=1,
            detail={"nlevels": sched.nlevels, "merged": self.merge_levels},
        )

    def solve(
        self, aux: _LevelSetAux, b: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        x = sweep_solve(aux.sched, b)
        merged = aux.group_ptr is not None
        key = ("levelset", device.name, aux.sched.prep.value_bytes, merged)
        cached = aux.sched._cost_cache.get(key)
        if cached is None:
            time, nbytes = _sweep_cost(
                aux.sched,
                device,
                vector_mode=aux.vector_mode,
                step_overhead_s=device.launch_overhead_s,
                fixed_overhead_s=0.0,
                group_ptr=aux.group_ptr,
            )
            cached = (time, nbytes)
            aux.sched._cost_cache[key] = cached
        time, nbytes = cached
        launches = (
            len(aux.group_ptr) - 1 if merged else aux.sched.nlevels
        )
        return x, KernelReport(
            "sptrsv-levelset",
            time,
            launches=launches,
            flops=solve_flops(aux.sched.prep.nnz),
            bytes_moved=nbytes,
            detail={
                "nlevels": aux.sched.nlevels,
                "vector_mode": aux.vector_mode,
                "merged": merged,
            },
        )

    def solve_multi(
        self, aux: _LevelSetAux, B: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        """Fused multi-RHS sweep: one launch per level for all columns."""
        X = sweep_solve_multi(aux.sched, B)
        k = B.shape[1]
        time, nbytes = _sweep_cost(
            aux.sched,
            device,
            vector_mode=aux.vector_mode,
            step_overhead_s=device.launch_overhead_s,
            fixed_overhead_s=0.0,
            n_rhs=k,
        )
        return X, KernelReport(
            "sptrsv-levelset",
            time,
            launches=aux.sched.nlevels,
            flops=solve_flops(aux.sched.prep.nnz) * k,
            bytes_moved=nbytes,
            detail={"nlevels": aux.sched.nlevels, "n_rhs": k, "fused": True},
        )
