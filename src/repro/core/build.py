"""Segment construction shared by the three block algorithms.

Extracts sub-matrices, computes their selection features, asks the
adaptive selector (Algorithm 7) for a kernel, runs the kernel's
preprocessing, and accounts the simulated cost of assembling the blocked
storage (the Table 5 "preprocessing time" of the block algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.adaptive import AdaptiveSelector
from repro.core.plan import SpMVSegment, TriSegment
from repro.formats.csr import CSRMatrix
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport
from repro.graph.levels import compute_levels, seed_levels
from repro.graph.stats import square_features, triangle_features
from repro.kernels import SPMV_KERNELS, SPTRSV_KERNELS
from repro.kernels.base import prepare_lower
from repro.obs.runtime import span as obs_span

__all__ = ["SegmentBuilder", "BuildStats"]

#: simulated metadata/descriptor setup per stored sub-matrix (seconds)
SEGMENT_SETUP_S = 10.0e-6
#: simulated cost of copying one nonzero into the new blocked layout,
#: including the CSC->CSR transpose of square parts (seconds)
ASSEMBLY_S_PER_NNZ = 6.0e-9
#: simulated cost per nonzero *processed* during the recursive level-set
#: reorder: level discovery (pointer chasing), the stable sort, and the
#: permutation gather (seconds) — calibrated jointly with the assembly
#: constants to Table 5's block pre/solve ratio (~9x in the paper)
REORDER_S_PER_NNZ = 35.0e-9


@dataclass
class BuildStats:
    """Accumulated simulated preprocessing cost during plan construction."""

    assembly_s: float = 0.0
    kernel_prep_s: float = 0.0
    reorder_s: float = 0.0
    n_segments: int = 0
    kernel_prep_reports: list = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.assembly_s + self.kernel_prep_s + self.reorder_s

    def report(self, method: str) -> KernelReport:
        return KernelReport(
            f"{method}-preprocess",
            self.total_s,
            launches=self.n_segments,
            detail={
                "assembly_s": self.assembly_s,
                "kernel_prep_s": self.kernel_prep_s,
                "reorder_s": self.reorder_s,
                "n_segments": self.n_segments,
            },
        )


@dataclass
class SegmentBuilder:
    """Builds preprocessed plan segments from a (permuted) matrix."""

    L: CSRMatrix
    device: DeviceModel
    selector: AdaptiveSelector
    #: force one SpTRSV kernel for every triangle (None = adaptive)
    fixed_tri: str | None = None
    #: force one SpMV kernel for every square (None = adaptive)
    fixed_spmv: str | None = None
    #: allow DCSR storage for hypersparse squares (§3.3)
    use_dcsr: bool = True
    stats: BuildStats = field(default_factory=BuildStats)

    def tri_segment(
        self, lo: int, hi: int, levels: np.ndarray | None = None
    ) -> TriSegment:
        """Extract rows/cols [lo, hi) as a triangular solve segment.

        ``levels``, the block's level sets when the caller already knows
        them, feed the selection features and seed the level cache of a
        kernel that builds a level schedule; otherwise they are computed
        here at most once.
        """
        sub = self.L.extract_block(lo, hi, lo, hi)
        prep = prepare_lower(sub)
        if self.fixed_tri is not None:
            name = self.fixed_tri
        else:
            if levels is None:
                levels = compute_levels(prep.L)
            name = self.selector.select_sptrsv(
                triangle_features(prep.L, levels)
            )
        kernel = SPTRSV_KERNELS[name]()
        if levels is not None and kernel.level_schedule:
            seed_levels(prep.L, levels)
        with obs_span(
            "planner.kernel_prep", kernel=name, rows=f"{lo}:{hi}", nnz=sub.nnz
        ):
            aux, prep_report = kernel.preprocess(prep, self.device)
        self.stats.kernel_prep_s += prep_report.time_s
        self.stats.kernel_prep_reports.append(prep_report)
        self.stats.assembly_s += SEGMENT_SETUP_S + sub.nnz * ASSEMBLY_S_PER_NNZ
        self.stats.n_segments += 1
        return TriSegment(lo=lo, hi=hi, kernel=kernel, aux=aux, nnz=sub.nnz)

    def spmv_segment(
        self, row_lo: int, row_hi: int, col_lo: int, col_hi: int
    ) -> SpMVSegment | None:
        """Extract ``L[row_lo:row_hi, col_lo:col_hi]`` as an SpMV update
        segment; returns None for an empty block (nothing to execute)."""
        sub = self.L.extract_block(row_lo, row_hi, col_lo, col_hi)
        if sub.nnz == 0:
            return None
        if self.fixed_spmv is not None:
            name = self.fixed_spmv
        else:
            name = self.selector.select_spmv(square_features(sub))
            if not self.use_dcsr and name.endswith("dcsr"):
                name = name.replace("dcsr", "csr")
        kernel = SPMV_KERNELS[name]()
        matrix = sub.to_dcsr() if kernel.wants_dcsr else sub
        self.stats.assembly_s += SEGMENT_SETUP_S + sub.nnz * ASSEMBLY_S_PER_NNZ
        self.stats.n_segments += 1
        return SpMVSegment(
            row_lo=row_lo,
            row_hi=row_hi,
            col_lo=col_lo,
            col_hi=col_hi,
            matrix=matrix,
            kernel=kernel,
        )

    def charge_reorder(self, nnz: int, sweeps: int) -> None:
        """Account ``sweeps`` level-set reorder passes over ``nnz`` entries."""
        self.stats.reorder_s += sweeps * nnz * REORDER_S_PER_NNZ
