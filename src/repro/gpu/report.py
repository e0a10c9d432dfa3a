"""Timing reports produced by simulated kernels and solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KernelReport", "SolveReport", "merge_reports", "merge_solve_reports"]


@dataclass
class KernelReport:
    """Outcome of one simulated kernel (or fused sequence of kernels)."""

    kernel: str
    time_s: float
    launches: int = 1
    flops: float = 0.0
    bytes_moved: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        """Achieved GFlops (the paper's performance metric)."""
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    def scaled(self, factor: float) -> "KernelReport":
        """Report with time scaled by ``factor`` (used for repeat counts)."""
        return KernelReport(
            self.kernel,
            self.time_s * factor,
            self.launches,
            self.flops,
            self.bytes_moved,
            dict(self.detail),
        )


@dataclass
class SolveReport:
    """Outcome of one full SpTRSV: aggregated sub-kernel reports."""

    method: str
    time_s: float
    flops: float
    launches: int
    bytes_moved: float = 0.0
    kernels: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    #: per-segment timing table (list of dicts: index, kind, kernel,
    #: rows, nnz, sim_time_s, wall_time_s, launches) — populated only
    #: when an :class:`repro.obs.Observability` was active during the
    #: solve; empty otherwise.  See ``repro.analysis.inspect.render_profile``.
    #: A traced solve stores a function that builds the rows; they are
    #: built on first read (the property installed below the class).
    profile: list = field(default_factory=list)

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    def kernel_time(self, prefix: str) -> float:
        """Total simulated time of sub-kernels whose name starts with
        ``prefix`` (e.g. ``"spmv"`` for Figure 4's SpMV share)."""
        return sum(k.time_s for k in self.kernels if k.kernel.startswith(prefix))

    def kernel_count(self, prefix: str) -> int:
        return sum(1 for k in self.kernels if k.kernel.startswith(prefix))

    def scaled(self, factor: float, **detail) -> "SolveReport":
        """Report with time/flops/traffic scaled by ``factor``.

        Used to attribute a per-request share of a coalesced multi-RHS
        solve: the launch count is the batch's (the kernels really ran
        once for everyone), while the continuous quantities divide."""
        merged = dict(self.detail)
        merged.update(detail)
        return SolveReport(
            method=self.method,
            time_s=self.time_s * factor,
            flops=self.flops * factor,
            launches=self.launches,
            bytes_moved=self.bytes_moved * factor,
            kernels=list(self.kernels),
            detail=merged,
            profile=(
                self._profile if callable(self._profile)
                else list(self._profile)
            ),
        )


def _get_profile(self: SolveReport) -> list:
    rows = self._profile
    if callable(rows):
        rows = self._profile = rows()
    return rows


def _set_profile(self: SolveReport, rows) -> None:
    self._profile = rows


# A dataclass field with a default_factory leaves no class attribute, so
# the field can be backed by a property: __init__, ==, repr and replace
# all go through it and see a plain list.
SolveReport.profile = property(_get_profile, _set_profile)


def merge_reports(method: str, reports: list[KernelReport], **detail) -> SolveReport:
    """Sum sub-kernel reports into one :class:`SolveReport`."""
    return SolveReport(
        method=method,
        time_s=sum(r.time_s for r in reports),
        flops=sum(r.flops for r in reports),
        launches=sum(r.launches for r in reports),
        bytes_moved=sum(r.bytes_moved for r in reports),
        kernels=list(reports),
        detail=dict(detail),
    )


def merge_solve_reports(method: str, reports: list[SolveReport], **detail) -> SolveReport:
    """Sum whole-solve reports (e.g. a service's aggregate over requests)."""
    return SolveReport(
        method=method,
        time_s=sum(r.time_s for r in reports),
        flops=sum(r.flops for r in reports),
        launches=sum(r.launches for r in reports),
        bytes_moved=sum(r.bytes_moved for r in reports),
        detail={"merged": len(reports), **detail},
    )
