"""User-facing solver facades.

Every method — the two baselines of Table 3 and the three block
algorithms — implements the same two-phase interface the paper evaluates:

>>> solver = RecursiveBlockSolver(device=TITAN_RTX)
>>> prepared = solver.prepare(L)          # Table 5's "preprocessing time"
>>> x, report = prepared.solve(b)         # one SpTRSV; report.gflops etc.

``prepared.solve_multi(B)`` handles multiple right-hand sides, and
``prepared.amortized_time(iters)`` reproduces Table 5's overall-cost rows.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.adaptive import (
    CALIBRATED_THRESHOLDS,
    AdaptiveSelector,
    SelectionThresholds,
)
from repro.core.blocked_matrix import (
    RecursiveBlockedMatrix,
    build_improved_recursive_plan,
)
from repro.core.column_block import build_column_block_plan
from repro.core.executor import CompiledPlan, Overlay, compile_plan
from repro.core.plan import ExecutionPlan, TriSegment
from repro.core.planner import DEFAULT_ROW_FACTOR, choose_depth
from repro.core.recursive_block import build_recursive_block_plan
from repro.core.row_block import build_row_block_plan
from repro.errors import NotTriangularError
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import is_lower_triangular
from repro.gpu.device import TITAN_RTX, DeviceModel
from repro.gpu.report import KernelReport, SolveReport
from repro.kernels import SPTRSV_KERNELS
from repro.kernels.base import prepare_lower
from repro.kernels.sptrsv_serial import SerialKernel
from repro.obs.runtime import span as obs_span

__all__ = [
    "TriangularSolver",
    "PreparedSolve",
    "SerialSolver",
    "LevelSetSolver",
    "CuSparseSolver",
    "SyncFreeSolver",
    "ColumnBlockSolver",
    "RowBlockSolver",
    "RecursiveBlockSolver",
    "SOLVERS",
    "register_solver",
    "unregister_solver",
    "available_methods",
]


@dataclass
class PreparedSolve:
    """A preprocessed system, ready for repeated solves."""

    method: str
    plan: ExecutionPlan
    device: DeviceModel
    preprocess_report: KernelReport
    blocked: RecursiveBlockedMatrix | None = None
    #: lazily built CompiledPlan
    _compiled: CompiledPlan | None = field(default=None, repr=False, compare=False)
    _compile_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def preprocessing_time_s(self) -> float:
        return self.preprocess_report.time_s

    def compile(self) -> CompiledPlan:
        """The executor every solve of this plan runs through.

        Built lazily on the first solve and cached; the serve layer
        calls this eagerly at cache-insert time so every cache hit lands
        on the compiled hot path.  A plan that fails to compile raises
        here, and so does every solve.  See :mod:`repro.core.executor`.
        """
        compiled = self._compiled
        if compiled is not None:
            return compiled
        with self._compile_lock:
            if self._compiled is None:
                self._compiled = compile_plan(self.plan, self.device)
            return self._compiled

    def solve(
        self, b: np.ndarray, overlay: Overlay | None = None
    ) -> tuple[np.ndarray, SolveReport]:
        """One SpTRSV: exact solution + simulated timing report.

        ``overlay`` solves another values vector of this plan's pattern
        (see :class:`repro.core.rebind.PlanRebinder`); without one the
        plan solves its own values."""
        return self.compile().solve(b, overlay)

    def solve_multi(
        self, B: np.ndarray, overlay: Overlay | None = None, *,
        fused: bool = True,
    ) -> tuple[np.ndarray, SolveReport]:
        """Solve for every column of ``B`` (multiple right-hand sides).

        ``fused=True`` (default) runs the fused multi-RHS kernels: the
        matrix streams once per segment/level while vector traffic and
        arithmetic scale with the column count — the amortization the
        multi-RHS Sync-free follow-up [50] is built on.  ``fused=False``
        accounts one independent solve per column instead (an upper
        bound, useful for comparisons)."""
        B = np.asarray(B)
        if B.ndim == 1:
            x, rep = self.solve(B, overlay)
            return x, rep
        if fused:
            return self.compile().solve_multi(B, overlay)
        cols = []
        report = None
        for j in range(B.shape[1]):
            x, rep = self.solve(B[:, j], overlay)
            cols.append(x)
            report = rep
        total = SolveReport(
            method=report.method,
            time_s=report.time_s * B.shape[1],
            flops=report.flops * B.shape[1],
            launches=report.launches * B.shape[1],
            bytes_moved=report.bytes_moved * B.shape[1],
            detail={"n_rhs": B.shape[1], "fused": False},
        )
        return np.stack(cols, axis=1), total

    def amortized_time(self, iterations: int, solve_report: SolveReport | None = None) -> float:
        """Table 5's overall cost: preprocessing + ``iterations`` solves."""
        if solve_report is None:
            _, solve_report = self.solve(np.ones(self.n))
        return self.preprocessing_time_s + iterations * solve_report.time_s


class TriangularSolver(ABC):
    """Base facade: validates input and delegates plan construction."""

    method: str = "abstract"

    def __init__(
        self,
        device: DeviceModel = TITAN_RTX,
        thresholds: SelectionThresholds | None = None,
    ) -> None:
        self.device = device
        # Default: the thresholds calibrated against our simulated kernels
        # (see repro.core.adaptive.CALIBRATED_THRESHOLDS); pass
        # PAPER_THRESHOLDS to use Algorithm 7's printed numbers verbatim.
        self.selector = AdaptiveSelector(thresholds or CALIBRATED_THRESHOLDS)

    def prepare(self, L: CSRMatrix) -> PreparedSolve:
        if L.n_rows != L.n_cols:
            raise NotTriangularError("SpTRSV needs a square matrix")
        if not is_lower_triangular(L):
            raise NotTriangularError(
                "expected a lower-triangular matrix; use "
                "formats.lower_triangular_from / upper_to_lower_mirror first"
            )
        with obs_span(
            "planner.prepare", method=self.method, n=L.n_rows, nnz=L.nnz
        ):
            return self._prepare(L.sort_indices())

    @abstractmethod
    def _prepare(self, L: CSRMatrix) -> PreparedSolve:
        ...

    def solve(self, L: CSRMatrix, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Convenience one-shot prepare + solve."""
        return self.prepare(L).solve(b)


class _SingleKernelSolver(TriangularSolver):
    """A baseline that runs one kernel on the whole matrix."""

    kernel_name: str = ""

    def _prepare(self, L: CSRMatrix) -> PreparedSolve:
        kernel = SPTRSV_KERNELS[self.kernel_name]()
        prep = prepare_lower(L)
        aux, prep_report = kernel.preprocess(prep, self.device)
        plan = ExecutionPlan(
            method=self.method,
            n=L.n_rows,
            segments=[TriSegment(lo=0, hi=L.n_rows, kernel=kernel, aux=aux, nnz=L.nnz)],
            perm=None,
            preprocess_report=prep_report,
        )
        return PreparedSolve(
            method=self.method,
            plan=plan,
            device=self.device,
            preprocess_report=prep_report,
        )


class SerialSolver(TriangularSolver):
    """Algorithm 1 on one simulated thread (correctness oracle)."""

    method = "serial"

    def _prepare(self, L: CSRMatrix) -> PreparedSolve:
        kernel = SerialKernel()
        prep = prepare_lower(L)
        aux, prep_report = kernel.preprocess(prep, self.device)
        plan = ExecutionPlan(
            method=self.method,
            n=L.n_rows,
            segments=[TriSegment(lo=0, hi=L.n_rows, kernel=kernel, aux=aux, nnz=L.nnz)],
            preprocess_report=prep_report,
        )
        return PreparedSolve(self.method, plan, self.device, prep_report)


class LevelSetSolver(_SingleKernelSolver):
    """The basic level-set method (Algorithm 2) on the whole matrix."""

    method = "levelset"
    kernel_name = "levelset"


class CuSparseSolver(_SingleKernelSolver):
    """Baseline (1) of Table 3: cuSPARSE v2 stand-in."""

    method = "cusparse"
    kernel_name = "cusparse"


class SyncFreeSolver(_SingleKernelSolver):
    """Baseline (2) of Table 3: the Sync-free algorithm."""

    method = "syncfree"
    kernel_name = "syncfree"


class _BlockSolverMixin(TriangularSolver):
    def __init__(
        self,
        device: DeviceModel = TITAN_RTX,
        thresholds: SelectionThresholds | None = None,
        *,
        nseg: int | None = None,
        row_factor: float = DEFAULT_ROW_FACTOR,
        fixed_tri: str | None = None,
        fixed_spmv: str | None = None,
    ) -> None:
        super().__init__(device, thresholds)
        self.nseg = nseg
        self.row_factor = row_factor
        self.fixed_tri = fixed_tri
        self.fixed_spmv = fixed_spmv

    def _nseg(self, n: int) -> int:
        if self.nseg is not None:
            return self.nseg
        return 2 ** choose_depth(n, self.device, row_factor=self.row_factor)


class ColumnBlockSolver(_BlockSolverMixin):
    """Algorithm 4 (§3.1.1)."""

    method = "column-block"

    def _prepare(self, L: CSRMatrix) -> PreparedSolve:
        plan = build_column_block_plan(
            L,
            self._nseg(L.n_rows),
            self.device,
            self.selector,
            fixed_tri=self.fixed_tri,
            fixed_spmv=self.fixed_spmv,
        )
        return PreparedSolve(self.method, plan, self.device, plan.preprocess_report)


class RowBlockSolver(_BlockSolverMixin):
    """Algorithm 5 (§3.1.2)."""

    method = "row-block"

    def _prepare(self, L: CSRMatrix) -> PreparedSolve:
        plan = build_row_block_plan(
            L,
            self._nseg(L.n_rows),
            self.device,
            self.selector,
            fixed_tri=self.fixed_tri,
            fixed_spmv=self.fixed_spmv,
        )
        return PreparedSolve(self.method, plan, self.device, plan.preprocess_report)


class RecursiveBlockSolver(_BlockSolverMixin):
    """Algorithm 6 + the §3.3/§3.4 improvements (the paper's method).

    Parameters
    ----------
    depth:
        Recursion depth; default follows the §3.4 rule via
        :func:`repro.core.planner.choose_depth`.
    reorder:
        Apply the recursive level-set reordering (§3.3).  Off = the plain
        Algorithm 6 layout (ablation).
    align_levels:
        Snap splits to the nearest level boundary instead of the paper's
        midpoint (extension; see recursive_levelset_reorder).
    use_dcsr:
        Store hypersparse squares in DCSR (§3.3).  Off = plain CSR
        (ablation).
    """

    method = "recursive-block"

    def __init__(
        self,
        device: DeviceModel = TITAN_RTX,
        thresholds: SelectionThresholds | None = None,
        *,
        depth: int | None = None,
        reorder: bool = True,
        use_dcsr: bool = True,
        align_levels: bool = False,
        row_factor: float = DEFAULT_ROW_FACTOR,
        fixed_tri: str | None = None,
        fixed_spmv: str | None = None,
    ) -> None:
        super().__init__(
            device,
            thresholds,
            row_factor=row_factor,
            fixed_tri=fixed_tri,
            fixed_spmv=fixed_spmv,
        )
        self.depth = depth
        self.reorder = reorder
        self.use_dcsr = use_dcsr
        self.align_levels = align_levels

    def _prepare(self, L: CSRMatrix) -> PreparedSolve:
        depth = (
            self.depth
            if self.depth is not None
            else choose_depth(L.n_rows, self.device, row_factor=self.row_factor)
        )
        if self.reorder or self.use_dcsr:
            blocked = build_improved_recursive_plan(
                L,
                depth,
                self.device,
                self.selector,
                reorder=self.reorder,
                use_dcsr=self.use_dcsr,
                align_levels=self.align_levels,
                fixed_tri=self.fixed_tri,
                fixed_spmv=self.fixed_spmv,
            )
            plan = blocked.plan
        else:
            blocked = None
            plan = build_recursive_block_plan(
                L,
                depth,
                self.device,
                self.selector,
                fixed_tri=self.fixed_tri,
                fixed_spmv=self.fixed_spmv,
                use_dcsr=False,
            )
        return PreparedSolve(
            self.method, plan, self.device, plan.preprocess_report, blocked=blocked
        )


#: registry used by the experiment harness and examples
SOLVERS: dict[str, type[TriangularSolver]] = {
    "serial": SerialSolver,
    "levelset": LevelSetSolver,
    "cusparse": CuSparseSolver,
    "syncfree": SyncFreeSolver,
    "column-block": ColumnBlockSolver,
    "row-block": RowBlockSolver,
    "recursive-block": RecursiveBlockSolver,
}

#: the methods shipped with the library; never removable via the public API
_BUILTIN_METHODS = frozenset(SOLVERS)


def available_methods() -> list[str]:
    """Registered method names, in registration order."""
    return list(SOLVERS)


def register_solver(
    name: str, cls: type[TriangularSolver], *, replace: bool = False
) -> type[TriangularSolver]:
    """Add a solver class to the public registry.

    External kernels plug in here instead of mutating ``SOLVERS``:
    once registered the method is usable from :func:`repro.solve_triangular`,
    the CLI, and the serving layer by name.

    Parameters
    ----------
    name:
        Registry key (also what ``method=...`` selects). Must be a
        non-empty string not already taken unless ``replace=True``.
    cls:
        A :class:`TriangularSolver` subclass — or any class exposing the
        same interface: a ``prepare(L)`` method and a constructor
        accepting a ``device`` keyword.
    replace:
        Allow overwriting a previously registered *external* method.
        Built-in methods can never be replaced.

    Returns
    -------
    ``cls`` unchanged, so the function can be used as a decorator factory.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"solver name must be a non-empty string, got {name!r}")
    if name in SOLVERS and not replace:
        raise ValueError(
            f"method {name!r} is already registered "
            f"({SOLVERS[name].__name__}); pass replace=True to override"
        )
    if name in _BUILTIN_METHODS:
        raise ValueError(f"method {name!r} is built in and cannot be replaced")
    if not isinstance(cls, type):
        raise TypeError(f"expected a solver class, got {cls!r}")
    if not issubclass(cls, TriangularSolver):
        prepare = getattr(cls, "prepare", None)
        if not callable(prepare):
            raise TypeError(
                f"{cls.__name__} does not implement the TriangularSolver "
                "interface: it needs a prepare(L) -> PreparedSolve method "
                "(subclass repro.TriangularSolver to get validation for free)"
            )
    SOLVERS[name] = cls
    return cls


def unregister_solver(name: str) -> type[TriangularSolver]:
    """Remove an externally registered solver; returns the removed class."""
    if name in _BUILTIN_METHODS:
        raise ValueError(f"method {name!r} is built in and cannot be removed")
    if name not in SOLVERS:
        raise KeyError(f"method {name!r} is not registered")
    return SOLVERS.pop(name)
