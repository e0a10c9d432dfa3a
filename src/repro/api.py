"""One-call convenience API.

For callers who don't need the prepare/solve split (or upper-triangular
handling) spelled out: pick a method by name, solve, get the solution
and the simulated report.

:func:`solve_triangular` returns a :class:`SolveResult` — a named view
(``result.x``, ``result.report``, ``result.method``, …) that still
unpacks as the historical two-tuple, so ``x, report = solve_triangular(...)``
keeps working unchanged.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.solver import SOLVERS, PreparedSolve, TriangularSolver
from repro.errors import NotTriangularError
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import (
    is_lower_triangular,
    is_upper_triangular,
    upper_to_lower_mirror,
)
from repro.gpu.device import TITAN_RTX_SCALED, DeviceModel
from repro.gpu.report import SolveReport
from repro.obs.runtime import Observability
from repro.obs.trace import Tracer

__all__ = ["SolveResult", "solve_triangular", "validate_solver_options"]


@dataclass
class SolveResult:
    """Outcome of one solve, tuple-compatible with ``(x, report)``.

    Attributes
    ----------
    x:
        The exact solution vector (or matrix, for multi-RHS solves).
    report:
        The simulated :class:`SolveReport` for the solve phase.
    method:
        The method that actually executed (after any fallback).
    cache_hit:
        True when a cached :class:`PreparedSolve` plan was reused and no
        preprocessing ran (always False outside the serving layer).
    fallback:
        True when the requested method failed to plan and the solve was
        downgraded to the level-set baseline.
    """

    x: np.ndarray
    report: SolveReport
    method: str
    cache_hit: bool = False
    fallback: bool = False

    def __iter__(self) -> Iterator:
        # Legacy unpacking: ``x, report = solve_triangular(...)``.
        yield self.x
        yield self.report


def validate_solver_options(method: str, options: dict) -> None:
    """Check ``options`` against the constructor of ``SOLVERS[method]``.

    Raises a :class:`ValueError` naming the offending option and listing
    the valid ones, instead of the bare ``TypeError`` a typo used to
    surface from deep inside the solver's ``__init__``.
    """
    cls = SOLVERS[method]
    init = cls.__init__ if isinstance(cls, type) else cls
    try:
        sig = inspect.signature(init)
    except (TypeError, ValueError):  # builtins without signatures
        return
    params = [p for n, p in sig.parameters.items() if n != "self"]
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return  # the solver accepts anything; let it decide
    valid = {
        p.name
        for p in params
        if p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    # ``device`` is supplied by the caller of this helper, not via options.
    settable = sorted(valid - {"device"})
    for key in options:
        if key not in valid or key == "device":
            raise ValueError(
                f"unknown option {key!r} for method {method!r}; "
                f"valid options: {settable}"
            )


def _make_solver(
    method: str, device: DeviceModel, solver_options: dict
) -> TriangularSolver:
    if method not in SOLVERS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(SOLVERS)}")
    validate_solver_options(method, solver_options)
    return SOLVERS[method](device=device, **solver_options)


def solve_triangular(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    lower: bool | None = None,
    method: str = "recursive-block",
    device: DeviceModel = TITAN_RTX_SCALED,
    check: bool = False,
    check_tol: float | None = None,
    trace: Observability | Tracer | None = None,
    **solver_options,
) -> SolveResult:
    """Solve ``A x = b`` for triangular ``A`` with any registered method.

    Parameters
    ----------
    A:
        A lower- or upper-triangular CSR matrix with a non-zero diagonal.
    b:
        Right-hand side vector.
    lower:
        Orientation; ``None`` (default) auto-detects.  Upper systems are
        mapped onto equivalent lower ones with the anti-diagonal mirror
        and solved by the same kernels.
    method:
        One of :func:`repro.available_methods` (default: the paper's
        recursive block algorithm).
    device:
        Simulated device model for the timing report.
    check:
        When true, verify plan well-formedness after ``prepare()`` (the
        segments must tile ``[0, n)``, conserve nnz, and respect the
        solved-prefix dependency order), each SuperLU engine against its
        kernel before the solve, and the residual ``‖A x − b‖`` after
        it.  Violations raise :class:`repro.errors.ValidationError`.
    check_tol:
        Relative residual tolerance for ``check=True`` (default:
        :data:`repro.validate.DEFAULT_RESIDUAL_TOL`).
    trace:
        An :class:`repro.obs.Observability` (or bare
        :class:`repro.obs.Tracer`, wrapped on the fly) activated around
        preprocessing and the solve.  Planner phases and per-segment
        kernel executions appear as nested spans, metrics (kernel
        launches, live traffic counters) accumulate in its registry, and
        the returned report carries a per-segment ``profile`` table.
        ``None`` (default) keeps the zero-overhead path.
    solver_options:
        Forwarded to the solver constructor (e.g. ``depth=3``,
        ``reorder=False``) after validation against its signature.

    Returns
    -------
    SolveResult:
        Named fields (``x``, ``report``, ``method``, ``cache_hit``,
        ``fallback``) that also unpack as the legacy ``(x, report)``
        tuple.
    """
    solver = _make_solver(method, device, solver_options)
    if lower is None:
        if is_lower_triangular(A):
            lower = True
        elif is_upper_triangular(A):
            lower = False
        else:
            raise NotTriangularError(
                "matrix is neither lower- nor upper-triangular; use "
                "repro.lower_triangular_from to prepare it first"
            )
    if lower:
        L, perm = A, None
        rhs = np.asarray(b)
    else:
        L, perm = upper_to_lower_mirror(A.sort_indices())
        rhs = np.asarray(b)[perm]
    if isinstance(trace, Tracer):
        trace = Observability(tracer=trace)
    if trace is None:
        prepared = solver.prepare(L)
        y, report = _checked_solve(prepared, L, rhs, method, check)
    else:
        with trace.activate():
            with trace.span("solve_triangular", method=method,
                            n=A.n_rows, nnz=A.nnz):
                prepared = solver.prepare(L)
                y, report = _checked_solve(prepared, L, rhs, method, check)
    if perm is None:
        x = y
    else:
        x = np.empty_like(y)
        x[perm] = y
    if check:
        from repro.validate.invariants import DEFAULT_RESIDUAL_TOL, check_residual

        tol = DEFAULT_RESIDUAL_TOL if check_tol is None else check_tol
        check_residual(A, x, np.asarray(b), tol=tol, context=method)
    return SolveResult(x=x, report=report, method=method)


def _checked_solve(prepared, L, rhs, method, check):
    """Plan and engine checks + solve; shared by the traced and plain paths."""
    if check:
        from repro.validate.invariants import check_plan

        plan = getattr(prepared, "plan", None)
        if plan is not None:
            check_plan(plan, L, context=method)
        if isinstance(prepared, PreparedSolve):
            prepared.compile().probe_engines(rhs.dtype)
    return prepared.solve(rhs)
