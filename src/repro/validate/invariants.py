"""Runtime invariant checks for plans and solutions.

Every block schedule the planners emit must satisfy the same structural
contract — triangular segments tile ``[0, n)`` in order, SpMV updates
read only already-solved components, nonzeros are conserved, the
reordering permutation is a bijection — and every solve must leave a
small residual ``‖L x − b‖``.  These checks are the opt-in ``check=True``
backstop of :func:`repro.solve_triangular` and
:class:`repro.serve.SolveService`, and the per-case oracle of the
differential fuzzer.

All failures raise a structured :class:`repro.errors.ValidationError`
whose ``kind``/``detail`` name the violated invariant and the numbers
behind it.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import ExecutionPlan, SpMVSegment, TriSegment
from repro.errors import ValidationError

__all__ = [
    "DEFAULT_RESIDUAL_TOL",
    "check_plan",
    "check_residual",
    "residual_norm",
]

#: default relative residual tolerance for float64 systems
DEFAULT_RESIDUAL_TOL = 1e-8


def check_plan(plan: ExecutionPlan, L=None, *, context: str = "") -> None:
    """Verify the structural well-formedness of an execution plan.

    Invariants (raising :class:`ValidationError` on the first violation):

    * triangular segments are non-empty, in ascending order, and tile
      ``[0, n)`` exactly — no gap, no overlap;
    * every SpMV segment reads only columns that an earlier triangular
      segment has already solved (``col_hi <= solved``) and updates only
      rows that are still unsolved (``row_lo >= solved``);
    * segment nonzero counts sum to ``L.nnz`` when ``L`` is given
      (every stored entry is owned by exactly one segment);
    * ``plan.perm``, when present, is a bijection of ``[0, n)``.

    Parameters
    ----------
    plan:
        The plan to check (typically ``prepared.plan``).
    L:
        The lower-triangular matrix the plan was built from; enables the
        nnz-conservation check.
    context:
        Prefix for error messages (e.g. the method name).
    """
    where = f"{context}: " if context else ""
    n = plan.n
    if n < 0:
        raise ValidationError(
            f"{where}plan.n is negative ({n})", kind="plan-structure",
            detail={"n": n},
        )
    solved = 0
    for pos, seg in enumerate(plan.segments):
        if isinstance(seg, TriSegment):
            if not (0 <= seg.lo < seg.hi <= n):
                raise ValidationError(
                    f"{where}triangular segment {pos} has bounds "
                    f"[{seg.lo}, {seg.hi}) outside [0, {n})",
                    kind="plan-structure",
                    detail={"segment": pos, "lo": seg.lo, "hi": seg.hi, "n": n},
                )
            if seg.lo != solved:
                raise ValidationError(
                    f"{where}triangular segment {pos} starts at {seg.lo} "
                    f"but rows [0, {solved}) are what is solved so far "
                    "(segments must tile [0, n) in order)",
                    kind="plan-structure",
                    detail={"segment": pos, "lo": seg.lo, "solved": solved},
                )
            solved = seg.hi
        elif isinstance(seg, SpMVSegment):
            if not (0 <= seg.col_lo < seg.col_hi <= n) or not (
                0 <= seg.row_lo < seg.row_hi <= n
            ):
                raise ValidationError(
                    f"{where}SpMV segment {pos} has ranges rows "
                    f"[{seg.row_lo}, {seg.row_hi}) x cols "
                    f"[{seg.col_lo}, {seg.col_hi}) outside [0, {n})",
                    kind="plan-structure",
                    detail={
                        "segment": pos, "row_lo": seg.row_lo,
                        "row_hi": seg.row_hi, "col_lo": seg.col_lo,
                        "col_hi": seg.col_hi, "n": n,
                    },
                )
            if seg.col_hi > solved:
                raise ValidationError(
                    f"{where}SpMV segment {pos} reads x[{seg.col_lo}:"
                    f"{seg.col_hi}] but only [0, {solved}) is solved",
                    kind="plan-structure",
                    detail={"segment": pos, "col_hi": seg.col_hi, "solved": solved},
                )
            if seg.row_lo < solved:
                raise ValidationError(
                    f"{where}SpMV segment {pos} updates b[{seg.row_lo}:"
                    f"{seg.row_hi}] but rows [0, {solved}) are already solved",
                    kind="plan-structure",
                    detail={"segment": pos, "row_lo": seg.row_lo, "solved": solved},
                )
            mat_shape = getattr(seg.matrix, "shape", None)
            if mat_shape is not None and mat_shape != (seg.n_rows, seg.n_cols):
                raise ValidationError(
                    f"{where}SpMV segment {pos} stores a {mat_shape} matrix "
                    f"for a {(seg.n_rows, seg.n_cols)} range",
                    kind="plan-structure",
                    detail={"segment": pos, "matrix_shape": mat_shape},
                )
        else:
            raise ValidationError(
                f"{where}segment {pos} has unknown type "
                f"{type(seg).__name__}",
                kind="plan-structure",
                detail={"segment": pos, "type": type(seg).__name__},
            )
    if solved != n:
        raise ValidationError(
            f"{where}triangular segments cover [0, {solved}) but the "
            f"system has {n} rows",
            kind="plan-structure",
            detail={"solved": solved, "n": n},
        )
    if L is not None:
        seg_nnz = int(sum(int(s.nnz) for s in plan.segments))
        if seg_nnz != int(L.nnz):
            raise ValidationError(
                f"{where}segment nonzeros sum to {seg_nnz} but the matrix "
                f"stores {int(L.nnz)} (entries lost or double-counted)",
                kind="plan-nnz",
                detail={"segment_nnz": seg_nnz, "matrix_nnz": int(L.nnz)},
            )
    if plan.perm is not None:
        perm = np.asarray(plan.perm)
        if perm.shape != (n,) or n and not (
            perm.dtype.kind in "iu" and 0 <= perm.min() and perm.max() < n
            and (np.bincount(perm, minlength=n) == 1).all()
        ):
            raise ValidationError(
                f"{where}plan.perm is not a permutation of [0, {n})",
                kind="plan-perm",
                detail={"perm_shape": list(perm.shape), "n": n},
            )


def residual_norm(A, x: np.ndarray, b: np.ndarray) -> float:
    """Max-norm residual ``‖A x − b‖_inf`` (vector or multi-RHS)."""
    x = np.asarray(x)
    b = np.asarray(b)
    if x.ndim == 1:
        r = A.matvec(x) - b
    else:
        r = np.stack(
            [A.matvec(x[:, j]) - b[:, j] for j in range(x.shape[1])], axis=1
        )
    return float(np.max(np.abs(r))) if r.size else 0.0


def check_residual(
    A,
    x: np.ndarray,
    b: np.ndarray,
    *,
    tol: float = DEFAULT_RESIDUAL_TOL,
    context: str = "",
) -> float:
    """Verify ``‖A x − b‖_inf <= tol * max(1, ‖b‖_inf)``; returns the norm.

    The scale factor makes the check relative for large right-hand
    sides while staying absolute near zero.  Raises a structured
    :class:`ValidationError` of kind ``"residual"`` on failure.
    """
    res = residual_norm(A, x, b)
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    if not np.isfinite(res) or res > tol * scale:
        where = f"{context}: " if context else ""
        raise ValidationError(
            f"{where}residual {res:.3e} exceeds tolerance "
            f"{tol:.1e} * {scale:.3e}",
            kind="residual",
            detail={"residual": res, "tol": tol, "scale": scale},
        )
    return res
