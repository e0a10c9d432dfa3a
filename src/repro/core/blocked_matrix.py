"""The improved recursive block data structure of §3.3 (Figure 3).

Preprocessing pipeline, exactly as the paper describes:

1. reorder the whole matrix by its level-set order (Figure 3(a) → (b));
2. split at the midpoint; reorder each triangular half by *its own*
   level-set order (Figure 3(b) → (c)); recurse to the chosen depth.
   Level order is a topological order, so every reorder keeps the matrix
   lower-triangular while packing independent components together —
   and pushes more nonzeros into the square parts;
3. store the sub-matrices contiguously in execution order: triangular
   parts (conceptually CSC — same array sizes and traffic), square parts
   transposed to CSR for the faster SpMV, hypersparse squares in DCSR,
   diagonal kept separate (Figure 3(d));
4. select per-segment kernels with Algorithm 7.

:class:`RecursiveBlockedMatrix` carries the resulting permutation, the
execution plan, and a storage inventory that tests use to verify the
layout reconstructs the original matrix bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.adaptive import AdaptiveSelector
from repro.core.build import SegmentBuilder
from repro.core.plan import ExecutionPlan, SpMVSegment, TriSegment
from repro.core.recursive_block import recursive_ranges
from repro.formats.csr import CSRMatrix
from repro.gpu.device import DeviceModel
from repro.graph.levels import compute_levels
from repro.graph.reorder import levelset_permutation
from repro.obs.runtime import span as obs_span
from repro.utils.arrays import counts_to_indptr, gather_row_ranges, segment_ids

__all__ = ["RecursiveBlockedMatrix", "build_improved_recursive_plan",
           "recursive_levelset_reorder"]


def _permuted_principal_block(L: CSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """``L[rows][:, rows]`` as a compact CSR matrix (local indices)."""
    n_sub = len(rows)
    col_map = np.full(L.n_cols, -1, dtype=np.int64)
    col_map[rows] = np.arange(n_sub)
    flat, seg_ptr = gather_row_ranges(L.indptr, rows)
    cols = col_map[L.indices[flat]]
    keep = cols >= 0
    row_of = segment_ids(seg_ptr)[keep]
    counts = np.bincount(row_of, minlength=n_sub)
    sub = CSRMatrix(
        n_sub,
        n_sub,
        counts_to_indptr(counts),
        cols[keep].astype(np.int32),
        L.data[flat][keep].copy(),
    )
    return sub.sort_indices()


def recursive_levelset_reorder(
    L: CSRMatrix, depth: int, *, align_levels: bool = False
) -> tuple[np.ndarray, int, dict]:
    """The §3.3 reorder: level-sort the whole matrix, then recursively
    level-sort each triangular half.

    ``align_levels=True`` is a design-space extension beyond the paper's
    midpoint rule: each split lands on the level boundary nearest the
    midpoint, so no level set straddles two triangles — leaf triangles
    then degenerate to "completely parallel" diagonal blocks more often
    (the effect the paper credits for part of the nlpkkt200 speedup).

    Returns ``(perm, reorder_nnz, splits)`` where ``perm[k]`` is the
    original row at permuted slot ``k``, ``reorder_nnz`` is the total
    number of nonzeros processed across all level-discovery/permutation
    sweeps (each recursion level touches every entry once, so this is
    ~``(depth + 1) * nnz``), and ``splits[(lo, hi)]`` records the chosen
    split of every internal range.
    """
    return _reorder(L, depth, align_levels)[:3]


def _reorder(
    L: CSRMatrix, depth: int, align_levels: bool
) -> tuple[np.ndarray, int, dict, dict]:
    """:func:`recursive_levelset_reorder` plus, per leaf range, the
    levels of the permuted matrix's diagonal block there: the leaf's
    levels in its local sort order (a row's level depends only on the
    dependency graph).

    The recursion runs over an explicit stack, in the same pre-order: a
    self-referring inner function would be a reference cycle holding
    ``L`` until a full collection."""
    n = L.n_rows
    perm = np.arange(n, dtype=np.int64)
    reorder_nnz = 0
    splits: dict = {}
    leaf_levels: dict = {}
    stack = [(0, n, depth)]
    while stack:
        lo, hi, d = stack.pop()
        if hi - lo < 2:
            leaf_levels[(lo, hi)] = np.zeros(hi - lo, dtype=np.int64)
            continue
        sub = _permuted_principal_block(L, perm[lo:hi])
        levels = compute_levels(sub)
        local = levelset_permutation(sub, levels)
        perm[lo:hi] = perm[lo:hi][local]
        reorder_nnz += sub.nnz
        if d > 0:
            mid = (lo + hi) // 2
            if align_levels:
                sorted_levels = levels[local]
                # level boundaries in the sorted range (strictly inside)
                change = np.nonzero(np.diff(sorted_levels))[0] + 1
                if len(change):
                    best = change[np.argmin(np.abs(change - (mid - lo)))]
                    candidate = lo + int(best)
                    if lo < candidate < hi:
                        mid = candidate
            splits[(lo, hi)] = mid
            stack += [(mid, hi, d - 1), (lo, mid, d - 1)]
        else:
            leaf_levels[(lo, hi)] = levels[local]
    return perm, reorder_nnz, splits, leaf_levels


def ranges_from_splits(lo: int, hi: int, splits: dict):
    """In-order traversal over a recorded split tree (see
    :func:`recursive_levelset_reorder`)."""
    mid = splits.get((lo, hi))
    if mid is None:
        yield ("tri", lo, hi)
        return
    yield from ranges_from_splits(lo, mid, splits)
    yield ("spmv", mid, hi, lo, mid)
    yield from ranges_from_splits(mid, hi, splits)


@dataclass(frozen=True)
class StoredBlock:
    """One entry of the Figure 3(d) storage inventory."""

    kind: str  # "triangle" | "square"
    fmt: str  # "csc" | "csr" | "dcsr"
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    nnz: int
    kernel: str


@dataclass
class RecursiveBlockedMatrix:
    """The improved recursive-block representation of one matrix."""

    n: int
    depth: int
    perm: np.ndarray
    plan: ExecutionPlan
    blocks: list = field(default_factory=list)
    #: permuted matrix the blocks were cut from (kept for verification)
    permuted: CSRMatrix | None = None

    @property
    def nnz_in_squares(self) -> int:
        """Nonzeros moved into square parts — the quantity the reorder
        maximizes (Figure 3's 8 → 11 example)."""
        return sum(b.nnz for b in self.blocks if b.kind == "square")

    @property
    def nnz_in_triangles(self) -> int:
        return sum(b.nnz for b in self.blocks if b.kind == "triangle")

    def reconstruct_dense(self) -> np.ndarray:
        """Reassemble the permuted matrix from the stored blocks
        (diagonal included) — the Figure 3(d) layout roundtrip."""
        out = np.zeros((self.n, self.n))
        for seg in self.plan.segments:
            if isinstance(seg, TriSegment):
                prep = seg.aux.sched.prep if hasattr(seg.aux, "sched") else seg.aux
                dense = prep.L.to_dense() if hasattr(prep, "L") else prep.to_dense()
                out[seg.lo : seg.hi, seg.lo : seg.hi] = dense
            elif isinstance(seg, SpMVSegment):
                out[seg.row_lo : seg.row_hi, seg.col_lo : seg.col_hi] = (
                    seg.matrix.to_dense()
                )
        return out


def build_improved_recursive_plan(
    L: CSRMatrix,
    depth: int,
    device: DeviceModel,
    selector: AdaptiveSelector | None = None,
    *,
    reorder: bool = True,
    use_dcsr: bool = True,
    align_levels: bool = False,
    fixed_tri: str | None = None,
    fixed_spmv: str | None = None,
    keep_permuted: bool = False,
    precomputed: tuple[np.ndarray, CSRMatrix] | None = None,
) -> RecursiveBlockedMatrix:
    """Full §3.3 + §3.4 preprocessing of one lower-triangular matrix.

    ``precomputed=(perm, Lp)`` skips the reorder sweeps and builds the
    plan from an already-permuted matrix — the reload path of
    :mod:`repro.core.storage`.
    """
    selector = selector or AdaptiveSelector()
    n = L.n_rows
    splits = None
    leaf_levels: dict = {}
    if precomputed is not None:
        perm, Lp = precomputed
        reorder_nnz = 0
        reorder = bool(not np.array_equal(perm, np.arange(n)))
    elif reorder:
        with obs_span(
            "planner.reorder", depth=depth, align_levels=align_levels
        ) as sp:
            perm, reorder_nnz, splits, leaf_levels = _reorder(
                L, depth, align_levels
            )
            Lp = L.permute_symmetric(perm)
            sp.set(reorder_nnz=reorder_nnz)
    else:
        perm = np.arange(n, dtype=np.int64)
        reorder_nnz = 0
        Lp = L
    builder = SegmentBuilder(
        L=Lp,
        device=device,
        selector=selector,
        fixed_tri=fixed_tri,
        fixed_spmv=fixed_spmv,
        use_dcsr=use_dcsr,
    )
    builder.charge_reorder(reorder_nnz, 1)
    segments = []
    blocks: list[StoredBlock] = []
    with obs_span("planner.partition", depth=depth) as sp:
        ops = list(
            ranges_from_splits(0, n, splits)
            if splits is not None
            else recursive_ranges(0, n, depth)
        )
        sp.set(n_ranges=len(ops))
    with obs_span("planner.pack", use_dcsr=use_dcsr) as sp:
        for op in ops:
            if op[0] == "tri":
                seg = builder.tri_segment(
                    op[1], op[2], leaf_levels.get((op[1], op[2]))
                )
                segments.append(seg)
                blocks.append(
                    StoredBlock(
                        kind="triangle",
                        fmt="csc",
                        row_lo=seg.lo,
                        row_hi=seg.hi,
                        col_lo=seg.lo,
                        col_hi=seg.hi,
                        nnz=seg.nnz,
                        kernel=seg.kernel.name,
                    )
                )
            else:
                seg = builder.spmv_segment(op[1], op[2], op[3], op[4])
                if seg is None:
                    continue
                segments.append(seg)
                blocks.append(
                    StoredBlock(
                        kind="square",
                        fmt="dcsr" if seg.kernel.wants_dcsr else "csr",
                        row_lo=seg.row_lo,
                        row_hi=seg.row_hi,
                        col_lo=seg.col_lo,
                        col_hi=seg.col_hi,
                        nnz=seg.nnz,
                        kernel=seg.kernel.name,
                    )
                )
        sp.set(n_segments=len(segments))
    plan = ExecutionPlan(
        method="recursive-block",
        n=n,
        segments=segments,
        perm=perm if reorder else None,
        preprocess_report=builder.stats.report("recursive-block"),
    )
    return RecursiveBlockedMatrix(
        n=n,
        depth=depth,
        perm=perm,
        plan=plan,
        blocks=blocks,
        permuted=Lp if keep_permuted else None,
    )
