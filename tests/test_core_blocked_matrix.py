"""Improved recursive-block structure tests (§3.3, Figure 3)."""

import numpy as np
import pytest

from repro.core.blocked_matrix import (
    build_improved_recursive_plan,
    ranges_from_splits,
    recursive_levelset_reorder,
)
from repro.formats.triangular import is_lower_triangular
from repro.graph import compute_levels, invert_permutation
from repro.graph.reorder import is_permutation
from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels import solve_serial
from repro.matrices.generators import layered_random, powerlaw_matrix

from conftest import random_lower

DEV = TITAN_RTX_SCALED


class TestRecursiveReorder:
    def test_returns_valid_permutation(self, medium_lower):
        perm, sweeps, _ = recursive_levelset_reorder(medium_lower, 2)
        assert is_permutation(perm)
        assert sweeps >= 1

    def test_stays_lower_triangular(self, medium_lower):
        perm, _, _ = recursive_levelset_reorder(medium_lower, 3)
        assert is_lower_triangular(medium_lower.permute_symmetric(perm))

    def test_top_level_is_level_sorted(self, medium_lower):
        perm, _, _ = recursive_levelset_reorder(medium_lower, 0)
        lv = compute_levels(medium_lower)
        assert np.all(np.diff(lv[perm]) >= 0)

    def test_halves_internally_level_sorted(self, medium_lower):
        """Figure 3(c): each triangular half is sorted by its own levels."""
        perm, _, _ = recursive_levelset_reorder(medium_lower, 1)
        P = medium_lower.permute_symmetric(perm)
        n = P.n_rows
        mid = n // 2
        for lo, hi in ((0, mid), (mid, n)):
            sub = P.extract_block(lo, hi, lo, hi)
            lv = compute_levels(sub)
            assert np.all(np.diff(lv) >= 0)

    def test_reorder_nnz_accounting(self, medium_lower):
        """Each recursion level sweeps every entry at most once, so the
        processed-nnz counter is ~(depth+1) * nnz (squares drop out of
        deeper sweeps, hence <=)."""
        _, n0, _ = recursive_levelset_reorder(medium_lower, 0)
        _, n2, _ = recursive_levelset_reorder(medium_lower, 2)
        assert n0 == medium_lower.nnz
        assert medium_lower.nnz < n2 <= 3 * medium_lower.nnz

    def test_reorder_concentrates_nnz_in_squares(self):
        """Figure 3's 8 -> 11 effect: the level-set reorder moves more
        nonzeros into the square parts."""
        L = layered_random(
            np.array([150, 120, 90, 60, 40, 20]),
            6.0,
            np.random.default_rng(5),
        )
        with_reorder = build_improved_recursive_plan(L, 2, DEV, reorder=True)
        without = build_improved_recursive_plan(L, 2, DEV, reorder=False)
        assert with_reorder.nnz_in_squares >= without.nnz_in_squares


class TestLevelAlignedSplits:
    @pytest.fixture
    def uneven(self):
        # Level sizes chosen so midpoints fall inside levels.
        return layered_random(
            np.array([70, 50, 90, 30, 110, 40, 60]),
            5.0,
            np.random.default_rng(11),
        )

    def test_splits_land_on_level_boundaries(self, uneven):
        _, _, splits = recursive_levelset_reorder(uneven, 2, align_levels=True)
        blocked = build_improved_recursive_plan(
            uneven, 2, DEV, align_levels=True, keep_permuted=True
        )
        lv = compute_levels(blocked.permuted)
        for (lo, hi), mid in splits.items():
            if (lo, hi) == (0, uneven.n_rows):
                # top-level split: permuted matrix is globally level-sorted
                assert lv[mid] != lv[mid - 1]

    def test_alignment_changes_split(self, uneven):
        _, _, aligned = recursive_levelset_reorder(uneven, 1, align_levels=True)
        _, _, mid = recursive_levelset_reorder(uneven, 1, align_levels=False)
        n = uneven.n_rows
        assert mid[(0, n)] == n // 2
        assert aligned[(0, n)] != n // 2  # snapped to a boundary

    def test_solution_correct(self, uneven, rng):
        b = rng.standard_normal(uneven.n_rows)
        x_ref = solve_serial(uneven, b)
        blocked = build_improved_recursive_plan(
            uneven, 2, DEV, align_levels=True
        )
        x, _ = blocked.plan.solve(b, DEV)
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-11)

    def test_aligned_leaves_are_shallower(self, uneven):
        """Snapping to level boundaries cannot deepen leaf triangles."""
        plain = build_improved_recursive_plan(uneven, 2, DEV)
        aligned = build_improved_recursive_plan(
            uneven, 2, DEV, align_levels=True
        )

        def total_leaf_levels(blocked):
            from repro.kernels.sweep import build_level_schedule

            total = 0
            for seg in blocked.plan.tri_segments:
                sched = getattr(seg.aux, "sched", None)
                if sched is not None:
                    total += sched.nlevels
                else:
                    total += 1  # diagonal leaf
            return total

        assert total_leaf_levels(aligned) <= total_leaf_levels(plain)


class TestImprovedPlan:
    def test_solution_correct_with_reorder(self, medium_lower, rng):
        b = rng.standard_normal(medium_lower.n_rows)
        x_ref = solve_serial(medium_lower, b)
        blocked = build_improved_recursive_plan(medium_lower, 3, DEV)
        x, _ = blocked.plan.solve(b, DEV)
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("reorder,use_dcsr", [(True, False), (False, True),
                                                  (False, False)])
    def test_solution_correct_all_variants(self, medium_lower, rng, reorder, use_dcsr):
        b = rng.standard_normal(medium_lower.n_rows)
        x_ref = solve_serial(medium_lower, b)
        blocked = build_improved_recursive_plan(
            medium_lower, 2, DEV, reorder=reorder, use_dcsr=use_dcsr
        )
        x, _ = blocked.plan.solve(b, DEV)
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-11)

    def test_reconstruction_roundtrip(self, medium_lower):
        """Figure 3(d): the stored blocks reassemble the permuted matrix."""
        blocked = build_improved_recursive_plan(
            medium_lower, 2, DEV, keep_permuted=True
        )
        assert np.allclose(
            blocked.reconstruct_dense(), blocked.permuted.to_dense()
        )

    def test_blocks_inventory_consistent(self, medium_lower):
        blocked = build_improved_recursive_plan(medium_lower, 2, DEV)
        assert blocked.nnz_in_squares + blocked.nnz_in_triangles == medium_lower.nnz
        kinds = {b.kind for b in blocked.blocks}
        assert kinds <= {"triangle", "square"}
        for blk in blocked.blocks:
            if blk.kind == "triangle":
                assert blk.fmt == "csc"
                assert blk.row_lo == blk.col_lo and blk.row_hi == blk.col_hi
            else:
                assert blk.fmt in ("csr", "dcsr")
                assert blk.col_hi == blk.row_lo  # square reads x above it

    def test_dcsr_used_for_hypersparse_squares(self):
        L = powerlaw_matrix(600, 3.0, np.random.default_rng(7))
        blocked = build_improved_recursive_plan(L, 2, DEV, use_dcsr=True)
        fmts = {b.fmt for b in blocked.blocks if b.kind == "square"}
        # power-law blocks leave many empty rows; at least one DCSR expected
        assert "dcsr" in fmts

    def test_dcsr_disabled(self):
        L = powerlaw_matrix(600, 3.0, np.random.default_rng(7))
        blocked = build_improved_recursive_plan(L, 2, DEV, use_dcsr=False)
        assert all(b.fmt != "dcsr" for b in blocked.blocks if b.kind == "square")

    def test_reorder_charged_in_preprocessing(self, medium_lower):
        with_r = build_improved_recursive_plan(medium_lower, 2, DEV, reorder=True)
        without = build_improved_recursive_plan(medium_lower, 2, DEV, reorder=False)
        assert (
            with_r.plan.preprocess_report.detail["reorder_s"]
            > without.plan.preprocess_report.detail["reorder_s"]
        )

    def test_perm_identity_when_no_reorder(self, medium_lower):
        blocked = build_improved_recursive_plan(medium_lower, 2, DEV, reorder=False)
        assert np.array_equal(blocked.perm, np.arange(medium_lower.n_rows))
        assert blocked.plan.perm is None

    def test_solution_in_original_order(self, medium_lower, rng):
        """The permutation must be transparent to the caller."""
        b = rng.standard_normal(medium_lower.n_rows)
        blocked = build_improved_recursive_plan(medium_lower, 3, DEV)
        x, _ = blocked.plan.solve(b, DEV)
        inv = invert_permutation(blocked.perm)
        assert np.allclose(medium_lower.matvec(x), b, atol=1e-8)
        assert len(inv) == medium_lower.n_rows


class TestLevelsComputedOnce:
    """The reorder's level sets are the leaves' level sets: a build
    computes levels once per range the reorder visits and never again
    per segment, and the levels it hands over are each segment's."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.core.blocked_matrix as blocked
        import repro.core.build as build
        import repro.graph.levels as levels
        import repro.graph.stats as stats

        seen = []
        real = levels.compute_levels

        def counted(L):
            seen.append(L.n_rows)
            return real(L)

        for mod in (blocked, build, levels, stats):
            monkeypatch.setattr(mod, "compute_levels", counted, raising=False)
        return seen

    @pytest.mark.parametrize("depth", [0, 2, 3])
    @pytest.mark.parametrize("align", [False, True])
    def test_once_per_reorder_range(self, calls, depth, align):
        L = layered_random(np.full(12, 50), 4.0, np.random.default_rng(3))
        _, _, splits = recursive_levelset_reorder(L, depth, align_levels=align)
        tri = [r for r in ranges_from_splits(0, L.n_rows, splits)
               if r[0] == "tri"]
        visited = len(splits) + sum(1 for _, lo, hi in tri if hi - lo >= 2)
        calls.clear()
        blocked = build_improved_recursive_plan(L, depth, DEV,
                                                align_levels=align)
        assert len(calls) == visited
        assert len(blocked.plan.tri_segments) == len(tri)

    def test_once_per_segment_without_reorder(self, calls):
        from repro.core.column_block import build_column_block_plan

        L = random_lower(300, density=0.03, seed=4)
        plan = build_column_block_plan(L, 8, DEV)
        assert len(calls) == len(plan.tri_segments)

    @pytest.mark.parametrize("align", [False, True])
    def test_seeded_levels_are_each_segments(self, align):
        from repro.core.executor import _segment_prep

        L = powerlaw_matrix(500, 3.0, np.random.default_rng(5))
        blocked = build_improved_recursive_plan(L, 3, DEV, align_levels=align)
        kinds = set()
        for seg in blocked.plan.tri_segments:
            prep = _segment_prep(seg)
            sched = getattr(seg.aux, "sched", None)
            kinds.add(sched is not None)
            if sched is None:
                # a kernel without a level schedule keeps no levels
                assert "_levels_cache" not in vars(prep.L)
            else:
                assert np.array_equal(sched.levels, compute_levels(prep.L))
        assert kinds == {False, True}
