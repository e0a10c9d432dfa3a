"""The compiled zero-allocation executor (:mod:`repro.core.executor`).

CompiledPlan must be a drop-in for ``plan.solve``/``plan.solve_multi``:
same solution, same dtype promotion, same simulated report — while warm
solves allocate nothing but the result array.  The arena pool is shared
by the serve thread pool, so buffer reuse across concurrent requests
must never leak one request's data into another's answer.
"""

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Observability, register_solver, unregister_solver
from repro.core.executor import _POOL_KEEP, CompiledPlan, compile_plan
from repro.core.solver import SOLVERS, LevelSetSolver, PreparedSolve
from repro.dist import DistributedPlan
from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels.sptrsv_levelset import LevelSetKernel
from repro.kernels.sptrsv_serial import solve_serial
from repro.serve import SolveService

from conftest import random_lower

DEVICE = TITAN_RTX_SCALED

METHODS = ["serial", "levelset", "cusparse", "syncfree",
           "column-block", "row-block", "recursive-block"]


def _prepared(method, n=120, seed=0, density=0.08):
    L = random_lower(n, density, seed=seed)
    solver = SOLVERS[method](device=DEVICE)
    return L, solver.prepare(L)


@pytest.mark.parametrize("method", METHODS)
def test_matches_plan_path_single_rhs(method):
    L, prepared = _prepared(method)
    compiled = compile_plan(prepared.plan, DEVICE)
    rng = np.random.default_rng(1)
    for _ in range(3):  # repeats land on the pooled arena
        b = rng.standard_normal(L.n_rows)
        x_ref, rep_ref = prepared.plan.solve(b, DEVICE)
        x, rep = compiled.solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12)
        assert x.dtype == x_ref.dtype
        assert rep.time_s == rep_ref.time_s
        assert rep.launches == rep_ref.launches
        assert rep.flops == rep_ref.flops


@pytest.mark.parametrize("method", ["levelset", "recursive-block", "row-block"])
def test_matches_plan_path_multi_rhs(method):
    L, prepared = _prepared(method)
    compiled = compile_plan(prepared.plan, DEVICE)
    rng = np.random.default_rng(2)
    for k in (1, 3, 7):
        B = rng.standard_normal((L.n_rows, k))
        X_ref, rep_ref = prepared.plan.solve_multi(B, DEVICE)
        for _ in range(2):  # the second call reuses the pooled arena
            X, rep = compiled.solve_multi(B)
            np.testing.assert_allclose(X, X_ref, rtol=1e-9, atol=1e-12)
            assert X.shape == (L.n_rows, k)
            assert rep.time_s == rep_ref.time_s
            assert rep.launches == rep_ref.launches


def test_frozen_report_is_fresh_per_solve():
    L, prepared = _prepared("recursive-block")
    compiled = compile_plan(prepared.plan, DEVICE)
    b = np.ones(L.n_rows)
    _, rep1 = compiled.solve(b)
    _, rep2 = compiled.solve(b)
    assert rep1 is not rep2
    rep1.detail["mutated"] = True
    rep1.kernels.clear()
    _, rep3 = compiled.solve(b)
    assert "mutated" not in rep3.detail
    assert rep3.kernels  # caller mutation never reaches the frozen copy


class TestDtypes:
    def test_float32_rhs_stays_float32(self):
        L, prepared = _prepared("levelset")
        compiled = compile_plan(prepared.plan, DEVICE)
        b = np.linspace(-1, 1, L.n_rows).astype(np.float32)
        x, _ = compiled.solve(b)
        x_ref, _ = prepared.plan.solve(b, DEVICE)
        assert x.dtype == np.float32 == x_ref.dtype
        np.testing.assert_allclose(x, x_ref, rtol=1e-5)

    @pytest.mark.parametrize("dt", [np.int32, np.int64])
    def test_integer_rhs_promotes_to_float64(self, dt):
        L, prepared = _prepared("recursive-block")
        compiled = compile_plan(prepared.plan, DEVICE)
        b = np.arange(L.n_rows, dtype=dt) % 7 - 3
        x, _ = compiled.solve(b)
        assert x.dtype == np.float64
        np.testing.assert_allclose(
            x, solve_serial(L, b.astype(np.float64)), rtol=1e-9
        )

    def test_integer_multi_rhs_promotes(self):
        L, prepared = _prepared("levelset")
        compiled = compile_plan(prepared.plan, DEVICE)
        B = (np.arange(L.n_rows * 3, dtype=np.int64) % 5).reshape(-1, 3)
        X, _ = compiled.solve_multi(B)
        assert X.dtype == np.float64
        X_ref, _ = prepared.plan.solve_multi(B, DEVICE)
        np.testing.assert_allclose(X, X_ref, rtol=1e-9)

    def test_mixed_dtype_streams_share_the_plan(self):
        # Alternating dtypes must each get their own pooled arenas.
        L, prepared = _prepared("recursive-block")
        compiled = compile_plan(prepared.plan, DEVICE)
        rng = np.random.default_rng(3)
        for _ in range(3):
            b64 = rng.standard_normal(L.n_rows)
            b32 = b64.astype(np.float32)
            x64, _ = compiled.solve(b64)
            x32, _ = compiled.solve(b32)
            assert x64.dtype == np.float64 and x32.dtype == np.float32
            np.testing.assert_allclose(x32, x64, rtol=1e-4, atol=1e-5)


class TestShapeChecks:
    def test_single_rhs_wrong_length(self):
        _, prepared = _prepared("levelset", n=50)
        compiled = compile_plan(prepared.plan, DEVICE)
        with pytest.raises(Exception):
            compiled.solve(np.ones(49))

    def test_multi_rhs_wrong_rows(self):
        _, prepared = _prepared("levelset", n=50)
        compiled = compile_plan(prepared.plan, DEVICE)
        with pytest.raises(Exception):
            compiled.solve_multi(np.ones((49, 2)))


class _RhsPricedLevelSet(LevelSetKernel):
    """A third-party kernel that never opted into ``pure_report``: its
    simulated time depends on the right-hand side it is handed."""

    pure_report = False

    def solve(self, aux, b, device):
        x, rep = super().solve(aux, b, device)
        return x, dataclasses.replace(rep, time_s=1e-6 * (1 + abs(float(b[0]))))


def test_non_pure_plan_delegates():
    L, prepared = _prepared("levelset")
    plan = prepared.plan
    kernel = plan.segments[0].kernel
    # Simulate a third-party kernel that never opted into pure_report.
    type(kernel).pure_report = False
    try:
        compiled = CompiledPlan(plan, DEVICE)
        assert compiled.pure is False
        b = np.ones(L.n_rows)
        x, rep = compiled.solve(b)
        x_ref, rep_ref = plan.solve(b, DEVICE)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12)
        assert rep.time_s == rep_ref.time_s
        X, _ = compiled.solve_multi(np.ones((L.n_rows, 2)))
        X_ref, _ = plan.solve_multi(np.ones((L.n_rows, 2)), DEVICE)
        np.testing.assert_allclose(X, X_ref, rtol=1e-12)
    finally:
        type(kernel).pure_report = True
    # A kernel whose report depends on b runs as a live step: each
    # solve's own report replaces the frozen capture everywhere it
    # surfaces, and the sharded executor runs the same steps.
    L = random_lower(200, 0.08, seed=3)
    plan = SOLVERS["column-block"](
        device=DEVICE, nseg=4, fixed_tri="levelset"
    ).prepare(L).plan
    seg = plan.segments[0]
    assert seg.lo == 0 and plan.perm is None  # its input is b[:hi]
    seg.kernel = _RhsPricedLevelSet()
    compiled = CompiledPlan(plan, DEVICE)
    assert compiled.pure is False
    dp = DistributedPlan(plan, DEVICE, 3, compiled=compiled)
    for b0 in (1.0, 5.0):
        b = np.linspace(1.0, 2.0, L.n_rows)
        b[0] = b0
        live = 1e-6 * (1 + b0)
        x, rep = compiled.solve(b)
        x_ref, rep_ref = plan.solve(b, DEVICE)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12)
        assert rep.kernels[0].time_s == live
        assert rep.time_s == rep_ref.time_s
        obs = Observability()
        with obs.activate():
            x_obs, rep = compiled.solve(b)
        assert np.array_equal(x_obs, x)
        assert rep.time_s == rep_ref.time_s
        assert rep.profile[0]["sim_time_s"] == live
        assert obs.serve_metrics.kernel_launches.total() == rep.launches
        (span,) = [s for s in obs.tracer.spans()
                   if s.name == "segment.tri" and s.attrs["index"] == 0]
        assert span.attrs["sim_time_s"] == live
        assert np.array_equal(dp.solve(b)[0], x)
        B = np.stack([b, 2 * b], axis=1)
        assert np.array_equal(dp.solve_multi(B)[0], compiled.solve_multi(B)[0])


def test_first_fused_solve_runs_the_compiled_steps():
    """The first ``solve_multi`` at a new RHS width runs the compiled
    steps like every later one: a kept SuperLU engine answers it, so it
    is bit-identical to later solves and to the sharded solve."""
    pytest.importorskip("scipy")
    # The engine rule gives this plan's segments SuperLU engines from
    # their structure, so there is a kept engine the first call could skip.
    L, prepared = _prepared("recursive-block", n=600, seed=9, density=0.02)
    B = np.random.default_rng(4).standard_normal((L.n_rows, 3))
    X1, _ = prepared.solve_multi(B)
    X2, _ = prepared.solve_multi(B)
    Xd, _ = DistributedPlan.from_prepared(prepared, 3).solve_multi(B)
    assert any(prepared.compile().engines_served()), "no engine serves"
    # the engine's rounding differs from the kernels' reporting path
    assert not np.array_equal(X2, prepared.plan.solve_multi(B, DEVICE)[0])
    assert np.array_equal(X1, X2)
    assert np.array_equal(X1, Xd)


class _Unreportable(LevelSetKernel):
    """A kernel whose reporting path fails, so no plan using it compiles."""

    def solve(self, aux, b, device):
        raise RuntimeError("no simulated report")


class _UncompilableSolver(LevelSetSolver):
    method = "uncompilable-test"

    def _prepare(self, L):
        prepared = super()._prepare(L)
        prepared.plan.segments[0].kernel = _Unreportable()
        return prepared


def test_compile_failure_raises_and_service_falls_back():
    L = random_lower(80, 0.08, seed=11)
    prepared = _UncompilableSolver(device=DEVICE).prepare(L)
    with pytest.raises(RuntimeError, match="no simulated report"):
        prepared.solve(np.ones(L.n_rows))
    register_solver("uncompilable-test", _UncompilableSolver)
    try:
        with SolveService(device=DEVICE) as svc:
            res = svc.solve(L, np.ones(L.n_rows), method="uncompilable-test")
            stats = svc.stats()
    finally:
        unregister_solver("uncompilable-test")
    assert res.fallback and res.method == "levelset"
    assert stats.fallbacks == 1
    np.testing.assert_allclose(L.matvec(res.x), np.ones(L.n_rows), atol=1e-9)


def test_obs_active_takes_the_instrumented_path():
    L, prepared = _prepared("recursive-block")
    compiled = prepared.compile()
    obs = Observability()
    with obs.activate():
        x, rep = prepared.solve(np.ones(L.n_rows))
    # The traced solve ran the observed step loop: one profile row per
    # segment, and the same numerics as the untraced solve.
    assert len(rep.profile) == len(prepared.plan.segments)
    assert obs.serve_metrics.solves_total.value(method="recursive-block") == 1
    assert np.array_equal(x, compiled.solve(np.ones(L.n_rows))[0])


def test_prepared_solve_compiles_lazily_and_caches():
    L, prepared = _prepared("levelset")
    assert isinstance(prepared, PreparedSolve)
    c1 = prepared.compile()
    c2 = prepared.compile()
    assert c1 is c2
    x, _ = prepared.solve(np.ones(L.n_rows))
    np.testing.assert_allclose(x, solve_serial(L, np.ones(L.n_rows)),
                               rtol=1e-9)


def test_arena_pool_stays_bounded():
    L, prepared = _prepared("levelset", n=80)
    compiled = compile_plan(prepared.plan, DEVICE)
    b = np.ones(L.n_rows)
    for _ in range(3 * _POOL_KEEP):
        compiled.solve(b)
    free = compiled._pool._free
    assert all(len(stack) <= _POOL_KEEP for stack in free.values())
    # Sequential solves reuse one arena; the free list stays tiny.
    assert sum(len(stack) for stack in free.values()) <= 2


class TestThreadPoolStress:
    """Arena reuse must never leak state across concurrent requests."""

    @pytest.mark.parametrize("method", ["levelset", "recursive-block"])
    def test_concurrent_single_rhs(self, method):
        L, prepared = _prepared(method, n=150, seed=5)
        compiled = prepared.compile()
        rng = np.random.default_rng(6)
        rhs = [rng.standard_normal(L.n_rows) for _ in range(32)]
        expected = [solve_serial(L, b) for b in rhs]
        barrier = threading.Barrier(8)

        def worker(idx):
            barrier.wait(timeout=10.0)
            errs = []
            for j in range(idx, len(rhs), 8):
                x, _ = compiled.solve(rhs[j])
                errs.append(float(np.max(np.abs(x - expected[j]))))
            return max(errs)

        with ThreadPoolExecutor(max_workers=8) as pool:
            worst = max(pool.map(worker, range(8)))
        assert worst < 1e-8

    def test_concurrent_mixed_widths_and_dtypes(self):
        L, prepared = _prepared("recursive-block", n=120, seed=7)
        compiled = prepared.compile()
        rng = np.random.default_rng(8)
        jobs = []
        for i in range(24):
            if i % 3 == 0:
                b = rng.standard_normal((L.n_rows, 2 + i % 4))
            elif i % 3 == 1:
                b = rng.standard_normal(L.n_rows).astype(np.float32)
            else:
                b = rng.standard_normal(L.n_rows)
            jobs.append(b)

        def expected(b):
            if b.ndim == 2:
                return np.stack(
                    [solve_serial(L, b[:, j]) for j in range(b.shape[1])],
                    axis=1,
                )
            return solve_serial(L, b.astype(np.float64))

        refs = [expected(b) for b in jobs]

        def worker(i):
            b = jobs[i]
            x, _ = compiled.solve_multi(b) if b.ndim == 2 else compiled.solve(b)
            tol = 1e-4 if x.dtype == np.float32 else 1e-8
            assert float(np.max(np.abs(x - refs[i]))) < tol
            return True

        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(worker, range(len(jobs))))
