"""SuperLU engines built by gathers from a pattern's CSC layout.

A values overlay builds its ``gstrs`` engine values from the layout its
pattern's step computed once: ``L.data[perm] * invdiag[col]`` instead
of SciPy's CSR -> CSC -> diagonal-scale -> sum-duplicates conversions.
The result must be the SciPy construction array for array — same
values, same sign bits, same index arrays and dtypes — so solves stay
bit-identical.  Where the two could differ (a product that is exactly
zero, which SciPy's matmul drops; duplicate entries, which it sums) the
engine falls back to the SciPy construction itself.

The last section covers the serve layer's remembered verdicts: values
bound again after their overlay was evicted adopt the engine verdicts
they already earned instead of re-running the accuracy probe.
"""

import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("scipy")

from repro.core.executor import (  # noqa: E402
    CompiledPlan,
    _GstrsEngine,
    _TriStep,
    _csc_layout,
)
from repro.core.rebind import PlanRebinder, tracer_matrix  # noqa: E402
from repro.core.solver import SOLVERS  # noqa: E402
from repro.formats.csr import CSRMatrix  # noqa: E402
from repro.gpu.device import TITAN_RTX_SCALED  # noqa: E402
from repro.kernels.base import (  # noqa: E402
    PreparedLower,
    prepare_lower,
    solve_dtype,
)
from repro.serve import SolveService, fingerprints  # noqa: E402
from repro.serve.service import VERDICT_MEMO_CAPACITY  # noqa: E402
from repro.validate.fuzz import FAMILIES  # noqa: E402

from conftest import random_lower  # noqa: E402

DEVICE = TITAN_RTX_SCALED
DTYPES = ("float32", "float64")


ENGINE_ARRAYS = ("l_data", "l_indices", "l_indptr", "invdiag")


def _assert_same_engine(got: tuple, ref: tuple) -> None:
    """Engine values ``(l_data, l_indices, l_indptr, invdiag)`` equal."""
    assert len(got) == len(ref) == len(ENGINE_ARRAYS)
    for name, a, b in zip(ENGINE_ARRAYS, got, ref):
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        # byte equality: values *and* sign bits (+0.0 vs -0.0)
        assert a.tobytes() == b.tobytes(), name


def _scipy_values(prep: PreparedLower, dtype) -> tuple:
    """Engine values of ``prep`` through SciPy's construction alone."""
    return _GstrsEngine(prep.L).values(
        prep.L.data, None, prep.diag, np.dtype(dtype), lambda: prep.L
    )


def _engines(L: CSRMatrix, work_dtype):
    """(gather-built, SciPy-built) engine values for ``L``, and the
    engine whose layout the first was gathered through."""
    prep = prepare_lower(L)
    compute = solve_dtype(prep.L.data.dtype, np.dtype(work_dtype))
    engine = _GstrsEngine(prep.L)
    got = engine.values(prep.L.data, engine.perm, prep.diag, compute,
                        lambda: prep.L)
    assert got[0].dtype == compute
    return got, _scipy_values(prep, compute), engine


@pytest.mark.parametrize("value_dtype", DTYPES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(seed=st.integers(0, 2**16), size=st.integers(16, 160))
@settings(max_examples=4, deadline=None)
def test_gather_engine_equals_scipy_construction(family, value_dtype,
                                                 seed, size):
    L = FAMILIES[family](np.random.default_rng(seed), size).astype(value_dtype)
    for work_dtype in DTYPES:
        got, ref, engine = _engines(L, work_dtype)
        _assert_same_engine(got, ref)
        if np.all(L.data != 0):
            # the gather path really ran: it shares the layout's arrays
            assert got[1] is engine.indices
            assert got[2] is engine.indptr


def _with_entry(L: CSRMatrix, value: float, col_diag: float | None = None):
    """``L`` with its first strictly-lower entry set to ``value`` (and,
    given ``col_diag``, that entry's column diagonal set to it)."""
    rows = np.repeat(np.arange(L.n_rows), L.row_counts())
    k = int(np.flatnonzero(L.indices < rows)[0])
    data = L.data.copy()
    data[k] = value
    if col_diag is not None:
        data[(rows == L.indices) & (rows == L.indices[k])] = col_diag
    return CSRMatrix(L.n_rows, L.n_cols, L.indptr, L.indices, data)


@pytest.mark.parametrize("value_dtype", DTYPES)
@pytest.mark.parametrize(
    "value, col_diag",
    [(0.0, None), (-0.0, None), (5e-324, 4.0)],
    ids=["zero", "negzero", "underflow"],
)
def test_zero_product_falls_back_to_scipy(value_dtype, value, col_diag):
    """A stored zero, or a denormal that scales to zero, is dropped by
    SciPy's matmul; the engine must drop it too."""
    L = random_lower(60, 0.1, seed=4)
    L = _with_entry(L, value, col_diag).astype(value_dtype)
    for work_dtype in DTYPES:
        got, ref, engine = _engines(L, work_dtype)
        _assert_same_engine(got, ref)
        assert engine.perm is not None and len(got[0]) < L.nnz


def test_duplicate_entries_fall_back_to_scipy():
    """A factor can carry a repeated column in a row (CSRMatrix does not
    sum duplicates); SciPy sums them, so no gather layout is offered."""
    L = random_lower(60, 0.1, seed=5)
    rows = np.repeat(np.arange(L.n_rows), L.row_counts())
    k = int(np.flatnonzero(L.indices < rows)[0])
    indices = np.insert(L.indices, k, L.indices[k])
    data = np.insert(L.data, k, 0.25)
    indptr = L.indptr.copy()
    indptr[rows[k] + 1:] += 1
    dup = CSRMatrix(L.n_rows, L.n_cols, indptr, indices, data)
    for work_dtype in DTYPES:
        got, ref, engine = _engines(dup, work_dtype)
        assert _csc_layout(prepare_lower(dup).L) == ()
        assert engine.perm is None
        _assert_same_engine(got, ref)


def _pattern(L: CSRMatrix, method: str = "levelset"):
    """Compiled tracer template + binder, as the serve layer builds them."""
    prepared = SOLVERS[method](device=DEVICE).prepare(tracer_matrix(L))
    compiled = prepared.compile()
    return compiled, PlanRebinder(compiled, L.nnz, L.data.dtype)


def _engine_steps(compiled: CompiledPlan) -> list[tuple[int, _TriStep]]:
    steps = [(i, s) for i, s in enumerate(compiled._steps)
             if isinstance(s, _TriStep) and s.try_engine]
    assert steps, "no engine-eligible segment"
    return steps


def _bound_prep(ov, i: int) -> PreparedLower:
    """The real-valued factor of step ``i`` under overlay ``ov``."""
    aux = ov.bound_for(i)
    return aux if isinstance(aux, PreparedLower) else aux.sched.prep


def _direct(L: CSRMatrix, data, method: str = "levelset"):
    """A plan built directly on ``data`` over ``L``'s pattern."""
    A = CSRMatrix(L.n_rows, L.n_cols, L.indptr, L.indices, data)
    return SOLVERS[method](device=DEVICE).prepare(A)


def test_overlays_share_the_template_layout():
    L = random_lower(200, 0.05, seed=6)
    template, binder = _pattern(L)
    f64 = np.dtype(np.float64)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(L.n_rows)
    overlays = []
    for _ in range(2):
        data = L.data * rng.uniform(0.5, 1.5, L.nnz)
        ov = binder.bind(data)
        x, _ = template.solve(b, ov)
        x_ref, _ = _direct(L, data).plan.solve(b, DEVICE)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12)
        overlays.append(ov)
    for ov in overlays:
        for i, step in _engine_steps(template):
            engine = step._engine  # one layout per step, for every overlay
            assert engine.perm is not None
            vals = ov.engines[i][f64]
            assert vals is not None
            assert vals[1] is engine.indices
            assert vals[2] is engine.indptr


def test_overlay_failing_accuracy_check_runs_kernel_path():
    """An overlay whose values fail the engine's accuracy probe keeps
    the kernel numerics even though its structure chose an engine."""
    L = random_lower(200, 0.05, seed=7)
    template, binder = _pattern(L)
    f64 = np.dtype(np.float64)
    bad = _with_entry(L, np.nan)
    ov = binder.bind(bad.data)
    b = np.ones(L.n_rows)
    x, _ = template.solve(b, ov)
    for i, _step in _engine_steps(template):
        assert ov.engines[i][f64] is None
    x_ref, _ = _direct(L, bad.data).plan.solve(b, DEVICE)
    np.testing.assert_array_equal(x, x_ref)


def test_concurrent_overlays_build_scipy_equal_engines():
    """Overlays of one pattern building their engines on many threads
    at once, over the step's one shared layout, still get engines equal
    to the SciPy construction."""
    L = random_lower(200, 0.05, seed=8)
    template, binder = _pattern(L)
    f64 = np.dtype(np.float64)
    rng = np.random.default_rng(1)
    datas = [L.data * rng.uniform(0.5, 1.5, L.nnz) for _ in range(16)]
    b = np.ones(L.n_rows)

    def build(data):
        ov = binder.bind(data)
        template.solve(b, ov)
        return ov

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            overlays = list(pool.map(build, datas, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for ov in overlays:
        for i, _step in _engine_steps(template):
            vals = ov.engines[i][f64]
            assert vals is not None
            _assert_same_engine(
                vals, _scipy_values(_bound_prep(ov, i), vals[0].dtype)
            )


# --------------------------------------------------------------------- #
# Remembered verdicts: values bound again skip the accuracy probe
# --------------------------------------------------------------------- #
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


@pytest.fixture
def probes(monkeypatch):
    """Work dtype of every engine probe (``_TriStep._build_engine``)."""
    calls = []
    real = _TriStep._build_engine

    def counted(step, ov, i, work_dtype):
        calls.append(np.dtype(work_dtype))
        return real(step, ov, i, work_dtype)

    monkeypatch.setattr(_TriStep, "_build_engine", counted)
    return calls


def _scaled(L: CSRMatrix, seed: int) -> CSRMatrix:
    """Same pattern, new values."""
    f = np.random.default_rng(seed).uniform(0.5, 1.5, L.nnz)
    return CSRMatrix(L.n_rows, L.n_cols, L.indptr, L.indices,
                     (L.data * f).astype(L.data.dtype))


def _vfp(A: CSRMatrix) -> str:
    return fingerprints(A)[2]


def _only_pattern(svc: SolveService):
    (pattern,) = svc.cache._entries.values()
    return pattern


def _overlay_engines(pattern, A: CSRMatrix) -> list[dict]:
    ov = pattern.overlays[_vfp(A)].overlay
    return [ov.engines[i] for i, _ in _engine_steps(pattern.binder.compiled)]


@pytest.mark.parametrize("n_devices", [1, 4])
def test_rebinding_seen_values_runs_no_probe(probes, n_devices):
    """With one overlay slot every solve below evicts the previous
    values; binding them again adopts their verdicts, probe-free, and
    answers bit-identically to the first binding, fused or not."""
    L = random_lower(300, 0.04, seed=41)
    variants = [L, _scaled(L, 1), _scaled(L, 2)]
    b = np.random.default_rng(3).standard_normal(L.n_rows)
    with SolveService(method="column-block", solver_options={"nseg": 8},
                      n_devices=n_devices, overlay_capacity=1,
                      max_workers=1) as svc:
        first = [svc.solve(V, b).x for V in variants]
        assert probes, "the first bindings probe their engines"
        probes.clear()
        again = [svc.solve(V, b).x for V in variants]
        batch = svc.solve_batch([(V, b) for V in variants])
        pattern = _only_pattern(svc)
        assert batch.buckets[0].fused
        assert len(pattern.verdicts) == len(variants)
        assert svc.stats().pattern_builds == 1
    assert probes == []
    for x0, x1, r in zip(first, again, batch):
        assert np.array_equal(x0, x1)
        assert np.array_equal(x0, r.x)


def test_rejected_engine_stays_on_kernel_path_after_rebind(probes):
    """A NaN fails the accuracy check; the remembered drop verdict pins
    the kernel path when those values are bound again."""
    L = random_lower(200, 0.05, seed=42)
    bad = _with_entry(L, np.nan)
    b = np.ones(L.n_rows)
    with SolveService(overlay_capacity=1, max_workers=1) as svc:
        x1 = svc.solve(bad, b).x
        svc.solve(L, b)  # evicts the poisoned overlay
        pattern = _only_pattern(svc)
        assert any(d and d[F64] is False for d in pattern.verdicts[_vfp(bad)])
        probes.clear()
        x2 = svc.solve(bad, b).x
        engines = _overlay_engines(pattern, bad)
    assert probes == []
    assert any(e[F64] is None for e in engines)
    assert np.array_equal(x1, x2, equal_nan=True)


def test_verdict_never_crosses_work_dtypes(probes):
    """float32 values solved with a float32 right-hand side remember a
    float32 verdict only: a float64 right-hand side still probes."""
    L = random_lower(200, 0.05, seed=43).astype(np.float32)
    with SolveService(overlay_capacity=1, max_workers=1) as svc:
        svc.solve(L, np.ones(L.n_rows, dtype=np.float32))
        svc.solve(_scaled(L, 1), np.ones(L.n_rows, dtype=np.float32))
        pattern = _only_pattern(svc)
        assert {dt for d in pattern.verdicts[_vfp(L)] if d for dt in d} == {F32}
        probes.clear()
        x = svc.solve(L, np.ones(L.n_rows)).x
        engines = _overlay_engines(pattern, L)
    assert probes and set(probes) == {F64}
    assert all(set(e) == {F32, F64} for e in engines)
    assert x.dtype == F64


def test_memo_is_bounded_and_leaves_with_its_pattern():
    L = random_lower(100, 0.06, seed=44)
    variants = [_scaled(L, s) for s in range(VERDICT_MEMO_CAPACITY + 3)]
    b = np.ones(L.n_rows)
    with SolveService(overlay_capacity=1, cache_capacity=1,
                      max_workers=1) as svc:
        for V in variants:
            svc.solve(V, b)
        pattern = _only_pattern(svc)
        # every evicted digest was remembered; the oldest fell out
        assert list(pattern.verdicts) == [
            _vfp(V) for V in variants[2:-1]
        ]
        memo = weakref.ref(pattern.verdicts)
        del pattern
        svc.solve(random_lower(90, 0.06, seed=45), np.ones(90))
    assert memo() is None


def test_only_completed_verdicts_are_recorded(monkeypatch):
    """An overlay evicted while its probe is still running on another
    worker leaves no verdict behind for that probe."""
    L = random_lower(200, 0.05, seed=46)
    slow, other = _scaled(L, 1), _scaled(L, 2)
    b = np.ones(L.n_rows)
    started, release = threading.Event(), threading.Event()
    armed = []
    real = _TriStep._build_engine

    def gated(step, ov, i, work_dtype):
        if armed and armed.pop():
            started.set()
            assert release.wait(timeout=30)
        return real(step, ov, i, work_dtype)

    monkeypatch.setattr(_TriStep, "_build_engine", gated)
    with SolveService(overlay_capacity=1, max_workers=2) as svc:
        svc.solve(L, b)  # builds the pattern and settles L's verdicts
        armed.append(True)
        fut = svc.submit(slow, b)
        assert started.wait(timeout=30)
        svc.solve(other, b)  # evicts the overlay mid-probe
        pattern = _only_pattern(svc)
        assert _vfp(slow) not in pattern.verdicts
        release.set()
        x = fut.result(timeout=30)[0].x
        svc.solve(L, b)  # evicts `other`, whose probe completed
        assert _vfp(other) in pattern.verdicts
        assert np.array_equal(svc.solve(slow, b).x, x)


def test_concurrent_bind_and_evict_stays_bit_identical():
    """Many workers binding, evicting and re-binding overlays of one
    pattern through the verdict memo all get the single-threaded
    answers."""
    L = random_lower(200, 0.05, seed=47)
    variants = [L] + [_scaled(L, s) for s in range(5)]
    b = np.random.default_rng(48).standard_normal(L.n_rows)
    # distinct values per row: coalesced duplicates would run the
    # multi-RHS path, which is not bitwise the single-RHS one
    rng = np.random.default_rng(49)
    picks = [rng.permutation(len(variants))[:3] for _ in range(160)]
    with SolveService(overlay_capacity=2, max_workers=8) as svc:
        ref = [svc.solve(V, b).x for V in variants]

        def work(row):
            if row[0] % 2:
                return [svc.solve(variants[i], b).x for i in row]
            return [r.x for r in svc.solve_batch([(variants[i], b) for i in row])]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 120
            with ThreadPoolExecutor(max_workers=16) as pool:
                futs = [pool.submit(work, row) for row in picks]
                got = [f.result(timeout=max(0.0, deadline - time.monotonic()))
                       for f in futs]
        finally:
            sys.setswitchinterval(interval)
        stats = svc.stats()
    assert stats.failed == 0
    assert stats.overlay_evictions > 0
    for row, xs in zip(picks, got):
        for i, x in zip(row, xs):
            assert np.array_equal(x, ref[i])
