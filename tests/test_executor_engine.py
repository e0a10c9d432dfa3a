"""SuperLU engines built by gathers from a pattern's CSC layout.

A values overlay builds its ``gstrs`` engine values from the layout its
pattern's step computed once: ``L.data[perm] * invdiag[col]`` instead
of SciPy's CSR -> CSC -> diagonal-scale -> sum-duplicates conversions.
The result must be the SciPy construction array for array — same
values, same sign bits, same index arrays and dtypes — so solves stay
bit-identical.  Where the two could differ (a product that is exactly
zero, which SciPy's matmul drops; duplicate entries, which it sums) the
engine falls back to the SciPy construction itself.

The last section covers the engine rule: an engine serves float64
values in a float64 work buffer whose engine values are finite, and
everything else takes the kernel path.  No accuracy probe runs, except
under ``check=True``.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("scipy")

from repro import solve_triangular  # noqa: E402
from repro.core import executor  # noqa: E402
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
from repro.kernels import SPTRSV_KERNELS  # noqa: E402
from repro.kernels.sptrsv_serial import SerialKernel  # noqa: E402
from repro.serve import SolveService, fingerprints  # noqa: E402
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
# The engine rule: precision and finiteness decide, no probe runs
# --------------------------------------------------------------------- #
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


@pytest.fixture
def kernel_solves(monkeypatch):
    """Every kernel ``solve_numeric`` call: on a pattern whose triangular
    steps all serve an engine, only an accuracy probe makes one."""
    calls = []
    for cls in {*SPTRSV_KERNELS.values(), SerialKernel}:
        real = cls.solve_numeric

        def counted(kernel, aux, b, device, _real=real):
            calls.append(type(kernel).name)
            return _real(kernel, aux, b, device)

        monkeypatch.setattr(cls, "solve_numeric", counted)
    return calls


@pytest.fixture
def probes(monkeypatch):
    """Work dtype of every accuracy probe (``_TriStep.probe``)."""
    calls = []
    real = _TriStep.probe

    def counted(step, ov, i, work_dtype):
        calls.append(np.dtype(work_dtype))
        return real(step, ov, i, work_dtype)

    monkeypatch.setattr(_TriStep, "probe", counted)
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


def _served(svc: SolveService, A: CSRMatrix, b_dtype=F64) -> tuple:
    """Per step of ``A``'s pattern, whether its engine serves ``A``'s
    overlay at the work dtype of a ``b_dtype`` RHS (None: no engine)."""
    pattern = _only_pattern(svc)
    return pattern.binder.compiled.engines_served(
        b_dtype, pattern.overlays[_vfp(A)].overlay
    )


def _kernel_path(monkeypatch, A: CSRMatrix, b, **config):
    """The service's answer with no SuperLU engine anywhere."""
    with monkeypatch.context() as m:
        m.setattr(executor, "_HAVE_SUPERLU", False)
        with SolveService(max_workers=1, **config) as svc:
            return svc.solve(A, b).x


@pytest.mark.parametrize("n_devices", [1, 4])
def test_a_first_seen_overlay_runs_no_kernel_reference_solve(
    kernel_solves, tmp_path, n_devices
):
    """New float64 values bound onto a pattern — by ``solve``, by
    ``solve_batch``, and onto a pattern a fresh service loaded from the
    plan store — solve on their engines at once: no kernel
    ``solve_numeric`` runs, so no accuracy probe does."""
    L = random_lower(300, 0.04, seed=41)
    variants = [_scaled(L, s) for s in range(1, 6)]
    b = np.random.default_rng(3).standard_normal(L.n_rows)
    config = dict(method="column-block", solver_options={"nseg": 8},
                  n_devices=n_devices, max_workers=1, overlay_capacity=8,
                  store_path=str(tmp_path))
    with SolveService(**config) as svc:
        svc.solve(L, b)  # builds (and persists) the pattern
        kernel_solves.clear()
        xs = [svc.solve(V, b).x for V in variants[:2]]
        batch = svc.solve_batch([(V, b) for V in variants[2:]])
        assert kernel_solves == []
        assert batch.buckets[0].fused
        served = [_served(svc, V) for V in variants]
        assert svc.stats().pattern_builds == 1
    with SolveService(**config) as svc:
        x_loaded = svc.solve(variants[0], b).x
        assert kernel_solves == []
        served.append(_served(svc, variants[0]))
        st = svc.stats()
        assert st.pattern_builds == 0 and st.store_hits == 1
    # every triangular step chose an engine, and every overlay's serves
    tri = [[v for v in s if v is not None] for s in served]
    assert all(t and all(t) for t in tri)
    assert x_loaded.tobytes() == xs[0].tobytes()
    for V, r in zip(variants[2:], batch):
        with SolveService(max_workers=1, method="column-block",
                          solver_options={"nseg": 8},
                          n_devices=n_devices) as fresh:
            assert r.x.tobytes() == fresh.solve(V, b).x.tobytes()


#: value dtype, RHS dtype and poisoned entry of overlays the rule sends
#: to the kernel path
KERNEL_PATH = {
    "f32-factor-f32-rhs": (F32, F32, None),
    "f32-factor-f64-rhs": (F32, F64, None),
    "f64-factor-f32-rhs": (F64, F32, None),
    "nan": (F64, F64, np.nan),
    "inf": (F64, F64, np.inf),
}


@pytest.mark.parametrize("case", sorted(KERNEL_PATH))
def test_single_precision_and_non_finite_values_take_the_kernel_path(
    monkeypatch, kernel_solves, case
):
    """A float32 factor, a float32 work buffer, a NaN or an inf keeps
    every engine step on its kernel path, answering bit for bit like a
    service with no engine at all; no accuracy probe runs to decide."""
    value_dtype, rhs_dtype, poison = KERNEL_PATH[case]
    L = random_lower(200, 0.05, seed=7).astype(value_dtype)
    if poison is not None:
        L = _with_entry(L, poison)
    b = np.linspace(-1.0, 1.0, L.n_rows).astype(rhs_dtype)
    with SolveService(max_workers=1) as svc:
        x = svc.solve(L, b).x
        served = _served(svc, L, rhs_dtype)
        binder = _only_pattern(svc).binder
    assert any(s is not None for s in served), "no step chose an engine"
    assert not any(served)
    # the kernel path ran, and no probe besides it
    tri = sum(isinstance(s, _TriStep) for s in binder.compiled._steps)
    assert len(kernel_solves) == tri
    want = _kernel_path(monkeypatch, L, b)
    assert x.dtype == want.dtype
    assert x.tobytes() == want.tobytes()


def test_finite_float64_values_take_the_engine(kernel_solves):
    L = random_lower(200, 0.05, seed=7)
    b = np.linspace(-1.0, 1.0, L.n_rows)
    with SolveService(max_workers=1) as svc:
        x = svc.solve(L, b).x
        served = _served(svc, L)
    assert served == (True,)
    assert kernel_solves == []
    x_ref, _ = _direct(L, L.data).plan.solve(b, DEVICE)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)


def _wrong_engines(monkeypatch) -> None:
    """Engine values whose inverse diagonal is doubled: an engine that
    answers twice the solution wherever the rule lets it serve."""
    real = _TriStep._engine_values

    def wrong(step, ov, i, work_dtype):
        data, indices, indptr, invdiag = real(step, ov, i, work_dtype)
        return data, indices, indptr, invdiag * 2

    monkeypatch.setattr(_TriStep, "_engine_values", wrong)


@pytest.mark.parametrize("n_devices", [1, 4])
def test_check_probes_each_first_seen_overlay(monkeypatch, probes,
                                              n_devices):
    """Under ``check=True`` the accuracy probe still runs on each new
    overlay before it is solved, and an engine it rejects leaves its
    step on the kernel path: the answer is the kernel path's, bit for
    bit, where the unchecked service answers with the wrong engine."""
    L = random_lower(200, 0.05, seed=9)
    V = _scaled(L, 1)
    b = np.random.default_rng(10).standard_normal(L.n_rows)
    want = _kernel_path(monkeypatch, V, b, n_devices=n_devices)
    _wrong_engines(monkeypatch)
    with SolveService(max_workers=1, check=True, n_devices=n_devices) as svc:
        svc.solve(L, b)
        probes.clear()
        x = svc.solve(V, b).x
        served = _served(svc, V)
    assert probes and set(probes) == {F64}
    assert served == (False,)
    assert x.tobytes() == want.tobytes()
    with SolveService(max_workers=1, n_devices=n_devices) as svc:
        wrong = svc.solve(V, b).x
    np.testing.assert_allclose(wrong, 2 * x, rtol=1e-9)
    probes.clear()
    checked = solve_triangular(V, b, check=True).x
    assert probes
    assert not np.allclose(solve_triangular(V, b).x, checked)
    np.testing.assert_allclose(checked, x, rtol=1e-12, atol=1e-14)


def _overlay_engines(pattern, A: CSRMatrix) -> list[dict]:
    ov = pattern.overlays[_vfp(A)].overlay
    return [ov.engines[i] for i, _ in _engine_steps(pattern.binder.compiled)]


@pytest.mark.parametrize("n_devices", [1, 4])
def test_rebinding_seen_values_runs_no_probe(probes, n_devices):
    """With one overlay slot every solve below evicts the previous
    values; binding them again decides their engines by the rule,
    probe-free, and answers bit-identically to the first binding, fused
    or not."""
    L = random_lower(300, 0.04, seed=41)
    variants = [L, _scaled(L, 1), _scaled(L, 2)]
    b = np.random.default_rng(3).standard_normal(L.n_rows)
    with SolveService(method="column-block", solver_options={"nseg": 8},
                      n_devices=n_devices, overlay_capacity=1,
                      max_workers=1) as svc:
        first = [svc.solve(V, b).x for V in variants]
        again = [svc.solve(V, b).x for V in variants]
        batch = svc.solve_batch([(V, b) for V in variants])
        assert batch.buckets[0].fused
        assert svc.stats().pattern_builds == 1
        assert svc.stats().overlay_evictions >= 2 * len(variants)
    assert probes == []
    for x0, x1, r in zip(first, again, batch):
        assert np.array_equal(x0, x1)
        assert np.array_equal(x0, r.x)


def test_rejected_engine_stays_on_kernel_path_after_rebind(probes):
    """A NaN keeps the kernel path by the rule, and again when those
    values are bound anew after their overlay was evicted."""
    L = random_lower(200, 0.05, seed=42)
    bad = _with_entry(L, np.nan)
    b = np.ones(L.n_rows)
    with SolveService(overlay_capacity=1, max_workers=1) as svc:
        x1 = svc.solve(bad, b).x
        svc.solve(L, b)  # evicts the poisoned overlay
        x2 = svc.solve(bad, b).x
        engines = _overlay_engines(_only_pattern(svc), bad)
    assert probes == []
    assert engines and all(e[F64] is None for e in engines)
    assert np.array_equal(x1, x2, equal_nan=True)


def test_verdict_never_crosses_work_dtypes(probes):
    """float64 values decide their engine per work dtype: a float32
    right-hand side takes the kernel path, a float64 one the engine,
    each deciding for itself on one overlay."""
    L = random_lower(200, 0.05, seed=43)
    with SolveService(max_workers=1) as svc:
        x32 = svc.solve(L, np.ones(L.n_rows, dtype=np.float32)).x
        engines = _overlay_engines(_only_pattern(svc), L)
        assert all(set(e) == {F32} and e[F32] is None for e in engines)
        x64 = svc.solve(L, np.ones(L.n_rows)).x
        engines = _overlay_engines(_only_pattern(svc), L)
    assert probes == []
    assert all(set(e) == {F32, F64} for e in engines)
    assert all(e[F32] is None and e[F64] is not None for e in engines)
    assert x32.dtype == F32 and x64.dtype == F64


def test_concurrent_bind_and_evict_stays_bit_identical():
    """Many workers binding, evicting and re-binding overlays of one
    pattern all get the single-threaded answers."""
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
