"""SuperLU engines built by gathers from a pattern's CSC layout.

A values overlay builds its ``gstrs`` engine from the layout its pattern
template computed once: ``L.data[perm] * invdiag[col]`` instead of
SciPy's CSR -> CSC -> diagonal-scale -> sum-duplicates conversions.  The
result must be the SciPy construction array for array — same values,
same sign bits, same index arrays and dtypes — so solves stay
bit-identical.  Where the two could differ (a product that is exactly
zero, which SciPy's matmul drops; duplicate entries, which it sums) the
engine falls back to the SciPy construction itself.
"""

import sys
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
    compile_plan,
)
from repro.core.rebind import PlanRebinder, tracer_matrix  # noqa: E402
from repro.core.solver import SOLVERS  # noqa: E402
from repro.formats.csr import CSRMatrix  # noqa: E402
from repro.gpu.device import TITAN_RTX_SCALED  # noqa: E402
from repro.kernels.base import prepare_lower, solve_dtype  # noqa: E402
from repro.validate.fuzz import FAMILIES  # noqa: E402

from conftest import random_lower  # noqa: E402

DEVICE = TITAN_RTX_SCALED
DTYPES = ("float32", "float64")


def _assert_same_engine(got: _GstrsEngine, ref: _GstrsEngine) -> None:
    assert got.n == ref.n
    assert got.dtype == ref.dtype
    assert got.l_nnz == ref.l_nnz
    assert got.u_nnz == ref.u_nnz
    for name in ("l_data", "l_indices", "l_indptr",
                 "u_data", "u_indices", "u_indptr", "invdiag"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        # byte equality: values *and* sign bits (+0.0 vs -0.0)
        assert a.tobytes() == b.tobytes(), name


def _engines(L: CSRMatrix, work_dtype):
    """(gather-built, SciPy-built, layout) engines for ``L``."""
    prep = prepare_lower(L)
    compute = solve_dtype(prep.L.data.dtype, np.dtype(work_dtype))
    layout = _csc_layout(prep.L)
    return (
        _GstrsEngine(prep, compute, layout),
        _GstrsEngine(prep, compute),
        layout,
    )


@pytest.mark.parametrize("value_dtype", DTYPES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(seed=st.integers(0, 2**16), size=st.integers(16, 160))
@settings(max_examples=4, deadline=None)
def test_gather_engine_equals_scipy_construction(family, value_dtype,
                                                 seed, size):
    L = FAMILIES[family](np.random.default_rng(seed), size).astype(value_dtype)
    for work_dtype in DTYPES:
        got, ref, layout = _engines(L, work_dtype)
        _assert_same_engine(got, ref)
        if np.all(L.data != 0):
            # the gather path really ran: it shares the layout's arrays
            assert got.l_indices is layout[2]
            assert got.l_indptr is layout[3]


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
        got, ref, layout = _engines(L, work_dtype)
        _assert_same_engine(got, ref)
        assert layout and got.l_nnz < L.nnz


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
        got, ref, layout = _engines(dup, work_dtype)
        assert layout == ()
        _assert_same_engine(got, ref)


def _pattern(L: CSRMatrix, method: str = "levelset"):
    """Compiled tracer template + binder, as the serve layer builds them."""
    prepared = SOLVERS[method](device=DEVICE).prepare(tracer_matrix(L))
    binder = PlanRebinder(prepared.plan, L.nnz, L.data.dtype)
    return compile_plan(prepared.plan, DEVICE), binder


def _engine_steps(compiled: CompiledPlan) -> list[_TriStep]:
    steps = [s for s in compiled._steps
             if isinstance(s, _TriStep) and s.try_engine]
    assert steps, "no engine-eligible segment"
    return steps


def test_overlays_share_the_template_layout():
    L = random_lower(200, 0.05, seed=6)
    template, binder = _pattern(L)
    f64 = np.dtype(np.float64)
    for step in _engine_steps(template):
        step._seed_engine(f64, True)  # pin the timed keep verdict
    rng = np.random.default_rng(0)
    b = rng.standard_normal(L.n_rows)
    overlays = []
    for _ in range(2):
        data = L.data * rng.uniform(0.5, 1.5, L.nnz)
        plan = binder.bind(data)
        compiled = CompiledPlan(plan, DEVICE, share_from=template)
        x, _ = compiled.solve(b)
        x_ref, _ = plan.solve(b, DEVICE)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12)
        overlays.append(compiled)
    tsteps = _engine_steps(template)
    for compiled in overlays:
        for tstep, step in zip(tsteps, _engine_steps(compiled)):
            assert tstep._layout  # computed once, on the template
            assert step._layout is None
            engine = step._engines[f64]
            assert engine is not None
            assert engine.l_indices is tstep._layout[2]


def test_overlay_failing_accuracy_check_runs_kernel_path():
    """An overlay whose values fail the engine's accuracy probe keeps
    the kernel numerics even though the template kept an engine."""
    L = random_lower(200, 0.05, seed=7)
    template, binder = _pattern(L)
    f64 = np.dtype(np.float64)
    for step in _engine_steps(template):
        step._seed_engine(f64, True)
    bad = _with_entry(L, np.nan)
    plan = binder.bind(bad.data)
    compiled = CompiledPlan(plan, DEVICE, share_from=template)
    b = np.ones(L.n_rows)
    x, _ = compiled.solve(b)
    for step in _engine_steps(compiled):
        assert step._engines[f64] is None
    x_ref, _ = plan.solve(b, DEVICE)
    np.testing.assert_array_equal(x, x_ref)


def test_concurrent_overlays_build_scipy_equal_engines():
    """Overlays building engines on many threads at once, all racing to
    fill the template's lazily cached layout, still get engines equal
    to the SciPy construction."""
    L = random_lower(200, 0.05, seed=8)
    template, binder = _pattern(L)
    f64 = np.dtype(np.float64)
    for step in _engine_steps(template):
        step._seed_engine(f64, True)
    rng = np.random.default_rng(1)
    datas = [L.data * rng.uniform(0.5, 1.5, L.nnz) for _ in range(16)]
    b = np.ones(L.n_rows)

    def build(data):
        compiled = CompiledPlan(binder.bind(data), DEVICE, share_from=template)
        compiled.solve(b)
        return compiled

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            overlays = list(pool.map(build, datas, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for compiled in overlays:
        for step in _engine_steps(compiled):
            engine = step._engines[f64]
            assert engine is not None
            _assert_same_engine(engine, _GstrsEngine(step.prep, engine.dtype))
