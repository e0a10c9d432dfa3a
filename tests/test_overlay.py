"""Values overlays: a few arrays on the pattern's one compiled plan.

A rebindable pattern is compiled once, on tracer values; every values
vector then binds onto it as an :class:`~repro.core.executor.Overlay`
holding only what the pattern's position maps gather from the vector —
per engine step its scaled CSC factor and inverse diagonal, per SpMV
step its matrix, per kernel-path step its auxiliary data once that path
runs.  The pattern's compiled plan (and sharded executor) solves any
overlay it is handed, bit for bit like a plan built directly on the
values, and binding constructs no plan, executor or step object.
"""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.executor import (
    CompiledPlan,
    _LiveStep,
    _SpMVStep,
    _TriStep,
)
from repro.core.plan import ExecutionPlan
from repro.core.solver import SOLVERS, PreparedSolve
from repro.dist import DistributedPlan
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import upper_to_lower_mirror
from repro.gpu.device import TITAN_RTX_SCALED
from repro.matrices.suite import scaled_suite
from repro.serve import ServiceConfig, SolveService, fingerprints
from repro.serve import service as service_module

from conftest import random_lower

DEVICE = TITAN_RTX_SCALED
BUILTINS = ["serial", "levelset", "cusparse", "syncfree", "column-block",
            "row-block", "recursive-block"]
F64 = np.dtype(np.float64)


def _scaled(A: CSRMatrix, seed: int) -> CSRMatrix:
    """Same pattern, new values."""
    f = np.random.default_rng(seed).uniform(0.5, 1.5, A.nnz)
    return CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices,
                     (A.data * f).astype(A.data.dtype))


def _with_value(A: CSRMatrix, value: float) -> CSRMatrix:
    """``A`` with a strictly-lower entry in its last tenth set to
    ``value`` (a row the block plans solve through an engine)."""
    rows = np.repeat(np.arange(A.n_rows), A.row_counts())
    tail = (A.indices < rows) & (rows >= A.n_rows - A.n_rows // 10)
    data = A.data.copy()
    data[np.flatnonzero(tail)[0]] = value
    return CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, data)


def _only_pattern(svc: SolveService):
    (pattern,) = svc.cache._entries.values()
    return pattern


def _overlay(svc: SolveService, A: CSRMatrix):
    return _only_pattern(svc).overlays[fingerprints(A)[2]].overlay


def _rhs(n: int, dtype, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n).astype(dtype),
            rng.standard_normal((n, 3)).astype(dtype))


def _service(**kwargs) -> SolveService:
    return SolveService(ServiceConfig(device=DEVICE, max_workers=1, **kwargs))


# --------------------------------------------------------------------- #
# Bit-identity with a direct build
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_devices", [1, 4])
@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("method", BUILTINS)
def test_rebound_overlay_is_bit_identical_to_a_direct_build(
    method, dtype, upper, n_devices
):
    """Every values vector of a pattern, bound and bound again after
    its eviction (deciding its engines anew), answers one and
    three right-hand sides bit for bit like the service's full build on
    those values."""
    L = random_lower(150, 0.06, seed=21).astype(dtype)
    A = L.transpose() if upper else L
    variants = [A, _scaled(A, 1), _scaled(A, 2)]
    b, B = _rhs(A.n_rows, dtype, 22)
    options = {"nseg": 8} if method in ("column-block", "row-block") else {}
    with _service(method=method, solver_options=options,
                  n_devices=n_devices, overlay_capacity=2) as svc, \
            _service(method=method, solver_options=options,
                     structural_batching=False) as direct:
        for V in variants + variants:
            for rhs in (b, B):
                got = svc.solve(V, rhs)
                want = direct.solve(V, rhs)
                assert got.x.dtype == want.x.dtype
                assert got.x.tobytes() == want.x.tobytes()
        stats = svc.stats()
        assert _only_pattern(svc).rebindable
    assert stats.pattern_builds == 1
    assert stats.overlay_evictions > 0


def _rmat_half() -> CSRMatrix:
    (spec,) = [s for s in scaled_suite(0.5) if s.name == "rmat_s14"]
    return spec.build()


@pytest.fixture(scope="module")
def rmat():
    return _rmat_half()


@pytest.mark.parametrize("n_devices", [1, 4])
def test_spmv_and_kernel_path_steps_rebind_bit_identically(rmat, n_devices):
    """A recursive-block pattern with SpMV steps, engine steps and
    kernel-path steps: its overlays bind every SpMV matrix, bind a
    kernel-path step's auxiliary data on first use, and answer like a
    direct build."""
    variants = [rmat, _scaled(rmat, 3)]
    b, B = _rhs(rmat.n_rows, np.float64, 23)
    with _service(n_devices=n_devices) as svc:
        got = [(svc.solve(V, b).x, svc.solve(V, B).x) for V in variants]
        compiled = _only_pattern(svc).binder.compiled
        ov = _overlay(svc, variants[1])
    steps = compiled._steps
    spmv = [i for i, s in enumerate(steps) if isinstance(s, _SpMVStep)]
    kernel = [i for i, s in enumerate(steps)
              if isinstance(s, _TriStep) and not s.try_engine]
    engine = [i for i, s in enumerate(steps)
              if isinstance(s, _TriStep) and s.try_engine]
    assert spmv and kernel and engine
    assert all(ov.bound[i] is not None for i in spmv + kernel)
    assert all(ov.engines[i][F64] is not None for i in engine)
    for V, (x, X) in zip(variants, got):
        prepared = SOLVERS["recursive-block"](device=DEVICE).prepare(V)
        assert x.tobytes() == prepared.solve(b)[0].tobytes()
        assert X.tobytes() == prepared.solve_multi(B)[0].tobytes()


def test_an_exact_zero_product_takes_scipys_construction():
    """SciPy's matmul drops a product that is exactly zero, so those
    engine values come from SciPy's construction: fewer stored entries
    than the step's factor, and the direct build's answer."""
    L = random_lower(400, 0.02, seed=24)
    zero = _with_value(L, 0.0)
    b = np.random.default_rng(25).standard_normal(L.n_rows)
    with _service() as svc:
        svc.solve(L, b)
        x = svc.solve(zero, b).x
        compiled = _only_pattern(svc).binder.compiled
        full, dropped = _overlay(svc, L), _overlay(svc, zero)
    shorter = [
        i for i, s in enumerate(compiled._steps)
        if full.engines[i] and len(dropped.engines[i][F64][0])
        < len(full.engines[i][F64][0])
    ]
    assert shorter, "no engine took SciPy's construction"
    x_ref, _ = SOLVERS["recursive-block"](device=DEVICE).prepare(zero).solve(b)
    assert x.tobytes() == x_ref.tobytes()


def test_a_nan_poisoned_overlay_takes_the_kernel_path():
    """NaN values fail the engine's accuracy probe: the step solves the
    overlay on the kernel path, over auxiliary data bound for it, and
    answers like the direct build."""
    L = random_lower(400, 0.02, seed=26)
    bad = _with_value(L, np.nan)
    b = np.ones(L.n_rows)
    with _service() as svc:
        svc.solve(L, b)
        x = svc.solve(bad, b).x
        compiled = _only_pattern(svc).binder.compiled
        ov = _overlay(svc, bad)
    rejected = [i for i, e in enumerate(ov.engines) if e and e[F64] is None]
    assert rejected
    assert all(ov.bound[i] is not None for i in rejected)
    assert all(isinstance(compiled._steps[i], _TriStep) for i in rejected)
    x_ref, _ = SOLVERS["recursive-block"](device=DEVICE).prepare(bad).solve(b)
    assert np.array_equal(x, x_ref, equal_nan=True)


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_check_runs_check_plan_on_the_rebound_values(monkeypatch, upper):
    L = random_lower(150, 0.06, seed=27)
    A = L.transpose() if upper else L
    V = _scaled(A, 4)
    seen = []
    real = service_module.check_plan

    def spy(plan, M=None, *, context=""):
        seen.append((context, M))
        return real(plan, M, context=context)

    monkeypatch.setattr(service_module, "check_plan", spy)
    b = np.ones(A.n_rows)
    with _service(check=True) as svc, \
            _service(check=True, structural_batching=False) as direct:
        svc.solve(A, b)
        x = svc.solve(V, b).x
        assert x.tobytes() == direct.solve(V, b).x.tobytes()
    rebound = [M for context, M in seen if context.endswith("(rebound)")]
    assert len(rebound) == 2  # the building request's values, then V's
    want = upper_to_lower_mirror(V.sort_indices())[0] if upper else V
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(rebound[1], name), getattr(want, name))


# --------------------------------------------------------------------- #
# What binding builds, and what a template refuses
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_devices", [1, 4])
def test_binding_new_values_constructs_no_plan_or_step(monkeypatch,
                                                       n_devices):
    counts: Counter = Counter()
    for cls in (ExecutionPlan, PreparedSolve, CompiledPlan, DistributedPlan,
                _TriStep, _SpMVStep, _LiveStep):
        def init(self, *args, _real=cls.__init__, _name=cls.__name__,
                 **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    L = random_lower(300, 0.04, seed=28)
    variants = [_scaled(L, s) for s in range(4)]
    b = np.ones(L.n_rows)
    with _service(method="column-block", solver_options={"nseg": 8},
                  n_devices=n_devices, overlay_capacity=2) as svc:
        svc.solve(L, b)
        assert counts["CompiledPlan"] and counts["_SpMVStep"]
        counts.clear()
        for V in variants + variants:
            svc.solve(V, b)
        svc.solve_batch([(V, b) for V in variants])
        stats = svc.stats()
    assert stats.pattern_builds == 1
    assert stats.overlay_evictions > 0
    assert counts == Counter()


@pytest.mark.parametrize("n_devices", [1, 4])
def test_the_tracer_template_solves_only_through_an_overlay(n_devices):
    """The pattern's plans hold tracer positions; solving them without
    an overlay raises instead of answering with positions, and an
    overlay is refused by a plan it was not bound onto."""
    L = random_lower(200, 0.05, seed=29)
    b = np.random.default_rng(30).standard_normal(L.n_rows)
    B = np.ones((L.n_rows, 2))
    with _service(method="column-block", solver_options={"nseg": 8},
                  n_devices=n_devices) as svc:
        x = svc.solve(L, b).x
        pattern = _only_pattern(svc)
        ov = _overlay(svc, L)
    template = pattern.template
    executors = [template, template.compile()]
    if pattern.template_dist is not None:
        executors.append(pattern.template_dist)
    for ex in executors:
        with pytest.raises(ValueError, match="overlay"):
            ex.solve(b)
        with pytest.raises(ValueError, match="overlay"):
            ex.solve_multi(B)
    runs = pattern.template_dist or template
    assert runs.solve(b, ov)[0].tobytes() == x.tobytes()
    direct = SOLVERS["column-block"](device=DEVICE, nseg=8).prepare(L)
    assert direct.solve(b)[0].tobytes() == x.tobytes()
    with pytest.raises(ValueError, match="another plan"):
        direct.solve(b, ov)


# --------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_devices", [1, 4])
def test_two_overlays_solving_at_once_each_answer_their_own(monkeypatch,
                                                            n_devices):
    """Two values vectors of one pattern, submitted together and met
    inside the shared compiled plan's step loop, bind, probe and solve
    side by side; each gets its own direct build's answer."""
    L = random_lower(300, 0.04, seed=31)
    V1, V2 = _scaled(L, 5), _scaled(L, 6)
    b = np.random.default_rng(32).standard_normal(L.n_rows)
    meet = threading.Barrier(2, timeout=30)
    real = CompiledPlan._execute

    def execute(self, *args):
        meet.wait()
        return real(self, *args)

    with SolveService(ServiceConfig(device=DEVICE, max_workers=2,
                                    n_devices=n_devices)) as svc:
        svc.solve(L, b)
        monkeypatch.setattr(CompiledPlan, "_execute", execute)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futs = [svc.submit(V, b) for V in (V1, V2)]
            got = [f.result(timeout=60)[0].x for f in futs]
        finally:
            sys.setswitchinterval(interval)
            monkeypatch.undo()
        assert svc.stats().pattern_builds == 1
    for V, x in zip((V1, V2), got):
        x_ref, _ = SOLVERS["recursive-block"](device=DEVICE).prepare(V).solve(b)
        assert x.tobytes() == x_ref.tobytes()


def _race_for_one_overlay(monkeypatch, svc, V, b, n):
    """``n`` threads solve ``V`` at once on ``svc``'s cached pattern.

    The first bind waits until every thread is inside ``overlay_for``,
    so the others meet its flight.  Returns each thread's result or
    exception and the number of binds."""
    from repro.core.rebind import PlanRebinder

    entered = threading.Semaphore(0)
    overlay_for = service_module._PatternEntry.overlay_for
    bind = PlanRebinder.bind
    binds = []

    def entering(self, *args):
        entered.release()
        return overlay_for(self, *args)

    def binding(self, data):
        binds.append(data)
        if len(binds) == 1:
            for _ in range(n):
                assert entered.acquire(timeout=30)
            time.sleep(0.05)  # let the others reach the flight
        return bind(self, data)

    monkeypatch.setattr(service_module._PatternEntry, "overlay_for",
                        entering)
    monkeypatch.setattr(PlanRebinder, "bind", binding)
    outcomes: list = [None] * n
    start = threading.Barrier(n, timeout=30)

    def caller(i):
        start.wait()
        try:
            outcomes[i] = svc.solve(V, b)
        except Exception as exc:  # noqa: BLE001 - asserted by the caller
            outcomes[i] = exc

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
        monkeypatch.undo()
    assert not any(t.is_alive() for t in threads)
    return outcomes, len(binds)


def test_concurrent_requests_for_new_values_bind_them_once(monkeypatch):
    """Requests for the same new values on a cached pattern, met inside
    ``overlay_for``, bind those values once: one request builds the
    overlay, and the others wait on its flight and count as values
    hits; every answer is the direct build's."""
    L = random_lower(200, 0.04, seed=33)
    V = _scaled(L, 7)
    b = np.random.default_rng(34).standard_normal(L.n_rows)
    n = 4
    with _service() as svc:
        svc.solve(L, b)
        outcomes, binds = _race_for_one_overlay(monkeypatch, svc, V, b, n)
        assert _only_pattern(svc)._flights == {}
        records = svc.records()[1:]
    assert binds == 1
    assert sorted(r.cache_hit for r in outcomes) == [False] + [True] * (n - 1)
    assert len(records) == n and all(r.pattern_hit for r in records)
    x_ref, _ = SOLVERS["recursive-block"](device=DEVICE).prepare(V).solve(b)
    for res in outcomes:
        assert res.x.tobytes() == x_ref.tobytes()


def test_a_failed_bind_hands_its_flight_to_a_waiter(monkeypatch):
    """A bind that fails (a zero on the diagonal) hands its flight on:
    each waiter takes it over in turn and fails the same way, and no
    flight or overlay of those values is left behind."""
    from repro.errors import SingularMatrixError

    L = random_lower(200, 0.04, seed=35)
    rows = np.repeat(np.arange(L.n_rows), L.row_counts())
    data = L.data.copy()
    data[np.flatnonzero(L.indices == rows)[L.n_rows // 2]] = 0.0
    V = CSRMatrix(L.n_rows, L.n_cols, L.indptr, L.indices, data)
    b = np.ones(L.n_rows)
    n = 4
    with _service() as svc:
        svc.solve(L, b)
        outcomes, binds = _race_for_one_overlay(monkeypatch, svc, V, b, n)
        pattern = _only_pattern(svc)
        assert pattern._flights == {}
        assert fingerprints(V)[2] not in pattern.overlays
        records = svc.records()[1:]
    assert binds == n
    assert all(type(o) is SingularMatrixError for o in outcomes), outcomes
    assert len(records) == n
    assert all(r.error and r.error.startswith("SingularMatrixError")
               for r in records)


def test_a_bind_gathers_each_diagonal_once(monkeypatch):
    """A bind gathers and checks each triangular step's diagonal once,
    and the overlay's first solve builds each engine's values from that
    very diagonal; the overlay still solves bit for bit like a plan
    built on its values."""
    from repro.core import executor, rebind

    L = random_lower(300, density=0.03, seed=3)
    V = _scaled(L, 31)
    b = np.random.default_rng(32).standard_normal(L.n_rows)
    with _service(solver_options={"depth": 2}) as svc:
        svc.solve(V, b)
        pattern = _only_pattern(svc)
        binder = pattern.binder
        checked, used = [], []
        check = rebind.check_solvable_diagonal
        values = executor._GstrsEngine.values

        def counted_check(diag):
            checked.append(diag)
            check(diag)

        def counted_values(self, src, gather, diag, dtype, factor):
            used.append(diag)
            return values(self, src, gather, diag, dtype, factor)

        monkeypatch.setattr(rebind, "check_solvable_diagonal", counted_check)
        monkeypatch.setattr(executor._GstrsEngine, "values", counted_values)
        overlay = binder.bind(V.data)
        plan = binder.plan
        engines = sum(bool(e) for e in binder.compiled._engine_steps)
        assert len(checked) == plan.n_tri_segments
        assert used == []  # engine values wait for the first solve
        x, _ = pattern.template.solve(b, overlay)
        assert engines and len(used) == engines
        assert all(any(d is c for c in checked) for d in used)
    direct = SOLVERS["recursive-block"](device=DEVICE, depth=2).prepare(V)
    assert np.array_equal(x, direct.solve(b)[0])
