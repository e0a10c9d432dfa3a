"""The executor's engine rule: SuperLU engine or kernel, from structure.

A compiled triangular step decides at construction whether it solves
through a SuperLU engine, from the segment's kernel, rows, nnz/row and
level count (:func:`repro.core.executor.engine_rule`).  No clock is
read, so every plan over one pattern — a service overlay, a fresh plan,
a store-loaded pattern, a sharded plan — decides alike and answers bit
for bit alike, in any process.  The accuracy probe on each plan's own
values stays.
"""

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.core import executor  # noqa: E402
from repro.core.executor import (  # noqa: E402
    ENGINE_MIN_ROWS,
    KERNEL_MAX_LEVELS,
    KERNEL_MAX_NNZ_PER_ROW,
    KERNEL_MIN_ROWS,
    _TriStep,
    engine_rule,
)
from repro.core.solver import SOLVERS, PreparedSolve  # noqa: E402
from repro.dist import DistributedPlan  # noqa: E402
from repro.gpu.device import TITAN_RTX_SCALED  # noqa: E402
from repro.serve import ServiceConfig, SolveService, fingerprints  # noqa: E402

from conftest import random_lower  # noqa: E402

DEVICE = TITAN_RTX_SCALED
F64 = np.dtype(np.float64)


# --------------------------------------------------------------------- #
# The rule
# --------------------------------------------------------------------- #
def test_small_and_diagonal_segments_never_take_an_engine():
    assert not engine_rule("levelset", ENGINE_MIN_ROWS - 1, 4.0, 20)
    assert not engine_rule("diagonal", 4096, 1.0, 1)
    assert engine_rule("levelset", ENGINE_MIN_ROWS, 4.0, 20)
    assert engine_rule("serial", 4096, 1.0, None)


@pytest.mark.parametrize("kernel", ["levelset", "syncfree", "cusparse"])
def test_tall_thin_shallow_sweeps_keep_the_kernel(kernel):
    rows, nnz_row, levels = KERNEL_MIN_ROWS, KERNEL_MAX_NNZ_PER_ROW, KERNEL_MAX_LEVELS
    assert not engine_rule(kernel, rows, nnz_row, levels)
    # one step past any threshold hands the segment to the engine
    assert engine_rule(kernel, rows - 1, nnz_row, levels)
    assert engine_rule(kernel, rows, nnz_row + 0.01, levels)
    assert engine_rule(kernel, rows, nnz_row, levels + 1)
    # a kernel without a level schedule has no sweep to keep
    assert engine_rule(kernel, rows, nnz_row, None)


def test_step_reads_the_rule_from_its_segment():
    """``_TriStep`` evaluates the rule on the segment's own features:
    its rows, nnz/row and the level count of its schedule."""
    L = random_lower(300, 0.03, seed=12)
    plan = SOLVERS["column-block"](device=DEVICE, nseg=4).prepare(L).plan
    for seg in plan.tri_segments:
        step = _TriStep(seg, DEVICE)
        rows = seg.hi - seg.lo
        sched = getattr(seg.aux, "sched", None)
        want = engine_rule(seg.kernel.name, rows, seg.nnz / rows,
                           None if sched is None else sched.nlevels)
        assert step.try_engine == want


# --------------------------------------------------------------------- #
# No clock decides an engine
# --------------------------------------------------------------------- #
class _FlipClock:
    """``perf_counter`` stub under which the engine wins the first timed
    engine-vs-kernel comparison and loses every later one.

    A comparison is two best-of-2 timings (engine first, then kernel),
    four clock reads each.
    """

    def __init__(self) -> None:
        self.reads = 0
        self.now = 0.0

    def __call__(self) -> float:
        comparison, pos = divmod(self.reads, 8)
        self.reads += 1
        if pos % 2:  # the end of one timed call
            engine = pos < 4
            self.now += (1.0 if comparison == 0 else 3.0) if engine else 2.0
        return self.now


def _served(compiled, overlay=None) -> list:
    """Per step, whether its engine serves a float64 RHS (the rule)."""
    return list(compiled.engines_served(F64, overlay))


def test_engine_choice_does_not_depend_on_the_clock(tmp_path, monkeypatch):
    """A service overlay, a fresh plan prepared the way
    ``solve_triangular`` prepares it, a store-loaded pattern and a
    ``DistributedPlan`` over the same pattern make the same per-segment
    engine decision and answer bit for bit alike, whatever the clock
    reads."""
    clock = _FlipClock()
    monkeypatch.setattr(executor, "time", SimpleNamespace(perf_counter=clock),
                        raising=False)
    L = random_lower(400, 0.02, seed=13)
    b = np.random.default_rng(14).standard_normal(L.n_rows)
    vfp = fingerprints(L)[2]
    config = dict(method="recursive-block", device=DEVICE, max_workers=1,
                  store_path=str(tmp_path))

    def overlay(svc):
        (pattern,) = svc.cache._entries.values()
        return pattern.binder.compiled, pattern.overlays[vfp].overlay

    with SolveService(ServiceConfig(**config)) as svc:
        x_service = svc.solve(L, b).x
        v_service = _served(*overlay(svc))
    assert any(v_service), "no segment chose an engine"

    prepared = SOLVERS["recursive-block"](device=DEVICE).prepare(L)
    x_fresh, _ = prepared.solve(b)
    v_fresh = _served(prepared.compile())

    with SolveService(ServiceConfig(**config)) as svc:
        x_loaded = svc.solve(L, b).x
        assert svc.stats().pattern_builds == 0
        v_loaded = _served(*overlay(svc))

    dp = DistributedPlan.from_prepared(
        PreparedSolve(prepared.method, prepared.plan, DEVICE,
                      prepared.preprocess_report),
        3,
    )
    x_dist, _ = dp.solve(b)
    v_dist = _served(dp.compiled)

    assert v_fresh == v_service
    assert v_loaded == v_service
    assert v_dist == v_service
    for x in (x_fresh, x_loaded, x_dist):
        assert x.tobytes() == x_service.tobytes()


def test_pattern_template_never_builds_an_engine(monkeypatch):
    """The tracer-valued template is never solved, so it never builds
    an engine or decides whether one serves: every engine is built and
    decided on a request's own values, in that request's overlay."""
    built = []
    real_values = executor._GstrsEngine.values
    real_decide = _TriStep._build_engine

    def values(engine, src, *args):
        built.append(src)
        return real_values(engine, src, *args)

    def decide(step, ov, i, work_dtype):
        built.append(ov.data)
        return real_decide(step, ov, i, work_dtype)

    monkeypatch.setattr(executor._GstrsEngine, "values", values)
    monkeypatch.setattr(_TriStep, "_build_engine", decide)
    L = random_lower(300, 0.03, seed=15)
    with SolveService(ServiceConfig(device=DEVICE, max_workers=1)) as svc:
        svc.solve(L, np.ones(L.n_rows))
        (pattern,) = svc.cache._entries.values()
        template = pattern.template.compile()
        first = pattern.overlays[fingerprints(L)[2]].overlay
    tri = [s for s in template._steps if isinstance(s, _TriStep)]
    assert any(s.try_engine for s in tri)
    assert template._own is None  # no overlay of the tracer values
    assert built and all(np.array_equal(src, L.data) for src in built)
    assert any(e and e.get(F64) is not None for e in first.engines)
