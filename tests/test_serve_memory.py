"""Warm hits allocate nothing that outlives them.

Once the request-history ring is full, a warm hit's records, digests,
arena checkouts and telemetry replace what an earlier hit left, so a run
of hits must leave no net ``tracemalloc`` blocks at any allocation site
in ``repro``.  The same holds for overlay churn: values vectors that
evict each other from a pattern's overlay slots free what they bound.
The one exception is SciPy's ``_superlu.gstrs``, which leaks about one
~100-byte block per call with SciPy 1.17.1: its site may grow by at most
one block per call, so the test still passes once SciPy stops leaking.
Over longer runs the site stays bounded, as the engine drops the
registry SciPy lists those blocks in every ``REGISTRY_RELEASE_EVERY``
solves of a thread.

CPython recycles freed floats and tuples through free lists, and a
recycled object keeps the allocation site it was first made at, so a
few blocks can move between sites from one window to the next (up to 3
in the runs that set this bound, at the two float fields of a request
record).  Each site may therefore differ by ``SLACK`` blocks; a leak of
one block per hit leaves 2,000.
"""

from __future__ import annotations

import gc
import inspect
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import executor as executor_module
from repro.formats.csr import CSRMatrix
from repro.serve import ServiceConfig, SolveRequest, SolveService

from conftest import random_lower

HITS = 2000
HISTORY = 64
#: hits before the first snapshot: fill the history ring several times
#: over, with request ids past the interpreter's cached small ints
WARM = 512
#: blocks a site may gain from free-list recycling alone (see above)
SLACK = 8

SRC = str(Path(repro.__file__).parent)


def _gstrs_site() -> tuple[str, int]:
    """File and line of the ``gstrs`` call in ``_GstrsEngine.solve_into``."""
    lines, first = inspect.getsourcelines(
        executor_module._GstrsEngine.solve_into
    )
    for offset, line in enumerate(lines):
        if "_superlu.gstrs(" in line:
            return executor_module.__file__, first + offset
    raise AssertionError("no gstrs call in _GstrsEngine.solve_into")


class _CountingSuperLU:
    """Stands in for SciPy's ``_superlu`` module and counts ``gstrs``."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def gstrs(self, *args):
        self.calls += 1
        return self.real.gstrs(*args)


def _measure(monkeypatch, calls, cold: int):
    """``calls(n)`` makes n requests; after ``cold`` untraced ones, count
    the ``gstrs`` calls of ``HITS`` more, then snapshot around ``HITS``
    traced ones after a ``WARM`` warm-up.  Returns the snapshots and the
    counting stand-in (None without SciPy)."""
    calls(cold)
    # The same calls once more, untraced, to count the gstrs calls the
    # measured window makes (engine choice is fixed per plan).
    counting = None
    if executor_module._HAVE_SUPERLU:
        counting = _CountingSuperLU(executor_module._superlu)
        monkeypatch.setattr(executor_module, "_superlu", counting)
        calls(HITS)
        monkeypatch.undo()
        assert counting.calls >= HITS
    tracemalloc.start(1)
    try:
        # A full collection also empties the interpreter's free lists,
        # whose recycled objects would otherwise show as site noise.
        gc.collect()
        calls(WARM)
        gc.collect()
        before = tracemalloc.take_snapshot()
        calls(HITS)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return before, after, counting


def _assert_no_net_blocks(before, after, counting) -> None:
    ours = [tracemalloc.Filter(True, f"{SRC}/*")]
    grown = {
        (st.traceback[0].filename, st.traceback[0].lineno): st.count_diff
        for st in after.filter_traces(ours).compare_to(
            before.filter_traces(ours), "lineno"
        )
        if st.count_diff > 0
    }
    gstrs = grown.pop(_gstrs_site(), 0)
    assert {site: n for site, n in grown.items() if n > SLACK} == {}
    if counting is not None:
        assert gstrs <= counting.calls + SLACK


@pytest.mark.parametrize("door", ["solve", "submit", "solve_batch"])
def test_warm_hits_leave_no_net_blocks(monkeypatch, door):
    mats = [random_lower(200 + 40 * i, 0.05, seed=70 + i) for i in range(3)]
    bs = [np.ones(A.n_rows) for A in mats]
    svc = SolveService(ServiceConfig(max_workers=1, history_limit=HISTORY))
    call = {
        "solve": svc.solve,
        "submit": lambda A, b: svc.submit(A, b).result()[0],
        "solve_batch": lambda A, b: svc.solve_batch([SolveRequest(A=A, b=b)]),
    }[door]

    def hits(n):
        for i in range(n):
            call(mats[i % 3], bs[i % 3])

    try:
        before, after, counting = _measure(monkeypatch, hits, 3)
        builds = svc.stats().pattern_builds
    finally:
        svc.close()
    assert builds == 3
    _assert_no_net_blocks(before, after, counting)


def test_overlay_churn_leaves_no_net_blocks(monkeypatch):
    """Eight values vectors of one pattern cycling through four overlay
    slots: every solve binds one overlay, builds its engine values and
    evicts another, and the run still leaves no net blocks."""
    L = random_lower(240, 0.05, seed=80)
    rng = np.random.default_rng(81)
    variants = [
        CSRMatrix(L.n_rows, L.n_cols, L.indptr, L.indices,
                  L.data * rng.uniform(0.5, 1.5, L.nnz))
        for _ in range(8)
    ]
    b = np.ones(L.n_rows)
    svc = SolveService(ServiceConfig(max_workers=1, history_limit=HISTORY,
                                     overlay_capacity=4))

    def churn(n):
        for i in range(n):
            svc.solve(variants[i % 8], b)

    try:
        before, after, counting = _measure(monkeypatch, churn, 16)
        stats = svc.stats()
    finally:
        svc.close()
    assert stats.pattern_builds == 1
    assert stats.overlay_evictions >= 2 * HITS + WARM
    _assert_no_net_blocks(before, after, counting)


@pytest.mark.skipif(not executor_module._HAVE_SUPERLU,
                    reason="needs SciPy's SuperLU bindings")
@pytest.mark.parametrize("door", ["solve", "submit"])
def test_engine_solves_keep_the_superlu_registry_bounded(monkeypatch, door):
    """SciPy lists the block each ``gstrs`` call leaks in a registry kept
    per thread, so a thread's net blocks at the ``gstrs`` site would grow
    by one per engine solve.  Every ``REGISTRY_RELEASE_EVERY`` engine
    solves a thread drops that registry: over twenty periods the site
    gains at most one period's blocks, on the caller's thread (``solve``)
    and on a pool thread (``submit``) alike."""
    every = 64
    monkeypatch.setattr(executor_module, "REGISTRY_RELEASE_EVERY", every)
    L = random_lower(240, 0.05, seed=84)
    b = np.ones(L.n_rows)
    svc = SolveService(ServiceConfig(max_workers=1, history_limit=HISTORY))
    call = {
        "solve": lambda: svc.solve(L, b),
        "submit": lambda: svc.submit(L, b).result(),
    }[door]
    try:
        for _ in range(WARM):
            call()
        # the hits solve through the engine: count them untraced
        counting = _CountingSuperLU(executor_module._superlu)
        with monkeypatch.context() as m:
            m.setattr(executor_module, "_superlu", counting)
            for _ in range(every):
                call()
        assert counting.calls == every
        tracemalloc.start(1)
        try:
            gc.collect()
            before = tracemalloc.take_snapshot()
            for _ in range(20 * every):
                call()
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        svc.close()
    grown = sum(
        st.count_diff for st in after.compare_to(before, "lineno")
        if (st.traceback[0].filename, st.traceback[0].lineno) == _gstrs_site()
    )
    assert grown <= every + SLACK


@pytest.mark.parametrize("n_devices", [1, 2])
def test_a_closed_service_is_freed_without_the_cyclic_collector(n_devices):
    """A closed service that its caller drops frees its patterns, plans,
    overlays and request snapshots at once: nothing in it refers back to
    the service or to a plan, and no planner leaves a reference cycle
    holding the matrix it planned, so its memory does not wait for a
    full collection."""
    from repro.serve.service import _Snapshot

    L = random_lower(240, 0.05, seed=82)
    variants = [L] + [
        CSRMatrix(L.n_rows, L.n_cols, L.indptr, L.indices, L.data * f)
        for f in (0.5, 2.0)
    ]
    b = np.ones(L.n_rows)
    gc.collect()
    gc.disable()
    try:
        for method, options in (("column-block", {"nseg": 4}),
                                ("recursive-block", {})):
            before = {id(o) for o in gc.get_objects()
                      if type(o) is _Snapshot}
            svc = SolveService(ServiceConfig(
                method=method, solver_options=options,
                max_workers=1, overlay_capacity=1, n_devices=n_devices,
            ))
            for V in variants:  # binds, evicts, reports the evictions
                svc.solve(V, b)
            svc.close()
            assert svc.stats().overlay_evictions == 2
            (pattern,) = svc.cache._entries.values()
            (entry,) = pattern.overlays.values()
            refs = [weakref.ref(obj) for obj in (
                svc, pattern, pattern.template.compile(),
                pattern.binder.compiled, entry, entry.overlay.data,
            )]
            del entry
            del svc, pattern
            assert [r() for r in refs] == [None] * len(refs), method
            # every request copy and tracer went with the service
            assert not [o for o in gc.get_objects()
                        if type(o) is _Snapshot and id(o) not in before]
    finally:
        gc.enable()
