"""Warm hits allocate nothing that outlives them.

Once the request-history ring is full, a warm hit's records, digests,
arena checkouts and telemetry replace what an earlier hit left, so a run
of hits must leave no net ``tracemalloc`` blocks at any allocation site
in ``repro``.  The one exception is SciPy's ``_superlu.gstrs``, which
leaks about one ~100-byte block per call with SciPy 1.17.1: its site may
grow by at most one block per call, so the test still passes once SciPy
stops leaking.

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
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import executor as executor_module
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
        hits(3)  # cold builds, untraced
        # The same hits once more, untraced, to count the gstrs calls
        # the measured window makes (engine choice is fixed per plan).
        if executor_module._HAVE_SUPERLU:
            counting = _CountingSuperLU(executor_module._superlu)
            monkeypatch.setattr(executor_module, "_superlu", counting)
            hits(HITS)
            monkeypatch.undo()
            assert counting.calls >= HITS
        tracemalloc.start(1)
        try:
            # A full collection also empties the interpreter's free lists,
            # whose recycled objects would otherwise show as site noise.
            gc.collect()
            hits(WARM)
            gc.collect()
            before = tracemalloc.take_snapshot()
            hits(HITS)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        builds = svc.stats().pattern_builds
    finally:
        svc.close()
    assert builds == 3
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
    if executor_module._HAVE_SUPERLU:
        assert gstrs <= counting.calls + SLACK
