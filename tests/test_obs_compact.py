"""The compact observed path: leaf blocks and lazy profiles export exactly
what per-span recording exported.

``tests/data/obs_compact_reference.json`` holds the normalized telemetry
of a fixed request sequence — spans with their links and attributes,
profile rows, metric samples and exemplars — as recorded by the
executor that built one ``Span`` and one profile row per segment inside
its step loop.  Regenerate it with ``PYTHONPATH=src python
tests/test_obs_compact.py``; the digest attribute and wall times are
normalized away, so the file only changes when the telemetry does.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.obs import FlightRecorder, Observability, SLOEngine, SLOPolicy
from repro.obs.trace import Tracer
from repro.serve import ServiceConfig, SolveRequest, SolveService

from conftest import random_lower

REFERENCE = Path(__file__).parent / "data" / "obs_compact_reference.json"

#: histogram families timed by the host clock: only their counts are
#: deterministic
WALL_FAMILIES = {"repro_request_latency_seconds", "repro_queue_wait_seconds"}


def _bundle() -> Observability:
    """The full bundle of ``benchmarks/bench_obs_overhead.py``."""
    engine = SLOEngine([
        SLOPolicy("warm-budget", objective_s=5.0, target=0.95,
                  window=64, fast_window=8),
    ])
    return Observability(slo=engine, recorder=FlightRecorder(capacity=256))


def _normal_spans(spans) -> list[dict]:
    position = {s.span_id: i for i, s in enumerate(spans)}
    return [
        {
            "name": s.name,
            "trace": s.trace_id,
            "parent": None if s.parent_id is None else position[s.parent_id],
            "thread": s.thread,
            "error": s.error,
            "attrs": json.loads(json.dumps({
                k: "<digest>" if k == "fingerprint" else v
                for k, v in s.attrs.items()
            })),
        }
        for s in spans
    ]


def _normal_metrics(families: dict) -> dict:
    out = {}
    for name, family in families.items():
        family = dict(family)
        if name in WALL_FAMILIES:
            family["series"] = [
                {"labels": s["labels"], "count": s["count"]}
                for s in family["series"]
            ]
        out[name] = family
    return json.loads(json.dumps(out))


def capture(n_devices: int) -> dict:
    """Telemetry of a fixed request sequence on one warmed service: cold
    and warm solves of a lower and an upper system (15 segments each: 8
    triangular, 7 SpMV), then a fused batch with a values variant, a
    coalesced duplicate and a 2-column RHS."""
    obs = _bundle()
    svc = SolveService(ServiceConfig(
        max_workers=1, n_devices=n_devices, obs=obs,
        solver_options={"depth": 3},
    ))
    mats = [
        random_lower(150, 0.05, seed=1),
        random_lower(120, 0.08, seed=2).transpose(),
    ]
    profiles = []
    for A in mats:
        for _ in range(2):
            res = svc.solve(A, np.ones(A.n_rows))
            profiles.append(res.report.profile)
    A = mats[0]
    n = A.n_rows
    V = replace(A, data=A.data * 1.5, _validated=True)
    batch = svc.solve_batch([
        SolveRequest(A=A, b=np.ones(n)),
        SolveRequest(A=V, b=np.ones(n)),
        SolveRequest(A=V, b=np.arange(n, dtype=float)),
        SolveRequest(A=V, b=np.ones((n, 2))),
    ])
    profiles += [res.report.profile for res in batch]
    svc.close()
    return {
        "spans": _normal_spans(obs.tracer.spans()),
        "dropped": obs.tracer.dropped,
        "profiles": [
            [{k: v for k, v in row.items() if k != "wall_time_s"}
             for row in profile]
            for profile in profiles
        ],
        "metrics": _normal_metrics(obs.metrics_dict()),
    }


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("n_devices", [1, 4])
class TestMatchesPerSpanRecording:
    def test_spans(self, reference, n_devices):
        got = capture(n_devices)
        want = reference[str(n_devices)]
        assert [s["name"] for s in got["spans"]] == [
            s["name"] for s in want["spans"]
        ]
        assert got["spans"] == want["spans"]
        assert got["dropped"] == want["dropped"] == 0

    def test_profile_rows(self, reference, n_devices):
        got = capture(n_devices)["profiles"]
        assert got == reference[str(n_devices)]["profiles"]
        assert all(got)

    def test_metric_samples_and_exemplars(self, reference, n_devices):
        got = capture(n_devices)["metrics"]
        want = reference[str(n_devices)]["metrics"]
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name


def _block(n: int, t0: float = 1.0):
    from repro.obs.trace import LeafBlock

    templates = [(f"segment.{i}", {"index": i}) for i in range(n)]
    ts = [t0 + 0.5 * i for i in range(n + 1)]
    return LeafBlock(templates, list(reversed(range(n))), ts, {1: {"live": 1}})


class TestLeafBlocks:
    def test_block_materializes_like_spans(self):
        tr = Tracer()
        with tr.span("solve") as parent:
            tr.record_block(_block(3))
        leaves = [s for s in tr.spans() if s.name != "solve"]
        assert [s.name for s in leaves] == ["segment.2", "segment.1",
                                           "segment.0"]
        assert [s.attrs for s in leaves] == [{"index": 2}, {"live": 1},
                                            {"index": 0}]
        assert all(s.parent_id == parent.span_id for s in leaves)
        assert all(s.trace_id == parent.trace_id for s in leaves)
        assert [(s.start_s, s.end_s) for s in leaves] == [
            (1.0, 1.5), (1.5, 2.0), (2.0, 2.5)
        ]
        ids = [s.span_id for s in tr.spans()]
        assert len(set(ids)) == len(ids)
        again = [s for s in tr.spans() if s.name != "solve"]
        assert all(a is b for a, b in zip(again, leaves, strict=True))

    def test_blocks_materialize_outside_the_tracer_lock(self, monkeypatch):
        """An export builds leaf spans after releasing the lock, so it
        never stalls the threads that record spans meanwhile."""
        from repro.obs.trace import LeafBlock

        tr = Tracer()
        with tr.span("solve"):
            tr.record_block(_block(3))
        held = []
        build = LeafBlock.spans

        def spy(block):
            free = tr._lock.acquire(blocking=False)
            if free:
                tr._lock.release()
            held.append(not free)
            return build(block)

        monkeypatch.setattr(LeafBlock, "spans", spy)
        assert len(tr.spans()) == 4
        assert held == [False]

    def test_opening_a_span_takes_no_lock(self):
        """Span ids come from a lock-free counter: a span opens while
        another thread holds the tracer lock."""
        tr = Tracer()
        opened = []

        def open_span():
            opened.append(tr.span("request"))

        with tr._lock:
            t = threading.Thread(target=open_span)
            t.start()
            t.join(10)
            assert opened
        t.join(10)
        assert not t.is_alive()
        opened[0].__exit__(None, None, None)
        assert [s.name for s in tr.spans()] == ["request"]

    @pytest.mark.parametrize("room", [0, 1, 4, 5, 7])
    def test_block_straddling_the_cap_keeps_the_room_left(self, room):
        """A block that overflows ``max_spans`` keeps exactly the room
        left, in execution order, and counts the rest as dropped."""
        tr = Tracer(max_spans=room + 2)
        with tr.span("request"):
            tr.record_span("queued", 0.0, 1.0)
        tr.record_block(_block(5))
        with tr.span("after"):
            pass
        names = [s.name for s in tr.spans()]
        kept = min(room, 5)
        assert len(names) == min(room + 2, 2 + 5 + 1)
        assert [n for n in names if n.startswith("segment.")] == [
            f"segment.{i}" for i in reversed(range(5))
        ][:kept]
        assert tr.dropped == (5 - kept) + (1 if room < 6 else 0)

    def test_concurrent_requests_keep_their_own_leaves(self):
        """Eight threads solving through one service: every leaf sits
        under a serve.solve span of its own trace, and every traced solve
        holds exactly one leaf per segment."""
        obs = Observability()
        svc = SolveService(ServiceConfig(
            max_workers=8, obs=obs, solver_options={"depth": 2}
        ))
        mats = [random_lower(90 + 10 * i, 0.08, seed=60 + i)
                for i in range(8)]
        for A in mats:
            svc.solve(A, np.ones(A.n_rows))
        errors = []

        def worker(A):
            try:
                for _ in range(6):
                    svc.solve(A, np.ones(A.n_rows))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(A,)) for A in mats]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        svc.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors
        spans = obs.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)
        leaves: dict[int, list] = {}
        for s in spans:
            if s.name.startswith("segment."):
                parent = by_id[s.parent_id]
                assert parent.name == "serve.solve"
                assert parent.trace_id == s.trace_id
                assert parent.thread == s.thread
                leaves.setdefault(parent.span_id, []).append(s)
        solves = [s for s in spans if s.name == "serve.solve"]
        assert len(solves) == 8 * 7
        for solve in solves:
            assert len(leaves[solve.span_id]) == 7
            # the triangular leaves of a solve tile its own matrix
            edge = 0
            for lo, hi in sorted(
                tuple(map(int, leaf.attrs["rows"].split(":")))
                for leaf in leaves[solve.span_id]
                if leaf.name == "segment.tri"
            ):
                assert lo == edge
                edge = hi
            assert edge == by_id[solve.parent_id].attrs["n"]


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(
        {str(n): capture(n) for n in (1, 4)}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {REFERENCE}")
