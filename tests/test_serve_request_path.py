"""The one request path every front door shares: what a malformed
right-hand side costs at each door (one counted failure, or a refused
batch), how a batch coalesces right-hand sides of different dtypes, and
the work a warm ``solve`` hit does, counted rather than timed."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, ValidationError
from repro.kernels.sptrsv_serial import solve_serial
from repro.obs import FlightRecorder, Observability
from repro.serve import (
    AsyncSolveService,
    BucketInfo,
    PlanCache,
    ServiceConfig,
    SolveRequest,
    SolveService,
    structure_fingerprint,
)
from repro.serve import fingerprint as fingerprint_module
from repro.serve import service as service_module

from conftest import random_lower

#: right-hand sides no front door solves, by how they are malformed
BAD_RHS = {
    "scalar": lambda n: 1.0,
    "no-columns": lambda n: np.ones((n, 0)),
    "short": lambda n: np.ones(n - 1),
    "three-d": lambda n: np.ones((n, 2, 1)),
    "ragged": lambda n: [[1.0, 2.0], [3.0]],
}


def _submit(svc, A, b):
    return svc.submit(A, b).result()[0]


def _solve(svc, A, b):
    return svc.solve(A, b)


def _ingress(svc, A, b):
    async def main():
        async with AsyncSolveService(svc) as ingress:
            return await ingress.submit(A, b)

    return asyncio.run(main())


SINGLE_DOORS = {"submit": _submit, "solve": _solve, "ingress": _ingress}


def _counts(svc, obs) -> tuple[int, int, int]:
    """Requests as ``stats()``, ``repro_requests_total`` and the flight
    recorder count them."""
    family = obs.metrics_dict().get("repro_requests_total", {"samples": []})
    counted = sum(s["value"] for s in family["samples"])
    return svc.stats().requests, counted, obs.recorder.total_recorded


class TestMalformedRightHandSide:
    @pytest.mark.parametrize("bad", sorted(BAD_RHS))
    @pytest.mark.parametrize("door", sorted(SINGLE_DOORS))
    def test_single_request_fails_and_is_counted(self, door, bad):
        """A ``b`` that is neither (n,) nor (n, k) with k >= 1 fails
        with ``ShapeMismatchError`` where the job runs, and is counted as
        one failed request by every sink, every permit back."""
        L = random_lower(40, 0.1, seed=81)
        obs = Observability(recorder=FlightRecorder(capacity=64))
        svc = SolveService(ServiceConfig(max_workers=1, obs=obs))
        with pytest.raises(ShapeMismatchError):
            SINGLE_DOORS[door](svc, L, BAD_RHS[bad](L.n_rows))
        svc.close()
        assert svc.admission_available == svc.config.queue_limit
        assert _counts(svc, obs) == (1, 1, 1)
        stats = svc.stats()
        assert (stats.failed, stats.completed) == (1, 0)
        (record,) = svc.records()
        assert record.error.startswith("ShapeMismatchError: ")
        assert record.n_rhs == (0 if bad == "no-columns" else
                                2 if bad == "three-d" else 1)

    @pytest.mark.parametrize("bad", sorted(BAD_RHS))
    def test_batch_is_refused_naming_the_position(self, bad):
        """A batch holding a malformed ``b`` is refused whole, like one
        holding a damaged ``A``: a ``malformed-request`` error naming its
        position, nothing recorded, every permit free.  The well-formed
        request it would have coalesced with then solves on its own."""
        L = random_lower(40, 0.1, seed=82)
        b = np.ones(L.n_rows)
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            with pytest.raises(ValidationError) as info:
                svc.solve_batch([
                    SolveRequest(A=L, b=b),
                    SolveRequest(A=L, b=BAD_RHS[bad](L.n_rows)),
                ])
            assert info.value.kind == "malformed-request"
            assert info.value.detail["position"] == 1
            assert "ShapeMismatchError" in info.value.detail["reason"]
            assert svc.admission_available == svc.config.queue_limit
            assert svc.stats().requests == 0
            (res,) = svc.solve_batch([(L, b)])
        np.testing.assert_allclose(
            res.x, solve_serial(L, b), rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("door", sorted(SINGLE_DOORS))
    def test_accepted_shapes_solve_in_their_own_shape(self, door):
        """(n,), (n, 1) and (n, 3) right-hand sides solve, each returned
        in its own shape; a single column is the 1-D solve, bit for
        bit."""
        L = random_lower(50, 0.1, seed=83)
        rng = np.random.default_rng(84)
        b = rng.standard_normal(L.n_rows)
        B = rng.standard_normal((L.n_rows, 3))
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            x = SINGLE_DOORS[door](svc, L, b).x
            x1 = SINGLE_DOORS[door](svc, L, b[:, None]).x
            X = SINGLE_DOORS[door](svc, L, B).x
            assert [r.n_rhs for r in svc.records()] == [1, 1, 3]
        assert (x.shape, x1.shape, X.shape) == (
            (L.n_rows,), (L.n_rows, 1), (L.n_rows, 3)
        )
        assert np.array_equal(x1[:, 0], x)
        np.testing.assert_allclose(
            X, solve_serial(L, B), rtol=1e-10, atol=1e-12
        )


class TestCoalescingKeepsEachDtype:
    @pytest.mark.parametrize("order", ["32-first", "64-first"])
    def test_mixed_dtype_batch_matches_each_own_solve(self, order):
        """Same matrix, a float32 and a float64 ``b``: each batch result
        has its own request's dtype and bits, as its own ``solve``."""
        L = random_lower(120, 0.08, seed=85)
        rng = np.random.default_rng(86)
        b64 = rng.standard_normal(L.n_rows)
        b32 = rng.standard_normal(L.n_rows).astype(np.float32)
        bs = [b32, b64] if order == "32-first" else [b64, b32]
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            own = [svc.solve(L, b) for b in bs]
            batch = svc.solve_batch([SolveRequest(A=L, b=b) for b in bs])
        for b, single, fused in zip(bs, own, batch):
            assert single.x.dtype == b.dtype
            assert fused.x.dtype == single.x.dtype
            assert np.array_equal(fused.x, single.x)
        (info,) = batch.buckets
        assert (info.n_requests, info.n_groups) == (2, 2)

    def test_same_dtype_requests_still_fuse(self):
        """Two float64 right-hand sides of one matrix stay one group."""
        L = random_lower(80, 0.1, seed=87)
        rng = np.random.default_rng(88)
        bs = [rng.standard_normal(L.n_rows) for _ in range(2)]
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            batch = svc.solve_batch([(L, b) for b in bs])
            records = svc.records()
        assert batch.buckets[0].n_groups == 1
        assert [r.coalesced for r in records] == [2, 2]


class _Counter:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestWarmHitWork:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counters on the BucketInfo constructor the service calls, the
        solver-option canonicalization, the plan-cache lookup and the
        overlay lookup."""
        counters = {
            "bucket_info": _Counter(BucketInfo),
            "canon_options": _Counter(fingerprint_module._canon_options),
            "cache_lookups": _Counter(PlanCache.get_or_build),
            "overlay_lookups": _Counter(
                service_module._PatternEntry.overlay_for
            ),
        }
        monkeypatch.setattr(service_module, "BucketInfo",
                            counters["bucket_info"])
        monkeypatch.setattr(fingerprint_module, "_canon_options",
                            counters["canon_options"])
        monkeypatch.setattr(PlanCache, "get_or_build",
                            _method(counters["cache_lookups"]))
        monkeypatch.setattr(service_module._PatternEntry, "overlay_for",
                            _method(counters["overlay_lookups"]))
        return counters

    def test_a_warm_solve_does_only_its_own_work(self, counted):
        L = random_lower(90, 0.1, seed=89)
        b = np.ones(L.n_rows)
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            svc.solve(L, b)  # cold: builds and caches the pattern
            for c in counted.values():
                c.calls = 0
            hits = 5
            for _ in range(hits):
                assert svc.solve(L, b).cache_hit
        assert {k: c.calls for k, c in counted.items()} == {
            "bucket_info": 0, "canon_options": 0,
            "cache_lookups": hits, "overlay_lookups": hits,
        }

    def test_submit_and_batch_still_report_their_buckets(self, counted):
        L = random_lower(90, 0.1, seed=90)
        b = np.ones(L.n_rows)
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            svc.solve(L, b)
            submitted = svc.submit(L, b).result()
            batch = svc.solve_batch([(L, b), (L, 2 * b)])
        assert counted["bucket_info"].calls == 2
        for result, n in ((submitted, 1), (batch, 2)):
            (info,) = result.buckets
            assert (info.structure, info.method, info.tenant) == (
                structure_fingerprint(L), svc.config.method, "default"
            )
            assert (info.n_requests, info.n_groups, info.n_rhs) == (n, 1, n)
            assert (info.fused, info.pattern_hit) == (False, True)
            assert 0 < info.wall_time_s <= result.wall_time_s + 1e-9


def _method(counter):
    """``counter`` as a method: called with the instance first."""

    def method(self, *args, **kwargs):
        return counter(self, *args, **kwargs)

    return method
