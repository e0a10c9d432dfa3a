"""Regression tests for bugs surfaced by the correctness harness:

* ``PlanCache.get_or_build`` leaked a per-key lock when the builder
  raised, and mis-counted the double-check path as a miss;
* ``ExecutionPlan.solve``/``solve_multi`` (and the kernel entry points)
  silently truncated integer right-hand sides;
* ``astype`` on CSR/CSC/DCSR aliased the index arrays of the source
  matrix into the converted copy;
* the queue-path batch (rode along with the async ingress): requests
  whose deadline expired while queued paid cache lookup + solve before
  noticing (now shed at task start, counted as ``shed_expired`` — a
  sub-category of ``timeouts``); admission rejections carried no tenant
  attribution (now per-tenant ``rejected`` counts + a tenant label on
  ``repro_rejected_total``); ``Workload.tenant_of`` raised
  ``IndexError`` when ``tenants`` was shorter than ``stream`` (now
  normalized at construction, cycling lookups, ``ValueError`` out of
  range); and ``_admit`` partial-acquire rollback is pinned under
  threads (no permit leaks);
* malformed requests: a ``solve_batch`` holding one leaked its admission
  permits and raised a bare ``AttributeError`` (now it takes no permit
  and raises a ``ValidationError`` naming the request's position); a
  malformed ``submit``/``solve`` counted as an error in the metrics but
  left no failure record, so ``ServiceStats`` disagreed with them;
* the CSR, CSC and DCSR constructors coerced list ``indptr``/``indices``
  but raised ``AttributeError`` on a list ``data``.
"""

import math
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SolveService, solve_triangular
from repro.errors import ServiceOverloadedError, ValidationError
from repro.gpu.device import TITAN_RTX_SCALED
from repro.obs import Observability
from repro.serve import ServiceConfig, ServiceTimeoutError, SolveRequest
from repro.serve.fingerprint import plan_key
from repro.serve.stats import percentile
from repro.serve.workload import Workload, mixed_workload
from repro.validate import FaultInjector
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.kernels.base import prepare_lower, solve_dtype
from repro.kernels.sptrsv_serial import solve_serial
from repro.kernels.sweep import build_level_schedule, sweep_solve, sweep_solve_multi
from repro.serve.cache import PlanCache

from conftest import random_lower


class TestCacheLockLeak:
    def test_raising_builder_does_not_leak_key_lock(self):
        cache = PlanCache(capacity=4)
        for i in range(25):
            with pytest.raises(RuntimeError):
                cache.get_or_build(f"bad-{i}", self._boom)
        assert len(cache._key_locks) == 0

    @staticmethod
    def _boom():
        raise RuntimeError("planner failure")

    def test_key_usable_after_builder_failure(self):
        cache = PlanCache(capacity=4)
        with pytest.raises(RuntimeError):
            cache.get_or_build("k", self._boom)
        value, hit = cache.get_or_build("k", lambda: "v")
        assert (value, hit) == ("v", False)
        assert cache.get("k") == "v"

    def test_success_path_also_cleans_up(self):
        cache = PlanCache(capacity=4)
        cache.get_or_build("k", lambda: "v")
        assert len(cache._key_locks) == 0


class TestCacheHitAccounting:
    def test_double_check_winner_counts_as_hit(self):
        cache = PlanCache(capacity=4)
        started = threading.Event()
        release = threading.Event()
        results = []

        def slow_builder():
            started.set()
            release.wait(timeout=5)
            return "plan"

        def first():
            results.append(cache.get_or_build("k", slow_builder))

        def second():
            started.wait(timeout=5)
            # Enters while the first build is in flight; waits on the key
            # lock, then finds the value in the double-check.
            results.append(cache.get_or_build("k", lambda: "other"))

        t1 = threading.Thread(target=first)
        t2 = threading.Thread(target=second)
        t1.start()
        t2.start()
        started.wait(timeout=5)
        time.sleep(0.05)  # let t2 reach the key lock
        release.set()
        t1.join()
        t2.join()
        assert ("plan", False) in results and ("plan", True) in results
        st = cache.stats()
        # One true miss (the build), one lookup reclassified as a hit.
        assert st.misses == 1 and st.hits == 1

    def test_concurrent_storm_counters_consistent(self):
        cache = PlanCache(capacity=8)
        built = []

        def builder():
            time.sleep(0.01)
            built.append(1)
            return "v"

        threads = [
            threading.Thread(target=lambda: cache.get_or_build("k", builder))
            for _ in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1  # single-flight
        st = cache.stats()
        assert st.misses == 1
        assert st.hits + st.misses == 12
        assert len(cache._key_locks) == 0


class TestIntegerRhsPromotion:
    def setup_method(self):
        self.L = random_lower(50, 0.15, seed=21)
        self.b_int = np.arange(1, 51, dtype=np.int64)
        self.x_ref = np.linalg.solve(self.L.to_dense(), self.b_int.astype(float))

    @pytest.mark.parametrize(
        "method", ["serial", "levelset", "syncfree", "column-block",
                   "row-block", "recursive-block"]
    )
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_solve_triangular_int_b(self, method, dtype):
        r = solve_triangular(self.L, self.b_int.astype(dtype), method=method)
        assert np.issubdtype(r.x.dtype, np.floating)
        np.testing.assert_allclose(r.x, self.x_ref, rtol=1e-8, atol=1e-8)

    def test_solve_multi_int_B(self):
        B = np.stack([self.b_int, 2 * self.b_int], axis=1)
        from repro.core.solver import SOLVERS
        from repro.gpu.device import TITAN_RTX_SCALED

        prepared = SOLVERS["recursive-block"](device=TITAN_RTX_SCALED).prepare(self.L)
        X, _ = prepared.solve_multi(B)
        assert np.issubdtype(X.dtype, np.floating)
        np.testing.assert_allclose(X[:, 0], self.x_ref, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(X[:, 1], 2 * self.x_ref, rtol=1e-8, atol=1e-8)

    def test_serial_kernel_int_b(self):
        x = solve_serial(self.L, self.b_int)
        assert np.issubdtype(x.dtype, np.floating)
        np.testing.assert_allclose(x, self.x_ref, rtol=1e-8, atol=1e-8)

    def test_sweep_kernels_int_b(self):
        sched = build_level_schedule(prepare_lower(self.L))
        x = sweep_solve(sched, self.b_int)
        assert np.issubdtype(x.dtype, np.floating)
        np.testing.assert_allclose(x, self.x_ref, rtol=1e-8, atol=1e-8)
        X = sweep_solve_multi(sched, np.stack([self.b_int, self.b_int], axis=1))
        assert np.issubdtype(X.dtype, np.floating)
        np.testing.assert_allclose(X[:, 0], self.x_ref, rtol=1e-8, atol=1e-8)

    def test_service_int_b_round_trip(self):
        with SolveService(max_workers=2, check=True) as svc:
            r = svc.solve(self.L, self.b_int)
        assert np.issubdtype(r.x.dtype, np.floating)
        np.testing.assert_allclose(r.x, self.x_ref, rtol=1e-8, atol=1e-8)

    def test_float32_stays_float32(self):
        # The promotion must not widen already-floating inputs: the
        # float32 pipeline is an intentional precision/bandwidth choice.
        L32 = self.L.astype(np.float32)
        b32 = self.b_int.astype(np.float32)
        assert solve_dtype(L32.data, b32) == np.float32
        sched = build_level_schedule(prepare_lower(L32))
        assert sweep_solve(sched, b32).dtype == np.float32


class TestAstypeAliasing:
    def _mutation_isolated(self, A, B):
        """Mutating every array of B must leave A unchanged."""
        before = A.to_dense().copy()
        B.data[:] = -999.0
        for name in ("indptr", "indices", "row_ids"):
            arr = getattr(B, name, None)
            if arr is not None and len(arr):
                arr[0] = arr[0]  # touch
                arr[:] = np.roll(arr, 1)
        assert np.array_equal(A.to_dense(), before)

    def test_csr_astype_same_dtype_is_independent(self):
        A = random_lower(30, 0.2, seed=31)
        self._mutation_isolated(A, A.astype(np.float64))

    def test_csr_astype_new_dtype_is_independent(self):
        A = random_lower(30, 0.2, seed=31)
        self._mutation_isolated(A, A.astype(np.float32))

    def test_csc_astype_is_independent(self):
        A = random_lower(30, 0.2, seed=32).to_csc()
        assert isinstance(A, CSCMatrix)
        self._mutation_isolated(A, A.astype(np.float64))

    def test_dcsr_astype_is_independent(self):
        csr = random_lower(40, 0.08, seed=33)
        A = DCSRMatrix.from_csr(csr)
        B = A.astype(np.float64)
        assert isinstance(B, DCSRMatrix)
        self._mutation_isolated(A, B)

    def test_dcsr_astype_values_cast(self):
        csr = random_lower(20, 0.2, seed=34)
        A = DCSRMatrix.from_csr(csr)
        B = A.astype(np.float32)
        assert B.dtype == np.float32
        np.testing.assert_allclose(B.to_dense(), A.to_dense(), rtol=1e-6)

    def test_dcsr_matvec_out_overwrites(self):
        csr = random_lower(25, 0.1, seed=35)
        A = DCSRMatrix.from_csr(csr)
        x = np.ones(25)
        out = np.full(25, 7.0)
        y = A.matvec(x, out=out)
        assert y is out
        np.testing.assert_allclose(out, A.matvec(x))

    def test_dcsr_matvec_out_shape_checked(self):
        csr = random_lower(25, 0.1, seed=35)
        A = DCSRMatrix.from_csr(csr)
        from repro.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            A.matvec(np.ones(25), out=np.zeros(24))


class TestListDataInConstructors:
    @pytest.mark.parametrize("values", [[1.0, 2.0], [1, 2]],
                             ids=["float", "int"])
    @pytest.mark.parametrize("fmt", ["csr", "csc", "dcsr"])
    def test_list_data_is_coerced(self, fmt, values):
        """Every array given as a Python list is coerced, ``data`` too:
        float lists stay float64 and integer lists become float64, as
        integer arrays do."""
        build = {
            "csr": lambda: CSRMatrix(2, 3, [0, 1, 2], [0, 1], values),
            "csc": lambda: CSCMatrix(3, 2, [0, 1, 2], [0, 1], values),
            "dcsr": lambda: DCSRMatrix(2, 3, [0, 1], [0, 1, 2], [0, 1],
                                       values),
        }[fmt]
        A = build()
        assert isinstance(A.data, np.ndarray)
        assert A.data.dtype == np.float64
        np.testing.assert_array_equal(A.data, [1.0, 2.0])
        assert A.nnz == 2


class TestCacheFalsyValues:
    """``get_or_build`` used ``value is not None`` to detect misses, so a
    legitimately cached falsy value (None/False/0) was rebuilt on every
    lookup — and each rebuild was double-counted as a miss."""

    @pytest.mark.parametrize("falsy", [None, False, 0, "", ()])
    def test_cached_falsy_value_is_a_hit(self, falsy):
        cache = PlanCache(capacity=4)
        cache.put("k", falsy)
        builds = []
        value, hit = cache.get_or_build("k", lambda: builds.append(1) or "X")
        assert value is falsy or value == falsy
        assert hit is True
        assert builds == []

    def test_builder_returning_falsy_runs_once(self):
        cache = PlanCache(capacity=4)
        builds = []
        for _ in range(5):
            value, hit = cache.get_or_build(
                "k", lambda: builds.append(1) or None
            )
            assert value is None
        assert builds == [1]
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 4

    def test_get_still_returns_none_on_miss(self):
        cache = PlanCache(capacity=4)
        assert cache.get("absent") is None
        assert cache.stats().misses == 1

    def test_double_check_race_with_falsy_value(self):
        """The loser of a build race on a falsy value must classify the
        lookup as a hit and never invoke its builder."""
        cache = PlanCache(capacity=4)
        started = threading.Event()
        release = threading.Event()
        results = []

        def slow_builder():
            started.set()
            release.wait(timeout=5.0)
            return None  # the falsy plan-in-progress sentinel

        def winner():
            results.append(cache.get_or_build("k", slow_builder))

        loser_builds = []

        def loser():
            started.wait(timeout=5.0)
            results.append(
                cache.get_or_build("k", lambda: loser_builds.append(1) or "L")
            )

        t1 = threading.Thread(target=winner)
        t2 = threading.Thread(target=loser)
        t1.start()
        started.wait(timeout=5.0)
        t2.start()
        time.sleep(0.05)  # let the loser block on the per-key lock
        release.set()
        t1.join(timeout=5.0)
        t2.join(timeout=5.0)
        assert loser_builds == []
        assert sorted(hit for _, hit in results) == [False, True]
        assert all(value is None for value, _ in results)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1


class TestPlanKeyCanonicalization:
    """``plan_key`` hashed option values through ``repr``: numpy elides
    large arrays (distinct weights collided onto one cached plan) and
    ``repr(np.float64(2.0)) != repr(2.0)`` split equal options."""

    def _key(self, options):
        return plan_key("fp", "recursive-block", TITAN_RTX_SCALED, options)

    def test_large_arrays_with_identical_repr_do_not_collide(self):
        a = np.arange(5000, dtype=np.float64)
        b = a.copy()
        b[2500] += 1e-12  # invisible in the elided repr
        assert repr(a) == repr(b)
        assert self._key({"w": a}) != self._key({"w": b})

    def test_numpy_scalar_matches_python_scalar(self):
        assert self._key({"x": np.float64(2.0)}) == self._key({"x": 2.0})
        assert self._key({"x": np.int64(3)}) == self._key({"x": 3})

    def test_bool_does_not_collide_with_int(self):
        assert self._key({"x": True}) != self._key({"x": 1})
        assert self._key({"x": False}) != self._key({"x": 0})

    def test_dtype_distinguishes_equal_bytes(self):
        a32 = np.zeros(4, dtype=np.float32)
        i32 = np.zeros(4, dtype=np.int32)
        assert a32.tobytes() == i32.tobytes()
        assert self._key({"w": a32}) != self._key({"w": i32})

    def test_shape_distinguishes_equal_bytes(self):
        flat = np.zeros(6)
        grid = np.zeros((2, 3))
        assert self._key({"w": flat}) != self._key({"w": grid})

    def test_negative_zero_float(self):
        assert self._key({"x": 0.0}) != self._key({"x": -0.0})

    def test_nested_options_and_key_order(self):
        k1 = self._key({"a": [1, (2.0, "s")], "b": {"x": np.float32(1)}})
        k2 = self._key({"b": {"x": np.float32(1)}, "a": [1, (2.0, "s")]})
        assert k1 == k2

    def test_keys_are_hashable(self):
        key = self._key({"w": np.arange(10), "tol": 1e-8, "name": "x"})
        assert isinstance(hash(key), int)

    def test_equal_options_same_key(self):
        opts = {"tol": 1e-8, "block": 64, "weights": np.arange(8.0)}
        assert self._key(dict(opts)) == self._key(
            {k: (v.copy() if isinstance(v, np.ndarray) else v)
             for k, v in opts.items()}
        )


class TestWorkloadClamping:
    """``mixed_workload`` built all ``n_matrices`` pools even when the
    stream could not tour them, and let ``hot_matrices > n_matrices``
    silently reshape the traffic."""

    def test_n_requests_smaller_than_pool_clamps(self):
        with pytest.warns(UserWarning, match="n_matrices"):
            wl = mixed_workload(3, n_matrices=6, scale=0.02)
        assert wl.n_requests == 3
        assert len(wl.matrices) == 3
        # Every built matrix is actually requested.
        assert {name for name, _ in wl.stream} == set(wl.matrices)

    def test_hot_matrices_larger_than_pool_clamps(self):
        with pytest.warns(UserWarning, match="hot_matrices"):
            wl = mixed_workload(12, n_matrices=4, hot_matrices=9, scale=0.02)
        assert len(wl.matrices) == 4
        assert wl.n_requests == 12

    def test_pool_larger_than_suite_clamps(self):
        with pytest.warns(UserWarning, match="n_matrices"):
            wl = mixed_workload(500, n_matrices=400, scale=0.02)
        assert wl.n_requests == 500
        assert len(wl.matrices) <= 400

    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError):
            mixed_workload(0)

    def test_clamped_workload_is_deterministic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w1 = mixed_workload(3, n_matrices=6, seed=7, scale=0.02)
            w2 = mixed_workload(3, n_matrices=6, seed=7, scale=0.02)
        assert [n for n, _ in w1.stream] == [n for n, _ in w2.stream]
        for (_, b1), (_, b2) in zip(w1.stream, w2.stream):
            np.testing.assert_array_equal(b1, b2)

    def test_unclamped_workload_unchanged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may fire
            wl = mixed_workload(40, n_matrices=6, hot_matrices=3, scale=0.02)
        assert wl.n_requests == 40
        assert len(wl.matrices) == 6


def _percentile_reference(xs, q):
    """Textbook nearest-rank percentile via exact rational arithmetic:
    rank = ceil(len * q / 100) clamped to [1, len]."""
    assert xs
    ordered = sorted(xs)
    rank = math.ceil(Fraction(len(ordered)) * Fraction(q) / 100)
    return ordered[max(1, min(len(ordered), rank)) - 1]


class TestPercentileBoundaries:
    def test_q0_is_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0

    def test_q100_is_maximum(self):
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0

    def test_single_element_every_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_empty_sample(self):
        assert percentile([], 95) == 0.0

    def test_out_of_range_rejected(self):
        for q in (-1, 100.5, 1e9):
            with pytest.raises(ValueError):
                percentile([1.0], q)

    def test_median_even_sample_is_lower_middle(self):
        # Nearest-rank p50 of an even sample is the len/2-th order
        # statistic, never an interpolated value.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    @given(
        xs=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        q=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_reference(self, xs, q):
        assert percentile(xs, q) == _percentile_reference(xs, q)

    @given(
        xs=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        q=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_is_an_observed_value(self, xs, q):
        assert percentile(xs, q) in xs


@pytest.fixture
def queue_system():
    L = random_lower(40, 0.15, seed=2)
    return L, np.ones(L.n_rows)


class TestExpiredInQueueShed:
    def test_expired_request_skips_solve_and_counts(self, queue_system):
        """Stack a slow request ahead of an already-expired one; the
        expired request must shed before its solve runs."""
        L, b = queue_system
        inj = FaultInjector(solve_delay_s=0.15)
        svc = SolveService(ServiceConfig(max_workers=1))
        svc.solve(L, b)  # plan built, cache warm, no injector yet
        svc.install_fault_injector(inj)
        blocker = svc.submit(L, b)  # holds the only worker ~0.15s
        doomed = svc.submit(L, b, timeout_s=0.01)  # expires in queue
        blocker.result()
        with pytest.raises(ServiceTimeoutError, match="shed before solve"):
            doomed.result()
        stats = svc.stats()
        records = svc.records()
        svc.close()
        # the doomed request never reached the solver hook
        assert inj.solves_seen == 1
        assert stats.shed_expired == 1
        # shed_expired is a sub-category of timeouts, not a new bucket
        assert stats.timeouts == 1
        shed = [r for r in records if r.shed_expired]
        assert len(shed) == 1 and shed[0].timed_out
        assert shed[0].as_dict()["shed_expired"] is True

    def test_mid_solve_timeout_is_not_shed_expired(self, queue_system):
        L, b = queue_system
        svc = SolveService(
            ServiceConfig(max_workers=1),
            fault_injector=FaultInjector(solve_delay_s=0.1),
        )
        with pytest.raises(ServiceTimeoutError):
            svc.solve(L, b, timeout_s=0.05)
        stats = svc.stats()
        svc.close()
        assert stats.timeouts == 1
        assert stats.shed_expired == 0

    def test_shed_expired_in_render_and_dict(self, queue_system):
        L, b = queue_system
        svc = SolveService(ServiceConfig(max_workers=1))
        svc.solve(L, b)
        stats = svc.stats()
        svc.close()
        assert "shed in queue" in stats.render()
        assert stats.as_dict()["shed_expired"] == 0


class TestTenantAttributedRejections:
    def _overloaded(self, obs=None):
        return SolveService(
            ServiceConfig(max_workers=1, queue_limit=1, obs=obs),
            fault_injector=FaultInjector(solve_delay_s=0.3),
        )

    def test_single_submit_rejection_lands_on_tenant(self, queue_system):
        L, b = queue_system
        svc = self._overloaded()
        fut = svc.submit(L, b, tenant="alice")
        with pytest.raises(ServiceOverloadedError):
            svc.submit(L, b, tenant="bob")
        fut.result()
        stats = svc.stats()
        svc.close()
        assert stats.rejected == 1
        assert stats.per_tenant["bob"]["rejected"] == 1
        # bob never completed a request but still gets a tenant block
        assert stats.per_tenant["bob"]["requests"] == 0
        assert stats.per_tenant["alice"]["rejected"] == 0

    def test_batch_rejection_counts_every_request(self, queue_system):
        """A rejected batch must attribute one rejection per request,
        under each request's own tenant."""
        L, b = queue_system
        svc = self._overloaded()
        fut = svc.submit(L, b, tenant="warm")
        reqs = [
            SolveRequest(A=L, b=b, tenant=t)
            for t in ("bob", "bob", "carol")
        ]
        with pytest.raises(ServiceOverloadedError):
            svc.solve_batch(reqs)
        fut.result()
        stats = svc.stats()
        svc.close()
        assert stats.rejected == 3
        assert stats.per_tenant["bob"]["rejected"] == 2
        assert stats.per_tenant["carol"]["rejected"] == 1

    def test_rejection_metric_carries_tenant_label(self, queue_system):
        L, b = queue_system
        obs = Observability()
        svc = self._overloaded(obs=obs)
        fut = svc.submit(L, b, tenant="alice")
        with pytest.raises(ServiceOverloadedError):
            svc.submit(L, b, tenant="bob")
        fut.result()
        svc.close()
        samples = obs.metrics_dict()["repro_rejected_total"]["samples"]
        assert any(
            s["labels"] == {"tenant": "bob"} and s["value"] == 1
            for s in samples
        )

    def test_tenant_render_includes_rejected(self, queue_system):
        L, b = queue_system
        svc = self._overloaded()
        fut = svc.submit(L, b, tenant="alice")
        with pytest.raises(ServiceOverloadedError):
            svc.submit(L, b, tenant="bob")
        fut.result()
        stats = svc.stats()
        svc.close()
        assert "rejected 1" in stats.render()


class TestWorkloadTenantAlignment:
    def test_short_tenant_list_is_cycled_to_stream_length(self):
        """tenants shorter than stream used to IndexError on use."""
        wl = Workload(
            matrices={"m": None},
            stream=[("m", None)] * 5,
            tenants=["a", "b"],
        )
        assert wl.tenants == ["a", "b", "a", "b", "a"]
        assert wl.tenant_of(4) == "a"

    def test_long_tenant_list_is_trimmed(self):
        wl = Workload(
            matrices={"m": None},
            stream=[("m", None)] * 2,
            tenants=["a", "b", "c", "d"],
        )
        assert wl.tenants == ["a", "b"]

    def test_empty_tenants_means_default(self):
        wl = Workload(matrices={"m": None}, stream=[("m", None)] * 3)
        assert wl.tenant_of(2) == "default"

    def test_out_of_range_raises_value_error(self):
        wl = Workload(
            matrices={"m": None}, stream=[("m", None)] * 3,
            tenants=["a"],
        )
        with pytest.raises(ValueError, match="out of range"):
            wl.tenant_of(3)
        with pytest.raises(ValueError, match="out of range"):
            wl.tenant_of(-1)

    def test_post_construction_append_keeps_cycling(self):
        wl = Workload(
            matrices={"m": None}, stream=[("m", None)] * 2,
            tenants=["a", "b"],
        )
        wl.stream.append(("m", None))
        assert wl.tenant_of(2) == "a"

    def test_requests_use_aligned_tenants(self):
        wl = mixed_workload(6, n_matrices=2, hot_matrices=2, seed=1,
                            tenants=("x", "y"))
        reqs = wl.requests()
        assert [r.tenant for r in reqs] == ["x", "y", "x", "y", "x", "y"]


class TestAdmitRollbackUnderThreads:
    def test_failed_batch_admissions_leak_no_permits(self, queue_system):
        """Hammer a tiny admission queue with concurrent batches; every
        failed _admit must roll back its partial acquires, so once all
        work drains the full permit count is available again."""
        L, b = queue_system
        svc = SolveService(
            ServiceConfig(max_workers=2, queue_limit=4),
            fault_injector=FaultInjector(solve_delay_s=0.005),
        )
        svc.solve(L, b)  # build the plan once up front
        barrier = threading.Barrier(8)
        rejected = []
        completed = []
        lock = threading.Lock()

        def worker(i):
            barrier.wait()
            for _ in range(10):
                reqs = [
                    SolveRequest(A=L, b=b, tenant=f"t{i}")
                    for _ in range(3)
                ]
                try:
                    res = svc.solve_batch(reqs)
                    with lock:
                        completed.append(len(list(res)))
                except ServiceOverloadedError:
                    with lock:
                        rejected.append(3)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # drained: every permit must be back
        assert svc.admission_available == svc.config.queue_limit
        stats = svc.stats()
        svc.close()
        # sanity: contention actually happened and work actually ran
        assert rejected, "queue never overflowed"
        assert completed
        assert stats.rejected == sum(rejected)


class TestMalformedBatchRequest:
    def test_malformed_request_takes_no_permit(self, queue_system):
        """One malformed request beside a valid one fails its batch with
        a structured error naming its position, and every permit stays
        free: a later full-size batch must still be admitted."""
        L, b = queue_system
        svc = SolveService(ServiceConfig(max_workers=2, queue_limit=8))
        for bad in (None, np.eye(3), "x"):
            with pytest.raises(ValidationError) as info:
                svc.solve_batch([
                    SolveRequest(A=L, b=b), SolveRequest(A=bad, b=np.ones(3)),
                ])
            assert info.value.kind == "malformed-request"
            assert info.value.detail["position"] == 1
        assert svc.admission_available == svc.config.queue_limit
        res = svc.solve_batch([SolveRequest(A=L, b=b) for _ in range(3)])
        stats = svc.stats()
        svc.close()
        assert len(res) == 3
        assert stats.requests == 3 and stats.rejected == 0

    @pytest.mark.parametrize(
        "field, value",
        [("indices", "truncated"), ("data", None)],
        ids=["scan-fails", "digest-fails"],
    )
    def test_damaged_matrix_releases_permits(self, queue_system, field, value):
        """A CSRMatrix damaged after construction passes the type check
        but fails its structure scan or its digest; the permits the
        batch took are all returned."""
        L, b = queue_system
        bad = L.copy()
        if value == "truncated":
            value = bad.indices[:-1]
        setattr(bad, field, value)
        svc = SolveService(ServiceConfig(max_workers=2, queue_limit=8))
        with pytest.raises(ValidationError) as info:
            svc.solve_batch([
                SolveRequest(A=L, b=b), SolveRequest(A=bad, b=b),
                SolveRequest(A=L, b=b),
            ])
        assert info.value.detail["position"] == 1
        assert svc.admission_available == svc.config.queue_limit
        svc.close()


class TestMalformedSubmitAccounting:
    def test_stats_records_and_metrics_agree(self, queue_system):
        """A malformed ``solve`` is one failed request everywhere:
        ServiceStats, the lifetime counters behind it, the retained
        records, and ``repro_requests_total``."""
        L, b = queue_system
        obs = Observability()
        svc = SolveService(ServiceConfig(max_workers=2, obs=obs))
        svc.solve(L, b)
        with pytest.raises(AttributeError):
            svc.solve(np.eye(3), np.ones(3))
        stats = svc.stats()
        records = svc.records()
        svc.close()
        by_status: dict[str, float] = {}
        for s in obs.metrics_dict()["repro_requests_total"]["samples"]:
            status = s["labels"]["status"]
            by_status[status] = by_status.get(status, 0) + s["value"]
        assert by_status == {"ok": 1, "error": 1}
        assert (stats.requests, stats.completed, stats.failed) == (2, 1, 1)
        failed = [r for r in records if r.error is not None]
        assert len(failed) == 1
        assert failed[0].fingerprint == ""
        assert failed[0].error.startswith("AttributeError")
