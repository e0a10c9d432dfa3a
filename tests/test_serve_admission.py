"""What a request is solved from: the admission snapshot, one digest pass
per array, and the orientation scan only when a pattern is built; and
where ``solve`` and ``solve_batch`` run: on their caller's thread,
accounted like a pool request and drained by ``close``, a batch's
buckets one after another under one deadline."""

import asyncio
import hashlib
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    NotTriangularError,
    ServiceClosedError,
    ServiceOverloadedError,
    SparseFormatError,
)
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import upper_to_lower_mirror
from repro.kernels.sptrsv_serial import solve_serial
from repro.obs import FlightRecorder, Observability, SLOEngine, SLOPolicy
from repro.serve import (
    AsyncSolveService,
    ServiceConfig,
    ServiceTimeoutError,
    SolveRequest,
    SolveService,
    fingerprints,
    matrix_fingerprint,
    structure_fingerprint,
    values_fingerprint,
)
from repro.serve import fingerprint as fingerprint_module
from repro.serve import service as service_module
from repro.validate import FaultInjector
from repro.validate.fuzz import FuzzCase, mutation_self_test, run_case

from conftest import random_lower, random_square


def copy_of(A):
    """An equal-content copy, built the way a deserializing client would."""
    return CSRMatrix(
        A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(), A.data.copy()
    )


class DoubleCallerValues(FaultInjector):
    """Doubles the caller's values inside the first cold build: after
    the request was admitted and digested, before its values are bound."""

    def __init__(self, A):
        super().__init__()
        self.A = A

    def before_build(self, method):
        super().before_build(method)
        if self.builds_seen == 1:
            self.A.data *= 2


def _submit(svc, A, b):
    return svc.submit(A, b).result()[0]


def _solve(svc, A, b):
    return svc.solve(A, b)


def _batch(svc, A, b):
    return svc.solve_batch([SolveRequest(A=A, b=b)])[0]


def _ingress(svc, A, b):
    async def main():
        async with AsyncSolveService(svc) as ingress:
            return await ingress.submit(A, b)

    return asyncio.run(main())


FRONT_DOORS = {
    "submit": _submit, "solve": _solve, "solve_batch": _batch,
    "ingress": _ingress,
}


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
class TestSolvedFromTheAdmissionSnapshot:
    def test_values_changed_after_admission_do_not_poison_the_cache(
        self, door
    ):
        """The caller's values change between the digest and the bind;
        the request and a later equal-content copy both still get the
        answer for the values that were submitted."""
        L = random_lower(120, 0.08, seed=11)
        clean = copy_of(L)
        b = np.random.default_rng(12).standard_normal(L.n_rows)
        x_ref = solve_serial(clean, b)
        svc = SolveService(
            ServiceConfig(max_workers=2), fault_injector=DoubleCallerValues(L)
        )
        first = FRONT_DOORS[door](svc, L, b)
        assert not np.array_equal(L.data, clean.data)  # the hook fired
        later = svc.solve(clean, b)
        svc.close()
        assert later.cache_hit
        np.testing.assert_allclose(first.x, x_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(later.x, x_ref, rtol=1e-10, atol=1e-12)

    def test_buffers_are_free_once_the_request_is_admitted(self, door):
        """Mutating the matrix and right-hand side as soon as the front
        door returns changes nothing that was already submitted."""
        L = random_lower(90, 0.1, seed=21)
        b = np.random.default_rng(22).standard_normal(L.n_rows)
        x_ref = solve_serial(copy_of(L), b.copy())
        with SolveService(ServiceConfig(max_workers=2)) as svc:
            if door == "submit":
                fut = svc.submit(L, b)
                L.data *= 3
                L.indices[:] = 0
                b[:] = 7.0
                res = fut.result()[0]
            else:
                res = FRONT_DOORS[door](svc, L, b)
        np.testing.assert_allclose(res.x, x_ref, rtol=1e-10, atol=1e-12)


class TestMutationFuzzArm:
    CASES = [
        FuzzCase("layered", 3, 60),
        FuzzCase("chain", 4, 50, upper=True),
        FuzzCase("grid2d", 5, 64, n_rhs=3, b_dtype="int32"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.token())
    def test_service_passes_the_mutation_arm(self, case):
        failures = run_case(
            case, ["recursive-block"], check_compiled=False,
            check_dist=False, check_fused=False,
        )
        assert not failures, [f.describe() for f in failures]

    def test_arm_catches_a_service_that_binds_live_values(self):
        report = mutation_self_test(rounds=3, seed=0)
        assert not report.ok
        assert {f.via for f in report.failures} == {"mutated"}
        for door in ("submit", "solve"):
            assert any(
                f"the mutated {door} request" in f.message
                for f in report.failures
            ), door


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOrientationScan:
    def test_cold_build_scans_once(self, monkeypatch):
        calls = _count_calls(
            monkeypatch, service_module, "triangle_orientation"
        )
        L = random_lower(70, 0.1, seed=31)
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            svc.solve(L, np.ones(L.n_rows))
        assert len(calls) == 1

    @pytest.mark.parametrize("door", sorted(FRONT_DOORS))
    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_warm_hit_does_not_scan(self, monkeypatch, door, upper):
        L = random_lower(70, 0.1, seed=32)
        A = L.transpose() if upper else L
        b = np.random.default_rng(33).standard_normal(A.n_rows)
        svc = SolveService(ServiceConfig(max_workers=1))
        svc.solve(A, b)
        calls = _count_calls(
            monkeypatch, service_module, "triangle_orientation"
        )
        res = FRONT_DOORS[door](svc, copy_of(A), b)
        svc.close()
        assert res.cache_hit
        assert calls == []
        if upper:
            L_m, perm = upper_to_lower_mirror(A.sort_indices())
            y = solve_serial(L_m, b[perm])
            x_ref = np.empty_like(y)
            x_ref[perm] = y
        else:
            x_ref = solve_serial(A, b)
        np.testing.assert_allclose(res.x, x_ref, rtol=1e-10, atol=1e-12)


class _Recorder:
    """A hash object that logs the bytes it is fed."""

    def __init__(self, h, log):
        self._h = h
        self._log = log

    def update(self, data):
        self._log.append(bytes(memoryview(data).cast("B")))
        self._h.update(data)

    def copy(self):
        return _Recorder(self._h.copy(), self._log)

    def digest(self):
        return self._h.digest()

    def hexdigest(self):
        return self._h.hexdigest()


class _RecordingHashlib:
    """Stands in for the ``hashlib`` module seen by the fingerprints."""

    def __init__(self):
        self.log: list[bytes] = []

    def __getattr__(self, name):
        real = getattr(hashlib, name)
        if not callable(real):
            return real
        log = self.log

        def make(*args, **kwargs):
            h = _Recorder(real(**kwargs), log)
            if args:
                h.update(args[0])
            return h

        return make


class TestHashing:
    @pytest.mark.parametrize("door", sorted(FRONT_DOORS))
    def test_each_array_is_hashed_once_per_request(self, monkeypatch, door):
        L = random_lower(80, 0.1, seed=41)
        b = np.ones(L.n_rows)
        svc = SolveService(ServiceConfig(max_workers=1))
        svc.solve(L, b)
        recording = _RecordingHashlib()
        monkeypatch.setattr(fingerprint_module, "hashlib", recording)
        A = copy_of(L)
        res = FRONT_DOORS[door](svc, A, b)
        svc.close()
        assert res.cache_hit
        for name in ("indptr", "indices", "data"):
            raw = getattr(A, name).tobytes()
            assert recording.log.count(raw) == 1, name

    def test_a_batch_copies_and_hashes_a_shared_matrix_once(
        self, monkeypatch
    ):
        """Requests of one batch that pass the same matrix object share
        its admission copy; equal-content copies each get their own."""
        L = random_lower(80, 0.1, seed=43)
        twin = copy_of(L)
        rng = np.random.default_rng(44)
        bs = [rng.standard_normal(L.n_rows) for _ in range(5)]
        recording = _RecordingHashlib()
        monkeypatch.setattr(fingerprint_module, "hashlib", recording)
        snapshots = []
        take = service_module._snapshot

        def counting(A):
            snapshots.append(A)
            return take(A)

        monkeypatch.setattr(service_module, "_snapshot", counting)
        with SolveService(ServiceConfig(max_workers=2)) as svc:
            out = svc.solve_batch(
                [SolveRequest(A=L, b=b) for b in bs[:4]]
                + [SolveRequest(A=twin, b=bs[4])]
            )
        assert [id(A) for A in snapshots] == [id(L), id(twin)]
        for name in ("indptr", "indices", "data"):
            assert recording.log.count(getattr(L, name).tobytes()) == 2, name
        for res, b in zip(out, bs):
            np.testing.assert_allclose(
                res.x, solve_serial(L, b), rtol=1e-10, atol=1e-12
            )

    @staticmethod
    def _keeping_snapshots(monkeypatch) -> list:
        """Every admission snapshot the service takes, in order."""
        snapshots = []
        take = service_module._snapshot

        def keeping(*args):
            snapshots.append(take(*args))
            return snapshots[-1]

        monkeypatch.setattr(service_module, "_snapshot", keeping)
        return snapshots

    def test_values_variants_share_one_structure_copy_and_digest(
        self, monkeypatch
    ):
        """k values variants made with ``dataclasses.replace`` hold the
        very same index arrays: a batch copies and hashes those once,
        into read-only copies every variant's snapshot shares, and each
        variant's data on its own; every digest is the unshared one."""
        L = random_lower(80, 0.1, seed=47)
        variants = [
            replace(L, data=L.data * (1.0 + j), _validated=True)
            for j in range(4)
        ]
        rng = np.random.default_rng(48)
        bs = [rng.standard_normal(L.n_rows) for _ in variants]
        digests = [matrix_fingerprint(V) for V in variants]
        recording = _RecordingHashlib()
        monkeypatch.setattr(fingerprint_module, "hashlib", recording)
        snapshots = self._keeping_snapshots(monkeypatch)
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            out = svc.solve_batch(
                [SolveRequest(A=V, b=b) for V, b in zip(variants, bs)]
            )
            records = svc.records()
        assert len(snapshots) == len(variants)
        for name in ("indptr", "indices"):
            assert recording.log.count(getattr(L, name).tobytes()) == 1, name
            assert len({id(getattr(S, name)) for S in snapshots}) == 1, name
            copy = getattr(snapshots[0], name)
            assert not copy.flags.writeable, name
            assert not np.shares_memory(copy, getattr(L, name)), name
        for V, S in zip(variants, snapshots):
            assert recording.log.count(V.data.tobytes()) == 1
            assert not np.shares_memory(S.data, V.data)
        assert [r.fingerprint for r in records] == digests
        assert len(out.buckets) == 1 and out.buckets[0].n_groups == 4
        for res, V, b in zip(out, variants, bs):
            np.testing.assert_allclose(
                res.x, solve_serial(V, b), rtol=1e-10, atol=1e-12
            )

    def test_an_equal_content_twin_is_copied_and_hashed_on_its_own(
        self, monkeypatch
    ):
        """Sharing goes by identity within one batch: an equal-content
        twin with its own arrays gets its own copy and digest even when
        a values variant shares the original's index arrays."""
        L = random_lower(80, 0.1, seed=49)
        V = replace(L, data=L.data * 2.0, _validated=True)
        twin = copy_of(L)
        b = np.ones(L.n_rows)
        recording = _RecordingHashlib()
        monkeypatch.setattr(fingerprint_module, "hashlib", recording)
        snapshots = self._keeping_snapshots(monkeypatch)
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            out = svc.solve_batch(
                [SolveRequest(A=M, b=b) for M in (L, V, twin)]
            )
        s_L, s_V, s_twin = snapshots
        for name in ("indptr", "indices"):
            assert getattr(s_V, name) is getattr(s_L, name), name
            assert getattr(s_twin, name) is not getattr(s_L, name), name
            assert not getattr(s_twin, name).flags.writeable, name
            assert recording.log.count(getattr(L, name).tobytes()) == 2, name
        assert recording.log.count(L.data.tobytes()) == 2
        assert recording.log.count(V.data.tobytes()) == 1
        assert np.array_equal(out[0].x, out[2].x)

    @staticmethod
    def _flipped(A, name, pos):
        arr = getattr(A, name).copy()
        arr.view(np.uint8)[pos] ^= 0x01
        out = copy_of(A)
        setattr(out, name, arr)
        return out

    def test_any_structure_byte_moves_only_the_structure_digest(self):
        A = random_lower(12, 0.3, seed=42)
        full, sfp, vfp = fingerprints(A)
        for name in ("indptr", "indices"):
            for pos in range(getattr(A, name).nbytes):
                f2, s2, v2 = fingerprints(self._flipped(A, name, pos))
                assert s2 != sfp and v2 == vfp and f2 != full, (name, pos)

    def test_any_value_byte_moves_only_the_values_digest(self):
        A = random_lower(12, 0.3, seed=43)
        full, sfp, vfp = fingerprints(A)
        for pos in range(A.data.nbytes):
            f2, s2, v2 = fingerprints(self._flipped(A, "data", pos))
            assert v2 != vfp and s2 == sfp and f2 != full, pos

    def test_upper_pattern_and_its_lower_mirror_differ(self):
        L = random_lower(50, 0.1, seed=44)
        U = L.transpose()
        mirror, _ = upper_to_lower_mirror(U.sort_indices())
        assert structure_fingerprint(U) != structure_fingerprint(mirror)
        assert structure_fingerprint(U) != structure_fingerprint(L)

    def test_same_bytes_under_another_dtype_differ(self):
        A = random_lower(30, 0.2, seed=45)
        as_unsigned = copy_of(A)
        as_unsigned.indices = A.indices.view(np.uint32)
        assert structure_fingerprint(as_unsigned) != structure_fingerprint(A)
        as_ints = copy_of(A)
        as_ints.data = A.data.view(np.int64)
        assert values_fingerprint(as_ints) != values_fingerprint(A)
        as_f32 = copy_of(A)
        as_f32.data = A.data.view(np.float32)
        assert values_fingerprint(as_f32) != values_fingerprint(A)

    def test_digests_are_full_sha256(self):
        A = random_lower(30, 0.2, seed=46)
        full, sfp, vfp = fingerprints(A)
        assert len(full) == len(sfp) == len(vfp) == 64
        assert full == matrix_fingerprint(A)
        revalued = replace(A, data=A.data * 2, _validated=True)
        assert matrix_fingerprint(revalued) != full


class ParkAt(FaultInjector):
    """Parks every call of one hook until :attr:`go` is set, and signals
    each arrival on :attr:`parked`."""

    def __init__(self, hook):
        super().__init__()
        self.hook = hook
        self.parked = threading.Semaphore(0)
        self.go = threading.Event()

    def _park(self):
        self.parked.release()
        assert self.go.wait(10)

    def before_build(self, method):
        super().before_build(method)
        if self.hook == "build":
            self._park()

    def before_solve(self, method):
        super().before_solve(method)
        if self.hook == "solve":
            self._park()


def _outcomes(door):
    """An ok solve, a malformed matrix, a fault-injected timeout and a
    shed-before-solve through ``door``, on a fully observed service;
    returns what every sink recorded, minus wall-clock values."""
    obs = Observability(
        slo=SLOEngine([SLOPolicy("budget", objective_s=5.0, target=0.9,
                                 window=16, fast_window=4)]),
        recorder=FlightRecorder(capacity=16),
    )
    svc = SolveService(ServiceConfig(max_workers=1, queue_limit=3, obs=obs))

    def call(A, b, **kwargs):
        if door == "solve":
            return svc.solve(A, b, **kwargs)
        return svc.submit(A, b, **kwargs).result()[0]

    L = random_lower(60, 0.1, seed=51)
    b = np.ones(L.n_rows)
    bad = copy_of(L)
    bad.indices = bad.indices[:-1]
    assert call(L, b, tenant="ok").cache_hit is False
    assert svc.admission_available == 3
    with pytest.raises(SparseFormatError):
        call(bad, b, tenant="malformed")
    assert svc.admission_available == 3
    svc.install_fault_injector(FaultInjector(solve_delay_s=0.15))
    with pytest.raises(ServiceTimeoutError) as info:
        call(L, b, timeout_s=0.1, tenant="timeout")
    assert "shed" not in str(info.value)
    assert svc.admission_available == 3
    svc.install_fault_injector(None)
    with pytest.raises(ServiceTimeoutError, match="shed before solve"):
        call(L, b, timeout_s=0.0, tenant="shed")
    assert svc.admission_available == 3
    stats = svc.stats()
    svc.close()
    metrics = {}
    for name, family in obs.metrics_dict().items():
        if family["kind"] == "histogram":
            metrics[name] = [(s["labels"], s["count"])
                             for s in family["series"]]
        else:
            metrics[name] = family["samples"]
    return {
        "stats": (stats.requests, stats.completed, stats.failed,
                  stats.timeouts, stats.shed_expired, stats.rejected),
        "records": [
            (r.tenant, r.cache_hit, r.timed_out, r.shed_expired,
             r.error is not None, r.trace_id)
            for r in svc.records()
        ],
        "frames": [
            (f["tenant"], f["outcome"], f["trace_id"])
            for f in obs.recorder.frames()
        ],
        "incidents": [i.reason for i in obs.recorder.incidents],
        "metrics": metrics,
    }


def _two_patterns(seed):
    """Two lower matrices of different patterns and their right-hand
    sides: a batch of both runs as two buckets."""
    mats = [random_lower(90, 0.1, seed=seed), random_lower(70, 0.1, seed=seed + 1)]
    return mats, [np.ones(A.n_rows) for A in mats]


def _close_waits_for_a_call_parked_in_its_build(tmp_path, call, n_plans):
    """``close`` returns only after ``call`` (parked in its first cold
    build on another thread) finishes, so every plan it builds still
    reaches the store; a call that starts after ``close`` is refused
    without taking a permit."""
    park = ParkAt("build")
    svc = SolveService(
        ServiceConfig(max_workers=1, store_path=str(tmp_path)),
        fault_injector=park,
    )
    out = []
    caller = threading.Thread(target=lambda: out.append(call(svc)))
    closer = threading.Thread(target=svc.close)
    caller.start()
    try:
        assert park.parked.acquire(timeout=10)
        closer.start()
        closer.join(0.3)
        assert closer.is_alive()
        held = svc.admission_available
        with pytest.raises(ServiceClosedError):
            call(svc)
        assert svc.admission_available == held
    finally:
        park.go.set()
        caller.join(10)
        closer.join(10)
    assert not caller.is_alive() and not closer.is_alive()
    assert svc.admission_available == svc.config.queue_limit
    store = svc.store.stats()
    assert (store.writes, store.write_errors) == (n_plans, 0)
    return out[0]


def _close_racing_caller_threads(call, per_call):
    """Eight caller threads call while ``close`` runs, with a short
    switch interval: each call either completes before ``close`` returns
    or raises ServiceClosedError, and every permit is back."""
    svc = SolveService(ServiceConfig(max_workers=1))
    call(svc)
    done, refused = [], []
    start = threading.Barrier(9)

    def caller():
        start.wait(10)
        for _ in range(200):
            try:
                call(svc)
            except ServiceClosedError:
                refused.append(1)
                return
            done.append(1)

    threads = [threading.Thread(target=caller) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        start.wait(10)
        time.sleep(0.02)
        svc.close()
        at_close = svc.stats().requests
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert svc.stats().requests == at_close == per_call * (1 + len(done))
    assert done and refused
    assert svc.admission_available == svc.config.queue_limit


class TestSolveOnTheCallersThread:
    def test_solve_runs_on_the_calling_thread(self):
        """Cold and warm: every hook of a synchronous solve runs on the
        caller's thread, while ``submit`` still runs on the pool."""
        seen = []

        class WhereAmI(FaultInjector):
            def before_build(self, method):
                seen.append(("build", threading.current_thread()))

            def before_solve(self, method):
                seen.append(("solve", threading.current_thread()))

        L = random_lower(80, 0.1, seed=52)
        b = np.ones(L.n_rows)
        with SolveService(ServiceConfig(max_workers=1),
                          fault_injector=WhereAmI()) as svc:
            cold = svc.solve(L, b)
            warm = svc.solve(L, b)
            assert [hook for hook, _ in seen] == ["build", "solve", "solve"]
            assert all(t is threading.current_thread() for _, t in seen)
            svc.submit(L, b).result()
        assert not cold.cache_hit and warm.cache_hit
        assert seen[-1][1] is not threading.current_thread()
        assert seen[-1][1].name.startswith("repro-serve")

    def test_a_multi_bucket_batch_runs_on_the_calling_thread(self):
        """Cold and warm: every hook of every bucket of a batch runs on
        the caller's thread, one bucket after another."""
        seen = []

        class WhereAmI(FaultInjector):
            def before_build(self, method):
                seen.append(("build", threading.current_thread()))

            def before_solve(self, method):
                seen.append(("solve", threading.current_thread()))

        mats, bs = _two_patterns(62)
        with SolveService(ServiceConfig(max_workers=2),
                          fault_injector=WhereAmI()) as svc:
            cold = svc.solve_batch(list(zip(mats, bs)))
            warm = svc.solve_batch(list(zip(mats, bs)))
        assert [hook for hook, _ in seen] == [
            "build", "solve", "build", "solve", "solve", "solve",
        ]
        assert all(t is threading.current_thread() for _, t in seen)
        assert len(cold.buckets) == len(warm.buckets) == 2
        assert not any(r.cache_hit for r in cold)
        assert all(r.cache_hit for r in warm)

    def test_every_outcome_is_accounted_as_on_the_pool(self):
        """Records, permits, metrics, recorder frames and SLO evaluations
        agree outcome for outcome between ``solve`` and ``submit``."""
        on_caller = _outcomes("solve")
        on_pool = _outcomes("submit")
        assert on_caller == on_pool
        assert on_caller["stats"] == (4, 1, 1, 2, 1, 0)
        assert [f[1] for f in on_caller["frames"]] == [
            "ok", "error", "timeout", "timeout",
        ]
        slo = dict(
            (s["labels"]["verdict"], s["value"])
            for s in on_caller["metrics"]["repro_slo_requests_total"]
        )
        assert slo == {"good": 1, "breach": 3}

    def test_callers_beyond_the_queue_limit_are_rejected_per_tenant(self):
        L = random_lower(70, 0.1, seed=53)
        b = np.ones(L.n_rows)
        obs = Observability()
        svc = SolveService(ServiceConfig(max_workers=1, queue_limit=2,
                                         obs=obs))
        svc.solve(L, b)
        park = ParkAt("solve")
        svc.install_fault_injector(park)
        results, errors = [], []

        def caller(tenant):
            try:
                results.append(svc.solve(L, b, tenant=tenant))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,))
                   for t in ("a", "b")]
        for t in threads:
            t.start()
        try:
            for _ in threads:
                assert park.parked.acquire(timeout=10)
            assert svc.admission_available == 0
            for tenant in ("c", "c", "a"):
                with pytest.raises(ServiceOverloadedError):
                    svc.solve(L, b, tenant=tenant)
        finally:
            park.go.set()
            for t in threads:
                t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == 2
        assert svc.admission_available == 2
        stats = svc.stats()
        svc.close()
        assert stats.rejected == 3
        assert stats.per_tenant["c"]["rejected"] == 2
        assert stats.per_tenant["a"]["rejected"] == 1
        assert stats.per_tenant["b"]["rejected"] == 0
        rejected = {
            s["labels"]["tenant"]: s["value"]
            for s in obs.metrics_dict()["repro_rejected_total"]["samples"]
        }
        assert rejected == {"c": 2, "a": 1}

    def test_close_waits_for_a_solve_parked_in_its_build(self, tmp_path):
        """``close`` returns only after a caller-thread solve finishes,
        so the plan it builds still reaches the store."""
        L = random_lower(90, 0.1, seed=54)
        b = np.ones(L.n_rows)
        res = _close_waits_for_a_call_parked_in_its_build(
            tmp_path, lambda svc: svc.solve(L, b), 1
        )
        np.testing.assert_allclose(
            res.x, solve_serial(L, b), rtol=1e-10, atol=1e-12
        )

    def test_close_waits_for_a_batch_parked_in_its_build(self, tmp_path):
        """Likewise for a two-bucket batch parked in its first bucket's
        build: its second bucket still runs, and both plans reach the
        store."""
        mats, bs = _two_patterns(57)
        batch = _close_waits_for_a_call_parked_in_its_build(
            tmp_path, lambda svc: svc.solve_batch(list(zip(mats, bs))), 2
        )
        assert len(batch.buckets) == 2
        for A, b, res in zip(mats, bs, batch):
            np.testing.assert_allclose(
                res.x, solve_serial(A, b), rtol=1e-10, atol=1e-12
            )

    def test_close_racing_caller_threads_leaves_nothing_in_flight(self):
        L = random_lower(60, 0.1, seed=56)
        b = np.ones(L.n_rows)
        _close_racing_caller_threads(lambda svc: svc.solve(L, b), 1)

    def test_close_racing_batches_leaves_nothing_in_flight(self):
        mats, bs = _two_patterns(61)
        _close_racing_caller_threads(
            lambda svc: svc.solve_batch(list(zip(mats, bs))), 2
        )

    def test_an_open_service_never_notifies_its_callers(self):
        """Only ``close`` waits on the caller count, so a solve or batch
        that brings it to zero on an open service wakes nobody."""
        L = random_lower(60, 0.1, seed=64)
        b = np.ones(L.n_rows)
        svc = SolveService(ServiceConfig(max_workers=1))
        cv = svc._callers_cv
        notified = []
        real = cv.notify_all

        def counted():
            notified.append(threading.current_thread())
            real()

        cv.notify_all = counted
        try:
            for _ in range(100):
                svc.solve(L, b)
            for _ in range(10):
                svc.solve_batch([(L, b)])
            assert notified == []
        finally:
            svc.close()
        assert svc.stats().completed == 110

    def test_a_solve_inside_an_open_span_nests_under_it(self):
        """A synchronous solve made inside an open span of the service's
        own tracer is a child of that span and shares its trace id
        (records and recorder frames carry it too); with no span open,
        a solve starts its own trace, as a pool request does."""
        L = random_lower(70, 0.1, seed=55)
        b = np.ones(L.n_rows)
        obs = Observability()
        svc = SolveService(ServiceConfig(max_workers=1, obs=obs))
        svc.solve(L, b)
        with obs.tracer.span("caller.step") as outer:
            svc.solve(L, b)
            svc.submit(L, b).result()
        svc.close()
        requests = [s for s in obs.tracer.spans()
                    if s.name == "serve.request"]
        alone, nested, pooled = requests
        assert alone.parent_id is None
        assert (nested.parent_id, nested.trace_id) == (
            outer.span_id, outer.trace_id
        )
        assert nested.thread == outer.thread
        assert pooled.parent_id is None
        assert len({alone.trace_id, outer.trace_id, pooled.trace_id}) == 3
        traces = [r.trace_id for r in svc.records()]
        assert traces == [alone.trace_id, outer.trace_id, pooled.trace_id]
        frames = [f["trace_id"] for f in obs.recorder.frames()]
        assert frames == traces

    def test_a_batch_inside_an_open_span_nests_under_it(self):
        """A batch made inside an open span of the service's own tracer
        nests every bucket under that span: a fused bucket's
        ``serve.bucket`` span and a lone request's ``serve.request`` span
        are its children and share its trace id (records and recorder
        frames too).  With no span open, each bucket is its own trace."""
        mats, bs = _two_patterns(63)
        L = mats[0]
        V = replace(L, data=L.data * 2, _validated=True)
        batch = list(zip(mats + [V], bs + [bs[0]]))
        obs = Observability()
        svc = SolveService(ServiceConfig(max_workers=1, obs=obs))
        svc.solve_batch(batch)
        with obs.tracer.span("caller.step") as outer:
            svc.solve_batch(batch)
        svc.close()
        spans = [s for s in obs.tracer.spans() if s.span_id != outer.span_id]
        fused_alone, lone_alone = sorted(
            (s for s in spans if s.parent_id is None), key=lambda s: s.name
        )
        assert (fused_alone.name, lone_alone.name) == (
            "serve.bucket", "serve.request"
        )
        assert fused_alone.trace_id != lone_alone.trace_id
        nested = [s for s in spans if s.trace_id == outer.trace_id]
        bucket, lone = sorted(
            (s for s in nested if s.parent_id == outer.span_id),
            key=lambda s: s.name,
        )
        assert (bucket.name, lone.name) == ("serve.bucket", "serve.request")
        assert [s.name for s in nested if s.parent_id == bucket.span_id
                and s.name != "serve.queue_wait"] == ["serve.request"] * 2
        assert {s.thread for s in nested} == {outer.thread}
        traces = [r.trace_id for r in svc.records()]
        assert traces == [fused_alone.trace_id] * 2 + [lone_alone.trace_id] \
            + [outer.trace_id] * 3
        assert [f["trace_id"] for f in obs.recorder.frames()] == traces


def _lookups(svc) -> int:
    stats = svc.cache.stats()
    return stats.hits + stats.misses


class TestOnePatternLookupPerBucket:
    @pytest.mark.parametrize("store", [False, True], ids=["cold", "store"])
    def test_a_bucket_of_g_groups_makes_one_cache_lookup(self, tmp_path,
                                                         store):
        """The first group of a bucket resolves its pattern and the later
        ones reuse it: one ``PlanCache`` lookup per bucket, while every
        group still records its own flags, ``serve.cache_lookup`` span
        and ``repro_cache_lookups_total`` sample as before."""
        L = random_lower(90, 0.1, seed=55)
        b = np.ones(L.n_rows)
        variants = [
            replace(L, data=L.data * (1.0 + j), _validated=True)
            for j in range(4)
        ]
        path = str(tmp_path) if store else None
        if store:
            with SolveService(ServiceConfig(max_workers=1,
                                            store_path=path)) as warm:
                warm.solve(L, b)
        obs = Observability()
        with SolveService(ServiceConfig(max_workers=1, overlay_capacity=8,
                                        store_path=path, obs=obs)) as svc:
            for _ in range(2):
                before = _lookups(svc)
                out = svc.solve_batch([SolveRequest(A=V, b=b)
                                       for V in variants])
                assert len(out.buckets) == 1
                assert out.buckets[0].n_groups == len(variants)
                assert _lookups(svc) - before == len(out.buckets)
            records = svc.records()
        assert [(r.cache_hit, r.pattern_hit, r.store_hit)
                for r in records] == (
            [(False, False, store)] + [(False, True, False)] * 3
            + [(True, True, False)] * 4
        )
        spans = [s for s in obs.tracer.spans()
                 if s.name == "serve.cache_lookup"]
        assert [s.attrs["pattern"] for s in spans] == (
            ["miss"] + ["hit"] * 7
        )
        assert [s.attrs["result"] for s in spans] == (
            ["miss"] * 4 + ["hit"] * 4
        )
        lookups = obs.serve_metrics.cache_lookups
        assert lookups.value(result="miss") == 4
        assert lookups.value(result="hit") == 4

    @pytest.mark.parametrize("faults", [None, 1], ids=["every", "first"])
    def test_a_failed_pattern_build_fails_only_its_group(self, faults):
        """A group whose pattern build raises fails as it would alone,
        and the next group tries the lookup again: with every build
        failing, every group is recorded as failed; with only the first
        failing, the second builds and the third reuses its pattern."""
        L = random_lower(70, 0.1, seed=57)
        b = np.ones(L.n_rows)
        variants = [
            replace(L, data=L.data * (1.0 + j), _validated=True)
            for j in range(3)
        ]
        injector = FaultInjector(build_error=True, max_faults=faults)
        svc = SolveService(ServiceConfig(max_workers=1, fallback=False),
                           fault_injector=injector)
        with pytest.raises(Exception) as info:
            svc.solve_batch([SolveRequest(A=V, b=b) for V in variants])
        assert type(info.value).__name__ == "InjectedFaultError"
        records = svc.records()
        stats = svc.cache.stats()
        assert svc.admission_available == svc.config.queue_limit
        svc.close()
        failed = [r.error is not None for r in records]
        if faults is None:
            assert failed == [True, True, True]
            assert (stats.misses, stats.hits) == (3, 0)
        else:
            assert failed == [True, False, False]
            assert [r.pattern_hit for r in records[1:]] == [False, True]
            assert (stats.misses, stats.hits) == (2, 0)
            for res_rec, V in zip(records[1:], variants[1:]):
                assert res_rec.fingerprint == matrix_fingerprint(V)


class TestAdmissionPermits:
    def test_a_batch_larger_than_the_free_permits_is_refused_whole(self):
        """A 12-request batch with 11 permits free takes none of them:
        all 12 are counted rejected under their tenants, and once the
        request holding the 12th permit finishes every permit is back."""
        L = random_lower(70, 0.1, seed=59)
        b = np.ones(L.n_rows)
        obs = Observability()
        svc = SolveService(ServiceConfig(max_workers=1, queue_limit=12,
                                         obs=obs))
        svc.solve(L, b)
        park = ParkAt("solve")
        svc.install_fault_injector(park)
        held = svc.submit(L, b)
        try:
            assert park.parked.acquire(timeout=10)
            assert svc.admission_available == 11
            with pytest.raises(ServiceOverloadedError):
                svc.solve_batch([
                    SolveRequest(A=L, b=b, tenant="ab"[i % 2])
                    for i in range(12)
                ])
            assert svc.admission_available == 11
            svc.install_fault_injector(None)
            assert len(svc.solve_batch(
                [SolveRequest(A=L, b=b) for _ in range(11)]
            )) == 11
        finally:
            park.go.set()
        held.result(timeout=10)
        assert svc.admission_available == 12
        stats = svc.stats()
        svc.close()
        assert stats.rejected == 12
        assert stats.per_tenant["a"]["rejected"] == 6
        assert stats.per_tenant["b"]["rejected"] == 6
        rejected = obs.metrics_dict()["repro_rejected_total"]["samples"]
        assert {s["labels"]["tenant"]: s["value"] for s in rejected} == {
            "a": 6, "b": 6,
        }

    def test_a_release_past_the_queue_limit_raises(self):
        svc = SolveService(ServiceConfig(max_workers=1, queue_limit=3))
        svc._admit(["x", "y"])
        svc._release(2)
        with pytest.raises(ValueError):
            svc._release(1)
        assert svc.admission_available == 3
        svc.close()


class TestBucketsRunInOrder:
    @pytest.mark.parametrize("first", ["not-triangular", "unknown-method"])
    def test_the_first_failing_bucket_is_raised(self, first):
        """Every bucket runs even after one fails; of two failing buckets
        the first in bucket order is raised, both failures are recorded,
        the bucket between them completes, and every permit is back."""
        L = random_lower(60, 0.1, seed=64)
        square = random_square(60, 0.1, seed=65)
        ok = random_lower(50, 0.1, seed=66)
        failing = {
            "not-triangular": (
                SolveRequest(A=square, b=np.ones(60)), NotTriangularError
            ),
            "unknown-method": (
                SolveRequest(A=L, b=np.ones(60), method="no-such-method"),
                ValueError,
            ),
        }
        second = next(k for k in failing if k != first)
        (req_a, err_a), (req_b, err_b) = failing[first], failing[second]
        svc = SolveService(ServiceConfig(max_workers=1, queue_limit=3))
        with pytest.raises(Exception) as info:
            svc.solve_batch([req_a, SolveRequest(A=ok, b=np.ones(50)), req_b])
        assert type(info.value) is err_a
        assert svc.admission_available == 3
        stats = svc.stats()
        svc.close()
        assert (stats.requests, stats.completed, stats.failed) == (3, 1, 2)
        assert [
            None if r.error is None else r.error.split(":")[0]
            for r in svc.records()
        ] == [err_a.__name__, None, err_b.__name__]

    def test_an_interrupt_in_a_bucket_frees_every_permit(self):
        """An interrupt (a BaseException) in the first bucket ends the
        batch on the caller's thread: the second bucket never runs, and
        its permit is freed with the first's."""

        class Interrupt(BaseException):
            pass

        class InterruptEverySolve(FaultInjector):
            def before_solve(self, method):
                super().before_solve(method)
                raise Interrupt

        mats, bs = _two_patterns(68)
        injector = InterruptEverySolve()
        svc = SolveService(ServiceConfig(max_workers=1, queue_limit=2),
                           fault_injector=injector)
        with pytest.raises(Interrupt):
            svc.solve_batch(list(zip(mats, bs)))
        assert injector.solves_seen == 1
        assert svc.admission_available == 2
        svc.close()

    def test_a_bucket_that_starts_past_the_deadline_is_shed(self):
        """One deadline per batch: the first bucket times out mid-solve,
        and the second, starting past the deadline, is shed as expired;
        its queue wait covers its wait behind the first.  Stats, records,
        metrics and recorder frames agree, and every permit is back."""
        obs = Observability(
            slo=SLOEngine([SLOPolicy("budget", objective_s=5.0, target=0.9,
                                     window=16, fast_window=4)]),
            recorder=FlightRecorder(capacity=16),
        )
        svc = SolveService(ServiceConfig(max_workers=1, queue_limit=2,
                                         obs=obs))
        mats, bs = _two_patterns(67)
        batch = list(zip(mats, bs))
        svc.solve_batch(batch)  # both patterns warm
        svc.install_fault_injector(FaultInjector(solve_delay_s=0.15))
        with pytest.raises(ServiceTimeoutError) as info:
            svc.solve_batch(batch, timeout_s=0.1)
        assert "shed" not in str(info.value)
        assert svc.admission_available == 2
        stats = svc.stats()
        svc.close()
        assert (stats.requests, stats.completed, stats.timeouts,
                stats.shed_expired) == (4, 2, 2, 1)
        assert [(r.timed_out, r.shed_expired, r.error)
                for r in svc.records()[2:]] == [
            (True, False, None), (True, True, None),
        ]
        frames = obs.recorder.frames()
        assert [f["outcome"] for f in frames] == [
            "ok", "ok", "timeout", "timeout",
        ]
        first_wait, second_wait = (f["queue_wait_s"] for f in frames[2:])
        assert first_wait < 0.1 and second_wait >= 0.15
        waits = [s for s in obs.tracer.spans() if s.name == "serve.queue_wait"]
        assert [w.duration_s >= 0.15 for w in waits] == [
            False, False, False, True,
        ]
        metrics = obs.metrics_dict()

        def samples(name, label):
            return {
                s["labels"][label]: s["value"]
                for s in metrics[name]["samples"]
            }

        assert samples("repro_requests_total", "status") == {
            "ok": 2, "timeout": 2,
        }
        assert samples("repro_ingress_sheds_total", "reason") == {
            "expired": 1,
        }
        assert samples("repro_slo_requests_total", "verdict") == {
            "good": 2, "breach": 2,
        }
        assert [s["count"] for s in
                metrics["repro_queue_wait_seconds"]["series"]] == [4]
