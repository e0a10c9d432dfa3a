"""What a request is solved from: the admission snapshot, one digest pass
per array, and the orientation scan only when a pattern is built."""

import asyncio
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.triangular import upper_to_lower_mirror
from repro.kernels.sptrsv_serial import solve_serial
from repro.serve import (
    AsyncSolveService,
    ServiceConfig,
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

from conftest import random_lower


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


def _batch(svc, A, b):
    return svc.solve_batch([SolveRequest(A=A, b=b)])[0]


def _ingress(svc, A, b):
    async def main():
        async with AsyncSolveService(svc) as ingress:
            return await ingress.submit(A, b)

    return asyncio.run(main())


FRONT_DOORS = {"submit": _submit, "solve_batch": _batch, "ingress": _ingress}


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
