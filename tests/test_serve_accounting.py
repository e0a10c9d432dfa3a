"""One accounting path per request: every admitted request leaves exactly
one record, one lifetime count, one ``repro_requests_total`` sample, one
recorder frame and one SLO evaluation, on every exit — solved, failed,
timed out mid-solve, shed at pickup, interrupted, or kept from running
by an interrupt — and the record and its frame tell the same story."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.formats.csr import CSRMatrix
from repro.obs import FlightRecorder, Observability, SLOEngine, SLOPolicy
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.serve.service import ServiceTimeoutError
from repro.validate import FaultInjector, InjectedFaultError

from conftest import random_lower

TENANTS = ("acme", "beta")


class Interrupt(FaultInjector):
    """Raises ``KeyboardInterrupt`` where the solve would start."""

    def before_solve(self, method):
        super().before_solve(method)
        raise KeyboardInterrupt("stop")


def _bundle() -> Observability:
    """Recorder and one SLO policy per tenant, with an objective no
    request misses: a policy's verdicts are good exactly for its
    tenant's solved requests."""
    return Observability(
        slo=SLOEngine([
            SLOPolicy(t, objective_s=60.0, target=0.5, tenant=t,
                      window=8, fast_window=2)
            for t in TENANTS
        ]),
        recorder=FlightRecorder(capacity=4096),
    )


def _samples(obs, name) -> dict:
    family = obs.metrics_dict().get(name, {"samples": []})
    return {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in family["samples"]
    }


def _outcome(rec) -> str:
    if rec.timed_out:
        return "timeout"
    return "ok" if rec.error is None else "error"


def _short_indptr(A):
    return CSRMatrix(A.n_rows, A.n_cols, A.indptr[:-1].copy(),
                     A.indices.copy(), A.data.copy(), _validated=True)


def _malformed_submit(svc, L, b):
    with pytest.raises(SparseFormatError):
        svc.submit(_short_indptr(L), b, tenant="acme").result()


def _shed_at_pickup(svc, L, b):
    with pytest.raises(ServiceTimeoutError, match="shed before solve"):
        svc.solve(L, b, timeout_s=0, tenant="acme")


def _mid_solve_timeout(svc, L, b):
    svc.install_fault_injector(FaultInjector(solve_delay_s=0.05))
    with pytest.raises(ServiceTimeoutError) as info:
        svc.solve(L, b, timeout_s=0.02, tenant="acme")
    assert "shed" not in str(info.value)


def _planner_error(svc, L, b):
    svc.install_fault_injector(FaultInjector(build_error=True))
    with pytest.raises(InjectedFaultError):
        svc.solve(L.transpose(), b, tenant="acme")  # a cold pattern


def _interrupt(svc, L, b):
    svc.install_fault_injector(Interrupt())
    with pytest.raises(KeyboardInterrupt):
        svc.submit(L, b, tenant="acme").result()


class TestFailedRecordMatchesItsFrame:
    @pytest.mark.parametrize("fail", [
        _malformed_submit, _shed_at_pickup, _mid_solve_timeout,
        _planner_error, _interrupt,
    ], ids=lambda f: f.__name__.strip("_"))
    def test_record_and_frame_agree(self, fail):
        obs = _bundle()
        svc = SolveService(ServiceConfig(max_workers=1, fallback=False,
                                         obs=obs))
        L = random_lower(60, 0.1, seed=71)
        b = np.ones(L.n_rows)
        svc.solve(L, b, tenant="beta")  # warm: a later hit fails or times out
        fail(svc, L, b)
        svc.close()
        assert svc.admission_available == svc.config.queue_limit
        records, frames = svc.records(), obs.recorder.frames()
        assert len(records) == len(frames) == 2
        rec, frame = records[-1], frames[-1]
        assert not rec.ok and frame["outcome"] == _outcome(rec)
        assert rec.trace_id is not None
        assert (frame["trace_id"], frame["tenant"], frame["method"],
                frame["wall_s"], frame["fingerprint"]) == (
            rec.trace_id, rec.tenant, rec.method,
            rec.wall_time_s, rec.fingerprint,
        )
        request_span = next(s for s in obs.tracer.spans()
                            if s.name == "serve.request"
                            and s.trace_id == rec.trace_id)
        assert request_span.error is not None


def _check_one_of_each(svc, obs, admitted: int) -> None:
    """Every admitted request has one record under its own id, one
    lifetime count, and one request-counter sample, frame and SLO
    evaluation, all failed; every permit is back."""
    records = svc.records()
    stats = svc.stats()
    assert sorted(r.request_id for r in records) == list(range(admitted))
    assert all(r.error.startswith("KeyboardInterrupt: ") for r in records)
    assert (stats.requests, stats.failed) == (admitted, admitted)
    assert _samples(obs, "repro_requests_total") == {
        (("status", "error"), ("tenant", "acme")): admitted,
    }
    frames = obs.recorder.frames()
    assert [f["outcome"] for f in frames] == ["error"] * admitted
    assert _samples(obs, "repro_slo_requests_total") == {
        (("policy", "acme"), ("verdict", "breach")): admitted,
    }
    assert svc.admission_available == svc.config.queue_limit


class TestInterruptsAreAccounted:
    def _service(self):
        obs = _bundle()
        self.interrupt = Interrupt()
        svc = SolveService(ServiceConfig(max_workers=1, obs=obs),
                           fault_injector=self.interrupt)
        return svc, obs

    def test_solve(self):
        svc, obs = self._service()
        L = random_lower(50, 0.1, seed=72)
        with pytest.raises(KeyboardInterrupt):
            svc.solve(L, np.ones(L.n_rows), tenant="acme")
        svc.close()
        _check_one_of_each(svc, obs, 1)

    def test_submit_future_raises_it(self):
        svc, obs = self._service()
        L = random_lower(50, 0.1, seed=73)
        fut = svc.submit(L, np.ones(L.n_rows), tenant="acme")
        with pytest.raises(KeyboardInterrupt):
            fut.result()
        svc.close()
        _check_one_of_each(svc, obs, 1)

    def test_batch_accounts_the_buckets_it_kept_from_running(self):
        """The interrupt ends the first of two buckets; the second never
        runs, yet both requests are accounted as failed with it."""
        svc, obs = self._service()
        mats = [random_lower(50, 0.1, seed=74), random_lower(40, 0.1, seed=75)]
        with pytest.raises(KeyboardInterrupt):
            svc.solve_batch([
                SolveRequest(A=A, b=np.ones(A.n_rows), tenant="acme")
                for A in mats
            ])
        svc.close()
        assert self.interrupt.solves_seen == 1
        _check_one_of_each(svc, obs, 2)
        assert [r.bucket for r in svc.records()] == [1, 1]

    def test_fused_bucket_accounts_the_groups_it_kept_from_running(self):
        svc, obs = self._service()
        L = random_lower(50, 0.1, seed=76)
        variants = [replace(L, data=L.data * f, _validated=True)
                    for f in (1.0, 2.0, 3.0)]
        with pytest.raises(KeyboardInterrupt):
            svc.solve_batch([
                SolveRequest(A=A, b=np.ones(A.n_rows), tenant="acme")
                for A in variants
            ])
        svc.close()
        _check_one_of_each(svc, obs, 3)
        assert all(r.fused and r.bucket == 3 for r in svc.records())


class TestSinksAgree:
    """Seeded replays of ``solve``, ``submit`` and ``solve_batch`` over
    two tenants, mixing fused buckets with timeouts, planner errors,
    sheds at pickup and interrupts: per tenant and outcome, the records
    behind ``ServiceStats``, ``repro_requests_total``, the recorder
    frames and the SLO verdicts count the same requests."""

    KINDS = ("ok", "timeout", "build_error", "shed", "interrupt")

    @staticmethod
    def _replay(seed: int):
        rng = np.random.default_rng(seed)
        obs = _bundle()
        svc = SolveService(ServiceConfig(max_workers=2, fallback=False,
                                         obs=obs))
        patterns = [random_lower(48, 0.1, seed=seed * 10 + i)
                    for i in range(2)]
        pool = [replace(A, data=A.data * f, _validated=True)
                for A in patterns for f in (1.0, 1.5, 2.0)]
        kinds = list(TestSinksAgree.KINDS) * 2 + list(
            rng.choice(TestSinksAgree.KINDS, size=8)
        )
        rng.shuffle(kinds)
        admitted, cold = 0, 100
        for kind in kinds:
            door = rng.choice(["solve", "submit", "batch"])
            tenant = str(rng.choice(TENANTS))
            timeout_s = None
            if kind == "timeout":
                svc.install_fault_injector(FaultInjector(solve_delay_s=0.02))
                timeout_s = 0.005
            elif kind == "build_error":
                svc.install_fault_injector(FaultInjector(build_error=True))
            elif kind == "interrupt":
                svc.install_fault_injector(Interrupt())
            elif kind == "shed":
                timeout_s = 0
            if kind == "build_error":
                cold += 1
                mats = [random_lower(30, 0.1, seed=seed * 1000 + cold)]
            else:
                mats = [pool[i] for i in rng.integers(0, len(pool), size=4)]
            try:
                if door == "batch":
                    admitted += len(mats)
                    svc.solve_batch([
                        SolveRequest(A=A, b=np.ones(A.n_rows),
                                     tenant=str(rng.choice(TENANTS)))
                        for A in mats
                    ], timeout_s=timeout_s)
                elif door == "solve":
                    admitted += 1
                    A = mats[0]
                    svc.solve(A, np.ones(A.n_rows), timeout_s=timeout_s,
                              tenant=tenant)
                else:
                    admitted += 1
                    A = mats[0]
                    svc.submit(A, np.ones(A.n_rows), timeout_s=timeout_s,
                               tenant=tenant).result()
            except (Exception, KeyboardInterrupt):
                pass
            svc.install_fault_injector(None)
        svc.close()
        return svc, obs, admitted

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_per_tenant_outcome_counts_agree(self, seed):
        svc, obs, admitted = self._replay(seed)
        records = svc.records()
        stats = svc.stats()
        assert len(records) == admitted == stats.requests
        assert svc.admission_available == svc.config.queue_limit

        by_record = Counter((r.tenant, _outcome(r)) for r in records)
        by_counter = Counter({
            (labels[1][1], labels[0][1]): int(v)
            for labels, v in _samples(obs, "repro_requests_total").items()
        })
        by_frame = Counter(
            (f["tenant"], f["outcome"]) for f in obs.recorder.frames()
        )
        assert by_record == by_counter == by_frame
        verdicts = {
            (labels[0][1], labels[1][1]): int(v)
            for labels, v in _samples(obs, "repro_slo_requests_total").items()
        }
        for t in TENANTS:
            ok = by_record[(t, "ok")]
            assert verdicts.get((t, "good"), 0) == ok
            assert verdicts.get((t, "breach"), 0) == (
                by_record[(t, "error")] + by_record[(t, "timeout")]
            )
            assert stats.per_tenant.get(t, {"requests": 0})["requests"] == ok
        outcomes = Counter(_outcome(r) for r in records)
        assert (stats.completed, stats.failed, stats.timeouts) == (
            outcomes["ok"], outcomes["error"], outcomes["timeout"]
        )
        shed = Counter(r.tenant for r in records if r.shed_expired)
        assert stats.shed_expired == sum(shed.values())
        assert Counter({
            dict(labels)["tenant"]: int(v)
            for labels, v in _samples(obs, "repro_ingress_sheds_total").items()
        }) == shed
        # the replay reached every exit it mixes in
        assert set(outcomes) == {"ok", "error", "timeout"}
        assert shed and any(r.fused for r in records)
        assert any(r.error and r.error.startswith("KeyboardInterrupt")
                   for r in records)
        assert any(r.error and r.error.startswith("InjectedFaultError")
                   for r in records)
