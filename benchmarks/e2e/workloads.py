"""The four serve workloads of the end-to-end benchmark.

Every workload runs in one process against ``ServiceConfig(max_workers=2)``
with a single client: one thread for the closed loops, one asyncio loop
for the open loop.  Matrices come from ``scaled_suite(0.05)`` through the
repository's own generators; the seed shapes the request streams,
right-hand sides, values variants and arrivals, and the program only
ever sees the generated inputs.

A *call* is what the client waits on: one ``solve``, one ``solve_batch``
of :data:`BATCH`, or one ingress request.  A *request* is one right-hand
side; the two differ only in ``revalued_fused``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from hostspeed import PROBE_EVERY_S, probe
from repro import (
    AsyncSolveService,
    CSRMatrix,
    IngressConfig,
    ServiceConfig,
    SolveRequest,
    SolveService,
    TrafficSpec,
    generate_traffic,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import Observability
from repro.obs.slo import SLOEngine, SLOPolicy
from repro.serve.traffic import make_rhs
from repro.serve.workload import mixed_workload, revalued_workload

SCALE = 0.05
WORKERS = 2
#: request records the service keeps.  Left at the default (100k), the
#: history grew with the run's request count: peak RSS rose with the
#: host's speed (159-180 MB across ten hot_same seeds), and so did the
#: objects every full garbage collection traverses.
HISTORY = 2048
#: about this many requests per timed stream; the closed loops replay it
#: cyclically (the stream's matrix mix, not its length, is what matters)
STREAM_LEN = 2048
#: requests in the verification sample (per pass): whole rounds of the
#: pool plus a few seeded extras, so the simulated mean is nearly the same
#: for every seed but not exactly (a time that never moves is suspect)
SAMPLE_REQUESTS = 292
BATCH = 12
INGRESS_RATE = 100.0
#: the open loop probes only when the next arrival is at least this far off
PROBE_IDLE_S = 0.002
INGRESS_TENANTS = ("gold", "bulk")
INGRESS_CLASSES = ("interactive", "batch")


@dataclass
class Phase:
    """Outcome of one timed phase, on the host clock."""

    #: one ``(start, latency, requests, ok)`` per call; ``start`` is the
    #: offset from the phase start (open loop: due time, which is also
    #: where its latency is measured from)
    calls: list = field(default_factory=list)
    #: failed requests by exception type
    failures: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: open loop: how late each send ran after its due time
    lags_s: list = field(default_factory=list)
    #: ``(offset, seconds, stolen_s(), CPU seconds)`` of each host-speed
    #: probe
    probes: list = field(default_factory=list)
    #: open loop: the arrival schedule, not the service, sets the pace
    open_loop: bool = False
    #: the workload's SLO per request
    slo_per_request_s: float = 0.0
    #: share of the latency that scales with core speed (``hostspeed.py``)
    speed_share: float = 1.0
    fused_buckets: int = 0
    #: open loop: the ingress' own shed count and leaked admission permits
    shed: int = 0
    permit_leak: int = 0

    def note(self, start: float, latency: float, requests: int, error=None):
        self.calls.append((start, latency, requests, error is None))
        if error is not None:
            name = type(error).__name__
            self.failures[name] = self.failures.get(name, 0) + requests

    @property
    def attempted(self) -> int:
        return sum(c[2] for c in self.calls)

    @property
    def latencies_s(self) -> list:
        """Latency of every call that completed OK."""
        return [c[1] for c in self.calls if c[3]]


def hot_pool() -> dict:
    """The six suite matrices of ``mixed_workload(n_matrices=6)``."""
    return mixed_workload(
        6, scale=SCALE, n_matrices=6, hot_matrices=6
    ).matrices


def copy_matrix(A: CSRMatrix) -> CSRMatrix:
    """An equal-content copy built the way a deserializing client builds
    one: fresh arrays, full validation, no shared identity."""
    return CSRMatrix(
        A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(), A.data.copy()
    )


class Workload:
    """One traffic mix: its inputs, its cold start and its client loop.

    Subclasses set ``pool`` (name -> matrix), ``items`` (the timed
    stream, one entry per call) and ``sample`` (the verification calls).
    """

    name = ""
    service_kwargs: dict = {}
    #: a call meets the SLO when it ends within this much per request it
    #: carries (a batch of 12 gets 12 times as long)
    slo_per_request_s = 0.005
    #: share of a call's latency that scales with core speed: the closed
    #: loops keep a vCPU busy, so their calls are work from end to end
    speed_share = 1.0

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.sample_rng = np.random.default_rng([seed, 1])
        #: position in ``items``: each phase continues the stream
        self._cursor = 0

    def _pairs(self, names, rng) -> list:
        """``(A, b)`` per name, with a fresh RHS drawn from ``rng``."""
        return [
            (self.pool[nm], rng.standard_normal(self.pool[nm].n_rows))
            for nm in names
        ]

    def _rounds(self, n_rounds: int, rng, gap: int = 0) -> list:
        """Names in rounds, each a seeded permutation of the pool.

        Every matrix is sent equally often, so the mix, and with it every
        latency statistic, is the same for every seed; the matrices'
        latencies differ by up to 4x, so the drifting shares of a uniform
        draw would move them between seeds.  With ``gap``, no round starts
        with a name among the last ``gap`` of the round before it, counting
        cyclically, so no name recurs within ``gap + 1`` requests.
        """
        names, rounds = list(self.pool), []
        tail = len(names) - gap
        while len(rounds) < n_rounds:
            perm = [names[i] for i in rng.permutation(len(names))]
            clash = rounds and set(perm[:gap]) & set(rounds[-1][tail:])
            if rounds and len(rounds) == n_rounds - 1:  # close the cycle
                clash = clash or set(rounds[0][:gap]) & set(perm[tail:])
            if not clash:
                rounds.append(perm)
        return [nm for rnd in rounds for nm in rnd]

    def _stream_names(self, rng, gap: int = 0) -> list:
        """The timed stream's names: :data:`STREAM_LEN` // pool rounds."""
        return self._rounds(STREAM_LEN // len(self.pool), rng, gap)

    def _sample_names(self, gap: int = 0) -> list:
        """:data:`SAMPLE_REQUESTS` names for the verification sample, in
        seeded rounds like the timed streams."""
        n_rounds = -(-SAMPLE_REQUESTS // len(self.pool))
        return self._rounds(n_rounds, self.sample_rng, gap)[:SAMPLE_REQUESTS]

    # -- program side --------------------------------------------------- #
    def new_service(self) -> SolveService:
        return SolveService(
            ServiceConfig(
                max_workers=WORKERS, history_limit=HISTORY,
                **self.service_kwargs,
            )
        )

    def cold_start(self) -> SolveService:
        """A new service plus the first tour that caches every plan."""
        svc = self.new_service()
        for A in self.pool.values():
            svc.solve(A, np.ones(A.n_rows))
        return svc

    def shape_errors(self, delta: dict, phase: Phase) -> list[str]:
        """Ways the window's steady state differs from the one this
        workload is meant to measure (empty when it matches)."""
        if delta["pattern_builds"]:
            return [f"{delta['pattern_builds']} pattern builds in the window"]
        return []

    # -- client side ---------------------------------------------------- #
    def call(self, svc: SolveService, item) -> list:
        """One client call; returns its SolveResults."""
        A, b = item
        return [svc.solve(A, b)]

    def requests_in(self, item) -> int:
        return 1

    def pairs_of(self, item) -> list:
        return [item]

    def run(self, svc: SolveService, seconds: float) -> Phase:
        """Closed loop: the next call is sent when the previous one ends."""
        phase = Phase(
            slo_per_request_s=self.slo_per_request_s,
            speed_share=self.speed_share,
        )
        items = self.items
        start = t0 = perf_counter()
        end = start + seconds
        last_probe = -PROBE_EVERY_S
        while t0 < end:
            if t0 - start - last_probe >= PROBE_EVERY_S:
                last_probe = t0 - start
                phase.probes.append((last_probe, *probe()))
                t0 = perf_counter()
            item = items[self._cursor % len(items)]
            self._cursor += 1
            try:
                out = self.call(svc, item)
            except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                t1 = perf_counter()
                phase.note(t0 - start, t1 - t0, self.requests_in(item), exc)
            else:
                t1 = perf_counter()
                phase.note(t0 - start, t1 - t0, len(out))
                phase.fused_buckets += sum(
                    b.fused for b in getattr(out, "buckets", ())
                )
            t0 = t1
        phase.elapsed_s = t0 - start
        return phase

    def solve_sample(self, svc: SolveService) -> list:
        """``[(A, b, result)]`` for the verification sample, in call shape."""
        out = []
        for item in self.sample:
            results = self.call(svc, item)
            out.extend(
                (A, b, r) for (A, b), r in zip(self.pairs_of(item), results)
            )
        return out


class HotSame(Workload):
    name = "hot_same"

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.pool = hot_pool()
        rng = np.random.default_rng(seed)
        self.items = self._pairs(self._stream_names(rng), rng)
        self.sample = self._pairs(self._sample_names(), self.sample_rng)


class StoreChurn(Workload):
    name = "store_churn"
    #: plans the LRU holds; the pool is three times larger
    CACHE_CAPACITY = 2
    #: a store load and rebind take a few ms on their own; at 5 ms the
    #: limit would cut through the largest matrices' latencies
    slo_per_request_s = 0.010

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.pool = hot_pool()
        rng = np.random.default_rng(seed)
        self.items = self._pairs(
            self._stream_names(rng, self.CACHE_CAPACITY), rng
        )
        self.sample = self._pairs(
            self._sample_names(self.CACHE_CAPACITY), self.sample_rng
        )

    def new_service(self) -> SolveService:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        return SolveService(
            ServiceConfig(
                max_workers=WORKERS, history_limit=HISTORY,
                cache_capacity=self.CACHE_CAPACITY, store_path=store_dir,
            )
        )

    def cold_start(self) -> SolveService:
        svc = super().cold_start()
        svc.store.flush()
        return svc

    def shape_errors(self, delta: dict, phase: Phase) -> list[str]:
        errors = super().shape_errors(delta, phase)
        if delta["store_misses"] or not delta["store_hits"]:
            errors.append(
                f"store hits {delta['store_hits']}, misses "
                f"{delta['store_misses']}: hit_frac is not 1.0"
            )
        return errors


class RevaluedFused(Workload):
    name = "revalued_fused"
    service_kwargs = {"n_devices": 4}

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        wl = revalued_workload(
            STREAM_LEN, scale=SCALE, n_patterns=3, n_values=8, seed=seed
        )
        self.pool = wl.matrices
        self.items = self._batches(
            [(wl.matrices[nm], b) for nm, b in wl.stream]
        )
        self.sample = self._batches(
            self._pairs(self._sample_names(), self.sample_rng)
        )

    @staticmethod
    def _batches(pairs: list) -> list:
        reqs = [SolveRequest(A=A, b=b) for A, b in pairs]
        return [reqs[i:i + BATCH] for i in range(0, len(reqs), BATCH)]

    def cold_start(self) -> SolveService:
        svc = self.new_service()
        tour = self._batches(
            [(A, np.ones(A.n_rows)) for A in self.pool.values()]
        )
        for batch in tour:
            svc.solve_batch(batch)
        return svc

    def shape_errors(self, delta: dict, phase: Phase) -> list[str]:
        errors = super().shape_errors(delta, phase)
        if not delta["overlay_evictions"] or not phase.fused_buckets:
            errors.append(
                f"overlay evictions {delta['overlay_evictions']}, fused "
                f"buckets {phase.fused_buckets}: both must be > 0"
            )
        return errors

    def call(self, svc: SolveService, item):
        return svc.solve_batch(item)

    def requests_in(self, item) -> int:
        return len(item)

    def pairs_of(self, item) -> list:
        return [(r.A, r.b) for r in item]


class IngressOpen(Workload):
    name = "ingress_open"
    #: the service idles between arrivals, so a request also waits on
    #: wake-ups of idle threads and vCPUs, which do not speed up with the
    #: cores.  In three sets of 8-10 seeds the unscaled latency moved
    #: with 0.33-0.68 of the probe's speed ratio (log-log slope); scaling
    #: by all of it spread the IQM 7-11%, by half of it 3-5%.
    speed_share = 0.5

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.pool = hot_pool()
        self._phases = 0
        # the trace's tenants, classes and right-hand sides, with its
        # matrices in rounds like the other samples
        trace = self.arrivals(1.0 + SAMPLE_REQUESTS / INGRESS_RATE, stream=1)
        self.sample = [
            dataclasses.replace(a, matrix=name)
            for a, name in zip(trace, self._sample_names())
        ]

    def arrivals(self, seconds: float, stream: int) -> list:
        spec = TrafficSpec(
            duration_s=seconds,
            base_rate=INGRESS_RATE,
            diurnal_amplitude=0.0,
            tenants=INGRESS_TENANTS,
            tenant_classes=INGRESS_CLASSES,
            seed=self.seed * 1000 + stream,
        )
        return generate_traffic(spec, list(self.pool))

    def new_service(self) -> SolveService:
        policies = [
            SLOPolicy(
                f"{t}-5ms", objective_s=self.slo_per_request_s, tenant=t
            )
            for t in INGRESS_TENANTS
        ]
        obs = Observability(slo=SLOEngine(policies), recorder=FlightRecorder())
        return SolveService(
            ServiceConfig(max_workers=WORKERS, history_limit=HISTORY, obs=obs)
        )

    def shape_errors(self, delta: dict, phase: Phase) -> list[str]:
        errors = super().shape_errors(delta, phase)
        if phase.permit_leak:
            errors.append(f"{phase.permit_leak} admission permits leaked")
        return errors

    def run(self, svc: SolveService, seconds: float) -> Phase:
        # each phase replays its own arrival trace, drawn from the seed
        self._phases += 1
        trace = self.arrivals(seconds, stream=1 + self._phases)
        return asyncio.run(self._open_loop(svc, trace, seconds))

    async def _open_loop(
        self, svc: SolveService, arrivals: list, seconds: float
    ) -> Phase:
        phase = Phase(
            elapsed_s=seconds, open_loop=True,
            slo_per_request_s=self.slo_per_request_s,
            speed_share=self.speed_share,
        )
        loop = asyncio.get_running_loop()
        #: requests in flight, the next arrival's offset, the last probe's
        sender = {"inflight": 0, "next": 0.0, "probed": -PROBE_EVERY_S}

        def probe_if_idle(now: float) -> None:
            # only with no request in flight and the next arrival far
            # enough off that the probe cannot delay it
            if (
                not sender["inflight"]
                and sender["next"] - now > PROBE_IDLE_S
                and now - sender["probed"] >= PROBE_EVERY_S
            ):
                sender["probed"] = now
                phase.probes.append((now, *probe()))

        async def one(ingress, A, b, a):
            """``(seconds since due, exception or None)`` for one request."""
            error = None
            try:
                await ingress.submit(A, b, tenant=a.tenant, priority=a.klass)
            except Exception as exc:  # noqa: BLE001 - every outcome is counted
                error = exc
            latency = perf_counter() - start - a.t
            sender["inflight"] -= 1
            probe_if_idle(latency + a.t)
            return latency, error

        async with AsyncSolveService(svc, config=IngressConfig()) as ingress:
            tasks = []
            start = perf_counter() + 0.01  # the first arrival is due at 10 ms
            for a in arrivals:
                # the copy and RHS are built before the request is due
                A = copy_matrix(self.pool[a.matrix])
                b = make_rhs(A.n_rows, a.rhs_seed)
                sender["next"] = a.t
                probe_if_idle(perf_counter() - start)
                delay = start + a.t - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.lags_s.append(max(0.0, perf_counter() - start - a.t))
                sender["inflight"] += 1
                tasks.append(loop.create_task(one(ingress, A, b, a)))
            for a, (latency, exc) in zip(
                arrivals, await asyncio.gather(*tasks)
            ):
                phase.note(a.t, latency, 1, exc)
            phase.shed = ingress.stats().shed_total
        phase.permit_leak = svc.config.queue_limit - svc.admission_available
        return phase

    def solve_sample(self, svc: SolveService) -> list:
        async def solve_all():
            out = []
            async with AsyncSolveService(svc, config=IngressConfig()) as ingress:
                for a in self.sample:
                    A = copy_matrix(self.pool[a.matrix])
                    b = make_rhs(A.n_rows, a.rhs_seed)
                    r = await ingress.submit(
                        A, b, tenant=a.tenant, priority=a.klass
                    )
                    out.append((A, b, r))
            return out

        return asyncio.run(solve_all())


WORKLOADS = {
    cls.name: cls for cls in (HotSame, RevaluedFused, StoreChurn, IngressOpen)
}
