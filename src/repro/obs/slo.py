"""Per-tenant SLO policies with multi-window burn-rate evaluation.

An :class:`SLOPolicy` is declarative: "``target`` of requests (for one
tenant, or all of them) must finish under ``objective_s``, judged over a
rolling window of ``window`` requests."  The allowed failure fraction —
``1 - target`` — is the policy's *error budget*; the **burn rate** is
how fast traffic is spending it::

    burn = (breaching fraction of the window) / (1 - target)

``burn == 1`` spends exactly the budget; ``burn == 10`` exhausts it ten
times over.  Following the standard SRE multi-window practice, the
:class:`SLOEngine` evaluates each policy over two windows at once — a
``fast_window`` that reacts to incidents within a few requests and the
full (slow) ``window`` that ignores blips — and fires an alert only
when *both* exceed ``burn_threshold``.  Re-arm is hysteresis-free by
design: once the fast window drops back below threshold the policy may
alert again, so tests see one alert per incident, not per request.

Windows are measured in **requests, not seconds**.  That is what makes
the engine deterministic: a seeded workload with an injected latency
fault trips its alert at an exact request index, every run, regardless
of host speed.  (The latency being judged can still be wall-clock —
``latency="wall"`` — or the simulated ``latency="sim"`` time, which is
itself deterministic.)

The engine is pure bookkeeping on the request-completion path: per
request it touches two deques and a handful of counters per matching
policy, publishes three gauge families, and hands any fired alerts to
an :class:`~repro.obs.alerts.AlertSink`.  Wire it into a service via
``Observability(slo=SLOEngine([...]))``; the serve layer feeds it every
completed request and dumps the flight recorder on each alert.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.alerts import AlertSink, SLOAlert
from repro.obs.metrics import MetricsRegistry

__all__ = ["SLOEngine", "SLOMetrics", "SLOPolicy"]


@dataclass(frozen=True)
class SLOPolicy:
    """One latency objective over a rolling request window."""

    #: unique policy name (the ``policy`` label on every SLO metric)
    name: str
    #: latency objective in seconds; a request above it breaches
    objective_s: float
    #: fraction of windowed requests that must meet the objective
    target: float = 0.99
    #: tenant this policy watches (``None`` = every tenant)
    tenant: str | None = None
    #: slow window length in completed requests
    window: int = 100
    #: fast window length in completed requests (reacts to incidents)
    fast_window: int = 10
    #: alert when both windows' burn rates reach this value
    burn_threshold: float = 1.0
    #: which latency to judge: host wall clock ("wall") or the
    #: deterministic simulated end-to-end latency ("sim")
    latency: str = "wall"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLOPolicy needs a non-empty name")
        if self.objective_s <= 0:
            raise ValueError(f"objective_s must be > 0, got {self.objective_s}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.window < 1 or self.fast_window < 1:
            raise ValueError("window lengths must be >= 1")
        if self.fast_window > self.window:
            raise ValueError(
                f"fast_window ({self.fast_window}) cannot exceed "
                f"window ({self.window})"
            )
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be > 0")
        if self.latency not in ("wall", "sim"):
            raise ValueError(
                f"latency must be 'wall' or 'sim', got {self.latency!r}"
            )

    @property
    def budget(self) -> float:
        """Allowed breaching fraction per window (the error budget)."""
        return 1.0 - self.target

    def matches(self, tenant: str) -> bool:
        return self.tenant is None or self.tenant == tenant


class SLOMetrics:
    """The SLO metric families, registered once per registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter(
            "repro_slo_requests_total",
            "requests evaluated against an SLO policy, by verdict",
            labelnames=("policy", "verdict"),
        )
        self.burn_rate = registry.gauge(
            "repro_slo_burn_rate",
            "current error-budget burn rate per policy and window "
            "(1.0 = spending exactly the budget)",
            labelnames=("policy", "window"),
        )
        self.budget_remaining = registry.gauge(
            "repro_slo_budget_remaining",
            "fraction of the slow window's error budget still unspent",
            labelnames=("policy",),
        )
        self.alerts = registry.counter(
            "repro_slo_alerts_total",
            "burn-rate alerts fired (fast AND slow windows over threshold)",
            labelnames=("policy",),
        )


class _PolicyState:
    """Mutable evaluation state of one policy (guarded by engine lock)."""

    __slots__ = (
        "policy", "slow", "fast", "slow_bad", "fast_bad",
        "n_observed", "n_breaches", "alerting", "alerts_fired",
        "last_bad_trace", "last_alert_seq", "keys",
    )

    def __init__(self, policy: SLOPolicy) -> None:
        self.policy = policy
        self.slow: deque[bool] = deque(maxlen=policy.window)
        self.fast: deque[bool] = deque(maxlen=policy.fast_window)
        self.slow_bad = 0
        self.fast_bad = 0
        self.n_observed = 0
        self.n_breaches = 0
        self.alerting = False
        self.alerts_fired = 0
        self.last_bad_trace: int | None = None
        self.last_alert_seq: int | None = None
        #: this policy's sample keys in the bound SLOMetrics families:
        #: (good, breach, fast burn, slow burn, budget, alerts)
        self.keys: tuple | None = None

    def push(self, bad: bool) -> None:
        if len(self.slow) == self.slow.maxlen and self.slow[0]:
            self.slow_bad -= 1
        if len(self.fast) == self.fast.maxlen and self.fast[0]:
            self.fast_bad -= 1
        self.slow.append(bad)
        self.fast.append(bad)
        if bad:
            self.slow_bad += 1
            self.fast_bad += 1
        self.n_observed += 1
        self.n_breaches += int(bad)

    def burn(self, bad: int, filled: int) -> float:
        if filled == 0:
            return 0.0
        return (bad / filled) / self.policy.budget

    @property
    def fast_burn(self) -> float:
        return self.burn(self.fast_bad, len(self.fast))

    @property
    def slow_burn(self) -> float:
        return self.burn(self.slow_bad, len(self.slow))

    @property
    def budget_remaining(self) -> float:
        """Unspent fraction of the slow window's budget, clamped to
        [0, 1]; a policy that has seen nothing has its whole budget."""
        filled = len(self.slow)
        if filled == 0:
            return 1.0
        allowed = self.policy.budget * filled
        return max(0.0, 1.0 - self.slow_bad / allowed)


class SLOEngine:
    """Evaluates every policy incrementally per completed request.

    >>> engine = SLOEngine([SLOPolicy("p99", objective_s=0.01)])
    >>> engine.bind(registry)                    # doctest: +SKIP
    >>> alerts = engine.observe(tenant="acme", wall_s=0.02, sim_s=1e-4)
    """

    def __init__(
        self,
        policies,
        sink: AlertSink | None = None,
    ) -> None:
        policies = tuple(policies)
        names = [p.name for p in policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names in {names}")
        self.policies = policies
        self.sink = sink if sink is not None else AlertSink()
        self._states = {p.name: _PolicyState(p) for p in policies}
        self._lock = threading.Lock()
        self._seq = 0
        self._metrics: SLOMetrics | None = None

    def bind(self, registry: MetricsRegistry) -> "SLOEngine":
        """Register the SLO gauge/counter families on ``registry``.

        Called by :class:`~repro.obs.runtime.Observability` when the
        engine is attached; idempotent per engine, one registry only.
        """
        if self._metrics is None:
            m = self._metrics = SLOMetrics(registry)
            for state in self._states.values():
                name = state.policy.name
                state.keys = (
                    m.requests.key(policy=name, verdict="good"),
                    m.requests.key(policy=name, verdict="breach"),
                    m.burn_rate.key(policy=name, window="fast"),
                    m.burn_rate.key(policy=name, window="slow"),
                    m.budget_remaining.key(policy=name),
                    m.alerts.key(policy=name),
                )
        return self

    def observe(
        self,
        *,
        tenant: str,
        wall_s: float,
        sim_s: float,
        trace_id: int | None = None,
        ok: bool = True,
    ) -> list[SLOAlert]:
        """Feed one completed request; returns the alerts it fired.

        A request breaches a policy when it failed outright (``ok`` is
        False) or its judged latency exceeds the objective.  Alerts fire
        on the *transition* into breach (both windows over threshold)
        and re-arm once the fast window recovers.
        """
        fired: list[SLOAlert] = []
        m = self._metrics
        with self._lock:
            self._seq += 1
            seq = self._seq
            for state in self._states.values():
                policy = state.policy
                if not policy.matches(tenant):
                    continue
                latency = wall_s if policy.latency == "wall" else sim_s
                bad = (not ok) or latency > policy.objective_s
                state.push(bad)
                if bad:
                    state.last_bad_trace = trace_id
                fast_burn = state.fast_burn
                slow_burn = state.slow_burn
                if m is not None:
                    keys = state.keys
                    m.requests.inc_key(keys[1] if bad else keys[0])
                    m.burn_rate.set_key(keys[2], fast_burn)
                    m.burn_rate.set_key(keys[3], slow_burn)
                    m.budget_remaining.set_key(keys[4], state.budget_remaining)
                # Both windows over threshold — but only once the fast
                # window has filled, so a single slow first request
                # cannot page anyone.
                over = (
                    state.n_observed >= policy.fast_window
                    and fast_burn >= policy.burn_threshold
                    and slow_burn >= policy.burn_threshold
                )
                if over and not state.alerting:
                    state.alerting = True
                    state.alerts_fired += 1
                    state.last_alert_seq = seq
                    if m is not None:
                        m.alerts.inc_key(state.keys[5])
                    fired.append(SLOAlert(
                        policy=policy.name,
                        tenant=policy.tenant,
                        seq=seq,
                        n_observed=state.n_observed,
                        fast_burn=fast_burn,
                        slow_burn=slow_burn,
                        budget_remaining=state.budget_remaining,
                        latency_s=latency,
                        objective_s=policy.objective_s,
                        trace_id=state.last_bad_trace,
                    ))
                elif not over and fast_burn < policy.burn_threshold:
                    state.alerting = False
        for alert in fired:
            self.sink.emit(alert)
        return fired

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def seq(self) -> int:
        """Completed requests the engine has evaluated."""
        with self._lock:
            return self._seq

    def status(self) -> list[dict]:
        """Per-policy snapshot (for ``repro slo`` and tests)."""
        with self._lock:
            out = []
            for state in self._states.values():
                p = state.policy
                out.append({
                    "policy": p.name,
                    "tenant": p.tenant,
                    "objective_s": p.objective_s,
                    "target": p.target,
                    "latency": p.latency,
                    "window": p.window,
                    "fast_window": p.fast_window,
                    "burn_threshold": p.burn_threshold,
                    "n_observed": state.n_observed,
                    "n_breaches": state.n_breaches,
                    "fast_burn": state.fast_burn,
                    "slow_burn": state.slow_burn,
                    "budget_remaining": state.budget_remaining,
                    "alerting": state.alerting,
                    "alerts_fired": state.alerts_fired,
                    "last_alert_seq": state.last_alert_seq,
                })
            return out

    def render(self) -> str:
        """Human-readable policy table for the CLI."""
        lines = [
            f"{'policy':16s} {'tenant':10s} {'objective':>10s} {'target':>7s} "
            f"{'seen':>6s} {'breach':>6s} {'burn f/s':>12s} {'budget':>7s} "
            f"{'alerts':>6s}"
        ]
        for s in self.status():
            tenant = s["tenant"] if s["tenant"] is not None else "*"
            alert_mark = " FIRING" if s["alerting"] else ""
            lines.append(
                f"{s['policy']:16s} {tenant:10s} "
                f"{s['objective_s'] * 1e3:8.2f}ms {s['target']:7.2%} "
                f"{s['n_observed']:6d} {s['n_breaches']:6d} "
                f"{s['fast_burn']:5.2f}/{s['slow_burn']:5.2f} "
                f"{s['budget_remaining']:7.0%} {s['alerts_fired']:6d}"
                f"{alert_mark}"
            )
        return "\n".join(lines)
