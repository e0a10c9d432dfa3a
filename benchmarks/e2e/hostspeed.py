"""Host-speed probe: scales host-clock times to a reference host.

The benchmark runs on a few cores of a shared host, which slows it in two
ways that have nothing to do with the program:

* the cores run slower while neighbours contend for them: a
  single-threaded loop on a 2-vCPU x86_64 VM ran at 8.4k-14.5k
  iterations/s in 0.5 s windows, in spells of seconds to minutes, and its
  CPU time swung with it;
* the hypervisor stops the virtual CPUs: the guest counts this as
  *steal* in ``/proc/stat``, which took 2% to 34% of a run's time on the
  same VM.

Times taken a few minutes apart then differ by more than any change to
the program worth detecting.  So the client runs :func:`probe`, a fixed
slice of interpreter, hashing and small-array work like the request
path's, whenever no request is in flight, and reads the machine's steal
counter and the process's CPU time with it.  Of the :data:`WINDOW_S`
windows a run is cut into, the half with the smallest stolen share are
kept, and every host-clock time in a kept window is scaled by
``PROBE_REF_S / t`` (``t`` the median probe time in the window) and by
``cpu / (cpu + stolen)``: the share of the time the process's threads
were runnable that they actually ran.  The result is the time the call
would have taken on a host where the probe takes ``PROBE_REF_S`` and
nothing is stolen.  The stolen share is taken over CPU time rather than
wall time because steal accrues only on a vCPU that has work: a call
that keeps both vCPUs busy loses about half the steal the machine counts,
not all of it.  (The kernel keeps steal out of a thread's CPU time, so
``cpu`` is the time the threads ran.)  The probe creates no
garbage-collected objects, so a program that leaves more garbage behind
does not slow it.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from time import perf_counter, process_time

import numpy as np

#: the probe's typical time between requests on the 2-vCPU VM above;
#: scaled times read as that host's times on an average minute
PROBE_REF_S = 0.3e-3
#: a run is cut into windows this long; each gets its own scale
WINDOW_S = 0.5
#: the closed loops probe at most this often
PROBE_EVERY_S = 0.025
#: steal takes away at most this share of a window's runnable time;
#: beyond it the window is mostly waiting and the correction a guess
MAX_STOLEN_SHARE = 0.75

_rng = np.random.default_rng(0)
_BUF = _rng.standard_normal(4096)
_VEC = _rng.standard_normal(2048)
_IDX = _rng.permutation(2048)
_SLOTS: dict = {}
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from running,
    summed over CPUs (0.0 where ``/proc/stat`` has no steal column)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def probe() -> tuple[float, float, float]:
    """Run the fixed slice of work: ``(its seconds, stolen_s() after,
    the process's CPU seconds after)``."""
    t0 = perf_counter()
    hashlib.blake2b(_BUF, digest_size=16).digest()
    for i in range(150):
        _SLOTS[i % 64] = float(_VEC[i]) * 2.0 + 1.0
    for _ in range(4):
        np.cumsum(_VEC[_IDX])
        np.argsort(_VEC[:512])
    return perf_counter() - t0, stolen_s(), process_time()


def _stolen_share(stolen: float, cpu_s: float) -> float:
    """Share of the runnable time that was stolen, at most
    :data:`MAX_STOLEN_SHARE`."""
    runnable = cpu_s + stolen
    return min(MAX_STOLEN_SHARE, stolen / runnable) if runnable > 0 else 0.0


def _scale(
    probe_s: float, stolen: float, cpu_s: float, speed_share: float = 1.0
) -> float:
    return (PROBE_REF_S / probe_s) ** speed_share * (
        1.0 - _stolen_share(stolen, cpu_s)
    )


def probed(fn, n: int = 5):
    """``(fn(), its host-clock seconds, their scale to reference time)``,
    the scale from ``n`` probes on each side of the call."""
    before = [probe() for _ in range(n)]
    t0, cpu0 = perf_counter(), process_time()
    result = fn()
    dt, cpu = perf_counter() - t0, process_time() - cpu0
    after = [probe() for _ in range(n)]
    median = statistics.median(p[0] for p in before + after)
    return result, dt, _scale(median, after[0][1] - before[-1][1], cpu)


def window_scales(
    probes: list, elapsed_s: float, speed_share: float = 1.0
) -> list:
    """Reference-time scale per :data:`WINDOW_S` window of a phase, or
    None for a window left out.

    ``probes`` holds ``(offset, probe seconds, stolen_s(), CPU seconds)``;
    ``speed_share`` is the exponent of the probe's speed ratio (see
    :func:`to_reference`).

    A window without a probe takes the phase's median probe time; steal
    and CPU time count in the window of the probe that read them.  Windows
    with a larger stolen share than the median window are left out: steal
    lands on a few calls, so spreading it evenly over a window's calls
    shortens the middle ones too much and the slowest too little, and the
    more steal the worse.
    """
    if not probes:
        raise RuntimeError("the phase ran no host-speed probe")
    n = max(1, round(elapsed_s / WINDOW_S))
    width = elapsed_s / n
    times = [[] for _ in range(n)]
    stolen, cpu = [0.0] * n, [0.0] * n
    _, _, last_steal, last_cpu = probes[0]
    for t, dt, steal, cpu_s in probes:
        w = min(int(t / width), n - 1)
        times[w].append(dt)
        stolen[w] += steal - last_steal
        cpu[w] += cpu_s - last_cpu
        last_steal, last_cpu = steal, cpu_s
    overall = statistics.median(p[1] for p in probes)
    shares = [_stolen_share(st, c) for st, c in zip(stolen, cpu)]
    typical = statistics.median(shares)
    return [
        _scale(statistics.median(ts) if ts else overall, st, c, speed_share)
        if share <= typical else None
        for ts, st, c, share in zip(times, stolen, cpu, shares)
    ]


def to_reference(phase) -> list:
    """Each call's latency at reference speed, in ``phase.calls`` order;
    None for a call in a window left out.

    The probe's speed ratio is raised to ``phase.speed_share``: to first
    order, the share of the calls' latency that scales with core speed.
    """
    scales = window_scales(phase.probes, phase.elapsed_s, phase.speed_share)
    width = phase.elapsed_s / len(scales)
    last = len(scales) - 1
    out = []
    for start, latency, *_ in phase.calls:
        scale = scales[min(max(int(start / width), 0), last)]
        out.append(None if scale is None else latency * scale)
    return out
