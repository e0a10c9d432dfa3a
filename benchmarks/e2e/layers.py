"""Timing shims around the public calls ``repro.serve.service`` makes into
each layer.

Nothing under ``src/`` is instrumented for this benchmark: the traced
phase replaces each entry point below with a wrapper that times the call
on the calling thread's clock, and restores the original afterwards.  A
layer's *self time* is its span minus the spans of shimmed calls nested
inside it on the same thread (``PlanCache.get_or_build`` minus the plan
build or store load its build function runs), so no interval is counted
twice and the rest of the request falls into the ``serve.service``
residual.

A target that no longer exists raises :class:`ShimTargetError` at
install time; a target that exists but is off the request path simply
shows zero calls.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter_ns

__all__ = ["LAYER_TARGETS", "QUEUE_DELAY", "LayerTracer", "ShimTargetError"]


class ShimTargetError(RuntimeError):
    """A shim target was renamed or removed from the program."""


def _csr_nbytes(A, *args, **kwargs) -> int:
    return A.indptr.nbytes + A.indices.nbytes + A.data.nbytes


#: (layer, "module[:Class]", attribute, input-bytes function or None).
#: Rows that share a layer are summed into it.
LAYER_TARGETS = (
    ("formats.triangular", "repro.serve.service", "triangle_orientation", None),
    ("serve.fingerprint", "repro.serve.service", "fingerprints", _csr_nbytes),
    ("serve.cache", "repro.serve.cache:PlanCache", "get_or_build", None),
    ("core.rebind", "repro.core.rebind:PlanRebinder", "bind", None),
    ("serve.store.load", "repro.serve.store:PlanStore", "lookup", None),
    ("serve.store.write", "repro.serve.store:PlanStore", "put", None),
    ("core.solver.build", "repro.core.solver:TriangularSolver", "prepare", None),
    ("core.executor.compile", "repro.core.solver:PreparedSolve", "compile", None),
    ("core.executor.compile", "repro.serve.service", "compile_plan", None),
    ("core.executor.solve", "repro.core.solver:PreparedSolve", "solve", None),
    ("core.executor.solve", "repro.core.solver:PreparedSolve", "solve_multi", None),
    ("dist.executor.solve", "repro.dist.executor:DistributedPlan", "solve", None),
    ("dist.executor.solve", "repro.dist.executor:DistributedPlan", "solve_multi", None),
    ("obs.runtime.note", "repro.obs.runtime:Observability", "note_request", None),
)

#: The ingress hand-off is a wait, not a span: it runs from entry into
#: ``AsyncSolveService.submit`` to that request's ``SolveService.submit``.
QUEUE_DELAY = "serve.ingress.queue_delay"

_ABSENT = object()


def _resolve(path: str, attr: str):
    """``(owner, original)`` for one target; raises if either is gone."""
    module_name, _, cls_name = path.partition(":")
    owner = importlib.import_module(module_name)
    if cls_name:
        owner = getattr(owner, cls_name, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    if fn is None:
        raise ShimTargetError(f"shim target {path}.{attr} no longer exists")
    return owner, fn


class LayerTracer:
    """Install, account and remove the timing shims.

    Totals are kept per thread, so the timed path takes no lock; read
    :meth:`totals` only while no request is running.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._accs: list[dict] = []
        self._accs_lock = threading.Lock()
        self._restore: list[tuple] = []
        #: id(rhs) -> entry time into AsyncSolveService.submit
        self._ingress_entry: dict[int, int] = {}

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "acc"):
            tls.acc, tls.stack = {}, []
            with self._accs_lock:
                self._accs.append(tls.acc)
        return tls

    def _add(self, layer: str, self_ns: int, nbytes: int = 0) -> None:
        slot = self._local().acc.setdefault(layer, [0, 0, 0])
        slot[0] += self_ns
        slot[1] += 1
        slot[2] += nbytes

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """``layer -> (self_ns, calls, input_bytes)`` summed over threads."""
        out: dict[str, list] = {}
        with self._accs_lock:
            accs = list(self._accs)
        for acc in accs:
            for layer, vals in list(acc.items()):
                slot = out.setdefault(layer, [0, 0, 0])
                for i, v in enumerate(vals):
                    slot[i] += v
        return {k: tuple(v) for k, v in out.items()}

    # -- shims ---------------------------------------------------------- #
    def _span(self, layer: str, fn, nbytes_of):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tracer._local().stack
            frame = [0]  # time covered by nested shimmed calls
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                nbytes = nbytes_of(*args, **kwargs) if nbytes_of else 0
                tracer._add(layer, dt - frame[0], nbytes)

        return shim

    def _patch(self, owner, attr: str, replacement) -> None:
        # A class is restored from its own __dict__, so an inherited
        # method goes back to being inherited.
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _ABSENT)
        else:
            original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target; raises :class:`ShimTargetError` if one is gone."""
        try:
            for layer, path, attr, nbytes_of in LAYER_TARGETS:
                owner, fn = _resolve(path, attr)
                self._patch(owner, attr, self._span(layer, fn, nbytes_of))
            self._install_ingress()
        except BaseException:
            self.remove()
            raise

    def _install_ingress(self) -> None:
        ingress_cls, async_submit = _resolve(
            "repro.serve.ingress:AsyncSolveService", "submit"
        )
        service_cls, sync_submit = _resolve(
            "repro.serve.service:SolveService", "submit"
        )
        entry = self._ingress_entry
        tracer = self

        @functools.wraps(async_submit)
        async def ingress_submit(self, A, b, **kwargs):
            entry[id(b)] = perf_counter_ns()
            try:
                return await async_submit(self, A, b, **kwargs)
            finally:
                entry.pop(id(b), None)

        @functools.wraps(sync_submit)
        def service_submit(self, A, b, **kwargs):
            t_entry = entry.pop(id(b), None)
            if t_entry is not None:
                tracer._add(QUEUE_DELAY, perf_counter_ns() - t_entry)
            return sync_submit(self, A, b, **kwargs)

        self._patch(ingress_cls, "submit", ingress_submit)
        self._patch(service_cls, "submit", service_submit)

    def remove(self) -> None:
        """Put every original back, latest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
