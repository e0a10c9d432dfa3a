"""Differential fuzzing of every solve path against the serial oracle.

The paper's central claim is that three structurally different block
schedules plus four adaptive kernels all compute the *same* ``x`` as the
serial sweep of Algorithm 1.  This module turns that claim into an
executable property: sample random triangular systems across every
generator family (hypersparse power-law structures that trigger the DCSR
path, deep chains, PDE grids, real ILU(0) factors, ...), optionally
mirror them to upper-triangular form or attach a multi-RHS block or an
integer right-hand side, run every registered method — and the
:class:`~repro.serve.SolveService` path — and cross-check each solution
against :func:`repro.kernels.sptrsv_serial.solve_serial` plus the
residual ``‖A x − b‖``.  One service arm mutates the caller's matrix
after ``submit`` or ``solve`` admitted it and checks that neither that
request nor a later clean one sees the new values; another persists the
case through a plan store and answers it again from a fresh service
that loads the entry instead of planning; the compiled arm holds the
SuperLU engine rule to the accuracy probe it stands for.

Failures are *minimized* (shrink the system, drop the RHS block, drop
the mirror) and reported with a self-contained reproduction command, so
a fuzz hit becomes a regression test in one paste.  A deliberately
broken solver (:func:`broken_solver`, a sign flip) is shipped for
testing the harness itself and for the ``repro fuzz --self-test`` CLI
path, as are wrong services and engine rules.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.solver import (
    SOLVERS,
    LevelSetSolver,
    PreparedSolve,
    available_methods,
    register_solver,
    unregister_solver,
)
from repro.errors import ValidationError
from repro.formats.triangular import is_lower_triangular, upper_to_lower_mirror
from repro.gpu.device import TITAN_RTX_SCALED, DeviceModel
from repro.kernels.base import solve_dtype
from repro.kernels.sptrsv_serial import solve_serial
from repro.matrices import generators as gen
from repro.obs.clock import monotonic
from repro.validate.invariants import DEFAULT_RESIDUAL_TOL, check_plan

__all__ = [
    "FAMILIES",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "run_case",
    "minimize_failure",
    "broken_solver",
    "BrokenSignFlipSolver",
    "BROKEN_METHOD",
    "mutation_self_test",
    "single_precision_engines",
    "engine_rule_self_test",
]

#: salt mixed into every case seed so fuzz streams don't collide with
#: other seeded users of default_rng in the same process
_SEED_SALT = 0x5EED


# --------------------------------------------------------------------- #
# Generator families
# --------------------------------------------------------------------- #
def _fam_layered(rng: np.random.Generator, n: int):
    nlv = int(rng.integers(3, max(4, n // 6)))
    sizes = rng.multinomial(n - nlv, np.full(nlv, 1.0 / nlv)) + 1
    return gen.layered_random(
        sizes, nnz_per_row=float(rng.uniform(2.0, 6.0)), rng=rng
    )


def _fam_hypersparse(rng: np.random.Generator, n: int):
    # Power-law rows/hub columns: the class whose recursive squares go
    # hypersparse and exercise the DCSR storage + kernels (§3.3).
    return gen.powerlaw_matrix(
        n,
        float(rng.uniform(1.5, 3.0)),
        rng,
        alpha=1.05 + float(rng.random()) * 0.4,
    )


def _fam_chain(rng: np.random.Generator, n: int):
    # nlevels == n: the deep, parallelism-free regime (tmt_sym).
    return gen.chain_matrix(
        n,
        band=int(rng.integers(1, 3)),
        extra_nnz_per_row=float(rng.uniform(0.0, 1.5)),
        rng=rng,
    )


def _fam_grid2d(rng: np.random.Generator, n: int):
    nx = max(2, int(np.sqrt(n)))
    return gen.grid_laplacian_2d(nx, max(2, n // nx), rng)


def _fam_grid3d(rng: np.random.Generator, n: int):
    side = max(2, round(n ** (1.0 / 3.0)))
    return gen.grid_laplacian_3d(side, side, side, rng)


def _fam_banded(rng: np.random.Generator, n: int):
    return gen.banded_random(
        n,
        bandwidth=int(rng.integers(1, max(2, n // 8))),
        avg_nnz_per_row=float(rng.uniform(2.0, 6.0)),
        rng=rng,
    )


def _fam_uniform(rng: np.random.Generator, n: int):
    return gen.random_uniform(n, float(rng.uniform(2.0, 8.0)), rng)


def _fam_rmat(rng: np.random.Generator, n: int):
    scale = max(3, int(np.log2(max(8, n))))
    return gen.rmat_matrix(scale, float(rng.uniform(2.0, 4.0)), rng)


def _fam_ilu(rng: np.random.Generator, n: int):
    nx = max(2, int(np.sqrt(n)))
    return gen.ilu_factor_2d(nx, max(2, n // nx), rng)


#: family name -> builder(rng, approx_size) -> lower-triangular CSRMatrix
FAMILIES = {
    "layered": _fam_layered,
    "hypersparse": _fam_hypersparse,
    "chain": _fam_chain,
    "grid2d": _fam_grid2d,
    "grid3d": _fam_grid3d,
    "banded": _fam_banded,
    "uniform": _fam_uniform,
    "rmat": _fam_rmat,
    "ilu": _fam_ilu,
}

#: right-hand-side dtypes rotated through by the sampler; the integer
#: entries guard the promotion fix in ExecutionPlan.solve/solve_multi
_B_DTYPES = ("float64", "float64", "int64", "float64", "int32", "float64")


# --------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FuzzCase:
    """A fully deterministic test system: (matrix, rhs) from six fields,
    plus the scheduler/sync axis the sharded (``via="dist"``) arm runs
    under — also part of the replay token, so a scheduler-specific
    failure replays under the scheduler that produced it."""

    family: str
    seed: int
    size: int
    upper: bool = False
    n_rhs: int = 1
    b_dtype: str = "float64"
    #: placement policy for the dist arm (a registered scheduler name)
    scheduler: str = "eft"
    #: dependency-sync mode for the dist arm ("p2p" | "barrier")
    sync: str = "p2p"

    def build(self):
        """Materialize ``(A, b)``; same fields always give same system."""
        rng = np.random.default_rng([_SEED_SALT, self.seed])
        L = FAMILIES[self.family](rng, self.size)
        n = L.n_rows
        if self.upper:
            A = L.permute_symmetric(np.arange(n)[::-1].copy())
        else:
            A = L
        shape = (n,) if self.n_rhs == 1 else (n, self.n_rhs)
        dt = np.dtype(self.b_dtype)
        if dt.kind in "iu":
            b = rng.integers(-9, 10, size=shape).astype(dt)
        else:
            b = (rng.standard_normal(shape) * 2.0).astype(dt)
        return A, b

    def token(self) -> str:
        """Compact ``--replay`` token:
        ``family:seed:size:L|U:k:dtype:scheduler:sync``."""
        return (
            f"{self.family}:{self.seed}:{self.size}:"
            f"{'U' if self.upper else 'L'}:{self.n_rhs}:{self.b_dtype}:"
            f"{self.scheduler}:{self.sync}"
        )

    @classmethod
    def from_token(cls, token: str) -> "FuzzCase":
        parts = token.split(":")
        if len(parts) == 6:
            # pre-1.3 token without the scheduler/sync axis: replays
            # under the historical eft/p2p defaults
            parts = parts + ["eft", "p2p"]
        if len(parts) != 8:
            raise ValueError(
                f"bad case token {token!r}; expected "
                "family:seed:size:L|U:n_rhs:b_dtype[:scheduler:sync]"
            )
        family, seed, size, tri, n_rhs, b_dtype, scheduler, sync = parts
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
            )
        if tri not in ("L", "U"):
            raise ValueError(f"triangle flag must be L or U, got {tri!r}")
        try:
            np.dtype(b_dtype)
        except TypeError as exc:
            raise ValueError(f"bad b_dtype in token {token!r}: {exc}") from exc
        from repro.dist.schedule import SYNC_MODES, available_schedulers

        if scheduler not in available_schedulers():
            raise ValueError(
                f"unknown scheduler {scheduler!r} in token {token!r}; "
                f"choose from {available_schedulers()}"
            )
        if sync not in SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {sync!r} in token {token!r}; "
                f"choose from {SYNC_MODES}"
            )
        return cls(
            family=family,
            seed=int(seed),
            size=int(size),
            upper=(tri == "U"),
            n_rhs=int(n_rhs),
            b_dtype=b_dtype,
            scheduler=scheduler,
            sync=sync,
        )


def sample_case(
    seed: int, round_no: int, families: list[str], base_size: int
) -> FuzzCase:
    """Deterministic case for one fuzz round.

    Families rotate so every round block covers all of them; every third
    case is mirrored upper-triangular, every fourth carries a multi-RHS
    block, and RHS dtypes rotate through the integer types.  The dist
    arm's scheduler and sync mode are drawn uniformly from the registry
    (*after* the matrix/RHS draws, so the sampled systems are identical
    to pre-1.3 streams) and recorded in the replay token.
    """
    from repro.dist.schedule import SYNC_MODES, available_schedulers

    case_seed = seed * 1_000_003 + round_no
    rng = np.random.default_rng([_SEED_SALT, case_seed, 0])
    family = families[round_no % len(families)]
    size = int(rng.integers(max(12, base_size // 4), base_size + 1))
    upper = round_no % 3 == 1
    n_rhs = int(rng.integers(2, 5)) if round_no % 4 == 2 else 1
    schedulers = available_schedulers()
    scheduler = schedulers[int(rng.integers(len(schedulers)))]
    sync = SYNC_MODES[int(rng.integers(len(SYNC_MODES)))]
    return FuzzCase(
        family=family,
        seed=case_seed,
        size=size,
        upper=upper,
        n_rhs=n_rhs,
        b_dtype=_B_DTYPES[round_no % len(_B_DTYPES)],
        scheduler=scheduler,
        sync=sync,
    )


# --------------------------------------------------------------------- #
# Failures and reports
# --------------------------------------------------------------------- #
@dataclass
class FuzzFailure:
    """One method disagreeing with the oracle on one case."""

    case: FuzzCase
    method: str
    #: "mismatch" | "residual" | "invariant" | "exception" | "dtype"
    #: | "engine-rule"
    kind: str
    #: "direct" | "service" | "compiled" | "dist" | "fused" | "mutated"
    #: | "store"
    via: str = "direct"
    message: str = ""
    max_err: float | None = None
    minimized: FuzzCase | None = None

    @property
    def repro_command(self) -> str:
        """Paste-ready command reproducing the (minimized) failure."""
        case = self.minimized or self.case
        return (
            "PYTHONPATH=src python -m repro fuzz "
            f"--replay {case.token()} --methods {self.method}"
        )

    def describe(self) -> str:
        case = self.minimized or self.case
        err = f", max err {self.max_err:.3e}" if self.max_err is not None else ""
        return (
            f"{self.kind} [{self.via}] method={self.method} "
            f"case={case.token()}{err}: {self.message}\n"
            f"  reproduce: {self.repro_command}"
        )


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    rounds: int
    seed: int
    methods: list[str]
    families: list[str]
    n_cases: int = 0
    n_checks: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        head = (
            f"fuzz: {self.n_checks} checks over {self.n_cases} cases "
            f"({len(self.methods)} methods x {len(self.families)} families, "
            f"seed {self.seed}) in {self.elapsed_s:.1f}s"
        )
        if self.ok:
            return head + "\n  all methods agree with the serial reference"
        lines = [head, f"  {len(self.failures)} FAILURE(S):"]
        for f in self.failures:
            lines.append("  " + f.describe().replace("\n", "\n  "))
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
def _reference_solve(A, b: np.ndarray) -> np.ndarray:
    """The Algorithm 1 oracle, mirrored for upper systems; always float64."""
    if is_lower_triangular(A):
        L, perm = A, None
    else:
        L, perm = upper_to_lower_mirror(A.sort_indices())

    def one(col: np.ndarray) -> np.ndarray:
        c = col if perm is None else col[perm]
        y = solve_serial(L, c)
        if perm is None:
            return y
        x = np.empty_like(y)
        x[perm] = y
        return x

    b = np.asarray(b)
    if b.ndim == 1:
        return one(b)
    return np.stack([one(b[:, j]) for j in range(b.shape[1])], axis=1)


def _method_solve(
    A,
    b: np.ndarray,
    method: str,
    device: DeviceModel,
    *,
    check_invariants: bool = True,
) -> np.ndarray:
    """Run one registered method end to end (handles upper + multi-RHS)."""
    solver = SOLVERS[method](device=device)
    if is_lower_triangular(A):
        L, perm = A, None
    else:
        L, perm = upper_to_lower_mirror(A.sort_indices())
    prepared = solver.prepare(L)
    if check_invariants and isinstance(prepared, PreparedSolve):
        check_plan(prepared.plan, L, context=method)
    b = np.asarray(b)
    w = b if perm is None else b[perm]
    if b.ndim == 1:
        x, _ = prepared.solve(w)
    else:
        x, _ = prepared.solve_multi(w)
    if perm is not None:
        out = np.empty_like(x)
        out[perm] = x
        x = out
    return x


def _compiled_solve(
    A, b: np.ndarray, method: str, device: DeviceModel
) -> tuple[np.ndarray, list[int]] | None:
    """Run one case through the :class:`~repro.core.executor.CompiledPlan`
    zero-allocation executor; ``None`` if the method's prepared form does
    not expose a plan to compile.

    The case is solved twice: the second call reuses the first one's
    pooled arena, so a state leak (stale work/out buffers bleeding
    between solves) shows up as the two disagreeing bit for bit.
    Also returns the steps whose engine decision the probe disputes.
    """
    solver = SOLVERS[method](device=device)
    if is_lower_triangular(A):
        L, perm = A, None
    else:
        L, perm = upper_to_lower_mirror(A.sort_indices())
    prepared = solver.prepare(L)
    if not isinstance(prepared, PreparedSolve):
        return None
    compiled = prepared.compile()
    b = np.asarray(b)
    w = b if perm is None else b[perm]
    run = compiled.solve if b.ndim == 1 else compiled.solve_multi
    x, _ = run(w)
    x2, _ = run(w)  # reuses the first solve's pooled arena
    if not np.array_equal(x, x2):
        raise AssertionError(
            "compiled executor is not deterministic across arena reuse: "
            f"max diff {float(np.max(np.abs(x - x2))):.3e}"
        )
    served = compiled.engines_served(b.dtype)
    probed = compiled.probe_engines(b.dtype)
    disagree = [i for i, (s, p) in enumerate(zip(served, probed)) if s != p]
    if perm is not None:
        out = np.empty_like(x)
        out[perm] = x
        x = out
    return x, disagree


def _dist_solve(
    A,
    b: np.ndarray,
    method: str,
    device: DeviceModel,
    n_devices: int,
    scheduler: str = "eft",
    sync: str = "p2p",
) -> tuple[np.ndarray, np.ndarray] | None:
    """Run one case through the :class:`repro.dist.DistributedPlan`
    sharded executor under the named scheduler and sync mode; ``None``
    if the method's prepared form exposes no plan to shard.

    Returns ``(x_dist, x_single)`` — the sharded solution and the *same*
    prepared plan's single-device solution.  The two must be bit-equal
    for *every* registered scheduler and sync mode: scheduling reorders
    only commuting segments, so any difference at all is a scheduler or
    tiling bug, not roundoff.
    """
    from repro.dist import DistributedPlan

    solver = SOLVERS[method](device=device)
    if is_lower_triangular(A):
        L, perm = A, None
    else:
        L, perm = upper_to_lower_mirror(A.sort_indices())
    prepared = solver.prepare(L)
    if not isinstance(prepared, PreparedSolve):
        return None
    dp = DistributedPlan.from_prepared(
        prepared, n_devices, scheduler=scheduler, sync=sync
    )
    b = np.asarray(b)
    w = b if perm is None else b[perm]
    if b.ndim == 1:
        x, _ = dp.solve(w)
        x1, _ = prepared.solve(w)
    else:
        x, _ = dp.solve_multi(w)
        x1, _ = prepared.solve_multi(w)
    if perm is not None:
        out, out1 = np.empty_like(x), np.empty_like(x1)
        out[perm], out1[perm] = x, x1
        x, x1 = out, out1
    return x, x1


def _fused_solve(
    case: "FuzzCase",
    A,
    b: np.ndarray,
    method: str,
    device: DeviceModel,
    ctol: float,
) -> list["FuzzFailure"]:
    """Run three values variants of ``A`` through a fresh service as one
    structurally-fused batch and cross-check every result.

    Two contracts: each fused result matches the serial oracle for its
    variant within tolerance, and it is *bit-identical* to the same
    service's per-request solve of that variant.
    """
    from repro.serve.service import SolveRequest, SolveService

    rng = np.random.default_rng((case.seed ^ 0xFACADE) & 0xFFFFFFFF)
    variants = [A]
    for _ in range(2):
        factors = rng.uniform(0.5, 1.5, A.nnz).astype(A.data.dtype)
        variants.append(replace(
            A, data=(A.data * factors).astype(A.data.dtype), _validated=True
        ))
    failures: list[FuzzFailure] = []
    with SolveService(
        device=device, method=method, cache_capacity=4, max_workers=2
    ) as svc:
        for V in variants:  # warm: one overlay build per variant
            svc.solve(V, b)
        batch = svc.solve_batch([SolveRequest(A=V, b=b) for V in variants])
        for i, (V, res) in enumerate(zip(variants, batch)):
            x_ref = _reference_solve(V, b)
            agree, err = _compare(res.x, x_ref, ctol)
            if not agree:
                failures.append(FuzzFailure(
                    case=case, method=method, kind="mismatch", via="fused",
                    max_err=err,
                    message=(
                        f"fused batch result (variant {i}) deviates from "
                        f"the serial reference by {err:.3e}"
                    ),
                ))
            single = svc.solve(V, b)
            if not np.array_equal(np.asarray(res.x), np.asarray(single.x)):
                bit_err = float(np.max(np.abs(
                    np.asarray(res.x, dtype=np.float64)
                    - np.asarray(single.x, dtype=np.float64)
                )))
                failures.append(FuzzFailure(
                    case=case, method=method, kind="mismatch", via="fused",
                    max_err=bit_err,
                    message=(
                        f"fused batch result (variant {i}) is not "
                        "bit-identical to the per-request solve "
                        f"(max diff {bit_err:.3e})"
                    ),
                ))
    return failures


def _mutated_solve(
    case: "FuzzCase",
    A,
    b: np.ndarray,
    method: str,
    device: DeviceModel,
    ctol: float,
    service_cls=None,
) -> list["FuzzFailure"]:
    """Mutate the caller's matrix after admission, then check that
    request and a later equal-content clean one against the oracle.

    The mutated request goes through each single-request front door in
    turn — ``submit`` (solved on the pool) and ``solve`` (solved on the
    calling thread) — each on a fresh service.  The mutation doubles the
    caller's values from inside the cold build — after the request was
    admitted and digested, before its values are bound — the
    deterministic form of a caller reusing its buffer while the request
    is in flight.  A service that solves the bytes it digested answers
    both requests for the original values; one that binds the caller's
    live array caches the doubled values under the original digest and
    answers both wrongly.
    """
    from repro.serve.service import SolveService
    from repro.validate.faults import FaultInjector

    class _MutateAfterAdmission(FaultInjector):
        def __init__(self, caller) -> None:
            super().__init__()
            self.caller = caller

        def before_build(self, method_name: str) -> None:
            super().before_build(method_name)
            if self.builds_seen == 1:
                self.caller.data *= 2

    clean = A.copy()
    x_ref = _reference_solve(clean, b)
    failures: list[FuzzFailure] = []
    for door in ("submit", "solve"):
        caller = A.copy()
        with (service_cls or SolveService)(
            device=device, method=method, cache_capacity=4, max_workers=2,
            fault_injector=_MutateAfterAdmission(caller),
        ) as svc:
            if door == "submit":
                first = svc.submit(caller, b).result()[0]
            else:
                first = svc.solve(caller, b)
            later = svc.solve(clean, b)
        for label, res in ((f"the mutated {door} request", first),
                           (f"a later clean request (after {door})", later)):
            agree, err = _compare(res.x, x_ref, ctol)
            if not agree:
                failures.append(FuzzFailure(
                    case=case, method=method, kind="mismatch",
                    via="mutated", max_err=err,
                    message=(
                        f"{label} deviates from the serial reference by "
                        f"{err:.3e} after the caller's values changed "
                        "post-admission"
                    ),
                ))
    return failures


def _store_solve(
    case: "FuzzCase",
    A,
    b: np.ndarray,
    method: str,
    device: DeviceModel,
    ctol: float,
) -> list["FuzzFailure"]:
    """Persist the case through a store-backed service, then answer it
    from a fresh service on the same directory.

    The fresh service gets the same request, a values variant and a
    3-column right-hand side, on 1 or 3 devices (by the case seed).  It
    must load the pattern instead of planning (zero pattern builds, one
    store hit), answer the writer's values bit for bit like the writer,
    and agree with the serial oracle on all three.
    """
    import tempfile

    from repro.serve.service import ServiceConfig, SolveService

    n_devices = (1, 3)[case.seed % 2]
    rng = np.random.default_rng((case.seed ^ 0x5707E) & 0xFFFFFFFF)
    V = replace(A, data=(A.data * rng.uniform(0.5, 1.5, A.nnz)).astype(
        A.data.dtype), _validated=True)
    B = (rng.standard_normal((A.n_rows, 3)) * 2.0).astype(b.dtype)
    tag = f"{n_devices} device(s)"
    failures: list[FuzzFailure] = []

    def fail(message: str, err: float | None = None) -> None:
        failures.append(FuzzFailure(
            case=case, method=method, kind="mismatch", via="store",
            max_err=err, message=f"{message} ({tag})",
        ))

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as path:
        cfg = ServiceConfig(device=device, method=method, max_workers=1,
                            n_devices=n_devices, store_path=path)
        with SolveService(cfg) as writer:
            x_writer = np.asarray(writer.solve(A, b).x)
        with SolveService(cfg) as loader:
            answers = [(A, b, np.asarray(loader.solve(A, b).x)),
                       (V, b, np.asarray(loader.solve(V, b).x)),
                       (A, B, np.asarray(loader.solve(A, B).x))]
        stats = loader.stats()
    if stats.pattern_builds or stats.store.hits != 1:
        fail(f"the fresh service built {stats.pattern_builds} pattern(s) "
             f"with {stats.store.hits} store hit(s), not 0 and 1")
    if not np.array_equal(answers[0][2], x_writer):
        err = float(np.max(np.abs(
            answers[0][2].astype(np.float64) - x_writer.astype(np.float64)
        )))
        fail("the loaded pattern's answer is not bit-identical to the "
             f"writer's (max diff {err:.3e})", err)
    for label, (M, rhs, x) in zip(
        ("the writer's values", "a values variant", "a 3-column RHS"),
        answers,
    ):
        agree, err = _compare(x, _reference_solve(M, rhs), ctol)
        if not agree:
            fail(f"the loaded pattern's answer to {label} deviates from "
                 f"the serial reference by {err:.3e}", err)
    return failures


def _compare(x, x_ref: np.ndarray, tol: float) -> tuple[bool, float]:
    x = np.asarray(x, dtype=np.float64)
    err = float(np.max(np.abs(x - x_ref))) if x_ref.size else 0.0
    scale = max(1.0, float(np.max(np.abs(x_ref))) if x_ref.size else 0.0)
    return err <= tol * scale, err


def _case_tol(case: FuzzCase, tol: float) -> float:
    # float32 right-hand sides run some paths in single precision.
    if np.dtype(case.b_dtype).kind == "f" and np.dtype(case.b_dtype).itemsize < 8:
        return max(tol, 5e-3)
    return tol


def run_case(
    case: FuzzCase,
    methods: list[str],
    device: DeviceModel = TITAN_RTX_SCALED,
    tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    service=None,
    service_method: str | None = None,
    check_invariants: bool = True,
    check_compiled: bool = True,
    compiled_method: str | None = None,
    check_dist: bool = True,
    dist_method: str | None = None,
    check_fused: bool = True,
    fused_method: str | None = None,
    check_mutation: bool = True,
    mutation_method: str | None = None,
    mutation_service=None,
    check_store: bool = True,
    store_method: str | None = None,
) -> list[FuzzFailure]:
    """Differentially test one case; returns the (possibly empty) failures.

    ``service``, when given, must be a :class:`repro.serve.SolveService`;
    the case is additionally routed through ``service.solve`` with
    ``service_method`` to exercise the caching/batching front end.

    ``check_compiled`` additionally runs the case through the
    :class:`~repro.core.executor.CompiledPlan` zero-allocation executor
    (with ``compiled_method``, default the first method) and checks the
    result against the oracle plus the work-dtype contract: float32 RHS
    stay float32, integer RHS promote to float64.

    ``check_dist`` additionally runs the case through the sharded
    :class:`repro.dist.DistributedPlan` executor on ``2 + seed % 3``
    simulated devices (with ``dist_method``, default the first method)
    under the case's sampled ``scheduler``/``sync`` axis, checking the
    result against the oracle *and* — bit for bit — against the same
    prepared plan's single-device solution.

    ``check_fused`` additionally runs three values variants of the case
    through a fresh :class:`SolveService` as one structurally-fused
    batch (with ``fused_method``, default the first method), checking
    each fused result against the oracle and — bit for bit — against
    the same service's per-request solve.

    ``check_mutation`` additionally sends the case through ``submit``
    and through ``solve`` of a fresh service each
    (``mutation_service``, default :class:`SolveService`, with
    ``mutation_method``, default the first method), doubles the caller's
    values after admission, and checks that request and a later clean
    copy against the oracle (see :func:`_mutated_solve`).

    ``check_store`` additionally persists the case through a
    store-backed service (with ``store_method``, default the first
    method) and answers it, a values variant and a 3-column RHS from a
    fresh service that loads the entry (see :func:`_store_solve`).
    """
    A, b = case.build()
    x_ref = _reference_solve(A, b)
    ctol = _case_tol(case, tol)
    failures: list[FuzzFailure] = []
    for method in methods:
        try:
            x = _method_solve(
                A, b, method, device, check_invariants=check_invariants
            )
        except ValidationError as exc:
            failures.append(FuzzFailure(
                case=case, method=method, kind="invariant",
                message=f"{exc} (kind={exc.kind})",
            ))
            continue
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            failures.append(FuzzFailure(
                case=case, method=method, kind="exception",
                message=f"{type(exc).__name__}: {exc}",
            ))
            continue
        agree, err = _compare(x, x_ref, ctol)
        if not agree:
            failures.append(FuzzFailure(
                case=case, method=method, kind="mismatch", max_err=err,
                message=f"solution deviates from the serial reference by {err:.3e}",
            ))
    if check_compiled and methods:
        cmethod = compiled_method or methods[0]
        try:
            x = _compiled_solve(A, b, cmethod, device)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            failures.append(FuzzFailure(
                case=case, method=cmethod, kind="exception", via="compiled",
                message=f"{type(exc).__name__}: {exc}",
            ))
        else:
            if x is not None:
                x, disagree = x
                if disagree:
                    failures.append(FuzzFailure(
                        case=case, method=cmethod, kind="engine-rule",
                        via="compiled",
                        message=(
                            f"steps {disagree}: the engine rule and the "
                            "accuracy probe disagree on whether the "
                            f"SuperLU engine serves a {case.b_dtype} RHS"
                        ),
                    ))
                agree, err = _compare(x, x_ref, ctol)
                if not agree:
                    failures.append(FuzzFailure(
                        case=case, method=cmethod, kind="mismatch",
                        via="compiled", max_err=err,
                        message=(
                            "compiled executor deviates from the serial "
                            f"reference by {err:.3e}"
                        ),
                    ))
                expected = solve_dtype(np.dtype(case.b_dtype))
                if x.dtype != expected:
                    failures.append(FuzzFailure(
                        case=case, method=cmethod, kind="dtype",
                        via="compiled",
                        message=(
                            f"compiled executor returned dtype {x.dtype}, "
                            f"expected {expected} for a {case.b_dtype} RHS"
                        ),
                    ))
    if check_dist and methods:
        dmethod = dist_method or methods[0]
        n_devices = 2 + case.seed % 3
        dist_tag = (
            f"{n_devices} devices, {case.scheduler}, {case.sync} sync"
        )
        try:
            pair = _dist_solve(
                A, b, dmethod, device, n_devices,
                scheduler=case.scheduler, sync=case.sync,
            )
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            failures.append(FuzzFailure(
                case=case, method=dmethod, kind="exception", via="dist",
                message=f"{type(exc).__name__}: {exc} ({dist_tag})",
            ))
        else:
            if pair is not None:
                x, x_single = pair
                agree, err = _compare(x, x_ref, ctol)
                if not agree:
                    failures.append(FuzzFailure(
                        case=case, method=dmethod, kind="mismatch",
                        via="dist", max_err=err,
                        message=(
                            f"sharded solve ({dist_tag}) deviates "
                            f"from the serial reference by {err:.3e}"
                        ),
                    ))
                if not np.array_equal(x, x_single):
                    bit_err = float(np.max(np.abs(
                        np.asarray(x, dtype=np.float64)
                        - np.asarray(x_single, dtype=np.float64)
                    )))
                    failures.append(FuzzFailure(
                        case=case, method=dmethod, kind="mismatch",
                        via="dist", max_err=bit_err,
                        message=(
                            f"sharded solve ({dist_tag}) is not "
                            "bit-identical to the single-device path "
                            f"(max diff {bit_err:.3e})"
                        ),
                    ))
    if check_fused and methods:
        fmethod = fused_method or methods[0]
        try:
            failures.extend(_fused_solve(case, A, b, fmethod, device, ctol))
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            failures.append(FuzzFailure(
                case=case, method=fmethod, kind="exception", via="fused",
                message=f"{type(exc).__name__}: {exc}",
            ))
    if check_mutation and methods:
        mmethod = mutation_method or methods[0]
        try:
            failures.extend(_mutated_solve(
                case, A, b, mmethod, device, ctol, mutation_service
            ))
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            failures.append(FuzzFailure(
                case=case, method=mmethod, kind="exception", via="mutated",
                message=f"{type(exc).__name__}: {exc}",
            ))
    if check_store and methods:
        stmethod = store_method or methods[0]
        try:
            failures.extend(_store_solve(case, A, b, stmethod, device, ctol))
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            failures.append(FuzzFailure(
                case=case, method=stmethod, kind="exception", via="store",
                message=f"{type(exc).__name__}: {exc}",
            ))
    if service is not None:
        smethod = service_method or methods[0]
        try:
            result = service.solve(A, b, method=smethod)
        except Exception as exc:  # noqa: BLE001
            failures.append(FuzzFailure(
                case=case, method=smethod, kind="exception", via="service",
                message=f"{type(exc).__name__}: {exc}",
            ))
        else:
            x = result.x if case.n_rhs == 1 else np.asarray(result.x)
            agree, err = _compare(x, x_ref, ctol)
            if not agree:
                failures.append(FuzzFailure(
                    case=case, method=smethod, kind="mismatch", via="service",
                    max_err=err,
                    message=(
                        "service solution deviates from the serial "
                        f"reference by {err:.3e}"
                        + (" (fallback)" if result.fallback else "")
                    ),
                ))
    return failures


def minimize_failure(
    failure: FuzzFailure,
    device: DeviceModel = TITAN_RTX_SCALED,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> FuzzCase:
    """Shrink a failing case while it keeps failing for the same method.

    Greedily keeps every simplification that still reproduces: drop the
    multi-RHS block, drop the upper mirror, normalize the RHS dtype,
    then halve the system size down to 8 rows.  Only direct failures
    are minimized (service failures depend on service state).
    """

    def still_fails(candidate: FuzzCase) -> bool:
        try:
            return bool(run_case(
                candidate, [failure.method], device, tol, service=None,
                check_compiled=(failure.via == "compiled"),
                check_dist=(failure.via == "dist"),
                check_fused=(failure.via == "fused"),
                check_mutation=(failure.via == "mutated"),
                check_store=(failure.via == "store"),
            ))
        except Exception:  # noqa: BLE001 - a crash still reproduces a bug
            return True

    best = failure.case
    # Greedy: keep each simplification that still reproduces the failure.
    for fields in ({"n_rhs": 1}, {"upper": False}, {"b_dtype": "float64"}):
        candidate = replace(best, **fields)
        if candidate != best and still_fails(candidate):
            best = candidate
    while best.size > 8:
        candidate = replace(best, size=max(8, best.size // 2))
        if still_fails(candidate):
            best = candidate
        else:
            break
    return best


def run_fuzz(
    rounds: int = 50,
    seed: int = 0,
    *,
    methods: list[str] | None = None,
    families: list[str] | None = None,
    base_size: int = 140,
    tol: float = DEFAULT_RESIDUAL_TOL,
    include_service: bool = True,
    device: DeviceModel = TITAN_RTX_SCALED,
    minimize: bool = True,
    max_failures: int = 10,
    log=None,
) -> FuzzReport:
    """Differentially fuzz every method (and the service path).

    Parameters
    ----------
    rounds:
        Number of random systems to generate.
    seed:
        Master seed; the whole run is a pure function of
        ``(rounds, seed, methods, families, base_size)``.
    methods:
        Method names to test (default: :func:`repro.available_methods`).
    families:
        Generator family names (default: all of :data:`FAMILIES`).
    base_size:
        Upper bound on the sampled system size.
    include_service:
        Also route each case through a :class:`SolveService` with
        ``check=True`` (plan + residual invariants on).
    minimize:
        Shrink failing cases before reporting.
    max_failures:
        Stop fuzzing early after this many failures.
    log:
        Optional callable taking progress strings.
    """
    t0 = monotonic()
    methods = list(methods) if methods is not None else available_methods()
    families = list(families) if families is not None else list(FAMILIES)
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown families {unknown}; choose from {sorted(FAMILIES)}"
        )
    missing = [m for m in methods if m not in SOLVERS]
    if missing:
        raise ValueError(
            f"unknown methods {missing}; choose from {sorted(SOLVERS)}"
        )
    report = FuzzReport(
        rounds=rounds, seed=seed, methods=methods, families=families
    )
    service = None
    if include_service:
        from repro.serve.service import SolveService

        service = SolveService(
            device=device, cache_capacity=8, max_workers=2, check=True
        )
    try:
        for r in range(rounds):
            case = sample_case(seed, r, families, base_size)
            report.n_cases += 1
            report.n_checks += len(methods) + (1 if service else 0) + 6
            failures = run_case(
                case,
                methods,
                device,
                tol,
                service=service,
                service_method=methods[r % len(methods)],
                compiled_method=methods[r % len(methods)],
                dist_method=methods[r % len(methods)],
                fused_method=methods[r % len(methods)],
                mutation_method=methods[r % len(methods)],
                store_method=methods[r % len(methods)],
            )
            if failures and log:
                log(f"round {r}: {len(failures)} failure(s) on {case.token()}")
            report.failures.extend(failures)
            if len(report.failures) >= max_failures:
                if log:
                    log(f"stopping early after {len(report.failures)} failures")
                break
    finally:
        if service is not None:
            service.close()
    if minimize:
        for f in report.failures:
            # Direct, compiled, dist, fused, mutated and store failures
            # are pure functions of the case (fused, mutated and store
            # use fresh services per check); shared-service failures
            # depend on service state.
            if f.via in ("direct", "compiled", "dist", "fused", "mutated",
                         "store"):
                f.minimized = minimize_failure(f, device, tol)
    report.elapsed_s = monotonic() - t0
    return report


# --------------------------------------------------------------------- #
# Deliberately broken solver (harness self-test)
# --------------------------------------------------------------------- #
BROKEN_METHOD = "broken-sign-flip"


class _SignFlippedPrepared(PreparedSolve):
    """A prepared solve whose answers are negated — every case must fail."""

    def solve(self, b):
        x, rep = self.plan.solve(b, self.device)
        return -x, rep

    def solve_multi(self, B, *, fused=True):
        B = np.asarray(B)
        if B.ndim == 1:
            return self.solve(B)
        X, rep = self.plan.solve_multi(B, self.device)
        return -X, rep


class BrokenSignFlipSolver(LevelSetSolver):
    """Level-set solver with a sign flip: the fuzzer's canary."""

    method = BROKEN_METHOD

    def _prepare(self, L):
        ps = super()._prepare(L)
        return _SignFlippedPrepared(
            method=self.method,
            plan=ps.plan,
            device=ps.device,
            preprocess_report=ps.preprocess_report,
        )


@contextmanager
def broken_solver(name: str = BROKEN_METHOD):
    """Temporarily register the sign-flipped solver under ``name``."""
    register_solver(name, BrokenSignFlipSolver)
    try:
        yield name
    finally:
        unregister_solver(name)


# --------------------------------------------------------------------- #
# A service that binds the caller's live values (mutation arm self-test)
# --------------------------------------------------------------------- #
def _live_bind_service():
    """A :class:`SolveService` that digests each request's admission
    snapshot but binds the caller's live arrays — the digest-then-bind
    race that snapshotting at admission closes."""
    from repro.serve.service import SolveService

    class LiveBindService(SolveService):
        def submit(self, A, b, **kwargs):
            self._live = A
            return super().submit(A, b, **kwargs)

        def solve(self, A, b, **kwargs):
            self._live = A
            return super().solve(A, b, **kwargs)

        def _build_overlay(self, pattern, A, **kwargs):
            return super()._build_overlay(pattern, self._live, **kwargs)

    return LiveBindService


def _arm_self_test(rounds: int, seed: int, method: str, families,
                   base_size: int, tol: float, device: DeviceModel,
                   case_fields: dict, **arms) -> FuzzReport:
    """Run ``rounds`` sampled cases (with ``case_fields`` replaced)
    through ``method`` and the ``run_case`` arms ``arms`` select."""
    t0 = monotonic()
    families = list(families) if families is not None else list(FAMILIES)
    report = FuzzReport(
        rounds=rounds, seed=seed, methods=[method], families=families
    )
    for r in range(rounds):
        case = replace(sample_case(seed, r, families, base_size),
                       **case_fields)
        report.n_cases += 1
        report.n_checks += 1
        report.failures.extend(run_case(case, [method], device, tol, **arms))
    report.elapsed_s = monotonic() - t0
    return report


def mutation_self_test(
    rounds: int = 3,
    seed: int = 0,
    *,
    method: str = "levelset",
    families: list[str] | None = None,
    base_size: int = 140,
    tol: float = DEFAULT_RESIDUAL_TOL,
    device: DeviceModel = TITAN_RTX_SCALED,
) -> FuzzReport:
    """Run only the mutated-after-admission arm against a service that binds
    the caller's live values; a harness that can catch the race reports
    failures here (``repro fuzz --self-test`` requires it)."""
    return _arm_self_test(
        rounds, seed, method, families, base_size, tol, device, {},
        check_compiled=False, check_dist=False, check_fused=False,
        check_store=False, mutation_service=_live_bind_service(),
    )


# --------------------------------------------------------------------- #
# A rule that also trusts single precision (engine-rule self-test)
# --------------------------------------------------------------------- #
@contextmanager
def single_precision_engines():
    """Temporarily let SuperLU engines serve float32 values and work
    buffers too, which the accuracy probe rejects: a wrong engine rule
    the compiled arm's engine-rule check must catch."""
    from repro.core import executor

    real = executor.ENGINE_DTYPES
    executor.ENGINE_DTYPES = real + (np.dtype(np.float32),)
    try:
        yield
    finally:
        executor.ENGINE_DTYPES = real


def engine_rule_self_test(
    rounds: int = 3,
    seed: int = 0,
    *,
    method: str = "levelset",
    families: list[str] | None = None,
    base_size: int = 140,
    tol: float = DEFAULT_RESIDUAL_TOL,
    device: DeviceModel = TITAN_RTX_SCALED,
) -> FuzzReport:
    """Run only the compiled arm, on float32 right-hand sides, under
    :func:`single_precision_engines`; a harness that holds the engine
    rule to the accuracy probe reports (minimized) failures here
    (``repro fuzz --self-test`` requires it)."""
    with single_precision_engines():
        report = _arm_self_test(
            rounds, seed, method, families, base_size, tol, device,
            {"b_dtype": "float32"}, check_dist=False, check_fused=False,
            check_mutation=False, check_store=False,
        )
        for f in report.failures:
            f.minimized = minimize_failure(f, device, tol)
    return report
