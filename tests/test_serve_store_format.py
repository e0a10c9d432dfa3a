"""Format-5 plan-store entries: crafted entries are misses, nothing is
unpickled, and a loaded pattern derives its kernel-path state lazily.

An entry holds the executor's arrays (engine layouts, composed gathers,
position maps) and JSON decisions.  The loader checks every array
against the request's own structure, so an entry with a valid checksum
but wrong contents is a counted miss answered by a cold build, bit for
bit.  A loaded triangular step derives its kernel's auxiliary data from
the stored arrays only when an overlay first needs the kernel path.
"""

from __future__ import annotations

import ast
import json
import pickle
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import random_lower
from repro.core.plan import TriSegment
from repro.formats.csr import CSRMatrix
from repro.matrices.suite import scaled_suite
from repro.serve import ServiceConfig, SolveService
from repro.serve.store import MAGIC, decode_entry, encode_entry, read_header
from repro.serve.workload import mixed_workload

#: fields encode_entry fills in itself
_AUTO = ("format_version", "library_version", "payload_bytes",
         "payload_crc32", "decisions_bytes")


def _solve(cfg: ServiceConfig, mats, B=None):
    """Each matrix solved by a fresh service, stats read after close (so
    the store's writes have landed)."""
    with SolveService(cfg) as svc:
        xs = [np.asarray(svc.solve(A, np.ones(A.n_rows) if B is None
                                   else B(A)).x) for A in mats]
    return xs, svc.stats(), svc


def _patterns(svc) -> list:
    return list(svc.cache._entries.values())


def _recraft(entry: Path, mutate) -> None:
    """Rewrite an entry's decisions and arrays with a valid checksum."""
    header, decisions, arrays = decode_entry(entry.read_bytes())
    decisions = json.loads(json.dumps(decisions))
    arrays = {k: np.array(v) for k, v in arrays.items()}
    mutate(decisions, arrays)
    header = {k: v for k, v in header.items() if k not in _AUTO}
    entry.write_bytes(encode_entry(header, decisions, arrays))


def _reframe(entry: Path, mutate_table) -> None:
    """Rewrite an entry's array table, re-checksummed."""
    blob = entry.read_bytes()
    header = read_header(blob)
    hlen = struct.unpack_from("<I", blob, len(MAGIC))[0]
    payload = blob[len(MAGIC) + 4 + hlen:]
    base = header["decisions_bytes"]
    body = json.loads(payload[:base])
    mutate_table(body["arrays"])
    block = json.dumps(body).encode()
    assert len(block) <= base
    payload = block + b" " * (base - len(block)) + payload[base:]
    header["payload_crc32"] = zlib.crc32(payload)
    hj = json.dumps(header).encode()
    hj += b" " * (hlen - len(hj))
    entry.write_bytes(MAGIC + struct.pack("<I", hlen) + hj + payload)


class TestCraftedEntries:
    """An entry with a valid checksum whose arrays or decisions do not
    describe the request is a counted miss: quarantined, and answered by
    a cold build bit for bit like the writer's."""

    @pytest.fixture(params=[1, 3], ids=["1dev", "3dev"])
    def warm(self, request, tmp_path):
        L = random_lower(300, density=0.03, seed=3)
        cfg = ServiceConfig(store_path=str(tmp_path), n_devices=request.param,
                            solver_options={"depth": 2})
        xs, stats, svc = _solve(cfg, [L])
        assert stats.store.writes == 1
        plan = _patterns(svc)[0].template.plan
        assert plan.perm is not None
        assert plan.n_tri_segments > 1 and plan.n_spmv_segments > 0
        (entry,) = tmp_path.glob("*.plan")
        return cfg, L, xs, entry

    def _assert_counted_miss(self, cfg, L, xs, entry):
        got, stats, _ = _solve(cfg, [L])
        assert stats.store.corrupt == 1 and stats.store.hits == 0
        assert stats.pattern_builds == 1 and stats.failed == 0
        assert np.array_equal(got[0], xs[0])
        decode_entry(entry.read_bytes())  # rebuilt and rewritten clean

    @staticmethod
    def _tri(decisions) -> list:
        return [i for i, s in enumerate(decisions["segments"]) if "tri" in s]

    @staticmethod
    def _spmv(decisions) -> list:
        return [i for i, s in enumerate(decisions["segments"])
                if "spmv" in s]

    def test_intact_entry_loads(self, warm):
        cfg, L, xs, entry = warm
        got, stats, _ = _solve(cfg, [L])
        assert stats.store.hits == 1 and stats.pattern_builds == 0
        assert np.array_equal(got[0], xs[0])

    def test_two_gather_entries_swapped(self, warm):
        def mutate(d, a):
            pos = a[f"{self._tri(d)[-1]}.pos"]
            pos[[3, 4]] = pos[[4, 3]]

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    def test_gather_index_out_of_range(self, warm):
        cfg, L, xs, entry = warm

        def mutate(d, a):
            a[f"{self._tri(d)[0]}.pos"][0] = L.nnz

        _recraft(entry, mutate)
        self._assert_counted_miss(*warm)

    def test_permutation_with_an_entry_above_the_diagonal(self, warm):
        def mutate(d, a):
            perm = a["perm"]
            perm[[0, -1]] = perm[[-1, 0]]

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    def test_segments_that_do_not_tile(self, warm):
        def mutate(d, a):
            d["segments"][self._tri(d)[0]]["tri"][0] += 1

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    def test_spmv_map_outside_its_block(self, warm):
        def mutate(d, a):
            # trade an SpMV entry for a triangular one: still every
            # position once, but each sits in the other's block
            spmv = a[f"{self._spmv(d)[0]}.pos"]
            tri = a[f"{self._tri(d)[-1]}.pos"]
            spmv[0], tri[-1] = tri[-1], spmv[0]

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    def test_unknown_kernel_name(self, warm):
        def mutate(d, a):
            d["segments"][0]["kernel"] = "no-such-kernel"

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    def test_diagonal_kernel_on_a_full_block(self, warm):
        def mutate(d, a):
            seg = max(self._tri(d), key=lambda i: d["segments"][i]["nnz"])
            d["segments"][seg]["kernel"] = "diagonal"

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    def test_schedule_order_not_topological(self, warm):
        cfg = warm[0]
        if cfg.n_devices == 1:
            pytest.skip("a single-device entry holds no schedule")

        def mutate(d, a):
            d["placement"]["order"].reverse()

        _recraft(warm[3], mutate)
        self._assert_counted_miss(*warm)

    @pytest.mark.parametrize("how", ["offset", "shape", "negative"])
    def test_array_table_overruns_the_payload(self, warm, how):
        def mutate(table):
            name = max(table, key=lambda k: np.prod(table[k][2]))
            if how == "offset":
                table[name][0] += 1 << 20
            elif how == "shape":
                table[name][2] = [table[name][2][0] * 1000]
            else:
                table[name][2] = [-1]

        _reframe(warm[3], mutate)
        self._assert_counted_miss(*warm)


def test_a_pattern_that_repeats_an_entry_is_not_stored(tmp_path):
    """A row that stores one column twice has no sorted CSC layout a
    loader would accept: the writer counts the pattern skipped instead
    of writing an entry every build that every load then refuses."""
    L = random_lower(60, density=0.1, seed=1)
    r, lo = 30, int(L.indptr[30])
    indptr = L.indptr.copy()
    indptr[r + 1:] += 1
    D = CSRMatrix(60, 60, indptr, np.insert(L.indices, lo, L.indices[lo]),
                  np.insert(L.data, lo, 0.25))
    cfg = ServiceConfig(store_path=str(tmp_path))
    for _ in range(2):
        (x,), stats, _ = _solve(cfg, [D])
        assert stats.store.skipped == 1 and stats.store.writes == 0
        assert stats.store.corrupt == 0
        assert np.abs(D.matvec(x) - 1.0).max() < 1e-10
    assert not list(tmp_path.glob("*.plan"))


class TestNoPickle:
    def test_store_module_imports_no_pickle(self):
        import repro.serve.store as store

        tree = ast.parse(Path(store.__file__).read_text())
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert "pickle" not in imported

    def test_a_load_unpickles_nothing(self, tmp_path, monkeypatch):
        L = random_lower(200, density=0.04, seed=4)
        cfg = ServiceConfig(store_path=str(tmp_path))
        xs, _, _ = _solve(cfg, [L])

        def refuse(*args, **kwargs):
            raise AssertionError("the store unpickled something")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        got, stats, _ = _solve(cfg, [L])
        assert stats.store.hits == 1 and stats.pattern_builds == 0
        assert np.array_equal(got[0], xs[0])


def _poisoned(A):
    """``A`` with a NaN in its factor's tail: the writer's engine
    accuracy check rejects those values."""
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
    tail = (A.indices < rows) & (rows >= A.n_rows - A.n_rows // 10)
    P = A.copy()
    P.data[np.flatnonzero(tail)[0]] = np.nan
    return P


def _tri_aux(svc) -> list:
    return [seg.aux for p in _patterns(svc) for seg in p.template.plan.segments
            if isinstance(seg, TriSegment)]


class TestLazyKernelPath:
    """A loaded triangular step derives its kernel-path state (the
    tracer factor, its kernel's aux, the kernel-path binder) only when
    something needs it; every answer equals the writer's bit for bit."""

    @pytest.fixture
    def workload(self):
        return list(mixed_workload(6, scale=0.05, n_matrices=6,
                                   seed=42).matrices.values())

    def test_serving_the_writers_values_derives_nothing(self, tmp_path,
                                                       workload):
        cfg = ServiceConfig(store_path=str(tmp_path))
        xs, _, _ = _solve(cfg, workload)
        got, stats, svc = _solve(cfg, workload)
        assert stats.store.hits == len(workload)
        assert stats.pattern_builds == 0
        assert all(np.array_equal(a, b) for a, b in zip(xs, got))
        steps = [s for p in _patterns(svc) for s in p.template.compile()._steps]
        assert steps and all(s.try_engine for s in steps)
        assert all(aux is None for aux in _tri_aux(svc))

    def test_a_rejected_engine_derives(self, tmp_path, workload):
        P = _poisoned(workload[2])
        cfg = ServiceConfig(store_path=str(tmp_path))
        xs, _, _ = _solve(cfg, [P])
        got, stats, svc = _solve(cfg, [P])
        assert stats.store.hits == 1 and stats.pattern_builds == 0
        assert np.array_equal(got[0], xs[0], equal_nan=True)
        assert all(aux is not None for aux in _tri_aux(svc))

    def test_check_true_derives(self, tmp_path, workload):
        A = workload[3]
        xs, _, _ = _solve(ServiceConfig(store_path=str(tmp_path)), [A])
        got, stats, svc = _solve(
            ServiceConfig(store_path=str(tmp_path), check=True), [A]
        )
        assert stats.store.hits == 1 and stats.pattern_builds == 0
        assert np.array_equal(got[0], xs[0])
        assert all(aux is not None for aux in _tri_aux(svc))

    def test_a_first_three_column_solve_derives(self, tmp_path, workload):
        A = workload[1]
        rng = np.random.default_rng(5)
        B = rng.standard_normal((A.n_rows, 3))
        cfg = ServiceConfig(store_path=str(tmp_path))
        with SolveService(cfg) as writer:
            x1 = np.asarray(writer.solve(A, B[:, 0]).x)
            X = np.asarray(writer.solve(A, B).x)
        got, stats, svc = _solve(cfg, [A], B=lambda _: B[:, 0])
        assert np.array_equal(got[0], x1)
        assert all(aux is None for aux in _tri_aux(svc))
        with SolveService(cfg) as svc:
            Y = np.asarray(svc.solve(A, B).x)
            assert all(aux is not None for aux in _tri_aux(svc))
            assert svc.stats().pattern_builds == 0
        assert np.array_equal(X, Y)

    def test_derived_state_equals_the_writers(self, tmp_path):
        L = random_lower(300, density=0.03, seed=3)
        cfg = ServiceConfig(store_path=str(tmp_path), check=True,
                            solver_options={"depth": 2})
        with SolveService(cfg) as writer:
            writer.solve(L, np.ones(L.n_rows))
            (built,) = _patterns(writer)
        with SolveService(cfg) as loader:
            loader.solve(L, np.ones(L.n_rows))
            (loaded,) = _patterns(loader)
        pairs = [
            (a.aux, b.aux)
            for a, b in zip(built.template.plan.segments,
                            loaded.template.plan.segments)
            if isinstance(a, TriSegment)
        ]
        assert pairs
        for want, got in pairs:
            assert type(got) is type(want)
            sched = getattr(want, "sched", None)
            if sched is not None:
                for name in ("levels", "level_ptr", "items", "entry_ptr",
                             "entry_cols", "entry_vals", "entry_local_row"):
                    w, g = getattr(sched, name), getattr(got.sched, name)
                    assert g.dtype == w.dtype and np.array_equal(g, w)
                want, got = sched.prep, got.sched.prep
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.L, name),
                                      getattr(want.L, name))
            assert np.array_equal(got.diag, want.diag)

    def test_upper_triangular_bit_identity(self, tmp_path):
        L = random_lower(250, density=0.04, seed=12)
        U = L.transpose().sort_indices()
        cfg = ServiceConfig(store_path=str(tmp_path))
        xs, _, _ = _solve(cfg, [U, _poisoned_upper(U)])
        got, stats, _ = _solve(cfg, [U, _poisoned_upper(U)])
        assert stats.pattern_builds == 0 and stats.store.hits == 1
        for a, b in zip(xs, got):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("n_devices", [1, 4])
    def test_kkt_wide_b_bit_identity(self, tmp_path, n_devices):
        spec = {s.name: s for s in scaled_suite(scale=0.5)}["kkt_wide_b"]
        A = spec.build()
        rng = np.random.default_rng(7)
        B = rng.standard_normal((A.n_rows, 3))
        cfg = ServiceConfig(store_path=str(tmp_path), n_devices=n_devices)
        with SolveService(cfg) as writer:
            want = [np.asarray(writer.solve(A, b).x) for b in (B[:, 0], B)]
            (built,) = _patterns(writer)
        plan = built.template.plan
        assert (plan.n_tri_segments, plan.n_spmv_segments) == (16, 7)
        with SolveService(cfg) as loader:
            got = [np.asarray(loader.solve(A, b).x) for b in (B[:, 0], B)]
            stats = loader.stats()
        assert stats.pattern_builds == 0 and stats.store.hits == 1
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def _poisoned_upper(U):
    """An upper matrix's values variant with a NaN above its diagonal."""
    rows = np.repeat(np.arange(U.n_rows), np.diff(U.indptr))
    P = U.copy()
    P.data[np.flatnonzero(U.indices > rows)[0]] = np.nan
    return P
