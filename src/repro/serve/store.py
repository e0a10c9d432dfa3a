"""`PlanStore`: a disk-backed, versioned second-level tier for plans.

Table 5's economics say preprocessing costs ~5-10x one solve, which is
why :class:`~repro.serve.cache.PlanCache` amortizes it in memory — but a
process restart or a horizontal scale-out still pays the full analysis
again for every matrix the fleet already knows.  This module treats the
preprocessing output as a *persistent artifact* (the analysis-phase
reuse of Xie et al. 2020; the schedule-as-artifact framing of Böhnlein
et al. 2025): pattern-level plan state is stored under its structure
fingerprint, and a fresh service warms from disk instead of replanning.

An entry is data, never objects: one JSON block of decisions plus named
arrays.  File format 6 (one entry per file, named
``<blake2b(key)>.plan``)::

    MAGIC "RPS1" | u32 header length | header JSON | payload
    payload = decisions JSON | arrays, each at a 64-byte boundary

The header JSON is padded with spaces to a 64-byte boundary and carries
everything needed to judge an entry without reading its payload: the
format version, the library version that wrote it, the structure
fingerprint, method, dtype, device, the payload's byte length and
``zlib.crc32``, and the length of the decisions block.  The
decisions block names each array with its offset (from the end of the
block), dtype and shape.  A load reads the file into one buffer, checks
the CRC32 over the whole payload (decisions, padding and array bytes),
parses the JSON and makes every array a read-only view of that buffer,
with no per-array copy.
Nothing is unpickled, so the checksum only has to catch damage: a
crafted entry can run no code, and the loader
(:class:`~repro.serve.service.SolveService`) checks every stored array
against the request's own structure before it builds anything on them.
Loads are strict about trust and forgiving about outcome: any truncation,
magic or checksum mismatch, undecodable header or decisions, array that
overruns the payload, or version/fingerprint disagreement is *counted*
and treated as a miss — the caller falls back to a cold build, never
sees an exception.

Writes are crash-safe (temp file + atomic rename within the store
directory) and, through :meth:`PlanStore.put`, encoded synchronously but
flushed to disk by a background writer thread so the building request
does not wait on the filesystem.

Entries of earlier formats (4 and before pickled their payload; 5 also
stored the first overlay's engine verdicts) load as counted mismatches,
are rebuilt, and ``repro store gc`` removes them as stale.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import queue
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, Mapping

import numpy as np

from repro.errors import ReproError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "StoreCorruptError",
    "StoreMismatchError",
    "StoreStats",
    "PlanStore",
    "encode_entry",
    "decode_entry",
    "read_header",
    "key_digest",
]

#: leading bytes of every store entry ("Repro Plan Store", format line 1)
MAGIC = b"RPS1"
#: bumped whenever the container layout or the entry schema changes;
#: old entries then load as clean misses, never as garbage plans
#: (4: SHA-256 digest keys and ``dtype.str`` value dtypes, a pickled
#: payload; 5: JSON decisions plus named arrays under one CRC32, the
#: executor's arrays instead of the planner's objects; 6: no verdicts)
FORMAT_VERSION = 6
#: array buffers start at multiples of this many bytes from the start of
#: the entry (the header JSON is padded with spaces to one)
_ALIGN = 64

_HEADER_MAX = 1 << 20  # 1 MiB of JSON header is already absurd


class StoreCorruptError(ReproError):
    """An entry's bytes are damaged: truncation, bad magic, undecodable
    header or decisions, an array outside the payload, or a payload
    checksum mismatch."""


class StoreMismatchError(ReproError):
    """An entry is intact but not trustworthy here: format/library
    version drift or a fingerprint that disagrees with the request."""


@dataclass(frozen=True)
class StoreStats:
    """Counter snapshot of one :class:`PlanStore`.

    ``corrupt`` counts damaged bytes, ``mismatched`` intact-but-stale
    entries (version or fingerprint drift); both families surfaced as
    misses to the caller.  ``skipped`` counts puts the store declined
    (non-persistable entries).
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    mismatched: int = 0
    skipped: int = 0
    write_errors: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "mismatched": self.mismatched,
            "skipped": self.skipped,
            "write_errors": self.write_errors,
        }


def key_digest(key: Hashable) -> str:
    """Stable hex digest of a cache key (a nested tuple of primitives).

    The structure/plan keys are built from str/bytes/int/bool/None
    tuples (see :func:`repro.serve.fingerprint.structure_key`), whose
    ``repr`` is deterministic across processes — unlike ``hash()``,
    which is salted per interpreter.
    """
    return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()


def _padded(blob: bytes, at: int) -> bytes:
    """``blob`` padded with spaces so that ``at + len`` is aligned."""
    return blob + b" " * (-(at + len(blob)) % _ALIGN)


def encode_entry(
    header: Mapping[str, Any],
    decisions: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
) -> bytes:
    """Serialize one store entry; fills in the version + checksum fields.

    ``header`` and ``decisions`` must be JSON-serializable; ``arrays``
    maps names to arrays.  The returned bytes are self-validating via
    :func:`decode_entry`.
    """
    from repro import __version__

    table = {}
    size = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        table[name] = [size, arr.dtype.str, list(arr.shape)]
        size += arr.nbytes + (-arr.nbytes % _ALIGN)
    block = json.dumps(
        {"decisions": decisions, "arrays": table}, sort_keys=True
    ).encode()
    block = _padded(block, 0)
    parts = [block]
    for arr in arrays.values():
        raw = np.ascontiguousarray(arr).tobytes()
        parts += [raw, bytes(-len(raw) % _ALIGN)]
    payload = b"".join(parts)
    full = dict(header)
    full["format_version"] = FORMAT_VERSION
    full["library_version"] = __version__
    full["payload_bytes"] = len(payload)
    full["payload_crc32"] = zlib.crc32(payload)
    full["decisions_bytes"] = len(block)
    hj = _padded(json.dumps(full, sort_keys=True).encode(), len(MAGIC) + 4)
    return b"".join([MAGIC, struct.pack("<I", len(hj)), hj, payload])


def read_header(data: bytes) -> dict:
    """The entry's header dict, validating container framing only.

    Cheap enough for ``ls``: the payload is not read, but the byte length
    declared in the header is checked so truncation is still caught.
    Raises :class:`StoreCorruptError` on any framing damage.
    """
    if len(data) < len(MAGIC) + 4:
        raise StoreCorruptError("entry truncated before header length")
    if data[: len(MAGIC)] != MAGIC:
        raise StoreCorruptError("bad magic bytes")
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    if hlen > _HEADER_MAX:
        raise StoreCorruptError(f"header length {hlen} exceeds sanity bound")
    start = len(MAGIC) + 4
    if len(data) < start + hlen:
        raise StoreCorruptError("entry truncated inside header")
    try:
        header = json.loads(str(data[start : start + hlen], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(f"undecodable header: {exc}") from None
    if not isinstance(header, dict):
        raise StoreCorruptError("header is not a JSON object")
    declared = header.get("payload_bytes")
    if not isinstance(declared, int) or declared < 0:
        raise StoreCorruptError("header missing payload byte count")
    if len(data) - start - hlen != declared:
        raise StoreCorruptError(
            f"payload truncated: {len(data) - start - hlen} bytes on disk, "
            f"{declared} declared"
        )
    return header


def decode_entry(
    data, *, expect: Mapping[str, Any] | None = None
) -> tuple[dict, Any, dict]:
    """``(header, decisions, arrays)`` of one entry, fully validated.

    ``data`` is any contiguous byte buffer.  Every array is a read-only
    view of it, which keeps it alive.

    Raises :class:`StoreCorruptError` for damaged bytes and
    :class:`StoreMismatchError` when the entry is intact but written by
    a different format/library version or, via ``expect``, keyed to a
    different fingerprint/method/dtype than the caller wants.  Version
    and ``expect`` checks run before the payload is read: a stale
    entry's schema may no longer be the one this code reads.
    """
    from repro import __version__

    header = read_header(data)
    if header.get("format_version") != FORMAT_VERSION:
        raise StoreMismatchError(
            f"format version {header.get('format_version')!r} != "
            f"{FORMAT_VERSION}"
        )
    if header.get("library_version") != __version__:
        raise StoreMismatchError(
            f"library version {header.get('library_version')!r} != "
            f"{__version__!r}"
        )
    if expect:
        for field, want in expect.items():
            got = header.get(field)
            if got != want:
                raise StoreMismatchError(
                    f"header field {field!r}: stored {got!r}, expected {want!r}"
                )
    start = len(MAGIC) + 4 + struct.unpack_from("<I", data, len(MAGIC))[0]
    blob = memoryview(data)[start:]  # no copy of the payload
    if zlib.crc32(blob) != header.get("payload_crc32"):
        raise StoreCorruptError("payload checksum mismatch")
    try:
        base = header["decisions_bytes"]
        body = json.loads(str(blob[:base], "utf-8"))
        arrays = {}
        for name, (offset, dtype, shape) in body["arrays"].items():
            dtype = np.dtype(dtype)
            count = math.prod(shape)
            offset += base
            if dtype.hasobject or offset < base \
                    or min(shape, default=0) < 0 \
                    or offset + count * dtype.itemsize > len(blob):
                raise ValueError(f"array {name!r} overruns the payload")
            arr = np.frombuffer(blob, dtype, count, offset).reshape(shape)
            arr.flags.writeable = False
            arrays[name] = arr
        decisions = body["decisions"]
    except Exception as exc:  # noqa: BLE001 - any malformed body = corrupt
        raise StoreCorruptError(f"undecodable payload: {exc}") from None
    return header, decisions, arrays


#: writer-queue sentinel telling the background thread to exit
_STOP = object()


class PlanStore:
    """A directory of fingerprint-keyed plan entries under the cache.

    >>> store = PlanStore("/tmp/plans")                      # doctest: +SKIP
    >>> store.put(key, {"structure_fp": sfp}, decisions, arrays)  # doctest: +SKIP
    >>> store.get(key, expect={"structure_fp": sfp})         # doctest: +SKIP

    All failure modes on the read path degrade to ``None`` (a miss) and
    a counter bump; the write path swallows filesystem errors into
    ``write_errors``.  The store never raises into the serving hot path.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._mismatched = 0
        self._skipped = 0
        self._write_errors = 0
        self._queue: queue.Queue = queue.Queue()
        self._writer: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def path_for(self, key: Hashable) -> Path:
        return self.path / f"{key_digest(key)}.plan"

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def get(
        self, key: Hashable, *, expect: Mapping[str, Any] | None = None
    ) -> tuple[dict, Any, dict] | None:
        """``(header, decisions, arrays)`` or ``None``; never raises.

        ``expect`` pins header fields (typically the structure
        fingerprint, dtype, and device) so a digest collision or a
        manually swapped file can never hand back the wrong plan.
        """
        return self.lookup(key, expect=expect)[1]

    def lookup(
        self, key: Hashable, *, expect: Mapping[str, Any] | None = None
    ) -> tuple[str, tuple[dict, Any, dict] | None]:
        """Like :meth:`get`, but tagged: ``(result, loaded)`` where
        ``result`` is ``"hit"``/``"miss"``/``"corrupt"``/``"mismatch"``
        and ``loaded`` is non-``None`` only on a hit.  Every non-hit is
        also counted as a miss in :meth:`stats` (that is what the caller
        experiences)."""
        path = self.path_for(key)
        try:
            # read into one buffer the entry's arrays become views of
            # (uninitialized: readinto fills it)
            with path.open("rb") as fh:
                buf = memoryview(
                    np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
                )
                data = buf[: fh.readinto(buf)]
        except OSError:  # includes FileNotFoundError
            with self._lock:
                self._misses += 1
            return "miss", None
        try:
            loaded = decode_entry(data, expect=expect)
        except StoreCorruptError:
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            # quarantine damaged bytes so the next lookup is a plain miss
            self._remove_quiet(path)
            return "corrupt", None
        except StoreMismatchError:
            with self._lock:
                self._mismatched += 1
                self._misses += 1
            return "mismatch", None
        with self._lock:
            self._hits += 1
        return "hit", loaded

    def count_corrupt(self, key: Hashable | None = None) -> None:
        """Reclassify a hit as corrupt: the entry decoded but its arrays
        do not describe the request's structure, so no plan is built on
        them.  Quarantines the file so it is not retried forever."""
        with self._lock:
            self._hits -= 1
            self._corrupt += 1
            self._misses += 1
        if key is not None:
            self._remove_quiet(self.path_for(key))

    def count_skipped(self) -> None:
        """Record a put the caller declined (non-persistable entry)."""
        with self._lock:
            self._skipped += 1

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def put(
        self,
        key: Hashable,
        header: Mapping[str, Any],
        decisions: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        *,
        sync: bool = False,
    ) -> None:
        """Persist one entry; never raises.

        Encoding happens in the caller's thread — the arrays may belong
        to live plans, so their bytes are captured now — while the
        actual disk write runs on the background writer unless
        ``sync=True``.
        """
        try:
            data = encode_entry(header, decisions, arrays)
        except Exception:  # noqa: BLE001 - unserializable entry etc.
            with self._lock:
                self._write_errors += 1
            return
        if sync:
            self._write(self.path_for(key), data)
            return
        with self._lock:
            if self._closed:
                self._write_errors += 1
                return
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._writer_loop,
                    name="repro-plan-store",
                    daemon=True,
                )
                self._writer.start()
        self._queue.put((self.path_for(key), data))

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                path, data = item
                self._write(path, data)
            finally:
                self._queue.task_done()

    def _write(self, path: Path, data: bytes) -> None:
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.path, prefix=".tmp-", suffix=".plan"
            )
            try:
                with io.open(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                self._remove_quiet(Path(tmp))
                raise
        except OSError:
            with self._lock:
                self._write_errors += 1
            return
        with self._lock:
            self._writes += 1

    def flush(self) -> None:
        """Block until every queued write has reached disk."""
        self._queue.join()

    def close(self) -> None:
        """Flush pending writes and stop the writer thread."""
        with self._lock:
            self._closed = True
            writer = self._writer
        if writer is not None:
            self._queue.put(_STOP)
            writer.join()

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _entries(self) -> list[Path]:
        return sorted(
            p for p in self.path.glob("*.plan") if not p.name.startswith(".")
        )

    def ls(self) -> list[dict]:
        """One dict per entry: file, size, and the parsed header (or a
        ``"corrupt"`` marker when the framing is damaged)."""
        out = []
        for p in self._entries():
            try:
                data = p.read_bytes()
            except OSError:
                continue
            row: dict[str, Any] = {"file": p.name, "bytes": len(data)}
            try:
                row["header"] = read_header(data)
            except StoreCorruptError as exc:
                row["corrupt"] = str(exc)
            out.append(row)
        return out

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        drop_stale_versions: bool = True,
        now: float | None = None,
    ) -> dict:
        """Prune the store; returns a ``{removed, kept, reclaimed_bytes,
        reasons}`` summary.

        Removal order: corrupt entries, then (by default) entries from
        other format/library versions — dead weight the read path would
        only ever count as mismatches — then age-expired entries, then
        the oldest survivors until the directory fits ``max_bytes``.
        """
        from repro import __version__

        if now is None:
            import time

            now = time.time()
        removed: list[tuple[Path, str]] = []
        kept: list[tuple[Path, int, float]] = []
        for p in self._entries():
            try:
                stat = p.stat()
                data = p.read_bytes()
            except OSError:
                continue
            try:
                header = read_header(data)
            except StoreCorruptError:
                removed.append((p, "corrupt"))
                continue
            if drop_stale_versions and (
                header.get("format_version") != FORMAT_VERSION
                or header.get("library_version") != __version__
            ):
                removed.append((p, "version"))
                continue
            if max_age_s is not None and now - stat.st_mtime > max_age_s:
                removed.append((p, "age"))
                continue
            kept.append((p, stat.st_size, stat.st_mtime))
        if max_bytes is not None:
            total = sum(size for _, size, _ in kept)
            kept.sort(key=lambda e: e[2])  # oldest first
            while kept and total > max_bytes:
                p, size, _ = kept.pop(0)
                total -= size
                removed.append((p, "size"))
        reclaimed = 0
        reasons: dict[str, int] = {}
        for p, reason in removed:
            try:
                reclaimed += p.stat().st_size
            except OSError:
                pass
            self._remove_quiet(p)
            reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "removed": len(removed),
            "kept": len(kept),
            "reclaimed_bytes": reclaimed,
            "reasons": reasons,
        }

    @staticmethod
    def _remove_quiet(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt=self._corrupt,
                mismatched=self._mismatched,
                skipped=self._skipped,
                write_errors=self._write_errors,
            )
