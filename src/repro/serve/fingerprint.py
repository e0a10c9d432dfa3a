"""Content fingerprints for CSR matrices and plan-cache keys.

The serving layer's whole economy rests on recognizing "the same matrix
again" cheaply and safely: Table 5 shows preprocessing costs ~5-10x one
solve, so a repeated fingerprint means the expensive phase can be
skipped entirely.  We hash the full structural and numerical content
(shape, indptr/indices/data bytes, dtypes and lengths included) with
SHA-256 — a false positive would silently reuse the wrong plan, and a
tenant could craft one against a weak hash, so no sampling shortcuts
and no truncation below 256 bits.  SHA-256 runs at about twice
BLAKE2b's speed on CPUs with SHA extensions, and each array is hashed
exactly once, straight from its buffer (no ``tobytes`` copy).

The fingerprint is two-level: the paper's block algorithms (§3.1-3.4)
plan entirely off the sparsity *structure*, so :func:`structure_fingerprint`
covers shape + indptr + indices (everything the planner reads), while
:func:`values_fingerprint` covers only the ``data`` array.
:func:`matrix_fingerprint`, the full-content digest that keys request
coalescing and ``RequestRecord.fingerprint``, is derived from those two
digests without reading the arrays again.

The structure digest carries no triangle-orientation tag: ``indptr`` and
``indices`` already determine whether a pattern is lower, upper or
general, so a lower pattern and its upper mirror still get different
digests, and the orientation scan only has to run when a pattern is
built.  Digest values changed with this scheme (earlier releases used
BLAKE2b-128 with the tag), which is why the plan store moved to format 4.
"""

from __future__ import annotations

import hashlib
from typing import Any, Hashable, Mapping

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.gpu.device import DeviceModel

__all__ = [
    "matrix_fingerprint",
    "structure_fingerprint",
    "values_fingerprint",
    "fingerprints",
    "pattern_key",
    "plan_key",
    "plan_spec",
    "structure_key",
]


def structure_fingerprint(A: CSRMatrix) -> str:
    """A 256-bit hex digest of the sparsity *pattern* only.

    Covers shape, indptr and indices, each with its dtype and length —
    everything the planners read.  Two matrices with the same pattern
    but different values share this digest; a lower-triangular pattern
    and its upper mirror do not (their index arrays differ).
    """
    indptr, indices = A.indptr, A.indices
    h = hashlib.sha256(
        f"{A.n_rows}x{A.n_cols}|{indptr.dtype.str}{indptr.size}"
        f"|{indices.dtype.str}{indices.size}".encode()
    )
    h.update(np.ascontiguousarray(indptr))
    h.update(np.ascontiguousarray(indices))
    return h.hexdigest()


def values_fingerprint(A: CSRMatrix) -> str:
    """A 256-bit hex digest of the ``data`` array only (dtype and length
    included)."""
    data = A.data
    h = hashlib.sha256(f"{data.dtype.str}{data.size}".encode())
    h.update(np.ascontiguousarray(data))
    return h.hexdigest()


def _full_digest(structure_fp: str, values_fp: str) -> str:
    return hashlib.sha256(f"{structure_fp}|{values_fp}".encode()).hexdigest()


def fingerprints(
    A: CSRMatrix, structure_fp: str | None = None
) -> tuple[str, str, str]:
    """``(full, structure, values)`` digests, each array hashed once.

    The structure digest is :func:`structure_fingerprint`, the values
    digest :func:`values_fingerprint`, and the full digest — equal to
    :func:`matrix_fingerprint` — is a hash of those two.  A caller that
    already holds the structure digest of ``A``'s very index arrays
    passes it as ``structure_fp``, and only ``data`` is hashed.
    """
    sfp = structure_fingerprint(A) if structure_fp is None else structure_fp
    vfp = values_fingerprint(A)
    return _full_digest(sfp, vfp), sfp, vfp


def matrix_fingerprint(A: CSRMatrix) -> str:
    """A 256-bit hex digest of the matrix's exact content: the first
    element of :func:`fingerprints`."""
    return fingerprints(A)[0]


def _canon_value(v: Any) -> Hashable:
    """A hashable canonical form of an option value, safe against the
    failure modes of ``repr``: numpy elides large arrays (``[0 1 2 ...
    997 998 999]`` — two different arrays can print identically, silently
    reusing the wrong plan), ``repr(np.float64(2.0)) != repr(2.0)``
    splits equal options across cache entries, and default object reprs
    embed memory addresses so the same option never matches twice.
    Every value gets a type tag plus its exact content.
    """
    if isinstance(v, (bool, np.bool_)):  # before int: True == 1
        return ("bool", bool(v))
    if isinstance(v, (int, np.integer)):
        return ("int", int(v))
    if isinstance(v, (float, np.floating)):
        return ("float", float(v).hex())  # exact bits, incl. -0.0 vs 0.0
    if isinstance(v, (complex, np.complexfloating)):
        return ("complex", complex(v).real.hex(), complex(v).imag.hex())
    if isinstance(v, str):
        return ("str", v)
    if isinstance(v, bytes):
        return ("bytes", v)
    if v is None:
        return ("none",)
    if isinstance(v, np.ndarray):
        return (
            "ndarray",
            str(v.dtype),
            v.shape,
            np.ascontiguousarray(v).tobytes(),
        )
    if isinstance(v, np.generic):  # remaining scalar kinds (e.g. bool_)
        return ("npscalar", str(v.dtype), v.item())
    if isinstance(v, (list, tuple)):
        return ("seq", tuple(_canon_value(x) for x in v))
    if isinstance(v, Mapping):
        return (
            "map",
            tuple(
                sorted((str(k), _canon_value(x)) for k, x in v.items())
            ),
        )
    return ("repr", type(v).__qualname__, repr(v))


def _canon_options(options: Mapping[str, Any] | None) -> tuple:
    return tuple(
        sorted(
            ((k, _canon_value(v)) for k, v in (options or {}).items()),
            key=lambda kv: kv[0],
        )
    )


def plan_spec(
    method: str,
    device: DeviceModel,
    options: Mapping[str, Any] | None = None,
) -> tuple:
    """``(method, device name, canonical options)``: what keys a plan
    besides its matrix digest (and, for a pattern plan, values dtype).

    A service fixes these per method, so it builds the spec once and
    keys every request with :func:`pattern_key` instead of
    canonicalizing its options again on each lookup.
    """
    return (method, device.name, _canon_options(options))


def pattern_key(structure_fp: str, values_dtype: Any, spec: tuple) -> tuple:
    """:func:`structure_key` over a :func:`plan_spec` already built."""
    return (
        "structure",
        structure_fp,
        None if values_dtype is None else np.dtype(values_dtype).str,
        *spec,
    )


def plan_key(
    fingerprint: str,
    method: str,
    device: DeviceModel,
    options: Mapping[str, Any] | None = None,
) -> tuple:
    """Cache key for a prepared plan.

    A plan is reusable only for the same matrix content, method, device
    model, and solver options — any of these changes the preprocessing
    output, so all of them key the cache.  Option values are
    canonicalized by :func:`_canon_value` (type tag + exact content)
    rather than ``repr``.
    """
    return (fingerprint, *plan_spec(method, device, options))


def structure_key(
    structure_fp: str,
    method: str,
    device: DeviceModel,
    options: Mapping[str, Any] | None = None,
    values_dtype: Any = None,
) -> tuple:
    """Cache key for a *pattern-level* plan entry.

    Everything that shapes the pattern plan keys the cache: the
    structure digest, method, device model, solver options, and the
    values dtype (the work dtype decides kernel dispatch, arena shapes,
    and the hoisted engines — two dtypes can never share compiled
    state).  The leading ``"structure"`` tag keeps these keys disjoint
    from :func:`plan_key` tuples inside a shared cache.
    """
    return pattern_key(
        structure_fp, values_dtype, plan_spec(method, device, options)
    )
