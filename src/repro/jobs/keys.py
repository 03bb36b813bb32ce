"""Canonical content-addressed keys for jobs and banked results.

Identical submissions from many users must dedupe to one simulation, and
a result computed yesterday must be trusted today only if nothing that
produced it changed.  Both reduce to one primitive: a stable digest of
*what the job is* —

``job key = sha256(canonical_json(payload description) + code version)``

* **Canonical JSON** normalizes the payload description the way the
  SNIPPETS cache-key exemplars do: dataclasses become sorted-key
  mappings, tuples become lists, numpy scalars become plain Python
  numbers, and mapping keys are sorted — so two descriptions that differ
  only in field order or container flavour hash identically, while any
  semantic difference (another seed, another policy list) changes the
  key.
* **Code version** is a digest over the simulator's own sources (every
  ``repro`` Python module plus the C kernel).  Results are functions of
  the code that produced them; baking the version into the key makes a
  stale bank entry simply *miss* after a code change instead of serving
  wrong-version results.  ``REPRO_CODE_VERSION`` overrides it (CI can
  pin a release tag; tests pin a constant to exercise cross-process
  dedupe).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

__all__ = ["canonical_json", "canonical_digest", "job_key", "code_version"]

_CODE_VERSION: str | None = None


def _normalize(obj):
    """Recursively normalize a payload description for canonical JSON."""
    # Plain leaves first: they are most of every description, and
    # is_dataclass() is the costlier test.
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: _normalize(getattr(obj, f.name))
                   for f in dataclasses.fields(obj) if f.compare}}
    if isinstance(obj, dict):
        items = [(str(k), _normalize(v)) for k, v in obj.items()]
        return dict(sorted(items))
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_normalize(v) for v in obj)
    # numpy scalars (and anything else with .item()) reduce to Python
    # numbers so array-derived and literal parameters hash identically.
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return _normalize(item())
        except (TypeError, ValueError):
            pass
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for a "
                    f"job key; describe() must reduce to plain values")


def canonical_json(obj) -> str:
    """Deterministic JSON text for ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(_normalize(obj), sort_keys=True,
                      separators=(",", ":"))


def canonical_digest(obj) -> str:
    """sha256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def code_version() -> str:
    """Digest of the simulator sources (cached for the process lifetime).

    Covers every ``*.py`` under the ``repro`` package and the native
    kernel source, in sorted path order.  Set ``REPRO_CODE_VERSION`` to
    bypass the scan with an explicit version token.
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")) + sorted(root.rglob("*.c")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                continue
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def job_key(description) -> str:
    """Content address of one job (or one banked unit of a job).

    ``description`` is the payload's :meth:`describe` mapping — the spec,
    the trace identity, and any sub-unit coordinates — combined here with
    :func:`code_version` so results never survive the code that made
    them.
    """
    return canonical_digest({"description": _normalize(description),
                             "code_version": code_version()})
