"""Canonical JSON and content hashing shared by configs, results and caches.

Everything that must be *addressable by content* — sweep cells, cached
results, ledger records — funnels through the same two helpers so that one
definition of "canonical" exists in the repository:

* :func:`canonical_json` — ``json.dumps`` with sorted keys, minimal
  separators and ``allow_nan=False``.  Sorting makes the bytes
  independent of dict insertion order *and* of ``PYTHONHASHSEED``;
  rejecting NaN/inf keeps the encoding round-trippable (``NaN`` is not
  valid JSON, and two NaNs would never compare equal anyway, which is
  poison for a content address).
* :func:`content_hash` — the SHA-256 hex digest of that canonical form.

The sweep cache key (``RunConfig.config_hash``), the cache entries
(:mod:`repro.sweep.cache`) and the run ledger all go through these.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_json", "content_hash"]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding of ``payload``.

    Keys are sorted at every nesting level and separators carry no
    whitespace, so equal payloads produce byte-equal strings regardless
    of construction order or hash randomization.  Non-finite floats
    raise ``ValueError`` (``allow_nan=False``): a content address must
    denote a value JSON can faithfully round-trip.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_hash(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
