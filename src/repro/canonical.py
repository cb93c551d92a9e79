"""Canonical JSON and its SHA-256: the one encoding every byte-identity
check in the reproduction is computed over.

Canonical JSON is ``json.dumps`` with sorted keys and no whitespace
(``","`` / ``":"`` separators); a digest is the hex SHA-256 of a text's
UTF-8 bytes.  Chaos and ingress reports, the event log, the trace plane
and latency profiles all encode and hash through these two functions,
so equal content always yields equal bytes and equal digests.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj: object) -> str:
    """Sorted-key, whitespace-free JSON encoding of ``obj``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of ``text``'s UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
