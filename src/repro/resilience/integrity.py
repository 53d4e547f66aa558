"""Content-checksum helpers for persisted protocol state.

Crash-recovery checkpoints are hashed with sha256 at write time and
re-verified at load time.  A mismatch means the bytes on disk are not the
bytes that were written (bit rot, a truncated write, tampering) and the
loader must never hand them to the protocol: it raises
:class:`~repro.exceptions.IntegrityError`.

Examples
--------
>>> digest = checksum_bytes(b"beaver triples")
>>> verify_bytes(b"beaver triples", digest, context="demo")
>>> try:
...     verify_bytes(b"beaver triplez", digest, context="demo")
... except IntegrityError:
...     print("corruption detected")
corruption detected
"""

from __future__ import annotations

import hashlib

from repro.exceptions import IntegrityError

__all__ = ["checksum_bytes", "verify_bytes"]


def checksum_bytes(data: bytes) -> str:
    """Hex sha256 digest of *data*.

    >>> checksum_bytes(b"")[:8]
    'e3b0c442'
    """
    return hashlib.sha256(data).hexdigest()


def verify_bytes(data: bytes, expected: str, context: str = "payload") -> None:
    """Raise :class:`IntegrityError` unless *data* hashes to *expected*."""
    actual = checksum_bytes(data)
    if actual != expected:
        raise IntegrityError(
            f"checksum mismatch for {context}: expected {expected[:16]}…, "
            f"got {actual[:16]}…"
        )

