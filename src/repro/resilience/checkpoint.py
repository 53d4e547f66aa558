"""Crash-safe, schema-versioned, checksummed checkpoints.

A :class:`Checkpointer` persists a picklable state dictionary so a killed
run can resume exactly where it stopped.  Three guarantees make the file
trustworthy:

**Atomicity.**  Checkpoints are written through
:func:`~repro.utils.atomic_write_bytes` (temp file + fsync + rename), so a
crash mid-write leaves the previous checkpoint intact, never a truncated
hybrid.

**Integrity.**  The pickled state is checksummed at write time and verified
on load; a corrupted file raises :class:`~repro.exceptions.IntegrityError`
instead of resuming from garbage.

**Compatibility.**  The envelope records a schema version, a *kind*
(``"stream"`` vs ``"tiles"``) and a caller-supplied configuration *token*;
resuming with a mismatched configuration raises
:class:`~repro.exceptions.CheckpointError` rather than silently producing a
run that diverges from the one that was killed.

Reads and writes pass through the ``checkpoint.read`` / ``checkpoint.write``
fault sites and an optional :class:`~repro.resilience.retry.RetryPolicy`.

Examples
--------
>>> import os, tempfile
>>> path = os.path.join(tempfile.mkdtemp(), "run.ckpt")
>>> ckpt = Checkpointer(path, kind="stream", token="eps=1.0/seed=7")
>>> ckpt.exists()
False
>>> ckpt.save({"releases": 3})
>>> ckpt.load()["releases"]
3
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, Optional, Union

from repro.exceptions import CheckpointError, IntegrityError
from repro.resilience.faults import fault_point
from repro.resilience.integrity import checksum_bytes, verify_bytes
from repro.resilience.retry import RetryPolicy
from repro.utils.atomic import atomic_write_bytes

__all__ = ["CHECKPOINT_VERSION", "Checkpointer"]

_MAGIC = "repro-checkpoint"

#: Schema version of the checkpoint envelope; bumped on layout changes.
#: Version 2: stream checkpoints store substream positions (bit-generator
#: state plus spawn counter); a version-1 one would resume divergently.
CHECKPOINT_VERSION = 2


class Checkpointer:
    """Persist and restore one run's recovery state at a fixed path.

    Parameters
    ----------
    path:
        Where the checkpoint lives; overwritten atomically on every save.
    kind:
        What is being checkpointed (``"stream"`` or ``"tiles"``); loading a
        checkpoint of the wrong kind raises :class:`CheckpointError`.
    token:
        A string identifying the producing configuration (statistic,
        epsilon, seed, geometry …).  Any mismatch on load raises
        :class:`CheckpointError` — resuming under a different configuration
        can never be bit-identical, so it is refused outright.
    retry:
        Optional :class:`RetryPolicy` wrapped around reads and writes.
    metrics:
        Optional metrics registry receiving checkpoint/retry counters.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str,
        token: str,
        retry: Optional[RetryPolicy] = None,
        metrics=None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.token = token
        self._retry = retry
        self._metrics = metrics

    def exists(self) -> bool:
        """Whether a checkpoint file is present at the configured path."""
        return self.path.is_file()

    def save(self, state: Dict) -> None:
        """Atomically persist *state*, replacing any previous checkpoint."""
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "magic": _MAGIC,
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "token": self.token,
            "checksum": checksum_bytes(payload),
            "payload": payload,
        }
        blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)

        def write() -> None:
            atomic_write_bytes(self.path, blob, site="checkpoint.write")

        if self._retry is not None:
            self._retry.run("checkpoint.write", write, metrics=self._metrics)
        else:
            write()
        if self._metrics is not None:
            self._metrics.increment("checkpoint_saves", kind=self.kind)

    def load(self) -> Dict:
        """Verify and return the persisted state dictionary.

        Raises
        ------
        CheckpointError
            Missing file, unknown schema version, or kind/token mismatch.
        IntegrityError
            The file is unreadable or fails its checksum.
        """

        def read() -> bytes:
            fault_point("checkpoint.read")
            return self.path.read_bytes()

        if not self.exists():
            raise CheckpointError(f"no checkpoint at {self.path}")
        if self._retry is not None:
            blob = self._retry.run("checkpoint.read", read, metrics=self._metrics)
        else:
            blob = read()
        try:
            envelope = pickle.loads(blob)
            magic = envelope["magic"]
            version = envelope["version"]
        except Exception as error:
            raise IntegrityError(
                f"checkpoint {self.path} is unreadable: {error}"
            ) from error
        if magic != _MAGIC:
            raise CheckpointError(f"{self.path} is not a repro checkpoint")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has schema version {version}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        verify_bytes(
            envelope["payload"],
            envelope["checksum"],
            context=f"checkpoint {self.path}",
        )
        if envelope["kind"] != self.kind:
            raise CheckpointError(
                f"checkpoint {self.path} holds {envelope['kind']!r} state, "
                f"expected {self.kind!r}"
            )
        if envelope["token"] != self.token:
            raise CheckpointError(
                f"checkpoint {self.path} was written by a different "
                f"configuration (token {envelope['token']!r}, expected "
                f"{self.token!r}); refusing to resume"
            )
        if self._metrics is not None:
            self._metrics.increment("checkpoint_loads", kind=self.kind)
        return pickle.loads(envelope["payload"])
