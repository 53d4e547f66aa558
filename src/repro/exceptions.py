"""Exception hierarchy for the CARGO reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate between configuration problems, protocol
violations, and privacy-accounting mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class GraphError(ReproError):
    """A graph is malformed (e.g. asymmetric adjacency, self-loop, bad id)."""


class DatasetError(ReproError):
    """A dataset could not be generated or loaded."""


class ProtocolError(ReproError):
    """A secure-computation protocol was driven outside its contract.

    Examples include reconstructing a share pair that belongs to different
    secrets, reusing a one-time Beaver triple, or a server receiving a
    message it should never see under the semi-honest model.
    """


class ShareError(ProtocolError):
    """Secret shares are inconsistent (wrong ring, wrong party, reuse)."""


class DealerError(ProtocolError):
    """The offline correlated-randomness dealer was misused or exhausted."""


class CheaterDetectedError(ProtocolError):
    """An authenticated opening failed its MAC check — a server cheated.

    Raised by the :class:`~repro.crypto.mac.OpeningAuthenticator` when the
    batched SPDZ-style MAC check over an opening round does not verify:
    some server sent a value inconsistent with its tag share (a flipped
    share, a lie in an opening, a truncated round).  Carries the *label* of
    the opening round (e.g. ``"beaver_opening"``) and its zero-based
    *round_index* so a cheating round can be named precisely.  Note the MAC
    detects *that* cheating happened, not *which* server cheated — see
    ``docs/verification.md``.
    """

    def __init__(self, message: str, label: str = "", round_index: int = -1) -> None:
        super().__init__(message)
        self.label = label
        self.round_index = round_index


class WireFormatError(ProtocolError):
    """A transport frame violated the binary wire format.

    Raised while decoding frames exchanged by the process-separated runtime:
    wrong magic, an unsupported wire version, an unknown message kind, a
    length field that disagrees with the bytes on the socket, a truncated
    frame (EOF mid-message), or an out-of-order sequence number.  The frame
    is rejected before any payload bytes are interpreted as shares.
    """


class RuntimeProcessError(ReproError):
    """A peer process of the distributed runtime died or misbehaved.

    Raised by the driver when a server or dealer process exits unexpectedly
    (EOF on its control link), reports an error frame, or when the post-run
    ledger/wire reconciliation finds logical byte counts that do not match
    the bytes actually written to the transport.
    """


class PrivacyError(ReproError):
    """A differential-privacy precondition is violated.

    Raised for non-positive privacy budgets, negative sensitivities, or
    attempts to spend more budget than an accountant has left.
    """


class BudgetExhaustedError(PrivacyError):
    """A privacy accountant has no remaining budget for the requested spend."""


class AuditFailedError(PrivacyError):
    """An empirical privacy audit returned a verdict its case did not expect.

    An honest release audited above its claimed ε, or the planted half-noise
    bug audited within it.  :attr:`report` holds every audited row.
    """

    def __init__(self, message: str, report) -> None:
        super().__init__(message)
        self.report = report


class ExperimentError(ReproError):
    """An experiment specification is unknown or produced no results."""


class IntegrityError(ReproError):
    """Persisted protocol state failed its content-checksum verification.

    Raised when a checkpoint file does not hash to the checksum recorded
    when it was written — a bit flip, a truncated write, or manual
    tampering.  Corrupt state is never resumed into the protocol.
    """


class CheckpointError(ReproError):
    """A crash-recovery checkpoint is missing, incompatible, or misused.

    Examples include resuming from a checkpoint written by a different
    configuration or stream, a schema-version mismatch, or a checkpoint of
    the wrong kind (a streaming checkpoint fed to the tile journal).
    Checksum failures raise :class:`IntegrityError` instead.
    """


class RetryExhaustedError(ReproError):
    """A fallible boundary kept failing after every allowed retry attempt.

    Carries the *site* label of the boundary and the number of *attempts*
    made; the final underlying failure is chained as ``__cause__``.
    """

    def __init__(self, message: str, site: str = "", attempts: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.attempts = attempts


class StreamError(ReproError):
    """An edge-event stream is malformed or a continual release was misused.

    Examples include events that reference nodes outside the stream's node
    range, non-monotone timestamps, or asking a binary-tree release mechanism
    for more releases than the capacity it was budgeted for.
    """
