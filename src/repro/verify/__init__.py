"""Adversarial verification: cheater detection, privacy audit, fuzzing.

The protocol's correctness story so far was *passive*: honest-but-curious
servers, analytically proved DP guarantees, transcript-equality tests.  This
package adds the three active counterparts:

* :mod:`repro.verify.adversary` — an active-adversary harness that corrupts
  one server's contribution to an opening round (flip a share, lie in an
  opening, forge a tag, truncate the round) and asserts the MAC layer
  (:mod:`repro.crypto.mac`) aborts with a typed
  :class:`~repro.exceptions.CheaterDetectedError` rather than releasing a
  silently wrong count;
* :mod:`repro.verify.audit` — an end-to-end empirical privacy audit that
  runs the full ``Cargo`` / ``NodeDpCargo`` release on neighbouring graphs,
  lower-bounds the realized ε from the released counts, and compares it
  against the accountant's claimed spend (plus a view-indistinguishability
  check on a single server's recorded transcript);
* :mod:`repro.verify.fuzz` — a seeded, dependency-free property-based
  harness drawing random graphs × statistics × backends × configuration
  knobs and checking the repo's standing invariants (cross-backend count
  equality, worker and transport transcript invariance, honest-authentication
  bit-identity and cheater detection, manifest validity and ledger
  reconciliation); ``python -m repro.verify.fuzz`` runs a budget.

Everything here is deterministic given its seed, so every failure a CI run
reports is replayable from the embedded case JSON.
"""

from repro.verify.adversary import (
    CORRUPTION_KINDS,
    CorruptingChannel,
    Corruption,
    CorruptionOutcome,
    count_opening_rounds,
    run_with_corruption,
)
from repro.verify.audit import (
    ProtocolAuditResult,
    audit_experiment,
    audit_protocol,
    neighbouring_graphs,
    worst_case_graph,
)

#: Served from :mod:`repro.verify.fuzz` on first access, so that
#: ``python -m repro.verify.fuzz`` runs a module the package has not imported.
_FUZZ_EXPORTS = (
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "draw_case",
    "run_case",
    "run_fuzz",
    "transcripts_equal",
)


def __getattr__(name):
    if name in _FUZZ_EXPORTS:
        from repro.verify import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CORRUPTION_KINDS",
    "CorruptingChannel",
    "Corruption",
    "CorruptionOutcome",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "ProtocolAuditResult",
    "audit_experiment",
    "audit_protocol",
    "count_opening_rounds",
    "draw_case",
    "neighbouring_graphs",
    "run_case",
    "run_fuzz",
    "run_with_corruption",
    "transcripts_equal",
    "worst_case_graph",
]
