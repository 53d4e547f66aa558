"""Cryptographic substrate: two-party additive secret sharing over Z_{2^l}.

CARGO's online protocol runs between two semi-honest, non-colluding servers.
This subpackage implements the machinery the protocol is built from:

* :mod:`repro.crypto.ring` — modular arithmetic in the ring ``Z_{2^l}``
  (scalar and numpy-vectorised),
* :mod:`repro.crypto.sharing` — additive secret sharing (share, reconstruct,
  local addition, scalar multiplication),
* :mod:`repro.crypto.beaver` — Beaver triples for secure two-party
  multiplication and a trusted-dealer simulation of the offline phase,
* :mod:`repro.crypto.multiplication_groups` — the paper's *multiplication
  groups* (Section III-D): correlated randomness for multiplying **three**
  secret-shared values in a single opening round,
* :mod:`repro.crypto.protocol` — party / channel simulation with byte-level
  communication accounting,
* :mod:`repro.crypto.secure_ops` — two-server secure addition, two-way and
  three-way multiplication, and secret-shared matrix products,
* :mod:`repro.crypto.views` — transcript recording used by the
  simulation-based security tests,
* :mod:`repro.crypto.mac` — SPDZ-style information-theoretic MACs on every
  opening round, upgrading the semi-honest transcript to one that detects a
  single actively cheating server (``CargoConfig(authenticate=True)``).
"""

from repro.crypto.ring import Ring, DEFAULT_RING
from repro.crypto.sharing import (
    SharePair,
    reconstruct,
    reconstruct_vector,
    share_matrix,
    share_per_user,
    share_scalar,
    share_vector,
)
from repro.crypto.beaver import BeaverTriple, BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroup, MultiplicationGroupDealer
from repro.crypto.protocol import CommunicationLedger, TwoServerRuntime
from repro.crypto.secure_ops import (
    secure_add,
    secure_multiply_pair,
    secure_multiply_triple,
    secure_matrix_multiply,
)
from repro.crypto.mac import (
    MacCheck,
    MacKey,
    OpeningAuthenticator,
    OpeningMessage,
    OpeningRound,
    resolve_authenticator,
)
from repro.crypto.views import ProtocolView, ViewRecorder
from repro.exceptions import CheaterDetectedError

__all__ = [
    "Ring",
    "DEFAULT_RING",
    "SharePair",
    "share_scalar",
    "share_vector",
    "share_matrix",
    "share_per_user",
    "reconstruct",
    "reconstruct_vector",
    "BeaverTriple",
    "BeaverTripleDealer",
    "MultiplicationGroup",
    "MultiplicationGroupDealer",
    "CommunicationLedger",
    "TwoServerRuntime",
    "secure_add",
    "secure_multiply_pair",
    "secure_multiply_triple",
    "secure_matrix_multiply",
    "ProtocolView",
    "ViewRecorder",
    "CheaterDetectedError",
    "MacCheck",
    "MacKey",
    "OpeningAuthenticator",
    "OpeningMessage",
    "OpeningRound",
    "resolve_authenticator",
]
