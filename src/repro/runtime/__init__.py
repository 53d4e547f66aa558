"""Process-separated two-server runtime.

The paper's deployment model is two non-colluding servers exchanging share
payloads over a network.  This package is the honest version of that model:
the dealer, the two computation servers, and the user-batch driver run as
separate OS processes connected by socketpair links carrying a versioned,
length-prefixed binary wire format (:mod:`repro.runtime.wire`).

* :mod:`repro.runtime.wire` — the framing layer: message kinds, zero-copy
  numpy payload packing, per-endpoint byte accounting.
* :mod:`repro.runtime.dealer` — the dealer process: replays the in-process
  backends' correlated-randomness draw order and ships each dealt half to
  its server.
* :mod:`repro.runtime.server` — the two server role drivers: each runs the
  in-process backends' counting kernels on its role's share alone,
  exchanging opening rounds (optionally MAC-authenticated) directly with
  its peer.
* :mod:`repro.runtime.driver` — forks the three peer processes and runs
  the in-process engine's one Algorithm 1 with them as its servers:
  the user-side phases run in the driver, every server step runs in the
  server processes, and the
  :class:`~repro.crypto.protocol.CommunicationLedger` is reconciled against
  bytes actually written to the transport, for a
  :class:`~repro.core.CargoResult` bit-identical to the in-process engine.

Entry points: :class:`repro.runtime.driver.DistributedRuntime` (persistent,
reusable across releases) and :func:`repro.runtime.driver.run_distributed`
(one-shot convenience).
"""

from repro.runtime.driver import DistributedRuntime, run_distributed
from repro.runtime.wire import (
    WIRE_VERSION,
    WireEndpoint,
    decode_frame,
    encode_frame_bytes,
)

__all__ = [
    "WIRE_VERSION",
    "WireEndpoint",
    "DistributedRuntime",
    "decode_frame",
    "encode_frame_bytes",
    "run_distributed",
]
