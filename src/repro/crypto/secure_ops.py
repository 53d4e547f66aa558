"""Two-server secure operations on additively shared values.

These functions implement the *online* phase of the secure computations CARGO
needs.  Each function takes the servers' shares (never the plaintext),
consumes correlated randomness from a dealer where required, and returns the
output shares.  An optional :class:`~repro.crypto.views.ViewRecorder`
captures exactly what each server observes, which is what the
simulation-security tests check.

* :func:`secure_add` — local addition of shares (no interaction),
* :func:`secure_multiply_pair` — Beaver-triple multiplication of two secrets,
* :func:`secure_multiply_triple` — the paper's three-way multiplication
  (Theorem 1), consuming one multiplication group,
* :func:`secure_matrix_multiply` — matrix-Beaver multiplication of two
  secret-shared matrices, the building block of the vectorised triangle
  counting backend.

Each interactive operation runs for the server roles its process *holds*:
every operand is a tuple with one share per held role, and the result holds
one output share per held role.  In-process, both roles are held — operands
are ``(share1, share2)`` and the dealt material is the two-server pair
(:class:`~repro.crypto.beaver.BeaverTriplePair`,
:class:`~repro.crypto.multiplication_groups.MultiplicationGroupPair`); a
distributed server process holds one role — operands are ``(share,)`` and
the material is its own half.

The held roles come from the *opener* passed as ``authenticator``: any object
with a ``roles`` tuple (both roles when absent) and an
``exchange(label, operands) -> opened`` method that opens one round, the
only point where values cross between the servers.  There are three:

* :class:`PlainOpener`, the one key-less opener (``None`` means it):
  ``ring.add`` of both shares, no check;
* :class:`~repro.crypto.mac.OpeningAuthenticator`, both roles in process
  under a batched MAC check, so a server that lies in an opening triggers a
  typed :class:`~repro.exceptions.CheaterDetectedError`;
* the distributed runtime's :class:`~repro.runtime.server.OpeningChannel`,
  which swaps one role's values with the peer over the wire and, when
  authenticated, runs the same check (:class:`~repro.crypto.mac.MacCheck`).

Honest openings are bit-identical whichever opener runs them.  Each
operation masks every held share with its role's half of the material,
opens the differences, records them in each held role's view, and ends in
the role-local *combine* —
:func:`beaver_pair_combine`, :func:`multiplication_group_combine`,
:func:`beaver_matrix_combine` — per held role.  The backends' counting
kernels are written the same way, so in-process and distributed runs
execute the same code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crypto.beaver import BeaverTriplePair
from repro.crypto.multiplication_groups import MultiplicationGroupPair
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError

IntOrArray = Union[int, np.ndarray]
SharePairTuple = Tuple[IntOrArray, IntOrArray]
#: One share per held role (a pair in-process, a 1-tuple in a server process).
HeldShares = Tuple[IntOrArray, ...]


class PlainOpener:
    """Plain in-process reconstruction: both roles held, ``ring.add`` per operand.

    The one opener without a MAC key.  Injected as ``config.authenticator``
    it leaves the release unauthenticated, so it opens like no
    authenticator at all, in the release's ring.
    """

    roles = (1, 2)

    def __init__(self, ring: Ring = DEFAULT_RING) -> None:
        self._ring = ring

    def exchange(self, label: str, operands: Sequence[SharePairTuple]) -> List[IntOrArray]:
        """Open one round: each operand's two shares summed in the ring."""
        return [self._ring.add(share1, share2) for share1, share2 in operands]


def held_material(authenticator, material, ring: Ring) -> tuple:
    """The opener (plain for ``None``), its held roles, and their halves of *material*.

    A two-server pair yields one half per held role; a single half (all a
    server process receives) is its own role's.
    """
    opener = authenticator if authenticator is not None else PlainOpener(ring)
    roles = getattr(opener, "roles", PlainOpener.roles)
    if not hasattr(material, "server1"):
        return opener, roles, (material,)
    halves = tuple(material.server1 if role == 1 else material.server2 for role in roles)
    return opener, roles, halves


def _masked(ring: Ring, shares, halves: tuple, mask: str) -> tuple:
    """Each held share minus the *mask* field of its role's half of the material."""
    return tuple(ring.sub(share, getattr(half, mask)) for share, half in zip(shares, halves))


def open_round(label: str, operands: list, opener, roles, views) -> tuple:
    """Open one round through *opener* and record it in each held role's view."""
    opened = tuple(opener.exchange(label, operands))
    if views is not None:
        for role in roles:
            views.observe(role, label, opened)
    return opened


def secure_add(
    a_shares: SharePairTuple,
    b_shares: SharePairTuple,
    ring: Ring = DEFAULT_RING,
) -> SharePairTuple:
    """Add two shared secrets without any interaction.

    Each server adds its local shares; the sum of the results equals the sum
    of the secrets by linearity of additive sharing.
    """
    return (
        ring.add(a_shares[0], b_shares[0]),
        ring.add(a_shares[1], b_shares[1]),
    )


def secure_multiply_pair(
    a_shares: HeldShares,
    b_shares: HeldShares,
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> HeldShares:
    """Multiply two shared secrets with one Beaver triple.

    The servers open ``e = a - x`` and ``f = b - y`` (uniformly distributed
    because ``x, y`` are fresh masks) and locally combine them with their
    triple shares.  *authenticator* is the opener (see the module doc).

    Examples
    --------
    >>> from repro.crypto.beaver import BeaverTripleDealer
    >>> from repro.crypto.ring import DEFAULT_RING
    >>> from repro.crypto.sharing import share_scalar
    >>> dealer = BeaverTripleDealer(seed=0)
    >>> a, b = share_scalar(6, rng=1), share_scalar(7, rng=2)
    >>> shares = secure_multiply_pair(
    ...     (a.share1, a.share2), (b.share1, b.share2), dealer.scalar_triple()
    ... )
    >>> int(DEFAULT_RING.decode_signed(DEFAULT_RING.add(*shares)))
    42
    """
    opener, roles, halves = held_material(authenticator, triple, ring)
    masked = [_masked(ring, a_shares, halves, "x"), _masked(ring, b_shares, halves, "y")]
    e, f = open_round("beaver_opening", masked, opener, roles, views)
    return tuple(beaver_pair_combine(role, e, f, half, ring) for role, half in zip(roles, halves))


def secure_multiply_triple(
    a_shares: HeldShares,
    b_shares: HeldShares,
    c_shares: HeldShares,
    group: MultiplicationGroupPair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> HeldShares:
    """Multiply three shared secrets using one multiplication group.

    Implements the three-way product of Section III-D / Theorem 1 of the
    paper: open ``e = a - x``, ``f = b - y``, ``g = c - z``; then

    ``<d>_i = <w>_i + <o>_i g + <p>_i f + <q>_i e
              + <x>_i f g + <y>_i e g + <z>_i e f + (i - 1) e f g``.

    Works element-wise when the shares and the group are arrays of the same
    shape, which is how the batched faithful ``Count`` processes many
    candidate triples per opening round.  *authenticator* is the opener.
    """
    opener, roles, halves = held_material(authenticator, group, ring)
    operands = (a_shares, b_shares, c_shares)
    masked = [_masked(ring, shares, halves, mask) for shares, mask in zip(operands, "xyz")]
    e, f, g = open_round("mg_opening", masked, opener, roles, views)
    return tuple(
        multiplication_group_combine(role, e, f, g, half, ring)
        for role, half in zip(roles, halves)
    )


def secure_matrix_multiply(
    a_shares: HeldShares,
    b_shares: HeldShares,
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    matmul=None,
    authenticator=None,
) -> HeldShares:
    """Multiply two secret-shared matrices with a matrix Beaver triple.

    With a triple ``Z = X @ Y`` the servers open ``E = A - X`` and
    ``F = B - Y``; server ``i`` then computes its share of ``A @ B``,
    ``<Z> + E @ <Y> + <X> @ F + (i - 1) E @ F``, as one local ring product
    (:func:`beaver_matrix_combine`).  *authenticator* is the opener.

    *matmul* optionally overrides how the servers evaluate their *local*
    matrix product (the parallel engine passes a row-striped pool matmul);
    it must be bit-identical to ``ring.matmul``, so the openings — the only
    values that cross the wire — are unaffected.
    """
    opener, roles, halves = held_material(authenticator, triple, ring)
    a_shares = [np.asarray(a, dtype=ring.dtype) for a in a_shares]
    b_shares = [np.asarray(b, dtype=ring.dtype) for b in b_shares]
    check_matrix_triple(halves[0], a_shares[0], b_shares[0])
    masked = [_masked(ring, a_shares, halves, "x"), _masked(ring, b_shares, halves, "y")]
    e, f = open_round("matrix_beaver_opening", masked, opener, roles, views)
    # The masked operands are dead once opened; free them before the combine
    # allocates its ``2k``-deep operands.
    del masked
    return tuple(
        beaver_matrix_combine(role, e, f, half, ring, matmul)
        for role, half in zip(roles, halves)
    )


# ---------------------------------------------------------------------- #
# Role-local combines: one server's output share from the opened values
# ---------------------------------------------------------------------- #
def beaver_pair_combine(role: int, e, f, triple, ring: Ring = DEFAULT_RING) -> IntOrArray:
    """Server *role*'s share of ``a · b`` after opening ``e = a - x``, ``f = b - y``.

    ``<z> + e <y> + f <x>``, plus the public ``e f`` on server 2; *triple* is
    this server's :class:`~repro.crypto.beaver.BeaverTriple` half.
    """
    share = ring.add(ring.add(triple.z, ring.mul(e, triple.y)), ring.mul(f, triple.x))
    if role == 2:
        share = ring.add(share, ring.mul(e, f))
    return share


def multiplication_group_combine(
    role: int, e, f, g, group, ring: Ring = DEFAULT_RING
) -> IntOrArray:
    """Server *role*'s share of ``a · b · c`` after opening ``e``, ``f``, ``g`` (Theorem 1).

    ``<w> + <o> g + <p> f + <q> e + <x> f g + <y> e g + <z> e f``, plus the
    public ``e f g`` on server 2; *group* is this server's
    :class:`~repro.crypto.multiplication_groups.MultiplicationGroup` half.
    """
    fg = ring.mul(f, g)
    eg = ring.mul(e, g)
    ef = ring.mul(e, f)
    terms = ((group.o, g), (group.p, f), (group.q, e), (group.x, fg), (group.y, eg), (group.z, ef))
    if role == 2:
        terms += ((e, fg),)
    if (
        ring.bits == 64
        and isinstance(e, np.ndarray)
        and isinstance(group.w, np.ndarray)
        and group.w.shape == e.shape
    ):
        # Vectorised 64-bit path: uint64 arithmetic wraps modulo 2^64
        # natively, so the combination runs in place on two scratch buffers
        # instead of allocating one temporary per term.
        result = np.array(group.w, dtype=np.uint64)
        tmp = np.empty_like(result)
        for coefficient, opened in terms:
            np.multiply(coefficient, opened, out=tmp)
            np.add(result, tmp, out=result)
        return result
    result = group.w
    for coefficient, opened in terms:
        result = ring.add(result, ring.mul(coefficient, opened))
    return result


def beaver_matrix_combine(
    role: int,
    e: np.ndarray,
    f: np.ndarray,
    triple,
    ring: Ring = DEFAULT_RING,
    matmul=None,
) -> np.ndarray:
    """Server *role*'s share of ``A @ B`` after opening ``E = A - X``, ``F = B - Y``.

    The share ``<Z> + E @ <Y> + <X> @ F`` (plus ``E @ F`` on server 2) runs
    as **one** ring product of inner dimension ``2k``::

        <Z> + [E | <X>] @ [<Y> + (role == 2) F ; F]

    which equals it exactly in the ring: server 2 folds ``E @ F`` into
    ``E @ (<Y> + F)``.  *triple* is this server's
    :class:`~repro.crypto.beaver.BeaverTriple` half; *matmul* optionally
    replaces ``ring.matmul`` with a bit-identical product (the parallel
    engine's row strips).
    """
    e = np.asarray(e, dtype=ring.dtype)
    f = np.asarray(f, dtype=ring.dtype)
    y = np.asarray(triple.y, dtype=ring.dtype)
    k = e.shape[-1]
    left = np.concatenate((e, np.asarray(triple.x, dtype=ring.dtype)), axis=-1)
    # [<Y> (+ F) ; F], column-major: numpy's int64 loop walks its right
    # operand along the inner dimension, so a contiguous 2k-deep walk costs
    # per multiply-add what two k-deep products do.  BLAS takes either layout.
    right = np.empty(y.shape[:-2] + (y.shape[-1], 2 * k), dtype=ring.dtype).swapaxes(-1, -2)
    if role == 2:
        # Bits above the ring's width do not reach the product, which is
        # reduced modulo 2^bits.
        np.add(y, f, out=right[..., :k, :])
    else:
        right[..., :k, :] = y
    right[..., k:, :] = f
    return ring.add(triple.z, (matmul or ring.matmul)(left, right))


def check_matrix_triple(triple, a: np.ndarray, b: np.ndarray) -> None:
    """Raise :class:`ProtocolError` unless the triple half fits ``a @ b``."""
    if np.shape(triple.x) != np.shape(a) or np.shape(triple.y) != np.shape(b):
        raise ProtocolError(
            "matrix triple shape does not match the operands: "
            f"triple {np.shape(triple.x)}@{np.shape(triple.y)}, "
            f"operands {np.shape(a)}@{np.shape(b)}"
        )
