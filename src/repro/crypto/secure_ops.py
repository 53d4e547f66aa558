"""Two-server secure operations on additively shared values.

These functions implement the *online* phase of the secure computations CARGO
needs.  Each function takes the two servers' shares (never the plaintext),
consumes correlated randomness from a dealer where required, and returns the
two output shares.  An optional :class:`~repro.crypto.views.ViewRecorder`
captures exactly what each server observes, which is what the
simulation-security tests check.

* :func:`secure_add` — local addition of shares (no interaction),
* :func:`secure_multiply_pair` — Beaver-triple multiplication of two secrets,
* :func:`secure_multiply_triple` — the paper's three-way multiplication
  (Theorem 1), consuming one multiplication group,
* :func:`secure_matrix_multiply` — matrix-Beaver multiplication of two
  secret-shared matrices, the building block of the vectorised triangle
  counting backend.

Each interactive operation ends in one server-local step, written once as a
role-local *combine* — :func:`beaver_pair_combine`,
:func:`multiplication_group_combine` and :func:`beaver_matrix_combine` —
that turns the opened values and one server's half of the correlated
randomness into that server's output share.  The in-process operations call
it for both roles; the process-separated runtime
(:mod:`repro.runtime.server`) calls it for its own role.

Every interactive function additionally accepts an optional *authenticator*
(:class:`~repro.crypto.mac.OpeningAuthenticator`).  When present, the
opening round — the only point where values cross the wire — is routed
through its batched MAC-checked ``exchange`` instead of plain ``ring.add``
reconstruction, so a server that lies in an opening triggers a typed
:class:`~repro.exceptions.CheaterDetectedError` rather than a silently
wrong result.  Honest openings are bit-identical either way.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.crypto.beaver import BeaverTriplePair
from repro.crypto.multiplication_groups import MultiplicationGroupPair
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError

IntOrArray = Union[int, np.ndarray]
SharePairTuple = Tuple[IntOrArray, IntOrArray]


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
    a_shares: SharePairTuple,
    b_shares: SharePairTuple,
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> SharePairTuple:
    """Multiply two shared secrets with one Beaver triple.

    The servers open ``e = a - x`` and ``f = b - y`` (uniformly distributed
    because ``x, y`` are fresh masks) and locally combine them with their
    triple shares.

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
    t1, t2 = triple.server1, triple.server2
    e1 = ring.sub(a_shares[0], t1.x)
    f1 = ring.sub(b_shares[0], t1.y)
    e2 = ring.sub(a_shares[1], t2.x)
    f2 = ring.sub(b_shares[1], t2.y)
    # Opening round: both servers learn e and f.
    if authenticator is not None:
        e, f = authenticator.exchange("beaver_opening", [(e1, e2), (f1, f2)])
    else:
        e = ring.add(e1, e2)
        f = ring.add(f1, f2)
    if views is not None:
        views.observe(1, "beaver_opening", (e, f))
        views.observe(2, "beaver_opening", (e, f))
    return beaver_pair_combine(1, e, f, t1, ring), beaver_pair_combine(2, e, f, t2, ring)


def secure_multiply_triple(
    a_shares: SharePairTuple,
    b_shares: SharePairTuple,
    c_shares: SharePairTuple,
    group: MultiplicationGroupPair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> SharePairTuple:
    """Multiply three shared secrets using one multiplication group.

    Implements the three-way product of Section III-D / Theorem 1 of the
    paper: open ``e = a - x``, ``f = b - y``, ``g = c - z``; then

    ``<d>_i = <w>_i + <o>_i g + <p>_i f + <q>_i e
              + <x>_i f g + <y>_i e g + <z>_i e f + (i - 1) e f g``.

    Works element-wise when the shares and the group are arrays of the same
    shape, which is how the batched faithful ``Count`` processes many
    candidate triples per opening round.
    """
    g1, g2 = group.server1, group.server2
    e1 = ring.sub(a_shares[0], g1.x)
    f1 = ring.sub(b_shares[0], g1.y)
    gg1 = ring.sub(c_shares[0], g1.z)
    e2 = ring.sub(a_shares[1], g2.x)
    f2 = ring.sub(b_shares[1], g2.y)
    gg2 = ring.sub(c_shares[1], g2.z)
    # Opening round: both servers reconstruct the masked differences.
    if authenticator is not None:
        e, f, g = authenticator.exchange(
            "mg_opening", [(e1, e2), (f1, f2), (gg1, gg2)]
        )
    else:
        e = ring.add(e1, e2)
        f = ring.add(f1, f2)
        g = ring.add(gg1, gg2)
    if views is not None:
        views.observe(1, "mg_opening", (e, f, g))
        views.observe(2, "mg_opening", (e, f, g))

    return (
        multiplication_group_combine(1, e, f, g, g1, ring),
        multiplication_group_combine(2, e, f, g, g2, ring),
    )


def secure_matrix_multiply(
    a_shares: Tuple[np.ndarray, np.ndarray],
    b_shares: Tuple[np.ndarray, np.ndarray],
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    matmul=None,
    authenticator=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Multiply two secret-shared matrices with a matrix Beaver triple.

    With a triple ``Z = X @ Y`` the servers open ``E = A - X`` and
    ``F = B - Y``; server ``i`` then computes its share of ``A @ B``,
    ``<Z> + E @ <Y> + <X> @ F + (i - 1) E @ F``, as one local ring product
    (:func:`beaver_matrix_combine`).

    *matmul* optionally overrides how the servers evaluate their *local*
    matrix product (the parallel engine passes a row-striped pool matmul);
    it must be bit-identical to ``ring.matmul``, so the openings — the only
    values that cross the wire — are unaffected.
    """
    a1, a2 = (np.asarray(s, dtype=ring.dtype) for s in a_shares)
    b1, b2 = (np.asarray(s, dtype=ring.dtype) for s in b_shares)
    t1, t2 = triple.server1, triple.server2
    check_matrix_triple(t1, a1, b1)
    if authenticator is not None:
        e, f = authenticator.exchange(
            "matrix_beaver_opening",
            [
                (ring.sub(a1, t1.x), ring.sub(a2, t2.x)),
                (ring.sub(b1, t1.y), ring.sub(b2, t2.y)),
            ],
        )
    else:
        e = ring.add(ring.sub(a1, t1.x), ring.sub(a2, t2.x))
        f = ring.add(ring.sub(b1, t1.y), ring.sub(b2, t2.y))
    if views is not None:
        views.observe(1, "matrix_beaver_opening", (e, f))
        views.observe(2, "matrix_beaver_opening", (e, f))
    return (
        beaver_matrix_combine(1, e, f, t1, ring, matmul),
        beaver_matrix_combine(2, e, f, t2, ring, matmul),
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
