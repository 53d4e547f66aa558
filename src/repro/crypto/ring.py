"""Arithmetic in the ring ``Z_{2^l}``.

Additive secret sharing in CARGO represents every value as an ``l``-bit
integer and performs all arithmetic modulo ``2^l`` (Section II-C).  The
:class:`Ring` class centralises that arithmetic for Python integers and for
numpy arrays, and provides the signed decoding used to map ring elements back
to (possibly negative) integers such as noise values or centred shares.

Implementation note: vectorised operations use ``numpy.uint64`` with ``l = 64``
by default, where modular wrap-around is native; other widths mask explicitly.
Matrix products (:func:`matmul_mod`, behind :meth:`Ring.matmul`) run on
float64 BLAS once they are large enough to repay its fixed cost: each operand
is split into ``w``-bit limbs narrow enough that every limb-pair GEMM is exact
in float64, and the shifted limb products are summed with uint64 wrap-around.
An inner dimension above :data:`LIMB_CHUNK` is split into equal chunks of at
most that width whenever the chunks' wider limbs need fewer limb-pair GEMMs
(a 64-bit product: 6 per chunk instead of 10), and the right operand is
walked in column slabs of at most :data:`LIMB_SLAB`.  Smaller products stay
on numpy's int64 loop.  Every path is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, derive_rng

IntOrArray = Union[int, np.ndarray]

#: Per-matrix multiply-add count ``m·k·n`` from which :func:`matmul_mod` runs
#: on float64 BLAS.  Below it numpy's int64 loop wins on its lower fixed cost.
#: Measured by the ``ring_matmul`` sweep of
#: ``benchmarks/bench_crypto_primitives.py`` (table in docs/performance.md).
BLAS_MIN_MULTIPLY_ADDS = 96**3
#: Inner dimensions from which products stay on the int64 loop.
BLAS_MAX_INNER = 1 << 21
#: Widest inner-dimension chunk :func:`limb_matmul` splits a product into.
#: ``limb_width(LIMB_CHUNK) == 22`` and ``3 · 22 ≥ 64``, so a chunk reads a
#: 64-bit operand as three limbs where a wider inner dimension needs four.
LIMB_CHUNK = 512
#: Widest column slab of the right operand :func:`limb_matmul` builds limbs
#: for at a time: its limbs and GEMM buffer stay ``k × 256`` and ``m × 256``
#: however wide the product, so concurrent row tasks hold little each.
LIMB_SLAB = 256


def limb_width(inner: int) -> int:
    """Widest limb ``w`` (at most 32) with ``inner·(2^w − 1)² < 2^53``.

    Every limb-pair GEMM term is then an integer below ``2^53``, which float64
    represents exactly whatever order BLAS sums in.

    Examples
    --------
    >>> limb_width(512), limb_width(513), limb_width(1 << 21)
    (22, 21, 16)
    """
    return min(32, (53 - (inner - 1).bit_length()) // 2)


def _as_uint64(x) -> np.ndarray:
    """*x* as uint64 ring elements; int64 arrays are reinterpreted, not copied."""
    x = np.asarray(x)
    return x.view(np.uint64) if x.dtype == np.int64 else x.astype(np.uint64, copy=False)


def _top_bit(x: np.ndarray) -> int:
    """Bit length of the largest element of *x* (0 when *x* is empty or zero)."""
    return int(x.max()).bit_length() if x.size else 0


def _limb_count(top: int, width: int, bits: int) -> int:
    """How many ``width``-bit limbs a product reads of an operand with *top* bits."""
    if top <= width:
        return 1 if top else 0
    return -(-min(bits, top) // width)


def limb_pairs(top_a: int, top_b: int, width: int, bits: int = 64) -> int:
    """Limb-pair GEMMs one ``width``-bit product of operands with *top* bits runs.

    Only pairs whose shift ``(i + j) · width`` is below *bits* contribute.

    Examples
    --------
    >>> limb_pairs(64, 64, limb_width(768)), limb_pairs(64, 64, limb_width(384))
    (10, 6)
    >>> limb_pairs(1, 1, limb_width(1024))
    1
    """
    count_a = _limb_count(top_a, width, bits)
    count_b = _limb_count(top_b, width, bits)
    return sum(
        1 for i in range(count_a) for j in range(count_b) if (i + j) * width < bits
    )


def inner_chunks(inner: int, top_a: int, top_b: int, bits: int = 64):
    """The ``[start, stop)`` ranges of the inner dimension :func:`limb_matmul` runs.

    The inner dimension is split into the fewest equal chunks of at most
    :data:`LIMB_CHUNK` exactly when their wider limbs run fewer limb-pair
    GEMMs than the whole; otherwise it stays one range.  Chunking never
    raises the GEMM work, since the chunks' inner dimensions sum to *inner*.

    Examples
    --------
    >>> inner_chunks(768, 64, 64)
    [(0, 384), (384, 768)]
    >>> inner_chunks(768, 1, 1), inner_chunks(512, 64, 64)
    ([(0, 768)], [(0, 512)])
    """
    count = -(-inner // LIMB_CHUNK)
    if count > 1 and limb_pairs(
        top_a, top_b, limb_width(-(-inner // count)), bits
    ) < limb_pairs(top_a, top_b, limb_width(inner), bits):
        bounds = [inner * index // count for index in range(count + 1)]
        return list(zip(bounds[:-1], bounds[1:]))
    return [(0, inner)]


#: Bit pattern of the float64 ``2^52``.  OR-ing an integer ``v < 2^52`` into
#: its mantissa gives the float64 ``2^52 + v`` exactly.
_FLOAT_2_52 = np.uint64(0x4330000000000000)


def _float_limb(x: np.ndarray, top: int, width: int, index: int) -> np.ndarray:
    """The *index*-th ``width``-bit limb of *x* as a new float64 array.

    *top* bounds the bit length of every element of *x*; when it fits one
    limb, *x* itself is that limb.  Otherwise the limb is extracted into a
    fresh uint64 array and turned into float64 in place: OR-ing it into the
    mantissa of ``2^52`` and subtracting ``2^52`` is exact for limbs below
    ``2^52`` and allocates nothing beyond the limb.
    """
    if top <= width:
        return x.view(np.int64).astype(np.float64)
    limb = x >> (index * width)
    limb &= (1 << width) - 1
    limb |= _FLOAT_2_52
    floats = limb.view(np.float64)
    floats -= 2.0**52
    return floats


def int64_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b mod 2^64`` on numpy's int64 loop (no BLAS).

    Two's-complement int64 multiplication and addition wrap modulo ``2^64``,
    so reinterpreting uint64 operands as int64 computes the ring product.
    """
    return (_as_uint64(a).view(np.int64) @ _as_uint64(b).view(np.int64)).view(np.uint64)


def limb_matmul(a: np.ndarray, b: np.ndarray, bits: int = 64) -> np.ndarray:
    """``a @ b`` exact modulo ``2^bits``, as float64 limb-pair GEMMs.

    Bits at and above *bits* are left unreduced; :func:`matmul_mod` masks
    them.  The inner dimension runs in the chunks :func:`inner_chunks`
    picks, each with its own :func:`limb_width`; only limb pairs whose shift
    is below *bits* run, and each GEMM is converted, shifted and accumulated
    in place into one uint64 output.  Per chunk the left operand's limbs are
    built once and the right operand is walked in slabs of at most
    :data:`LIMB_SLAB` columns, so its limbs and the GEMM buffer are bounded
    by the slab, not by the product's width.
    """
    a = _as_uint64(a)
    b = _as_uint64(b)
    top_a = _top_bit(a)
    top_b = _top_bit(b)
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(shape, dtype=np.uint64)
    for start, stop in inner_chunks(a.shape[-1], top_a, top_b, bits):
        width = limb_width(stop - start)
        a_part = a[..., start:stop]
        a_limbs = [
            _float_limb(a_part, top_a, width, i)
            for i in range(_limb_count(top_a, width, bits))
        ]
        gemm = None
        for c0 in range(0, b.shape[-1], LIMB_SLAB):
            c1 = min(c0 + LIMB_SLAB, b.shape[-1])
            b_part = b[..., start:stop, c0:c1]
            out_slab = out[..., c0:c1]
            if gemm is not None and gemm.shape[-1] != c1 - c0:
                gemm = None
            for j in range(_limb_count(top_b, width, bits)):
                b_limb = _float_limb(b_part, top_b, width, j)
                for i, a_limb in enumerate(a_limbs):
                    shift = (i + j) * width
                    if shift >= bits:
                        break
                    gemm = np.matmul(a_limb, b_limb, out=gemm)
                    # Every GEMM term is an integer below 2^53, so it converts
                    # exactly to int64 (faster than to uint64), in place: numpy
                    # copies a flat array onto itself without a temporary.
                    flat = gemm.reshape(-1)
                    np.copyto(flat.view(np.int64), flat, casting="unsafe")
                    term = gemm.view(np.uint64)
                    if shift:
                        np.left_shift(term, shift, out=term)
                    np.add(out_slab, term, out=out_slab)
                # Free each limb before the next one is built.
                del b_limb
        del a_limbs
    return out


def matmul_mod(a: np.ndarray, b: np.ndarray, bits: int = 64) -> np.ndarray:
    """Exact matrix product ``a @ b`` reduced element-wise mod ``2^bits``.

    The one integer matrix-product kernel: :meth:`Ring.matmul` and the
    evaluation-only plaintext counts call it.  Integer counts below ``2^63``
    come back exact, so ``matmul_mod(a, b).view(np.int64)`` is the integer
    product.  Products of at least :data:`BLAS_MIN_MULTIPLY_ADDS` per matrix
    with inner dimension below :data:`BLAS_MAX_INNER` run as
    :func:`limb_matmul`; the rest as :func:`int64_matmul`.  Both are
    bit-identical.

    Examples
    --------
    >>> a = np.array([[2**63, 3]], dtype=np.uint64)
    >>> b = np.array([[2], [5]], dtype=np.uint64)
    >>> matmul_mod(a, b).tolist(), matmul_mod(a, b, bits=4).tolist()
    ([[15]], [[15]])
    """
    a = _as_uint64(a)
    b = _as_uint64(b)
    if (
        a.ndim >= 2
        and b.ndim >= 2
        and a.shape[-1] == b.shape[-2]
        and a.shape[-1] < BLAS_MAX_INNER
        and a.shape[-2] * a.shape[-1] * b.shape[-1] >= BLAS_MIN_MULTIPLY_ADDS
    ):
        product = limb_matmul(a, b, bits)
    else:
        product = int64_matmul(a, b)
    if bits < 64:
        product &= np.uint64((1 << bits) - 1)
    return product


@dataclass(frozen=True)
class Ring:
    """The ring ``Z_{2^bits}`` with helpers for encode/decode and sampling.

    Parameters
    ----------
    bits:
        Bit width ``l`` of ring elements.  Must be between 2 and 64, and
        defaults to 64.  A release whose configuration pins no ring derives
        the fewest bits its public bound needs
        (:func:`~repro.core.cargo.release_ring`: the statistic's bound on its
        raw output, the Laplace tail, the fixed-point bits and a sign bit),
        and its ring products run fewer limb-pair GEMMs in fewer bits;
        MAC-checked releases keep 64 bits.
    """

    bits: int = 64

    def __post_init__(self) -> None:
        if not (2 <= self.bits <= 64):
            raise ConfigurationError(f"ring bit width must be in [2, 64], got {self.bits}")

    # ------------------------------------------------------------------ #
    # Basic constants
    # ------------------------------------------------------------------ #
    @property
    def modulus(self) -> int:
        """The ring modulus ``2^bits``."""
        return 1 << self.bits

    @property
    def mask(self) -> int:
        """Bit mask ``2^bits - 1`` used to reduce Python integers."""
        return self.modulus - 1

    @property
    def half(self) -> int:
        """The signed/unsigned boundary ``2^(bits-1)``."""
        return 1 << (self.bits - 1)

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype used for vectorised ring arrays."""
        return np.dtype(np.uint64)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, value: IntOrArray) -> IntOrArray:
        """Map a (signed) integer or integer array into the ring.

        Negative integers wrap around, so ``encode(-1) == modulus - 1``.
        Arrays already stored in the ring dtype may be returned without a
        copy, so callers must treat the result as read-only.

        Examples
        --------
        >>> ring = Ring(bits=16)
        >>> ring.encode(-1)
        65535
        >>> ring.decode_signed(ring.add(ring.encode(-5), ring.encode(12)))
        7
        """
        if isinstance(value, np.ndarray):
            if value.dtype == self.dtype:
                if self.bits == 64:
                    return value
                return value & self.dtype.type(self.mask)
            return np.asarray(value).astype(np.int64).astype(self.dtype) & self.dtype.type(self.mask)
        return int(value) & self.mask

    def decode_signed(self, value: IntOrArray) -> IntOrArray:
        """Map ring elements back to signed integers in ``[-2^(l-1), 2^(l-1))``."""
        if isinstance(value, np.ndarray):
            unsigned = np.asarray(value, dtype=self.dtype).astype(object)
            return np.where(unsigned >= self.half, unsigned - self.modulus, unsigned).astype(object)
        unsigned = int(value) & self.mask
        return unsigned - self.modulus if unsigned >= self.half else unsigned

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a: IntOrArray, b: IntOrArray) -> IntOrArray:
        """``(a + b) mod 2^l``."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            out = np.asarray(a, dtype=self.dtype) + np.asarray(b, dtype=self.dtype)
            # uint64 addition wraps modulo 2^64 natively; only narrower rings
            # need the explicit reduction pass.
            return out if self.bits == 64 else out & self.dtype.type(self.mask)
        return (int(a) + int(b)) & self.mask

    def sub(self, a: IntOrArray, b: IntOrArray) -> IntOrArray:
        """``(a - b) mod 2^l``."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            out = np.asarray(a, dtype=self.dtype) - np.asarray(b, dtype=self.dtype)
            return out if self.bits == 64 else out & self.dtype.type(self.mask)
        return (int(a) - int(b)) & self.mask

    def mul(self, a: IntOrArray, b: IntOrArray) -> IntOrArray:
        """``(a * b) mod 2^l``."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            out = np.asarray(a, dtype=self.dtype) * np.asarray(b, dtype=self.dtype)
            return out if self.bits == 64 else out & self.dtype.type(self.mask)
        return (int(a) * int(b)) & self.mask

    def sum(self, values: np.ndarray) -> int:
        """Reduce a share vector to a single ring element, ``sum(values) mod 2^l``.

        This is the one reduction every backend performs after an opening
        round (accumulating product shares into the running count share).
        uint64 accumulation wraps modulo ``2^64`` natively, so the result only
        needs masking for narrower rings.
        """
        total = int(np.sum(np.asarray(values, dtype=self.dtype), dtype=np.uint64))
        return total & self.mask

    def neg(self, a: IntOrArray) -> IntOrArray:
        """``(-a) mod 2^l``."""
        return self.sub(0, a) if not isinstance(a, np.ndarray) else self.sub(np.zeros_like(np.asarray(a, dtype=self.dtype)), a)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product in the ring, reduced element-wise mod ``2^l``.

        Exact for every width: see :func:`matmul_mod`, which computes it.
        """
        return matmul_mod(a, b, self.bits)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def random_element(self, rng: RandomState = None) -> int:
        """Uniformly random ring element (a single mask value)."""
        generator = derive_rng(rng)
        return int(generator.integers(0, self.modulus, dtype=np.uint64)) & self.mask

    def random_array(self, shape, rng: RandomState = None) -> np.ndarray:
        """Array of uniformly random ring elements with the given *shape*."""
        generator = derive_rng(rng)
        raw = generator.integers(0, self.modulus if self.bits < 64 else np.iinfo(np.uint64).max,
                                 size=shape, dtype=np.uint64, endpoint=self.bits == 64)
        if self.bits == 64:
            return raw
        return np.asarray(raw, dtype=self.dtype) & self.dtype.type(self.mask)


#: The 64-bit ring: what a component uses when its caller names no ring.
DEFAULT_RING = Ring(bits=64)


def ring_of(config) -> Ring:
    """The ring *config* pins, or :data:`DEFAULT_RING` when its ``ring`` is unset.

    A release resolves an unset ring once, after `Max`, and hands its kernels
    a configuration that pins the result; a kernel called directly on a
    configuration that pins nothing runs in 64 bits.

    >>> from types import SimpleNamespace
    >>> ring_of(SimpleNamespace(ring=None)).bits, ring_of(SimpleNamespace(ring=Ring(40))).bits
    (64, 40)
    """
    ring = getattr(config, "ring", None)
    return DEFAULT_RING if ring is None else ring
