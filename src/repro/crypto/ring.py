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
Smaller products stay on numpy's int64 loop.  Both paths are bit-identical.
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


def _float_limbs(x: np.ndarray, width: int, bits: int):
    """The float64 ``width``-bit limbs of *x* that a ``bits``-bit product reads.

    Only as many limbs as the largest element needs are produced, so a 0/1
    operand is one limb: itself.
    """
    top = int(x.max()).bit_length() if x.size else 0
    if top <= width:
        if top:
            yield x.astype(np.float64)
        return
    mask = (1 << width) - 1
    for index in range(-(-min(bits, top) // width)):
        limb = x >> (index * width)
        limb &= mask
        yield limb.astype(np.float64)


def int64_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b mod 2^64`` on numpy's int64 loop (no BLAS).

    Two's-complement int64 multiplication and addition wrap modulo ``2^64``,
    so reinterpreting uint64 operands as int64 computes the ring product.
    """
    return (_as_uint64(a).view(np.int64) @ _as_uint64(b).view(np.int64)).view(np.uint64)


def limb_matmul(a: np.ndarray, b: np.ndarray, bits: int = 64) -> np.ndarray:
    """``a @ b`` exact modulo ``2^bits``, as float64 limb-pair GEMMs.

    Bits at and above *bits* are left unreduced; :func:`matmul_mod` masks
    them.  Only limb pairs whose shift is below *bits* run, and each GEMM is
    accumulated in place into one uint64 output.
    """
    a = _as_uint64(a)
    b = _as_uint64(b)
    width = limb_width(a.shape[-1])
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(shape, dtype=np.uint64)
    gemm = term = None
    b_limbs = list(_float_limbs(b, width, bits))
    for i, a_limb in enumerate(_float_limbs(a, width, bits)):
        for j, b_limb in enumerate(b_limbs):
            shift = (i + j) * width
            if shift >= bits:
                break
            gemm = np.matmul(a_limb, b_limb, out=gemm)
            if shift == 0:
                # The first pair: convert straight into the output.
                np.copyto(out, gemm, casting="unsafe")
                continue
            if term is None:
                term = np.empty(shape, dtype=np.uint64)
            np.copyto(term, gemm, casting="unsafe")
            np.left_shift(term, shift, out=term)
            np.add(out, term, out=out)
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
        Bit width ``l`` of ring elements.  Must be between 2 and 64.  CARGO's
        default of 64 bits leaves ample headroom: the largest value that the
        protocol aggregates is the triangle count plus noise, far below
        ``2^63``.
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


#: The ring used throughout CARGO unless a caller overrides it.
DEFAULT_RING = Ring(bits=64)
