"""Arithmetic in the ring ``Z_{2^l}``.

Additive secret sharing in CARGO represents every value as an ``l``-bit
integer and performs all arithmetic modulo ``2^l`` (Section II-C).  The
:class:`Ring` class centralises that arithmetic for Python integers and for
numpy arrays, and provides the signed decoding used to map ring elements back
to (possibly negative) integers such as noise values or centred shares.

Implementation note: vectorised operations use ``numpy.uint64`` with ``l = 64``
by default, where modular wrap-around is native; other widths mask explicitly.
A release counts and perturbs in the one ring its public bound needs
(:func:`~repro.core.cargo.release_ring`), so unless it is MAC-checked its
products run in rings well below 64 bits.

Matrix products (:func:`matmul_mod`, behind :meth:`Ring.matmul`) run on
float64 BLAS once they are large enough to repay its fixed cost
(:func:`blas_min_multiply_adds`).  One planner, :func:`gemm_plan`, picks
the cheapest exact way to run a product as float64 GEMMs whose terms stay
below ``2^53``: either both operands split into :func:`limb_width`-bit limbs
(6 GEMMs at 64 bits, 3 at 42), or the right operand kept whole and the left
split into ``float_budget − top_b``-bit limbs stacked into one GEMM (2 at 26
bits), whichever runs fewer.  The shifted limb products are summed with
uint64 wrap-around.  An inner dimension above :data:`LIMB_CHUNK` is split
into equal chunks of at most that width whenever the chunks' wider budget
needs fewer GEMMs (a 64-bit product: 6 per chunk instead of 10), and the
right operand is walked in column slabs of at most :data:`LIMB_SLAB`.
Smaller products stay on numpy's int64 loop.  Every path is bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, derive_rng

IntOrArray = Union[int, np.ndarray]

#: Per-matrix multiply-add count ``m·k·n`` from which :func:`matmul_mod` runs a
#: 64-bit product (six limb-pair GEMMs) on float64 BLAS.  Below it numpy's
#: int64 loop wins on its lower fixed cost.  Measured by the ``ring_matmul``
#: sweep of ``benchmarks/bench_crypto_primitives.py`` (table in
#: docs/performance.md).
BLAS_MIN_MULTIPLY_ADDS = 96**3
#: The same crossover for products whose full-width plan runs fewer GEMMs,
#: keyed by that GEMM count (:func:`blas_min_multiply_adds`): fewer GEMMs
#: repay BLAS's fixed cost at smaller sizes.  Same sweep, ``--bits 64 42 26 16``.
_BLAS_MIN_BY_GEMMS = {1: 40**3, 2: 48**3, 3: 56**3}
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
    return min(32, float_budget(inner) // 2)


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


@dataclass(frozen=True)
class GemmPlan:
    """How :func:`limb_matmul` runs one product as exact float64 GEMMs.

    The inner dimension runs in *chunks*.  The left operand is read as
    ``width_a``-bit limbs and the right one as ``width_b``-bit limbs; *pairs*
    lists the limb pairs ``(i, j)`` whose shift ``i·width_a + j·width_b`` is
    below the ring's bits, one GEMM each per chunk.  ``width_a + width_b``
    never exceeds the chunk's :func:`float_budget`, so every GEMM term is an
    integer below ``2^53``.  A *stacked* plan keeps the right operand whole
    (``width_b`` is its top bit) and runs all left limbs as one GEMM over
    their stacked rows.
    """

    chunks: Tuple[Tuple[int, int], ...]
    width_a: int
    width_b: int
    pairs: Tuple[Tuple[int, int], ...]
    stacked: bool = False

    @property
    def gemms(self) -> int:
        """Limb-pair GEMMs the product runs, each as deep as the whole inner dimension."""
        return len(self.pairs)


def float_budget(inner: int) -> int:
    """Bits two limbs may carry between them in a float64 GEMM of depth *inner*.

    With limbs below ``2^w_a`` and ``2^w_b``, ``w_a + w_b ≤ 53 − bitlen(inner − 1)``
    keeps every sum of *inner* limb products below ``2^53``, which float64
    represents exactly whatever order BLAS sums in.

    >>> float_budget(512), float_budget(513)
    (44, 43)
    """
    return 53 - (inner - 1).bit_length()


def _limb_pairs(top_a: int, top_b: int, width_a: int, width_b: int, bits: int) -> tuple:
    """The ``(i, j)`` limb pairs whose shift is below *bits*, right limb major."""
    return tuple(
        (i, j)
        for j in range(_limb_count(top_b, width_b, bits))
        for i in range(_limb_count(top_a, width_a, bits))
        if i * width_a + j * width_b < bits
    )


def _cheapest_limbs(inner: int, top_a: int, top_b: int, bits: int) -> tuple:
    """``(width_a, width_b, pairs, stacked)`` of the cheapest exact plan at depth *inner*.

    The symmetric plan splits both operands into :func:`limb_width` limbs.
    Keeping the right operand whole leaves ``float_budget − top_b`` bits for
    the left limbs; that plan is taken, stacked, when it runs fewer GEMMs.
    """
    width = limb_width(inner)
    plan = (width, width, _limb_pairs(top_a, top_b, width, width, bits), False)
    width_a = float_budget(inner) - top_b
    if width_a > 0:
        pairs = _limb_pairs(top_a, top_b, width_a, top_b, bits)
        if len(pairs) < len(plan[2]):
            plan = (width_a, top_b, pairs, True)
    return plan


def gemm_plan(inner: int, top_a: int, top_b: int, bits: int = 64) -> GemmPlan:
    """The :class:`GemmPlan` of a product with inner dimension *inner*.

    *top_a* and *top_b* bound the bit lengths of the operands' elements (the
    right one may carry bits above the ring, as server 2's unreduced
    ``X + E`` does).  The inner dimension is split into the fewest equal
    chunks of at most :data:`LIMB_CHUNK` exactly when their wider budget
    runs fewer GEMMs than the whole; chunking never raises the GEMM work,
    since the chunks' inner dimensions sum to *inner*.

    Examples
    --------
    >>> [gemm_plan(512, bits, bits + 1, bits).gemms for bits in (64, 42, 26, 22)]
    [6, 3, 2, 1]
    >>> plan = gemm_plan(768, 64, 64)
    >>> plan.chunks, plan.gemms
    (((0, 384), (384, 768)), 6)
    >>> gemm_plan(768, 1, 1).chunks, gemm_plan(512, 26, 27, 26).stacked
    (((0, 768),), True)
    """
    plan = _cheapest_limbs(inner, top_a, top_b, bits)
    count = -(-inner // LIMB_CHUNK)
    if count > 1:
        chunked = _cheapest_limbs(-(-inner // count), top_a, top_b, bits)
        if len(chunked[2]) < len(plan[2]):
            bounds = [inner * index // count for index in range(count + 1)]
            return GemmPlan(tuple(zip(bounds[:-1], bounds[1:])), *chunked)
    return GemmPlan(((0, inner),), *plan)


#: Bit pattern of the float64 ``2^52``.  OR-ing an integer ``v < 2^52`` into
#: its mantissa gives the float64 ``2^52 + v`` exactly.
_FLOAT_2_52 = np.uint64(0x4330000000000000)


def _float_limbs(x: np.ndarray, top: int, width: int, indices) -> np.ndarray:
    """The ``width``-bit limbs *indices* of *x* as one new float64 array, stacked by rows.

    *top* bounds the bit length of every element of *x*; when it fits one
    limb, *x* itself is that limb.  Otherwise each limb is extracted into its
    rows of one fresh uint64 array, which is turned into float64 in place:
    OR-ing a limb into the mantissa of ``2^52`` and subtracting ``2^52`` is
    exact for limbs below ``2^52`` and allocates nothing beyond the limbs.
    """
    if top <= width:
        return x.view(np.int64).astype(np.float64)
    if len(indices) == 1:
        # Keeps x's memory layout (a column-major operand stays one).
        limbs = x >> (indices[0] * width)
    else:
        rows = x.shape[-2]
        limbs = np.empty(x.shape[:-2] + (len(indices) * rows, x.shape[-1]), dtype=np.uint64)
        for block, index in enumerate(indices):
            np.right_shift(x, index * width, out=limbs[..., block * rows : (block + 1) * rows, :])
    limbs &= (1 << width) - 1
    limbs |= _FLOAT_2_52
    floats = limbs.view(np.float64)
    floats -= 2.0**52
    return floats


def _add_shifted(out: np.ndarray, gemm: np.ndarray, shifts, rows: int) -> None:
    """Add the GEMM's row blocks of *rows* rows, shifted left by *shifts*, into *out*.

    Every GEMM term is an integer below 2^53, so it converts exactly to
    int64 (faster than to uint64), in place: numpy copies a flat array onto
    itself without a temporary.  The shifted sums wrap modulo ``2^64``.
    """
    flat = gemm.reshape(-1)
    np.copyto(flat.view(np.int64), flat, casting="unsafe")
    terms = gemm.view(np.uint64)
    for block, shift in enumerate(shifts):
        term = terms[..., block * rows : (block + 1) * rows, :]
        if shift:
            np.left_shift(term, shift, out=term)
        np.add(out, term, out=out)


def int64_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b mod 2^64`` on numpy's int64 loop (no BLAS).

    Two's-complement int64 multiplication and addition wrap modulo ``2^64``,
    so reinterpreting uint64 operands as int64 computes the ring product.
    """
    return (_as_uint64(a).view(np.int64) @ _as_uint64(b).view(np.int64)).view(np.uint64)


def limb_matmul(a: np.ndarray, b: np.ndarray, bits: int = 64) -> np.ndarray:
    """``a @ b`` exact modulo ``2^bits``, as the float64 GEMMs of its :func:`gemm_plan`.

    Bits at and above *bits* are left unreduced; :func:`matmul_mod` masks
    them.  Per chunk the left operand's limbs are built once (stacked into
    one array on a stacked plan) and the right operand is walked in slabs
    of at most :data:`LIMB_SLAB` columns, so its limbs and the GEMM buffer
    are bounded by the slab, not by the product's width.  Each GEMM is
    converted, shifted and accumulated in place into one uint64 output.
    """
    a = _as_uint64(a)
    b = _as_uint64(b)
    top_a = _top_bit(a)
    top_b = _top_bit(b)
    rows = a.shape[-2]
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (rows, b.shape[-1])
    out = np.zeros(shape, dtype=np.uint64)
    plan = gemm_plan(a.shape[-1], top_a, top_b, bits)
    if not plan.pairs:
        return out
    limbs_a = 1 + max(i for i, _ in plan.pairs)
    limbs_b = 1 + max(j for _, j in plan.pairs)
    for start, stop in plan.chunks:
        a_part = a[..., start:stop]
        # Per right limb, the (left operand, shifts) of each GEMM it runs: a
        # stacked plan's left limbs are one operand of stacked rows.
        if plan.stacked:
            stacked = _float_limbs(a_part, top_a, plan.width_a, range(limbs_a))
            jobs = [[(stacked, [i * plan.width_a for i in range(limbs_a)])]]
            del stacked
        else:
            a_limbs = [_float_limbs(a_part, top_a, plan.width_a, [i]) for i in range(limbs_a)]
            jobs = [[] for _ in range(limbs_b)]
            for i, j in plan.pairs:
                jobs[j].append((a_limbs[i], [i * plan.width_a + j * plan.width_b]))
            del a_limbs
        gemm = None
        for c0 in range(0, b.shape[-1], LIMB_SLAB):
            c1 = min(c0 + LIMB_SLAB, b.shape[-1])
            b_part = b[..., start:stop, c0:c1]
            out_slab = out[..., c0:c1]
            if gemm is not None and gemm.shape[-1] != c1 - c0:
                gemm = None
            for j, limb_jobs in enumerate(jobs):
                b_limb = _float_limbs(b_part, top_b, plan.width_b, [j])
                for left, shifts in limb_jobs:
                    gemm = np.matmul(left, b_limb, out=gemm)
                    _add_shifted(out_slab, gemm, shifts, rows)
                # Free each limb before the next one is built.
                del b_limb
        del jobs
    return out


@functools.lru_cache(maxsize=None)
def blas_min_multiply_adds(inner: int, bits: int = 64) -> int:
    """Multiply-adds per matrix from which :func:`matmul_mod` runs a product on BLAS.

    Keyed by the GEMMs of the :func:`gemm_plan` that full-width operands of
    inner dimension *inner* get in ``Z_{2^bits}`` (the right one a bit above
    the ring, as server 2's ``X + E`` is): :data:`BLAS_MIN_MULTIPLY_ADDS`
    for six, lower for the one to three GEMMs of narrow rings.  A function
    of the shape and the ring only, so the routing never depends on data.

    >>> [round(blas_min_multiply_adds(64, bits) ** (1 / 3)) for bits in (64, 42, 26, 16)]
    [96, 56, 48, 40]
    """
    gemms = gemm_plan(inner, bits, bits + 1, bits).gemms
    return _BLAS_MIN_BY_GEMMS.get(gemms, BLAS_MIN_MULTIPLY_ADDS)


def matmul_mod(a: np.ndarray, b: np.ndarray, bits: int = 64) -> np.ndarray:
    """Exact matrix product ``a @ b`` reduced element-wise mod ``2^bits``.

    The one integer matrix-product kernel: :meth:`Ring.matmul` and the
    evaluation-only plaintext counts call it.  Integer counts below ``2^63``
    come back exact, so ``matmul_mod(a, b).view(np.int64)`` is the integer
    product.  Products of at least :func:`blas_min_multiply_adds` per matrix
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
        and a.shape[-2] * a.shape[-1] * b.shape[-1]
        >= blas_min_multiply_adds(a.shape[-1], bits)
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
        raw output, the noise tail and a sign bit) and counts and perturbs
        in it; its ring products run fewer limb-pair GEMMs in fewer bits.
        MAC-checked releases count and perturb in 64 bits.
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
        # Bounded draws are already reduced, so narrow rings need no mask pass.
        return generator.integers(0, self.modulus if self.bits < 64 else np.iinfo(np.uint64).max,
                                  size=shape, dtype=np.uint64, endpoint=self.bits == 64)


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
