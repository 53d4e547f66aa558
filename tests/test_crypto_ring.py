"""Tests for repro.crypto.ring."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.crypto import ring as ring_module
from repro.crypto.ring import (
    BLAS_MAX_INNER,
    BLAS_MIN_MULTIPLY_ADDS,
    DEFAULT_RING,
    LIMB_CHUNK,
    LIMB_SLAB,
    Ring,
    blas_min_multiply_adds,
    float_budget,
    gemm_plan,
    int64_matmul,
    limb_matmul,
    limb_width,
    matmul_mod,
)
from repro.exceptions import ConfigurationError
from repro.parallel import WorkerPool


class TestConstruction:
    def test_default_ring_is_64_bits(self):
        assert DEFAULT_RING.bits == 64
        assert DEFAULT_RING.modulus == 2**64

    @pytest.mark.parametrize("bits", [1, 0, 65, 128])
    def test_invalid_bit_width(self, bits):
        with pytest.raises(ConfigurationError):
            Ring(bits=bits)

    def test_constants(self):
        ring = Ring(bits=8)
        assert ring.modulus == 256
        assert ring.mask == 255
        assert ring.half == 128


class TestScalarArithmetic:
    def test_add_wraps(self):
        ring = Ring(bits=8)
        assert ring.add(200, 100) == (300) % 256

    def test_sub_wraps(self):
        ring = Ring(bits=8)
        assert ring.sub(5, 10) == 251

    def test_mul_wraps(self):
        ring = Ring(bits=8)
        assert ring.mul(16, 16) == 0

    def test_neg(self):
        ring = Ring(bits=8)
        assert ring.add(ring.neg(37), 37) == 0

    def test_encode_negative(self):
        ring = Ring(bits=8)
        assert ring.encode(-1) == 255

    def test_decode_signed_roundtrip(self):
        ring = Ring(bits=16)
        for value in (-5000, -1, 0, 1, 5000):
            assert ring.decode_signed(ring.encode(value)) == value

    def test_decode_signed_boundary(self):
        ring = Ring(bits=8)
        assert ring.decode_signed(127) == 127
        assert ring.decode_signed(128) == -128
        assert ring.decode_signed(255) == -1

    def test_default_ring_large_values(self):
        value = 2**62 + 12345
        assert DEFAULT_RING.decode_signed(DEFAULT_RING.encode(value)) == value


class TestArrayArithmetic:
    def test_elementwise_add(self):
        ring = Ring(bits=16)
        a = np.array([1, 2, 65535], dtype=np.uint64)
        b = np.array([1, 1, 1], dtype=np.uint64)
        assert ring.add(a, b).tolist() == [2, 3, 0]

    def test_elementwise_mul(self):
        ring = Ring(bits=8)
        a = np.array([10, 20], dtype=np.uint64)
        b = np.array([30, 40], dtype=np.uint64)
        assert ring.mul(a, b).tolist() == [(300) % 256, (800) % 256]

    def test_encode_negative_array(self):
        ring = Ring(bits=8)
        encoded = ring.encode(np.array([-1, -2]))
        assert encoded.tolist() == [255, 254]

    def test_matmul_matches_plain_modular_product(self):
        ring = Ring(bits=32)
        rng = np.random.default_rng(0)
        a = ring.random_array((5, 4), rng)
        b = ring.random_array((4, 3), rng)
        expected = (a.astype(object) @ b.astype(object)) % ring.modulus
        assert np.array_equal(ring.matmul(a, b).astype(object), expected)

    def test_matmul_default_ring(self):
        ring = DEFAULT_RING
        rng = np.random.default_rng(1)
        a = ring.random_array((3, 3), rng)
        b = ring.random_array((3, 3), rng)
        expected = (a.astype(object) @ b.astype(object)) % ring.modulus
        assert np.array_equal(ring.matmul(a, b).astype(object), expected)


def reference_product(a, b, bits=64):
    """The int64-loop product reduced mod 2^bits: the reference the BLAS path must match."""
    return int64_matmul(a, b) & np.uint64((1 << bits) - 1)


def symmetric_pairs(top_a, top_b, inner, bits=64):
    """GEMMs of the unchunked symmetric plan: both operands in ``limb_width(inner)`` limbs."""
    width = limb_width(inner)

    def limbs(top):
        return (1 if top else 0) if top <= width else -(-min(bits, top) // width)

    return sum(
        1 for i in range(limbs(top_a)) for j in range(limbs(top_b)) if (i + j) * width < bits
    )


@pytest.fixture
def limb_calls(monkeypatch):
    """Count the products routed to the float64 limb path."""
    calls = []
    original = ring_module.limb_matmul

    def spy(a, b, bits=64):
        calls.append((a.shape, b.shape))
        return original(a, b, bits)

    monkeypatch.setattr(ring_module, "limb_matmul", spy)
    return calls


class TestExactBlasMatmul:
    """``Ring.matmul`` above the crossover must equal the int64 loop bit for bit."""

    @pytest.mark.parametrize("bits", [2, 16, 17, 32, 63, 64])
    @pytest.mark.parametrize("shape", [(96, 96, 96), (130, 70, 150)])
    def test_random_operands_every_width(self, bits, shape, limb_calls):
        m, k, n = shape
        ring = Ring(bits=bits)
        rng = np.random.default_rng(bits)
        a = ring.random_array((m, k), rng)
        b = ring.random_array((k, n), rng)
        assert np.array_equal(ring.matmul(a, b), reference_product(a, b, bits))
        assert limb_calls, "shape above the crossover must take the BLAS path"

    def test_matches_python_integers(self, limb_calls):
        rng = np.random.default_rng(7)
        a = DEFAULT_RING.random_array((10, 513), rng)
        b = DEFAULT_RING.random_array((513, 180), rng)
        expected = (a.astype(object) @ b.astype(object)) % DEFAULT_RING.modulus
        assert np.array_equal(DEFAULT_RING.matmul(a, b).astype(object), expected)
        assert limb_calls

    @pytest.mark.parametrize("k", [511, 512, 513, 2047, 2048, 2049])
    def test_inner_dimension_on_limb_width_boundaries(self, k, limb_calls):
        # All-ones-bit operands make every limb 2^w - 1, so each GEMM sum is
        # exactly k·(2^w − 1)², the largest value the float64 bound admits.
        a = np.full((40, k), np.iinfo(np.uint64).max, dtype=np.uint64)
        b = np.full((k, 50), np.iinfo(np.uint64).max, dtype=np.uint64)
        assert k * ((1 << limb_width(k)) - 1) ** 2 < 2**53
        assert k * ((1 << (limb_width(k) + 1)) - 1) ** 2 >= 2**53
        assert np.array_equal(DEFAULT_RING.matmul(a, b), reference_product(a, b))
        assert np.all(DEFAULT_RING.matmul(a, b) == np.uint64(k))
        mixed = DEFAULT_RING.random_array((40, k), np.random.default_rng(k))
        assert np.array_equal(DEFAULT_RING.matmul(mixed, b), reference_product(mixed, b))
        assert len(limb_calls) == 3

    @pytest.mark.parametrize("k", [BLAS_MAX_INNER - 1, BLAS_MAX_INNER])
    def test_huge_inner_dimension(self, k, limb_calls):
        ones = np.full((1, k), np.iinfo(np.uint64).max, dtype=np.uint64)
        product = DEFAULT_RING.matmul(ones, ones.T)
        # (2^64 − 1)² · k ≡ k (mod 2^64).
        assert product.tolist() == [[k]]
        assert bool(limb_calls) == (k < BLAS_MAX_INNER)

    @pytest.mark.parametrize("left_batch", [(4,), ()])
    def test_stacked_dealer_shapes(self, left_batch, limb_calls):
        rng = np.random.default_rng(3)
        a = DEFAULT_RING.random_array(left_batch + (100, 100), rng)
        b = DEFAULT_RING.random_array((4, 100, 100), rng)
        product = DEFAULT_RING.matmul(a, b)
        assert product.shape == (4, 100, 100)
        assert np.array_equal(product, reference_product(a, b))
        assert limb_calls

    def test_transposed_and_strided_views(self, limb_calls):
        rng = np.random.default_rng(4)
        base = DEFAULT_RING.random_array((300, 300), rng)
        a = base[::2, ::3]
        b = base[::3, 1::2]
        assert not a.flags.c_contiguous and not b.flags.c_contiguous
        assert np.array_equal(DEFAULT_RING.matmul(a, b), reference_product(a, b))
        assert np.array_equal(DEFAULT_RING.matmul(base.T, base), reference_product(base.T, base))
        assert len(limb_calls) == 2

    @pytest.mark.parametrize(
        "left, right",
        [((0, 128, 128), (0, 128, 128)), ((128, 0), (0, 128)), ((0, 200), (200, 200))],
    )
    def test_zero_size_dimensions(self, left, right):
        a = np.ones(left, dtype=np.uint64)
        b = np.ones(right, dtype=np.uint64)
        product = DEFAULT_RING.matmul(a, b)
        assert np.array_equal(product, reference_product(a, b))
        assert product.dtype == np.uint64

    def test_zero_one_operands_use_one_gemm(self, monkeypatch):
        gemms = []
        original = np.matmul

        def counting(*args, **kwargs):
            gemms.append(args[0].shape)
            return original(*args, **kwargs)

        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, (120, 120), dtype=np.uint64)
        b = rng.integers(0, 2, (120, 120), dtype=np.uint64)
        monkeypatch.setattr(ring_module.np, "matmul", counting)
        product = DEFAULT_RING.matmul(a, b)
        monkeypatch.undo()
        assert len(gemms) == 1
        assert np.array_equal(product, reference_product(a, b))
        assert 120**3 >= BLAS_MIN_MULTIPLY_ADDS

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_pool_strips_match_serial(self, workers, limb_calls):
        rng = np.random.default_rng(6)
        a = DEFAULT_RING.random_array((200, 150), rng)
        b = DEFAULT_RING.random_array((150, 130), rng)
        serial = DEFAULT_RING.matmul(a, b)
        assert np.array_equal(WorkerPool(workers).matmul(DEFAULT_RING, a, b), serial)
        assert np.array_equal(serial, reference_product(a, b))
        assert limb_calls

    def test_integer_counts_are_exact(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 50, (100, 100))
        b = rng.integers(0, 50, (100, 100))
        assert np.array_equal(matmul_mod(a, b).view(np.int64), a @ b)


@pytest.fixture
def gemm_inners(monkeypatch):
    """Record the inner dimension of every float64 GEMM the ring module runs."""
    inners = []
    original = np.matmul

    def counting(*args, **kwargs):
        inners.append(args[0].shape[-1])
        return original(*args, **kwargs)

    monkeypatch.setattr(ring_module.np, "matmul", counting)
    return inners


@pytest.fixture
def gemm_work(monkeypatch):
    """Record the multiply-adds per output column of every float64 GEMM the ring module runs."""
    work = []
    original = np.matmul

    def counting(*args, **kwargs):
        work.append(args[0].shape[-2] * args[0].shape[-1])
        return original(*args, **kwargs)

    monkeypatch.setattr(ring_module.np, "matmul", counting)
    return work


ALL_ONES = np.iinfo(np.uint64).max


class TestChunkedLimbMatmul:
    """Inner dimensions above ``LIMB_CHUNK`` run in chunks, still bit-identical."""

    @pytest.mark.parametrize("k", [512, 513, 768, 1024, 1025, 1536, 2047])
    def test_random_operands_match_int64_loop(self, k):
        rng = np.random.default_rng(k)
        a = DEFAULT_RING.random_array((20, k), rng)
        b = DEFAULT_RING.random_array((k, 30), rng)
        assert np.array_equal(limb_matmul(a, b), int64_matmul(a, b))

    @pytest.mark.parametrize("k", [512, 513, 768, 1024, 1025, 1536, 2047])
    def test_all_ones_bit_operands(self, k):
        # Every limb of every chunk is 2^w − 1: each GEMM sum is the largest
        # value the chunk's float64 bound admits.
        a = np.full((7, k), ALL_ONES, dtype=np.uint64)
        b = np.full((k, 9), ALL_ONES, dtype=np.uint64)
        plan = gemm_plan(k, 64, 64)
        for start, stop in plan.chunks:
            limbs = ((1 << plan.width_a) - 1) * ((1 << plan.width_b) - 1)
            assert (stop - start) * limbs < 2**53
        product = limb_matmul(a, b)
        assert np.array_equal(product, int64_matmul(a, b))
        assert np.all(product == np.uint64(k))

    @pytest.mark.parametrize("bits", [2, 17, 32, 63, 64])
    @pytest.mark.parametrize("k", [768, 1025])
    def test_every_ring_width(self, bits, k):
        ring = Ring(bits=bits)
        rng = np.random.default_rng(bits * k)
        a = ring.random_array((25, k), rng)
        b = ring.random_array((k, 15), rng)
        mask = np.uint64((1 << bits) - 1)
        assert np.array_equal(limb_matmul(a, b, bits) & mask, reference_product(a, b, bits))
        assert np.array_equal(ring.matmul(a, b), reference_product(a, b, bits))

    @pytest.mark.parametrize("left_batch", [(3,), ()])
    def test_stacked_operands(self, left_batch):
        rng = np.random.default_rng(11)
        a = DEFAULT_RING.random_array(left_batch + (12, 1100), rng)
        b = DEFAULT_RING.random_array((3, 1100, 14), rng)
        product = limb_matmul(a, b)
        assert product.shape == (3, 12, 14)
        assert np.array_equal(product, int64_matmul(a, b))

    def test_transposed_and_strided_views(self):
        rng = np.random.default_rng(12)
        base = DEFAULT_RING.random_array((1600, 40), rng)
        a = base.T
        b = base[::2, 1::3]
        assert not a.flags.c_contiguous and not b.flags.c_contiguous
        assert len(gemm_plan(a.shape[-1], 64, 64).chunks) == 4
        assert len(gemm_plan(b.shape[-2], 64, 64).chunks) == 2
        assert np.array_equal(limb_matmul(a, base), int64_matmul(a, base))
        assert np.array_equal(limb_matmul(base[::2].T, b), int64_matmul(base[::2].T, b))

    @pytest.mark.parametrize("k", [513, 768, 1024, 1536, 2047, 4100])
    def test_chunks_cover_the_inner_dimension_equally(self, k):
        chunks = gemm_plan(k, 64, 64).chunks
        sizes = [stop - start for start, stop in chunks]
        assert chunks[0][0] == 0 and chunks[-1][1] == k
        assert all(left[1] == right[0] for left, right in zip(chunks, chunks[1:]))
        assert max(sizes) <= LIMB_CHUNK and max(sizes) - min(sizes) <= 1
        assert len(chunks) == -(-k // LIMB_CHUNK)

    def test_chunk_rule_is_derived_from_the_limb_width(self):
        assert limb_width(LIMB_CHUNK) == 22 and 3 * 22 >= 64
        assert gemm_plan(LIMB_CHUNK, 64, 64).chunks == ((0, LIMB_CHUNK),)
        # Narrow operands whose pair count does not fall stay in one piece.
        for bits in (2, 17, 32, 63):
            assert gemm_plan(1024, bits, bits, bits).chunks == ((0, 1024),)
        assert gemm_plan(1024, 1, 1).chunks == ((0, 1024),)

    @pytest.mark.parametrize("bits", [2, 17, 32, 63, 64])
    @pytest.mark.parametrize("k", [513, 768, 1024, 2047, 4100])
    def test_chunking_never_raises_gemm_work(self, bits, k, gemm_work):
        ring = Ring(bits=bits)
        rng = np.random.default_rng(k + bits)
        a = ring.random_array((6, k), rng)
        b = ring.random_array((k, 5), rng)
        product = limb_matmul(a, b, bits)
        top_a = int(a.max()).bit_length()
        top_b = int(b.max()).bit_length()
        assert sum(gemm_work) == gemm_plan(k, top_a, top_b, bits).gemms * 6 * k
        assert sum(gemm_work) <= symmetric_pairs(top_a, top_b, k, bits) * 6 * k
        mask = np.uint64((1 << bits) - 1)
        assert np.array_equal(product & mask, reference_product(a, b, bits))

    def test_zero_one_operands_stay_one_gemm(self, gemm_inners):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 2, (64, 1024), dtype=np.uint64)
        b = rng.integers(0, 2, (1024, 64), dtype=np.uint64)
        product = DEFAULT_RING.matmul(a, b)
        assert gemm_inners == [1024]
        assert np.array_equal(product, reference_product(a, b))

    def test_64_bit_product_runs_two_chunks_of_six_gemms(self, gemm_inners):
        rng = np.random.default_rng(14)
        a = DEFAULT_RING.random_array((40, 768), rng)
        b = DEFAULT_RING.random_array((768, 40), rng)
        product = DEFAULT_RING.matmul(a, b)
        assert gemm_inners == [384] * 12
        assert symmetric_pairs(64, 64, 768) == 10
        assert np.array_equal(product, reference_product(a, b))


def masked_sum_operands(bits, rows, inner, cols, seed):
    """Ring operands as the blocked kernel multiplies them, worst-case rows first.

    The left operand's first row is all ones (every limb ``2^w − 1``); the
    right operand is server 2's unreduced ``X + E``, one bit above the ring,
    and its first column is the largest such sum, ``2 · (2^bits − 1)``.
    """
    ring = Ring(bits=bits)
    rng = np.random.default_rng(seed)
    a = ring.random_array((rows, inner), rng)
    a[0] = ring.mask
    x = ring.random_array((inner, cols), rng)
    e = ring.random_array((inner, cols), rng)
    x[:, 0] = e[:, 0] = ring.mask
    return a, x + e


class TestGemmPlan:
    """One planner picks each product's cheapest exact limb plan."""

    @pytest.mark.parametrize("inner", [1, 127, 512, 513, 1024, 2048])
    @pytest.mark.parametrize("bits", range(2, 65))
    def test_every_width_matches_int64_loop(self, bits, inner):
        a, b = masked_sum_operands(bits, 5, inner, 7, seed=bits * inner)
        plan = gemm_plan(inner, int(a.max()).bit_length(), int(b.max()).bit_length(), bits)
        largest = max(stop - start for start, stop in plan.chunks)
        assert plan.width_a + plan.width_b <= float_budget(largest)
        expected = reference_product(a, b, bits)
        assert np.array_equal(limb_matmul(a, b, bits) & np.uint64((1 << bits) - 1), expected)
        assert np.array_equal(matmul_mod(a, b, bits), expected)

    def test_gemms_per_width(self):
        # Full-width operands at the blocked kernel's inner dimension, the
        # right one a bit above the ring (docs/performance.md's table).
        gemms = {bits: gemm_plan(LIMB_CHUNK, bits, bits + 1, bits).gemms for bits in range(2, 65)}
        assert (gemms[64], gemms[42], gemms[26]) == (6, 3, 2)
        assert all(gemms[bits] == 1 for bits in range(2, 23))
        assert not gemm_plan(LIMB_CHUNK, 42, 43, 42).stacked
        assert not gemm_plan(LIMB_CHUNK, 64, 64).stacked

    def test_right_operand_stays_whole_where_it_saves_gemms(self):
        plan = gemm_plan(LIMB_CHUNK, 26, 27, 26)
        assert plan.stacked and plan.gemms == 2
        assert (plan.width_a, plan.width_b) == (float_budget(LIMB_CHUNK) - 27, 27)
        assert plan.pairs == ((0, 0), (1, 0))

    def test_stacked_plan_runs_one_gemm_per_slab(self, gemm_work):
        a, b = masked_sum_operands(26, 40, LIMB_CHUNK, 2 * LIMB_SLAB + 9, seed=1)
        product = limb_matmul(a, b, 26)
        assert gemm_work == [2 * 40 * LIMB_CHUNK] * 3
        assert np.array_equal(product & np.uint64((1 << 26) - 1), reference_product(a, b, 26))

    def test_blas_threshold_is_keyed_by_the_plans_gemms(self, limb_calls):
        assert blas_min_multiply_adds(50, 64) == BLAS_MIN_MULTIPLY_ADDS
        assert [blas_min_multiply_adds(50, bits) for bits in (42, 26, 16)] == [
            56**3, 48**3, 40**3
        ]
        rng = np.random.default_rng(3)
        for bits in (64, 26):
            ring = Ring(bits=bits)
            a = ring.random_array((50, 50), rng)
            b = ring.random_array((50, 50), rng)
            assert np.array_equal(ring.matmul(a, b), reference_product(a, b, bits))
        # 50³ is below the 64-bit crossover and above the two-GEMM one.
        assert len(limb_calls) == 1

    def test_zero_operands_run_no_gemm(self, gemm_work):
        a = np.zeros((4, 600), dtype=np.uint64)
        b = Ring(bits=26).random_array((600, 3), np.random.default_rng(2))
        assert gemm_plan(600, 0, 26, 26).gemms == 0
        assert not limb_matmul(a, b, 26).any()
        assert gemm_work == []


class TestSlabbedLimbMatmul:
    """The right operand runs in column slabs of ``LIMB_SLAB``, still bit-identical."""

    @pytest.mark.parametrize("bits", [64, 17, 32])
    @pytest.mark.parametrize(
        "n", [LIMB_SLAB - 1, LIMB_SLAB, LIMB_SLAB + 1, 2 * LIMB_SLAB + 3, 700]
    )
    def test_slab_edges_match_int64_loop(self, bits, n):
        ring = Ring(bits=bits)
        rng = np.random.default_rng(bits * n)
        a = ring.random_array((40, 600), rng)
        b = ring.random_array((600, n), rng)
        assert np.array_equal(matmul_mod(a, b, bits), reference_product(a, b, bits))

    def test_stacked_and_strided_slabs(self):
        rng = np.random.default_rng(15)
        a = DEFAULT_RING.random_array((2, 12, 300), rng)
        base = DEFAULT_RING.random_array((300, 2 * LIMB_SLAB + 40), rng)
        b = np.stack([base, base[::-1]])[:, :, ::2]
        assert not b.flags.c_contiguous and b.shape[-1] > LIMB_SLAB
        assert np.array_equal(limb_matmul(a, b), int64_matmul(a, b))

    def test_limb_working_set_is_bounded_by_the_slab(self):
        rng = np.random.default_rng(16)
        a = DEFAULT_RING.random_array((128, 512), rng)
        b = DEFAULT_RING.random_array((512, 4096), rng)
        tracemalloc.start()
        try:
            product = limb_matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(product, int64_matmul(a, b))
        # Beyond the output: the left operand's three limbs, one slab limb
        # being built from its shifted copy, and the slab's GEMM buffer.
        # One limb of the whole right operand alone would be 16 MB.
        slab_limb = 512 * LIMB_SLAB * 8
        assert peak - product.nbytes <= 3 * a.nbytes + 2 * slab_limb + 128 * LIMB_SLAB * 8
        assert peak - product.nbytes < b.nbytes // 4


class TestSampling:
    def test_random_element_in_range(self):
        ring = Ring(bits=8)
        rng = np.random.default_rng(2)
        values = [ring.random_element(rng) for _ in range(200)]
        assert all(0 <= value < 256 for value in values)
        assert len(set(values)) > 50  # not constant

    def test_random_array_shape_and_range(self):
        ring = Ring(bits=16)
        array = ring.random_array((10, 10), np.random.default_rng(3))
        assert array.shape == (10, 10)
        assert int(array.max()) < ring.modulus

    def test_random_array_default_ring_spans_high_bits(self):
        array = DEFAULT_RING.random_array(1000, np.random.default_rng(4))
        # With 1000 uniform draws over 2^64, some should exceed 2^63.
        assert int(array.max()) > 2**63


class TestRingSum:
    def test_sum_matches_python_mod(self):
        ring = Ring(bits=16)
        values = np.array([65535, 3, 70000], dtype=np.uint64)
        assert ring.sum(values) == (65535 + 3 + 70000) % 65536

    def test_sum_wraps_at_64_bits(self):
        values = np.array([2**63, 2**63, 5], dtype=np.uint64)
        assert DEFAULT_RING.sum(values) == 5

    def test_sum_of_empty_is_zero(self):
        assert DEFAULT_RING.sum(np.array([], dtype=np.uint64)) == 0

    def test_sum_accepts_matrices(self):
        values = np.ones((4, 4), dtype=np.uint64)
        assert DEFAULT_RING.sum(values) == 16
