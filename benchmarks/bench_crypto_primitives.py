"""Micro-benchmarks of the cryptographic building blocks.

Not a paper artefact, but useful for understanding where CARGO's running time
(Figures 11-12) comes from: per-triple three-way multiplications versus the
matrix-Beaver products used by the vectorised backend.

Besides the pytest-benchmark fixtures, :func:`run_crypto_primitives` produces
plain JSON rows (``benchmarks/results/crypto_primitives.json``, or
``REPRO_BENCH_CRYPTO_OUTPUT``) consumed by the CI perf-smoke regression gate.

:func:`run_ring_matmul_sweep` times ``Ring.matmul``'s two exact kernels —
numpy's int64 loop and the float64 limb-split BLAS path — on n x n products
of uniformly random ring elements (the dealer's operands), plus the two
m x 2k x n shapes of the servers' one-product Beaver combine, records the
float64 GEMMs each product runs, and writes
``benchmarks/results/ring_matmul.json`` with the crossover size that
``repro.crypto.ring.BLAS_MIN_MULTIPLY_ADDS`` cites::

    PYTHONPATH=src python benchmarks/bench_crypto_primitives.py --ring-matmul

``--bits`` sweeps ring widths as well: each width's products draw operands
from ``Z_{2^bits}``, the run reports each width's crossover, and it prints
the limb-pair GEMMs a product of inner dimension
:data:`~repro.crypto.ring.LIMB_CHUNK` runs per width, its right operand one
bit above the ring as server 2's ``X + E`` is — the table of
docs/performance.md's "Right-sized ring" section.  Any inexact product
exits non-zero::

    PYTHONPATH=src python benchmarks/bench_crypto_primitives.py --ring-matmul --bits 64 42 26
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import (
    DEFAULT_RING,
    LIMB_CHUNK,
    Ring,
    blas_min_multiply_adds,
    gemm_plan,
    int64_matmul,
    limb_matmul,
)
from repro.crypto.secure_ops import secure_matrix_multiply, secure_multiply_triple
from repro.crypto.sharing import share_scalar, share_vector
from repro.telemetry.profiling import measure_peak_bytes
from repro.utils.atomic import atomic_write_json

#: Sizes for the JSON runner (kept small: these feed a CI smoke job).
VECTOR_BATCH = 10_000
MATRIX_N = 128
PROVISION_COUNT = 50_000
#: Size of the gated ring-matmul row: the matrix backend's product at n=768.
RING_MATMUL_N = 768
#: Sizes of the int64-vs-limb sweep.
RING_MATMUL_SWEEP = (32, 40, 48, 56, 64, 96, 128, 192, 256, 384, 768, 1024)
#: ``(m, k, n)`` of the servers' one-product Beaver combine ``[E | X] @ [Y ; F]``
#: at the matrix backend's n=768 and the blocked backend's 128-wide tiles.
RING_MATMUL_SERVER_SHAPES = ((768, 1536, 768), (128, 256, 128))


def _best_of(callable_, reps: int) -> float:
    best = None
    for _ in range(max(reps, 1)):
        start = time.perf_counter()
        callable_()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best


def _random_ring_matrices(n: int, seed: int, inner=None, cols=None, ring=DEFAULT_RING):
    """Random ``n x inner`` and ``inner x cols`` *ring* matrices (square by default)."""
    rng = np.random.default_rng(seed)
    inner = n if inner is None else inner
    cols = n if cols is None else cols
    return (
        ring.random_array((n, inner), rng),
        ring.random_array((inner, cols), rng),
    )


def run_crypto_primitives(reps: int = 5):
    """Time each primitive *reps* times and report the minimum per row."""

    rows = []
    rng = np.random.default_rng(5)

    vec_a = share_vector(rng.integers(0, 2, VECTOR_BATCH), rng=6)
    vec_b = share_vector(rng.integers(0, 2, VECTOR_BATCH), rng=7)
    vec_c = share_vector(rng.integers(0, 2, VECTOR_BATCH), rng=8)
    mg_dealer = MultiplicationGroupDealer(seed=4)

    def vectorised_triple():
        group = mg_dealer.vector_group((VECTOR_BATCH,))
        secure_multiply_triple(
            (vec_a.share1, vec_a.share2),
            (vec_b.share1, vec_b.share2),
            (vec_c.share1, vec_c.share2),
            group,
        )

    rows.append(
        {
            "name": "vectorised_triple_multiplication",
            "size": VECTOR_BATCH,
            "seconds": _best_of(vectorised_triple, reps),
            "peak_bytes": measure_peak_bytes(vectorised_triple),
        }
    )

    def provision_groups():
        MultiplicationGroupDealer(seed=9).provision(PROVISION_COUNT)

    rows.append(
        {
            "name": "mg_dealer_provision",
            "size": PROVISION_COUNT,
            "seconds": _best_of(provision_groups, reps),
            "peak_bytes": measure_peak_bytes(provision_groups),
        }
    )

    mat_a = share_vector(rng.integers(0, 2, (MATRIX_N, MATRIX_N)), rng=11)
    mat_b = share_vector(rng.integers(0, 2, (MATRIX_N, MATRIX_N)), rng=12)
    beaver_dealer = BeaverTripleDealer(seed=9)

    def matrix_product():
        triple = beaver_dealer.matrix_triple((MATRIX_N, MATRIX_N), (MATRIX_N, MATRIX_N))
        secure_matrix_multiply(
            (mat_a.share1, mat_a.share2), (mat_b.share1, mat_b.share2), triple
        )

    rows.append(
        {
            "name": "secure_matrix_product",
            "size": MATRIX_N,
            "seconds": _best_of(matrix_product, reps),
            "peak_bytes": measure_peak_bytes(matrix_product),
        }
    )

    ring_a, ring_b = _random_ring_matrices(RING_MATMUL_N, seed=13)

    def ring_product():
        DEFAULT_RING.matmul(ring_a, ring_b)

    rows.append(
        {
            "name": f"ring_matmul_{RING_MATMUL_N}",
            "size": RING_MATMUL_N,
            "seconds": _best_of(ring_product, reps),
            "peak_bytes": measure_peak_bytes(ring_product),
        }
    )
    return rows


def _extreme_operands(a, b, ring):
    """Operands whose GEMM terms reach the plan's float64 bound.

    *a* gets an all-ones first row; *b* becomes the unreduced sum of two ring
    matrices, one bit above the ring as server 2's ``X + E`` is (wrapped at
    64 bits), with the largest such sum in its first column.
    """
    a = a.copy()
    a[0] = ring.mask
    b = b + np.roll(b, 1, axis=1)
    b[:, 0] = (2 * ring.mask) % (1 << 64)
    return a, b


def limb_pair_table(widths, inner: int = LIMB_CHUNK):
    """``(bits, plan)`` of one product of full-width *bits* operands, the right one a bit above.

    >>> [plan.gemms for _, plan in limb_pair_table((64, 45, 44, 42, 26, 23, 22))]
    [6, 6, 3, 3, 2, 2, 1]
    """
    return [(bits, gemm_plan(inner, bits, bits + 1, bits)) for bits in widths]


def _crossover(rows):
    """Smallest swept n from which the limb path wins at every larger swept n too."""
    crossover = None
    for row in reversed(rows):
        if row["limb_s"] >= row["int64_s"]:
            break
        crossover = row["n"]
    return crossover


def run_ring_matmul_sweep(
    sizes=RING_MATMUL_SWEEP,
    server_shapes=RING_MATMUL_SERVER_SHAPES,
    reps: int = 3,
    widths=(64,),
) -> dict:
    """Best-of-*reps* int64 vs limb timings per ring width and shape, plus each width's crossover.

    Both kernels' products are checked bit-identical (mod ``2^bits``)
    before either is timed, on the random operands and on their
    :func:`_extreme_operands`; an inexact product raises ``AssertionError``.
    A width's crossover is the smallest swept n from which the limb path is
    faster at every larger swept n too; the *server_shapes* rows do not
    enter it.
    """
    shapes = [(n, n, n) for n in sizes] + [tuple(shape) for shape in server_shapes]
    rows = []
    crossovers = []
    for bits in widths:
        ring = Ring(bits)
        mask = np.uint64(ring.mask)
        width_rows = []
        for m, k, n in shapes:
            a, b = _random_ring_matrices(m, seed=m * k + n, inner=k, cols=n, ring=ring)
            for left, right in ((a, b), _extreme_operands(a, b, ring)):
                if not np.array_equal(
                    int64_matmul(left, right) & mask, limb_matmul(left, right, bits) & mask
                ):
                    raise AssertionError(
                        f"limb_matmul differs from int64_matmul at {m}x{k}x{n}, {bits} bits"
                    )
            plan = gemm_plan(k, int(a.max()).bit_length(), int(b.max()).bit_length(), bits)
            int64_s = _best_of(lambda: int64_matmul(a, b), reps)
            limb_s = _best_of(lambda: limb_matmul(a, b, bits), reps)
            width_rows.append(
                {
                    "bits": bits,
                    "m": m,
                    "k": k,
                    "n": n,
                    "multiply_adds": m * k * n,
                    "chunks": len(plan.chunks),
                    "limb_widths": [plan.width_a, plan.width_b],
                    "stacked": plan.stacked,
                    "gemms": plan.gemms,
                    "blas": m * k * n >= blas_min_multiply_adds(k, bits),
                    "int64_s": int64_s,
                    "limb_s": limb_s,
                    "speedup": int64_s / limb_s,
                }
            )
            print(
                f"  {bits:2d} bits {m:5d}x{k:5d}x{n:5d} chunks={len(plan.chunks)} "
                f"gemms={plan.gemms:2d}{' stacked' if plan.stacked else '        '}"
                f"  int64 {int64_s*1e3:10.3f} ms  limb {limb_s*1e3:9.3f} ms"
                f"  ({int64_s / limb_s:5.2f}x)",
                flush=True,
            )
        crossover = _crossover(width_rows[: len(sizes)])
        routed = [row["n"] for row in width_rows[: len(sizes)] if row["blas"]]
        crossovers.append(
            {
                "bits": bits,
                "crossover_n": crossover,
                "crossover_multiply_adds": None if crossover is None else crossover**3,
                "blas_from_n": min(routed) if routed else None,
            }
        )
        rows.extend(width_rows)
    return {
        "benchmark": "ring_matmul",
        "host": {
            "cpus": os.cpu_count() or 1,
            "machine": platform.platform(),
            "numpy": np.__version__,
        },
        "reps": reps,
        "rows": rows,
        "limb_pairs": [
            {
                "bits": bits,
                "inner": LIMB_CHUNK,
                "limb_widths": [plan.width_a, plan.width_b],
                "stacked": plan.stacked,
                "gemms": plan.gemms,
            }
            for bits, plan in limb_pair_table(widths)
        ],
        "crossovers": crossovers,
    }


def write_json(rows, path=None) -> Path:
    """Persist the primitive timings for cross-commit trajectory tracking."""
    if path is None:
        path = os.environ.get(
            "REPRO_BENCH_CRYPTO_OUTPUT",
            str(Path(__file__).resolve().parent / "results" / "crypto_primitives.json"),
        )
    output = Path(path)
    atomic_write_json(output, {"benchmark": "crypto_primitives", "rows": rows})
    return output


def test_bench_scalar_triple_multiplication(benchmark):
    """One three-way product (what the faithful Count pays per candidate triple)."""
    dealer = MultiplicationGroupDealer(seed=0)
    a = share_scalar(1, rng=1)
    b = share_scalar(1, rng=2)
    c = share_scalar(0, rng=3)

    def run():
        group = dealer.scalar_group()
        return secure_multiply_triple(
            (a.share1, a.share2), (b.share1, b.share2), (c.share1, c.share2), group
        )

    s1, s2 = benchmark(run)
    assert (int(s1) + int(s2)) % 2**64 == 0


def test_bench_vectorised_triple_multiplication(benchmark):
    """A 10k-wide batch of three-way products (the batched Count's unit of work)."""
    dealer = MultiplicationGroupDealer(seed=4)
    rng = np.random.default_rng(5)
    size = 10_000
    a = share_vector(rng.integers(0, 2, size), rng=6)
    b = share_vector(rng.integers(0, 2, size), rng=7)
    c = share_vector(rng.integers(0, 2, size), rng=8)

    def run():
        group = dealer.vector_group((size,))
        return secure_multiply_triple(
            (a.share1, a.share2), (b.share1, b.share2), (c.share1, c.share2), group
        )

    s1, s2 = benchmark(run)
    assert s1.shape == (size,)


def test_bench_secure_matrix_product(benchmark):
    """One n x n secret-shared matrix product (the matrix backend's dominant cost)."""
    n = 128
    dealer = BeaverTripleDealer(seed=9)
    rng = np.random.default_rng(10)
    a = share_vector(rng.integers(0, 2, (n, n)), rng=11)
    b = share_vector(rng.integers(0, 2, (n, n)), rng=12)

    def run():
        triple = dealer.matrix_triple((n, n), (n, n))
        return secure_matrix_multiply((a.share1, a.share2), (b.share1, b.share2), triple)

    s1, s2 = benchmark(run)
    assert s1.shape == (n, n)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ring-matmul", action="store_true", help="run the int64-vs-limb ring matmul sweep"
    )
    parser.add_argument(
        "--bits",
        type=int,
        nargs="+",
        default=[64],
        help="ring widths the ring matmul sweep runs (default: 64)",
    )
    args = parser.parse_args()
    if args.ring_matmul:
        sweep = run_ring_matmul_sweep(widths=tuple(args.bits))
        destination = Path(__file__).resolve().parent / "results" / "ring_matmul.json"
        atomic_write_json(destination, sweep)
        print(f"limb-pair GEMMs per product at inner {LIMB_CHUNK}:")
        for row in sweep["limb_pairs"]:
            widths = "x".join(str(width) for width in row["limb_widths"])
            stacked = ", left limbs stacked" if row["stacked"] else ""
            print(f"  {row['bits']:2d} bits: {row['gemms']} ({widths}-bit limbs{stacked})")
        for row in sweep["crossovers"]:
            print(
                f"  {row['bits']:2d} bits: crossover n={row['crossover_n']}, "
                f"matmul_mod runs BLAS from n={row['blas_from_n']}"
            )
        print(f"wrote {destination}")
    else:
        output_rows = run_crypto_primitives()
        destination = write_json(output_rows)
        print(json.dumps(output_rows, indent=2))
        print(f"wrote {destination}")
