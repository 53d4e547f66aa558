"""Deterministic random-number management.

Every stochastic component in the library (graph generators, DP mechanisms,
secret-sharing masks, protocol simulations) accepts either an integer seed or
a :class:`numpy.random.Generator`.  This module centralises the conversion so
experiments are reproducible end to end: a single top-level seed is expanded
into independent child generators for each logical role (users, servers,
dealer, noise) without the children sharing state.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

#: Anything accepted where randomness is needed.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def derive_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` produces a fresh, OS-entropy-seeded generator; an ``int`` or
    :class:`~numpy.random.SeedSequence` produces a deterministic generator;
    an existing generator is returned unchanged so callers can thread one
    generator through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Split *seed* into *count* statistically independent generators.

    The split is stable: the same seed always yields the same children, and
    children never share the parent's stream.  Used to give each simulated
    user / server its own generator while keeping a whole experiment
    reproducible from one integer.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [np.random.default_rng(child) for child in _seed_sequence_of(seed).spawn(count)]


# --------------------------------------------------------------------------- #
# Loop-free per-user substreams
#
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# seeding/output steps, re-run on uint32/uint64 columns with one row per
# spawned child.  The hash constants advance independently of the data, so
# every child walks the same constant schedule and only the last entropy
# word — the child index — differs between rows.
# --------------------------------------------------------------------------- #

_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

#: Position of ``n_children_spawned`` in ``SeedSequence.__reduce__()[2]``
#: (Cython pickles the fields alphabetically: entropy, n_children_spawned,
#: pool, pool_size, spawn_key).  numpy exposes the counter read-only.
_SPAWN_COUNTER_FIELD = 1


def _hashmix(value: np.ndarray, hash_const: int) -> Tuple[np.ndarray, int]:
    """numpy's ``hashmix`` on a uint32 array; returns the next hash constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` on uint32 arrays (wrap-around arithmetic)."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_sequence_of(seed: RandomState) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` whose children *seed* spawns.

    A generator contributes its bit generator's own sequence (so spawning
    advances that generator's counter, exactly as :func:`spawn_rngs` does);
    anything else seeds a fresh sequence.
    """
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq  # type: ignore[return-value]
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def set_children_spawned(sequence: np.random.SeedSequence, count: int) -> None:
    """Set *sequence*'s spawn counter, so its next child is number *count*.

    numpy makes ``n_children_spawned`` read-only; the counter is rewritten
    through the sequence's pickle state instead.
    """
    state = list(sequence.__reduce__()[2])
    state[_SPAWN_COUNTER_FIELD] = int(count)
    sequence.__setstate__(tuple(state))
    if sequence.n_children_spawned != count:
        raise RuntimeError("unexpected SeedSequence pickle layout: spawn counter not set")


def rng_position(rng: np.random.Generator) -> dict:
    """Everything that fixes what *rng* yields next: draws *and* spawns.

    ``bit_generator.state`` alone misses the seed sequence's spawn counter,
    so a generator restored from it alone would re-spawn children it already
    handed out.
    """
    return {
        "state": rng.bit_generator.state,
        "children_spawned": rng.bit_generator.seed_seq.n_children_spawned,  # type: ignore[attr-defined]
    }


def restore_rng_position(rng: np.random.Generator, position: dict) -> None:
    """Return *rng* to an :func:`rng_position` snapshot."""
    rng.bit_generator.state = position["state"]
    set_children_spawned(rng.bit_generator.seed_seq, position["children_spawned"])  # type: ignore[arg-type]


def _child_pools(parent: np.random.SeedSequence, count: int) -> list[np.ndarray]:
    """The entropy pools of *parent*'s next *count* children, one column per word.

    Equal to ``[c.pool for c in parent.spawn(count)]`` transposed, and
    advances the parent's spawn counter by *count* just as ``spawn`` does.
    """
    if parent.pool_size != _POOL_SIZE:
        raise ValueError(
            f"vectorised spawning covers pool_size={_POOL_SIZE}, got {parent.pool_size}"
        )
    start = parent.n_children_spawned
    if start + count > _MASK32:
        # numpy stores the counter as a uint32, so this is its limit too.
        raise ValueError(
            f"a SeedSequence spawns at most 2**32 - 1 children, asked for {start + count}"
        )
    # A child's assembled entropy is the run entropy zero-padded to the pool
    # size, then the parent's spawn-key words, then its own index.
    run_entropy = _coerce_to_uint32_array(parent.entropy)
    padding = np.zeros(max(_POOL_SIZE - run_entropy.size, 0), dtype=np.uint32)
    prefix = np.concatenate(
        [run_entropy, padding, _coerce_to_uint32_array(parent.spawn_key)]
    )
    columns = [prefix[i : i + 1] for i in range(prefix.size)]
    columns.append(np.arange(start, start + count, dtype=np.int64).astype(np.uint32))

    hash_const = _INIT_A
    pool = []
    for column in columns[:_POOL_SIZE]:
        word, hash_const = _hashmix(column, hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for column in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(column, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    set_children_spawned(parent, start + count)
    return pool


def spawn_state_matrix(seed: RandomState, count: int, words: int = 2) -> np.ndarray:
    """A deterministic ``(count, words)`` uint64 matrix, one row per substream.

    Row ``i`` equals ``child.generate_state(words, np.uint64)`` for the
    ``i``-th child *seed* spawns — the same per-user substreams
    :func:`spawn_rngs` hands out — computed for all rows at once in a few
    numpy passes instead of one ``SeedSequence`` per user.  Like
    ``spawn``, it advances *seed*'s spawn counter by *count*, so a second
    call yields the next children.
    """
    if words <= 0:
        raise ValueError(f"words must be positive, got {words}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    pool = _child_pools(_seed_sequence_of(seed), count)
    matrix = np.empty((count, words), dtype=np.uint64)
    hash_const = _INIT_B
    for index in range(2 * words):
        data = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        data = data * np.uint32(hash_const)
        data = (data ^ (data >> _XSHIFT)).astype(np.uint64)
        # Two uint32 words make one little-endian uint64 word.
        if index % 2 == 0:
            matrix[:, index // 2] = data
        else:
            matrix[:, index // 2] |= data << np.uint64(32)
    return matrix


class _StateWords(ISeedSequence):
    """Hands PCG64 its four seeding words as they are, instead of hashing entropy."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly its 4 uint64 seeding words.
        return self._words


def seeded_rng(seed: np.ndarray) -> np.random.Generator:
    """The generator a 32-byte seed names: PCG64 seeded with its four words.

    *seed* is a row of :func:`spawn_state_matrix` with ``words=4`` (a
    child's ``generate_state(4, np.uint64)``, the words PCG64 seeds itself
    from), so ``seeded_rng(spawn_state_matrix(parent, n, words=4)[i])``
    draws exactly what ``spawn_rngs(parent, n)[i]`` draws.  Whoever holds
    the seed regenerates the stream bit for bit.
    """
    words = np.asarray(seed, dtype=np.uint64)
    if words.shape != (_POOL_SIZE,):
        raise ValueError(f"a seed is 4 uint64 words, got shape {words.shape}")
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_LOW32 = np.uint64(_MASK32)
_U32 = np.uint64(32)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    low_cross = a0 * b1
    high_cross = a1 * b0
    middle = ((a0 * b0) >> _U32) + (low_cross & _LOW32) + (high_cross & _LOW32)
    return a1 * b1 + (low_cross >> _U32) + (high_cross >> _U32) + (middle >> _U32)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One 128-bit LCG step ``state * MULT + inc`` on ``(hi, lo)`` columns."""
    product_lo = lo * _PCG_MULT_LO
    product_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    new_lo = product_lo + inc_lo
    carry = (new_lo < product_lo).astype(np.uint64)
    return product_hi + inc_hi + carry, new_lo


def pcg64_first_outputs(states: np.ndarray) -> np.ndarray:
    """The first 64-bit output of ``PCG64`` seeded from each row of *states*.

    *states* is a ``(count, 4)`` uint64 matrix of ``generate_state(4)`` rows
    (:func:`spawn_state_matrix` with ``words=4``); entry ``i`` of the result
    equals ``np.random.default_rng(child_i).bit_generator.random_raw()``.
    Seeding follows PCG64 (O'Neill, 2014): ``state = 0``,
    ``inc = (initseq << 1) | 1``, step, add ``initstate``, step; the output
    is one more step followed by the XSL-RR permutation.
    """
    states = np.asarray(states, dtype=np.uint64)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValueError(f"expected a (count, 4) state matrix, got shape {states.shape}")
    init_hi, init_lo, seq_hi, seq_lo = (states[:, i] for i in range(4))
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    # step from state 0 leaves state == inc
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    rotation = hi >> np.uint64(58)
    folded = hi ^ lo
    return (folded >> rotation) | (folded << ((np.uint64(64) - rotation) & np.uint64(63)))


def bounded_first_draws(outputs: np.ndarray, bits: int) -> np.ndarray:
    """``integers(0, 2**bits, dtype=uint64)`` of fresh generators, from raw outputs.

    *outputs* holds each generator's first 64-bit output
    (:func:`pcg64_first_outputs`).  numpy's bounded sampler takes the low
    32-bit half for a range of at most 32 bits and the whole word above
    that; for a power-of-two range Lemire's method keeps the top *bits* of
    it and never rejects.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    outputs = np.asarray(outputs, dtype=np.uint64)
    if bits <= 32:
        return (outputs & _LOW32) >> np.uint64(32 - bits)
    return outputs >> np.uint64(64 - bits)


def uniforms_from_states(states: np.ndarray) -> np.ndarray:
    """Map uint64 state words to uniform doubles in ``[0, 1)``.

    Uses the standard 53-bit mantissa construction (the same one numpy's
    generators use), so the result is a deterministic pure function of the
    state words.
    """
    return (np.asarray(states, dtype=np.uint64) >> np.uint64(11)) * np.float64(2.0**-53)


def choice_without_replacement(
    rng: np.random.Generator, items: Sequence[int], size: int
) -> list[int]:
    """Sample *size* distinct items from *items* (a thin, typed wrapper)."""
    if size > len(items):
        raise ValueError(
            f"cannot sample {size} items without replacement from {len(items)}"
        )
    picked = rng.choice(np.asarray(items), size=size, replace=False)
    return [int(x) for x in picked]


def shuffled(rng: np.random.Generator, items: Iterable[int]) -> list[int]:
    """Return a shuffled copy of *items* without mutating the input."""
    values = list(items)
    rng.shuffle(values)
    return values


def stable_seed_from_name(name: str, base_seed: Optional[int] = None) -> int:
    """Derive a deterministic 63-bit seed from a string label.

    Dataset generators use this so that, e.g., the synthetic "facebook"
    graph is identical across runs and machines regardless of generation
    order, while still being perturbed by an optional experiment-level
    *base_seed*.
    """
    acc = 1469598103934665603  # FNV-1a 64-bit offset basis
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * 1099511628211) % (1 << 64)
    if base_seed is not None:
        acc ^= (base_seed * 0x9E3779B97F4A7C15) % (1 << 64)
    return acc % (1 << 63)
