"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import (
    choice_without_replacement,
    derive_rng,
    shuffled,
    spawn_rngs,
    stable_seed_from_name,
)


class TestDeriveRng:
    def test_none_gives_generator(self):
        assert isinstance(derive_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = derive_rng(7).integers(0, 1_000_000)
        b = derive_rng(7).integers(0, 1_000_000)
        assert a == b

    def test_different_seeds_differ(self):
        a = derive_rng(1).integers(0, 2**40)
        b = derive_rng(2).integers(0, 2**40)
        assert a != b

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert derive_rng(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(5)
        assert isinstance(derive_rng(sequence), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_are_independent_streams(self):
        children = spawn_rngs(0, 3)
        draws = [child.integers(0, 2**40) for child in children]
        assert len(set(draws)) == 3

    def test_deterministic_from_seed(self):
        first = [g.integers(0, 2**40) for g in spawn_rngs(11, 4)]
        second = [g.integers(0, 2**40) for g in spawn_rngs(11, 4)]
        assert first == second

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_generator_input_spawns(self):
        children = spawn_rngs(np.random.default_rng(9), 2)
        assert len(children) == 2


class TestHelpers:
    def test_choice_without_replacement_distinct(self, rng):
        picked = choice_without_replacement(rng, list(range(20)), 10)
        assert len(picked) == len(set(picked)) == 10

    def test_choice_without_replacement_too_many(self, rng):
        with pytest.raises(ValueError):
            choice_without_replacement(rng, [1, 2, 3], 4)

    def test_shuffled_preserves_elements(self, rng):
        items = list(range(50))
        result = shuffled(rng, items)
        assert sorted(result) == items
        assert items == list(range(50))  # input not mutated

    def test_stable_seed_is_stable(self):
        assert stable_seed_from_name("facebook") == stable_seed_from_name("facebook")

    def test_stable_seed_differs_by_name(self):
        assert stable_seed_from_name("facebook") != stable_seed_from_name("wiki")

    def test_stable_seed_mixes_base_seed(self):
        assert stable_seed_from_name("facebook", 1) != stable_seed_from_name("facebook", 2)

    def test_stable_seed_fits_63_bits(self):
        assert 0 <= stable_seed_from_name("enron") < 2**63


class TestSpawnStateMatrix:
    def test_deterministic_per_seed(self):
        from repro.utils.rng import spawn_state_matrix

        assert np.array_equal(spawn_state_matrix(7, 5, words=3), spawn_state_matrix(7, 5, words=3))
        assert not np.array_equal(spawn_state_matrix(7, 5), spawn_state_matrix(8, 5))

    def test_rows_match_spawned_substreams(self):
        """Row i is a pure function of user i's spawned child sequence."""
        from repro.utils.rng import spawn_state_matrix

        matrix = spawn_state_matrix(9, 4, words=2)
        children = np.random.SeedSequence(9).spawn(4)
        for index, child in enumerate(children):
            assert np.array_equal(matrix[index], child.generate_state(2, np.uint64))

    def test_same_children_as_spawn_rngs(self):
        """The substreams behind the matrix are the spawn_rngs substreams."""
        generators = spawn_rngs(11, 3)
        sequences = np.random.SeedSequence(11).spawn(3)
        for generator, sequence in zip(generators, sequences):
            expected = np.random.default_rng(sequence)
            assert generator.integers(0, 2**32) == expected.integers(0, 2**32)

    def test_words_validation(self):
        from repro.utils.rng import spawn_state_matrix

        with pytest.raises(ValueError):
            spawn_state_matrix(0, 3, words=0)

    def test_uniforms_in_unit_interval(self):
        from repro.utils.rng import spawn_state_matrix, uniforms_from_states

        uniforms = uniforms_from_states(spawn_state_matrix(13, 500, words=1)[:, 0])
        assert uniforms.shape == (500,)
        assert float(uniforms.min()) >= 0.0
        assert float(uniforms.max()) < 1.0
        assert 0.4 < float(uniforms.mean()) < 0.6


def _loop_states(parent, count, words):
    """numpy's per-child reference: one SeedSequence per child."""
    rows = [child.generate_state(words, np.uint64) for child in parent.spawn(count)]
    return np.array(rows, dtype=np.uint64).reshape(count, words)


#: (label, factory) pairs; each factory returns a fresh (kernel parent,
#: numpy parent) pair that spawn identical children.
_PARENTS = {
    "int": lambda: (np.random.SeedSequence(7), np.random.SeedSequence(7)),
    "entropy-128": lambda: _twins(np.random.SeedSequence()),
    "sequence-entropy": lambda: _twins(np.random.SeedSequence([1, 2, 3, 4, 5, 6, 2**40])),
    "seed-sequence": lambda: _twins(np.random.SeedSequence(2**70 + 3, spawn_key=(5, 9))),
    "nested-generator": lambda: _twins(spawn_rngs(spawn_rngs(3, 2)[1], 3)[2]),
    "spawned-before": lambda: _twins(np.random.SeedSequence(4, n_children_spawned=17)),
}


def _twins(parent):
    import pickle

    return parent, pickle.loads(pickle.dumps(parent))


def _sequence(parent):
    return parent.bit_generator.seed_seq if isinstance(parent, np.random.Generator) else parent


class TestVectorisedSpawning:
    """The loop-free kernel against numpy's one-object-per-child loop."""

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 1000])
    @pytest.mark.parametrize("parent", sorted(_PARENTS))
    def test_states_and_counter_match_numpy(self, parent, count, words):
        from repro.utils.rng import spawn_state_matrix

        kernel_parent, numpy_parent = _PARENTS[parent]()
        numpy_sequence = _sequence(numpy_parent)
        expected = _loop_states(numpy_sequence, count, words)
        assert np.array_equal(spawn_state_matrix(kernel_parent, count, words=words), expected)
        kernel_sequence = _sequence(kernel_parent)
        assert kernel_sequence.n_children_spawned == numpy_sequence.n_children_spawned
        # The next spawn continues where the loop's would.
        (next_kernel,) = kernel_sequence.spawn(1)
        (next_numpy,) = numpy_sequence.spawn(1)
        assert next_kernel.spawn_key == next_numpy.spawn_key
        assert np.array_equal(next_kernel.pool, next_numpy.pool)

    def test_generator_parent_advances_its_own_sequence(self):
        from repro.utils.rng import spawn_state_matrix

        generator = np.random.default_rng(12)
        first = spawn_state_matrix(generator, 3, words=1)
        second = spawn_state_matrix(generator, 3, words=1)
        expected = _loop_states(np.random.SeedSequence(12), 6, 1)
        assert np.array_equal(np.vstack([first, second]), expected)

    @pytest.mark.parametrize("bits", [1, 2, 16, 31, 32, 33, 63, 64])
    def test_first_draws_match_fresh_generators(self, bits):
        from repro.utils.rng import bounded_first_draws, pcg64_first_outputs, spawn_state_matrix

        states = spawn_state_matrix(31, 300, words=4)
        masks = bounded_first_draws(pcg64_first_outputs(states), bits)
        expected = [
            np.random.default_rng(child).integers(0, 2**bits, dtype=np.uint64)
            for child in np.random.SeedSequence(31).spawn(300)
        ]
        assert np.array_equal(masks, np.array(expected, dtype=np.uint64))

    def test_raw_outputs_match_pcg64(self):
        from repro.utils.rng import pcg64_first_outputs, spawn_state_matrix

        outputs = pcg64_first_outputs(spawn_state_matrix(8, 200, words=4))
        expected = [
            np.random.default_rng(child).bit_generator.random_raw()
            for child in np.random.SeedSequence(8).spawn(200)
        ]
        assert np.array_equal(outputs, np.array(expected, dtype=np.uint64))

    @pytest.mark.parametrize("bits", [2, 16, 31, 32, 33, 63, 64])
    def test_share_per_user_masks_match_per_user_generators(self, bits):
        from repro.crypto.ring import Ring
        from repro.crypto.sharing import share_per_user

        ring = Ring(bits=bits)
        values = np.arange(50, dtype=np.uint64) & np.uint64(ring.mask)
        pair = share_per_user(values, ring=ring, rng=np.random.default_rng(6))
        expected = [
            ring.random_element(np.random.default_rng(child))
            for child in np.random.SeedSequence(6).spawn(50)
        ]
        assert [int(mask) for mask in pair.share1] == expected
        assert np.array_equal(pair.reconstruct(), values)

    def test_rejects_pool_size_other_than_four(self):
        from repro.utils.rng import spawn_state_matrix

        with pytest.raises(ValueError, match="pool_size"):
            spawn_state_matrix(np.random.SeedSequence(1, pool_size=8), 2)

    def test_rejects_spawning_past_the_uint32_counter(self):
        from repro.utils.rng import spawn_state_matrix

        parent = np.random.SeedSequence(1, n_children_spawned=2**32 - 2)
        twin = np.random.SeedSequence(1, n_children_spawned=2**32 - 2)
        assert np.array_equal(spawn_state_matrix(parent, 1), _loop_states(twin, 1, 2))
        with pytest.raises(ValueError, match="2\\*\\*32 - 1"):
            spawn_state_matrix(parent, 1)

    def test_negative_count_rejected(self):
        from repro.utils.rng import spawn_state_matrix

        with pytest.raises(ValueError):
            spawn_state_matrix(0, -1)


class TestSpawnCounter:
    def test_pickle_layout_sets_the_counter(self):
        """numpy's counter is read-only; the pickle-state route must reach it."""
        from repro.utils.rng import set_children_spawned

        sequence = np.random.SeedSequence(3)
        set_children_spawned(sequence, 41)
        assert sequence.n_children_spawned == 41
        assert sequence.spawn(1)[0].spawn_key == (41,)
        assert sequence.entropy == 3 and sequence.spawn_key == ()

    def test_position_round_trip_covers_spawns_and_draws(self):
        from repro.utils.rng import restore_rng_position, rng_position

        generator = np.random.default_rng(5)
        position = rng_position(generator)
        first = (generator.integers(0, 2**40), spawn_rngs(generator, 2)[1].integers(0, 2**40))
        restore_rng_position(generator, position)
        again = (generator.integers(0, 2**40), spawn_rngs(generator, 2)[1].integers(0, 2**40))
        assert first == again


class TestSeededRng:
    def test_a_32_byte_seed_names_its_spawned_generator(self):
        """The generator a seed row names draws exactly what the spawned child does."""
        from repro.utils.rng import seeded_rng, spawn_state_matrix

        seeds = spawn_state_matrix(17, 6, words=4)
        for seed, child in zip(seeds, spawn_rngs(17, 6)):
            regenerated = seeded_rng(seed)
            for bits in (64, 17, 64):
                high = 2**bits - 1
                assert np.array_equal(
                    regenerated.integers(0, high, size=9, dtype=np.uint64, endpoint=True),
                    child.integers(0, high, size=9, dtype=np.uint64, endpoint=True),
                )

    def test_seed_must_be_four_words(self):
        from repro.utils.rng import seeded_rng

        with pytest.raises(ValueError, match="4 uint64 words"):
            seeded_rng(np.zeros(3, dtype=np.uint64))
