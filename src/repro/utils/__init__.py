"""Small shared utilities: seeded randomness, atomic writes, and validation."""

from repro.utils.atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from repro.utils.rng import RandomState, derive_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RandomState",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "derive_rng",
    "spawn_rngs",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
