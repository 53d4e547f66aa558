"""Tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import CargoConfig, CountingBackend
from repro.dp.budget import PrivacyBudget
from repro.exceptions import ConfigurationError


class TestCargoConfig:
    def test_defaults(self):
        config = CargoConfig()
        assert config.epsilon == 2.0
        assert config.counting_backend is CountingBackend.MATRIX
        budget = config.resolved_budget()
        assert budget.total == pytest.approx(2.0)
        assert budget.epsilon1 == pytest.approx(0.2)

    def test_explicit_budget_overrides_epsilon(self):
        budget = PrivacyBudget(epsilon1=0.5, epsilon2=0.5)
        config = CargoConfig(epsilon=99.0, budget=budget)
        assert config.resolved_budget() is budget

    def test_backend_accepts_string(self):
        config = CargoConfig(counting_backend="faithful")
        assert config.counting_backend is CountingBackend.FAITHFUL

    def test_backend_accepts_blocked(self):
        config = CargoConfig(counting_backend="blocked", block_size=32)
        assert config.counting_backend is CountingBackend.BLOCKED
        assert config.backend_name == "blocked"
        assert config.block_size == 32

    def test_backend_name_normalises_enum(self):
        assert CargoConfig().backend_name == "matrix"

    def test_unknown_backend_string(self):
        with pytest.raises(ConfigurationError):
            CargoConfig(counting_backend="quantum")

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            CargoConfig(block_size=0)

    @pytest.mark.parametrize("epsilon", [0, -2])
    def test_invalid_epsilon(self, epsilon):
        with pytest.raises(ConfigurationError):
            CargoConfig(epsilon=epsilon)

    @pytest.mark.parametrize("fraction", [0, 1, -0.2])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            CargoConfig(max_degree_fraction=fraction)

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            CargoConfig(batch_size=0)

    def test_custom_split_fraction(self):
        config = CargoConfig(epsilon=1.0, max_degree_fraction=0.3)
        assert config.resolved_budget().epsilon1 == pytest.approx(0.3)
