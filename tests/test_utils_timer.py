"""Tests for repro.telemetry.timers."""

from __future__ import annotations

import time

import pytest

from repro.telemetry.timers import Timer, TimerRegistry


class TestTimer:
    def test_measures_elapsed_time(self):
        timer = Timer("phase")
        with timer.measure():
            time.sleep(0.01)
        assert timer.total_seconds >= 0.009
        assert timer.calls == 1

    def test_accumulates_across_calls(self):
        timer = Timer("phase")
        for _ in range(3):
            with timer.measure():
                pass
        assert timer.calls == 3

    def test_nested_start_rejected(self):
        timer = Timer("phase")
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()
        timer.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer("phase").stop()

    def test_stop_returns_interval(self):
        timer = Timer("phase")
        timer.start()
        assert timer.stop() >= 0.0


class TestTimerRegistry:
    def test_timer_is_created_on_demand(self):
        registry = TimerRegistry()
        assert registry.timer("count") is registry.timer("count")
        assert "count" in registry

    def test_measure_and_as_dict(self):
        registry = TimerRegistry()
        with registry.measure("a"):
            pass
        with registry.measure("b"):
            pass
        snapshot = registry.as_dict()
        assert set(snapshot) == {"a", "b"}
        assert all(value >= 0 for value in snapshot.values())

    def test_seconds_unknown_phase_is_zero(self):
        assert TimerRegistry().seconds("missing") == 0.0

    def test_reset(self):
        registry = TimerRegistry()
        with registry.measure("a"):
            pass
        registry.reset()
        assert len(registry) == 0
