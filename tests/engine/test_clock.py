"""Unit tests for the simulation clock."""

import pytest

from repro.engine.clock import CycleClock


class TestCycleClock:
    def test_starts_at_zero(self):
        assert CycleClock().now == 0

    def test_custom_start(self):
        assert CycleClock(start=5).now == 5

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            CycleClock(start=-1)

    def test_advance_default(self):
        clock = CycleClock()
        assert clock.advance() == 1
        assert clock.now == 1

    def test_advance_many(self):
        clock = CycleClock()
        clock.advance(10)
        assert clock.now == 10

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            CycleClock().advance(-1)

    def test_reset(self):
        clock = CycleClock()
        clock.advance(3)
        clock.reset()
        assert clock.now == 0
