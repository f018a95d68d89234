"""Unit tests for clocks, byte units and formatting."""

import pytest

from repro.config.units import Clock, DEFAULT_CLOCK, GB, KB, MB, format_bytes
from repro.errors import ConfigError


class TestClock:
    def test_default_is_one_ghz(self):
        assert DEFAULT_CLOCK.frequency_hz == 1e9

    def test_one_ghz_cycle_is_one_nanosecond(self):
        assert DEFAULT_CLOCK.cycles_to_seconds(1.0) == pytest.approx(1e-9)

    def test_bandwidth_conversion_at_one_ghz(self):
        # 200 GB/s at 1 GHz = 200 bytes per cycle.
        assert DEFAULT_CLOCK.bandwidth_bytes_per_cycle(200.0) == pytest.approx(200.0)

    def test_bandwidth_conversion_scales_with_clock(self):
        clock = Clock(frequency_hz=2e9)
        assert clock.bandwidth_bytes_per_cycle(200.0) == pytest.approx(100.0)

    def test_invalid_frequency(self):
        with pytest.raises(ConfigError):
            Clock(frequency_hz=0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigError):
            DEFAULT_CLOCK.bandwidth_bytes_per_cycle(-1.0)


class TestUnits:
    def test_byte_constants(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    @pytest.mark.parametrize("value,expected", [
        (0, "0 B"),
        (512, "512 B"),
        (2048, "2.0 KB"),
        (4 * MB, "4.0 MB"),
        (3 * GB, "3.0 GB"),
    ])
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ConfigError):
            format_bytes(-1)
