"""Tests for repro.units: conversions and transfer-time arithmetic."""

import pytest

from repro import units


class TestPrefixes:
    def test_binary_prefixes_chain(self):
        assert units.KiB == 1024
        assert units.MiB == 1024 * units.KiB
        assert units.GiB == 1024 * units.MiB
        assert units.TiB == 1024 * units.GiB

    def test_decimal_prefixes_chain(self):
        assert units.KB == 1000
        assert units.MB == 1000 * units.KB
        assert units.GB == 1000 * units.MB
        assert units.TB == 1000 * units.GB

    def test_binary_and_decimal_differ(self):
        assert units.GiB > units.GB


class TestRateHelpers:
    def test_gbps(self):
        assert units.gbps(1.0) == 1e9

    def test_gflops(self):
        assert units.gflops(50) == 50e9

    def test_gops(self):
        assert units.gops(200) == 200e9

    def test_time_helpers(self):
        assert units.us(1) == pytest.approx(1e-6)
        assert units.ms(2) == pytest.approx(2e-3)
        assert units.ns(3) == pytest.approx(3e-9)


class TestTransferTime:
    def test_basic(self):
        assert units.transfer_time(1e9, 1e9) == pytest.approx(1.0)

    def test_zero_bytes_is_zero_time(self):
        assert units.transfer_time(0, 1e9) == 0.0

    def test_zero_bytes_with_zero_bandwidth_is_zero(self):
        # Zero payload never needs the link, so bandwidth isn't consulted.
        assert units.transfer_time(0, 0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time(-1, 1e9)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time(100, 0)

    def test_page_at_channel_rate(self):
        # 4 KiB over 1 GB/s: ~4.1 us.
        assert units.transfer_time(4096, 1e9) == pytest.approx(4.096e-6)


class TestPretty:
    def test_pretty_bytes_scales(self):
        assert units.pretty_bytes(512) == "512 B"
        assert "KiB" in units.pretty_bytes(8192)
        assert "GiB" in units.pretty_bytes(3 * units.GiB)
