"""Tests for the heterogeneous/homogeneous layout bookkeeping (§4.3, §7.1)."""

import pytest

from repro.errors import CapacityError
from repro.layout.heterogeneous import (
    DataLocation,
    WeightLayout,
    heterogeneous_layout,
    homogeneous_layout,
)
from repro.units import GiB
from repro.workloads.benchmarks import get_benchmark


class TestConstructors:
    def test_heterogeneous_puts_int4_in_dram(self):
        layout = heterogeneous_layout(100, 1000)
        assert layout.int4_location is DataLocation.DRAM
        assert layout.fp32_location is DataLocation.FLASH

    def test_homogeneous_puts_everything_in_flash(self):
        layout = homogeneous_layout(100, 1000)
        assert layout.int4_location is DataLocation.FLASH


class TestDramCapacity:
    def test_fits(self):
        layout = heterogeneous_layout(8 * GiB, 100 * GiB)
        layout.check_dram_capacity(16 * GiB)  # no raise

    def test_reserved_counts(self):
        layout = heterogeneous_layout(15 * GiB, 0)
        layout.check_dram_capacity(16 * GiB, reserved=GiB)  # exactly fits
        with pytest.raises(CapacityError):
            layout.check_dram_capacity(16 * GiB, reserved=2 * GiB)

    def test_homogeneous_needs_no_dram(self):
        layout = homogeneous_layout(100 * GiB, 400 * GiB)
        layout.check_dram_capacity(1)  # no raise: nothing DRAM-resident

    def test_overflow_raises(self):
        layout = heterogeneous_layout(20 * GiB, 0)
        with pytest.raises(CapacityError):
            layout.check_dram_capacity(16 * GiB)

    def test_fp32_in_dram_counted(self):
        layout = WeightLayout(
            int4_location=DataLocation.DRAM,
            fp32_location=DataLocation.DRAM,
            int4_bytes=GiB,
            fp32_bytes=20 * GiB,
        )
        with pytest.raises(CapacityError):
            layout.check_dram_capacity(16 * GiB)


class TestPaperScenarios:
    def test_s100m_int4_fits_16gib_dram(self):
        """§7.1: the 12.8 GB S100M screener matrix fits 16 GiB DRAM."""
        spec = get_benchmark("XMLCNN-S100M")
        layout = heterogeneous_layout(spec.int4_matrix_bytes, spec.fp32_matrix_bytes)
        layout.check_dram_capacity(16 * GiB, reserved=256 * 1024 * 1024)

    def test_s100m_int4_busts_8gib_dram(self):
        """§7.1: 8 GiB DRAM caps deployments around 50M categories."""
        spec = get_benchmark("XMLCNN-S100M")
        layout = heterogeneous_layout(spec.int4_matrix_bytes, spec.fp32_matrix_bytes)
        with pytest.raises(CapacityError):
            layout.check_dram_capacity(8 * GiB)

    def test_s50m_fits_8gib(self):
        spec = get_benchmark("XMLCNN-S50M")
        layout = heterogeneous_layout(spec.int4_matrix_bytes, spec.fp32_matrix_bytes)
        layout.check_dram_capacity(8 * GiB, reserved=256 * 1024 * 1024)
