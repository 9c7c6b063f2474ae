"""Tests for repro.config: Table 2 geometry and validation."""

import math

import pytest

from repro.config import (
    AcceleratorConfig,
    ECSSDConfig,
    FlashConfig,
    default_config,
    validate_table2,
)
from repro.errors import ConfigurationError
from repro.units import GiB, KiB, MiB, TiB, gbps


class TestFlashConfig:
    def test_default_is_4tb_class(self):
        flash = FlashConfig()
        assert flash.capacity_bytes == 4 * TiB

    def test_default_channels_and_page(self):
        flash = FlashConfig()
        assert flash.channels == 8
        assert flash.page_size == 4 * KiB

    def test_hierarchy_multiplies_out(self):
        flash = FlashConfig()
        assert flash.total_pages == flash.channels * flash.pages_per_channel
        assert (
            flash.pages_per_channel
            == flash.dies_per_channel * flash.pages_per_die
        )
        assert flash.pages_per_die == flash.planes_per_die * flash.pages_per_plane
        assert flash.pages_per_plane == flash.blocks_per_plane * flash.pages_per_block

    def test_internal_bandwidth_is_8x_channel(self):
        flash = FlashConfig()
        assert flash.internal_bandwidth == pytest.approx(8 * gbps(1.0))

    def test_page_transfer_time(self):
        flash = FlashConfig()
        assert flash.page_transfer_time == pytest.approx(4096 / 1e9)

    def test_streaming_is_bus_limited(self):
        # tR spread over the channel's dies must not exceed page bus time,
        # or Table 2's 1 GB/s per-channel streaming figure would not hold.
        flash = FlashConfig()
        assert flash.read_latency / flash.dies_per_channel <= flash.page_transfer_time

    @pytest.mark.parametrize(
        "field",
        ["channels", "packages_per_channel", "dies_per_package", "page_size"],
    )
    def test_rejects_non_positive(self, field):
        with pytest.raises(ConfigurationError):
            FlashConfig(**{field: 0})

    def test_rejects_non_positive_timing(self):
        with pytest.raises(ConfigurationError):
            FlashConfig(read_latency=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("read_latency", math.nan),
            ("read_latency", math.inf),
            ("program_latency", math.nan),
            ("program_latency", math.inf),
            ("erase_latency", math.inf),
            ("channel_bandwidth", math.nan),
        ],
    )
    def test_rejects_non_finite_timing(self, field, value):
        # The channel prices die operations without re-checking durations.
        with pytest.raises(ConfigurationError, match=field):
            FlashConfig(**{field: value})


class TestAcceleratorConfig:
    def test_table2_defaults(self):
        acc = AcceleratorConfig()
        assert acc.fp32_macs == 64
        assert acc.int4_macs == 256
        assert acc.frequency_hz == 400e6
        assert acc.technology_nm == 28

    def test_throughputs_match_section_6_1(self):
        acc = AcceleratorConfig()
        assert acc.int4_throughput == pytest.approx(200e9)
        assert acc.fp32_throughput == pytest.approx(50e9)
        assert acc.naive_fp32_throughput == pytest.approx(29.2e9)

    def test_peak_matches_mac_count(self):
        # 256 INT4 MACs x 2 ops x 400 MHz = 204.8 GOPS ~ the 200 GOPS quoted.
        acc = AcceleratorConfig()
        implied = acc.int4_macs * 2 * acc.frequency_hz
        assert implied == pytest.approx(acc.int4_throughput, rel=0.05)
        implied_fp = acc.fp32_macs * 2 * acc.frequency_hz
        assert implied_fp == pytest.approx(acc.fp32_throughput, rel=0.05)

    def test_buffer_total_sums_table2(self):
        acc = AcceleratorConfig()
        buffers = (
            acc.index_buffer, acc.int4_weight_buffer, acc.int4_input_buffer,
            acc.int4_output_buffer, acc.fp32_input_buffer,
            acc.fp32_weight_buffer, acc.fp32_output_buffer,
        )
        assert sum(buffers) == (4 + 128 + 4 + 2 + 100 + 400 + 1) * KiB

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            AcceleratorConfig(fp32_macs=0)
        with pytest.raises(ConfigurationError):
            AcceleratorConfig(frequency_hz=-1)


class TestECSSDConfig:
    def test_table2_top_half(self):
        cfg = ECSSDConfig()
        assert cfg.dram_capacity == 16 * GiB
        assert cfg.data_buffer == 4 * MiB
        assert cfg.dram_bandwidth == pytest.approx(gbps(12.8))

    def test_area_budget_is_cortex_r5(self):
        assert ECSSDConfig().area_budget_mm2 == pytest.approx(0.21)

    def test_validate_table2_accepts_default(self):
        validate_table2(default_config())

    def test_validate_table2_rejects_wrong_channels(self):
        with pytest.raises(ConfigurationError):
            validate_table2(default_config().with_channels(4))

    def test_with_channels_copies(self):
        base = default_config()
        wide = base.with_channels(16)
        assert wide.flash.channels == 16
        assert base.flash.channels == 8

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ECSSDConfig(dram_capacity=0)
        with pytest.raises(ConfigurationError):
            ECSSDConfig(host_bandwidth=0)
        with pytest.raises(ConfigurationError):
            ECSSDConfig(ftl_command_overhead=-1)
