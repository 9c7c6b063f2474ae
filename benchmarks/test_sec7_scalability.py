"""E12 — §7.1: DRAM scalability and the 500M-category scale-out plan."""

from conftest import run_once

from repro.analysis import artifacts


def test_sec71_scalability(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.sec71_scalability)
    record_table("sec71_scalability", artifact.table)
    points = artifact.data

    by_gib = {p.dram_capacity_gib: p for p in points}
    # Each size holds its named scenario but not the next one up.
    assert 50 <= by_gib[8].max_categories_millions < 100
    assert 100 <= by_gib[16].max_categories_millions < 200
    assert by_gib[32].max_categories_millions >= 200


def test_sec71_scale_out(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.sec71_scale_out)
    record_table("sec71_scale_out", artifact.table)
    plan = artifact.data

    assert plan.devices_needed == 5
