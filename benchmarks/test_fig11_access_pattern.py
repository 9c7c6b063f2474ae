"""E8 — Fig. 11: flash channel access patterns, uniform vs learned."""

from conftest import run_once

from repro.analysis import artifacts


def test_fig11_access_pattern(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.fig11)
    record_table("fig11_access_pattern", artifact.table)
    uniform, learned = artifact.data

    # The paper's qualitative claim: learned is visibly more balanced.
    assert learned.balance > uniform.balance
    assert learned.balance > 0.8
    assert learned.pages_per_channel.max() < uniform.pages_per_channel.max()
    # Same data moved either way.
    assert learned.pages_per_channel.sum() == uniform.pages_per_channel.sum()
