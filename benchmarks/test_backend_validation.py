"""Cross-backend validation bench: analytic pipeline vs event simulator."""

from conftest import run_once

from repro.analysis import artifacts


def test_backend_cross_validation(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.backend_validation)
    record_table("backend_validation", artifact.table)
    report = artifact.data

    assert report.ordering_agrees()
    assert report.within_envelope()
    # Event model is the richer one: it never under-prices the analytic rule
    # by more than the envelope floor.
    for row in report.rows:
        assert row.ratio >= 0.8
