"""§4.5 data-preparation period: weight deployment timing (extension).

The paper describes the deployment workflow but publishes no figure for it;
this bench regenerates the implied numbers (a 400 GB CFP32 ingest is
program-bandwidth-bound) and the break-even query count after which the
one-time deployment stops mattering.
"""

from conftest import run_once

from repro.analysis.experiments import _run_device
from repro.analysis.reporting import format_seconds, render_table
from repro.core.deployment import DeploymentModel
from repro.core.pipeline import PipelineFeatures
from repro.workloads.benchmarks import get_benchmark


def test_sec45_deployment(benchmark, record_table):
    model = DeploymentModel()
    names = ("GNMT-E32K", "XMLCNN-S10M", "XMLCNN-S100M")

    def experiment():
        return {name: model.deploy(get_benchmark(name)) for name in names}

    timings = run_once(benchmark, experiment)

    rows = []
    for name in names:
        t = timings[name]
        rows.append(
            [
                name,
                format_seconds(t.prealign_time),
                format_seconds(t.fp32_transfer_time),
                format_seconds(t.program_time),
                format_seconds(t.total_time),
                t.bottleneck,
            ]
        )
    table = render_table(
        ["benchmark", "pre-align", "PCIe transfer", "flash program",
         "total", "bottleneck"],
        rows,
        title="Section 4.5: data-preparation (weight deployment) period",
    )
    record_table("sec45_deployment", table)

    s100m = timings["XMLCNN-S100M"]
    assert s100m.bottleneck == "program"
    assert s100m.program_time > s100m.fp32_transfer_time

    # Break-even: after how many queries does deployment cost <1%?
    report = _run_device(
        get_benchmark("XMLCNN-S100M"), PipelineFeatures.full(), "learned",
        queries=8, sample_tiles=6,
    )
    per_query = report.scaled_total_time / 8
    queries = model.amortization_queries(get_benchmark("XMLCNN-S100M"), per_query)
    record_table(
        "sec45_amortization",
        f"S100M deployment amortizes below 1% of serving time after"
        f" {queries:,.0f} queries ({format_seconds(per_query)}/query).",
    )
    assert queries > 0
