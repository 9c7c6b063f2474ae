"""Cross-level integration tests.

The repository has two timing levels: the event-driven SSD simulator
(`repro.ssd`) and the analytic tile pipeline (`repro.core.pipeline`).  These
tests drive the same fetch pattern through both and require agreement, and
run the full functional stack end to end.
"""

import numpy as np

from repro.config import ECSSDConfig
from repro.core.ecssd import ECSSDevice
from repro.core.pipeline import PipelineFeatures, TilePipelineModel
from repro.layout.placement import build_placement
from repro.layout.uniform import UniformInterleaving
from repro.ssd.device import SSDDevice
from repro.workloads.synthetic import make_workload


class TestEventVsAnalytic:
    def test_fetch_makespan_agrees(self):
        """Event-simulated channel makespan matches the analytic model's
        pages x effective-page-time rule within the sense-fill constant."""
        config = ECSSDConfig()
        device = SSDDevice(config)
        placement = build_placement(
            UniformInterleaving(), 512, config.flash.channels, 4096, 4096
        )
        candidates = np.random.default_rng(0).choice(512, size=160, replace=False)
        lists = placement.fetch_page_lists(candidates)

        # Write those pages through the FTL so physical addresses exist.
        logical = []
        for channel, pages in lists.items():
            base = device.ftl.channel_logical_range(channel).start
            logical.extend(base + int(p) for p in pages)
        for lpa in logical:
            device.ftl.write(lpa)
        addresses = [device.ftl.lookup(lpa) for lpa in logical]
        result = device.fetch_pages(addresses, start=0.0)

        pipeline = TilePipelineModel(config=config, features=PipelineFeatures.full())
        counts = placement.pages_per_channel(candidates)
        analytic = counts.max() * pipeline.effective_page_time

        # The event model resolves effects the steady-state analytic rule
        # folds away: one initial sense, per-command firmware overhead, and
        # die-sense serialization when a random batch lands unevenly across
        # a channel's dies.  Agreement must hold within that envelope.
        overhead = config.flash.read_latency + config.ftl_command_overhead * (
            counts.max() + 2
        )
        assert result.makespan <= 2.2 * analytic + overhead
        assert result.makespan >= analytic * 0.8

    def test_event_utilization_tracks_balance(self):
        config = ECSSDConfig()
        device = SSDDevice(config)
        placement = build_placement(
            UniformInterleaving(), 256, config.flash.channels, 4096, 4096
        )
        balanced = np.arange(128)
        counts = placement.pages_per_channel(balanced)
        assert counts.max() - counts.min() <= 1
        lists = placement.fetch_page_lists(balanced)
        logical = []
        for channel, pages in lists.items():
            base = device.ftl.channel_logical_range(channel).start
            logical.extend(base + int(p) for p in pages)
        for lpa in logical:
            device.ftl.write(lpa)
        result = device.fetch_pages(
            [device.ftl.lookup(lpa) for lpa in logical], start=0.0
        )
        # Small random batches pay sense serialization the steady-state
        # model hides; utilization still clearly beats the skewed regime.
        assert result.utilization(device.page_transfer_time) > 0.45


class TestFullStack:
    def test_quickstart_flow(self):
        """The README quickstart, as a test."""
        wl = make_workload(num_labels=2048, hidden_dim=256, num_queries=48, seed=0)
        dev = ECSSDevice(interleaving="learned")
        dev.deploy_model(wl.weights, train_features=wl.features[:32])
        stats, report = dev.run_inference(wl.features[32:40], top_k=5)
        assert stats.result.top_labels.shape == (8, 5)
        assert report.scaled_total_time > 0
        # Predictions match a plain numpy reference.
        exact = wl.features[32:40] @ wl.weights.T
        np.testing.assert_array_equal(
            stats.result.top_labels[:, 0], exact.argmax(axis=1)
        )

    def test_feature_flags_never_change_predictions(self):
        wl = make_workload(num_labels=1024, hidden_dim=128, num_queries=40, seed=1)
        outputs = []
        for features in (PipelineFeatures.full(), PipelineFeatures.baseline()):
            strategy = "learned" if features.overlap else "sequential"
            dev = ECSSDevice(features=features, interleaving=strategy)
            dev.deploy_model(wl.weights, train_features=wl.features[:24])
            stats, _ = dev.run_inference(wl.features[24:32])
            outputs.append(stats.result.top_labels.copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_baseline_features_slower_than_full(self):
        wl = make_workload(num_labels=1024, hidden_dim=128, num_queries=40, seed=1)
        times = {}
        for features in (PipelineFeatures.full(), PipelineFeatures.baseline()):
            strategy = "learned" if features.overlap else "sequential"
            dev = ECSSDevice(features=features, interleaving=strategy)
            dev.deploy_model(wl.weights, train_features=wl.features[:24])
            _, report = dev.run_inference(wl.features[24:32])
            times[features.label] = report.scaled_total_time
        assert times["baseline"] > times["ecssd"]
