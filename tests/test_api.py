"""Tests for the Table 1 host API (repro.core.api)."""

import hashlib

import numpy as np
import pytest

from repro.core.api import ECSSD
from repro.errors import ProtocolError, WorkloadError
from repro.workloads import synthetic
from repro.workloads.synthetic import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload(num_labels=1024, hidden_dim=128, num_queries=48, seed=1)


@pytest.fixture()
def device():
    dev = ECSSD()
    dev.ecssd_enable()
    return dev


def full_session(dev, workload, batch=slice(32, 40)):
    dev.weight_deploy(workload.weights, train_features=workload.features[:32])
    features = workload.features[batch]
    dev.int4_input_send(features)
    dev.cfp32_input_send(dev.pre_align(features))
    dev.int4_screen()
    dev.cfp32_classify()
    return dev.get_results()


class TestModes:
    def test_starts_in_ssd_mode(self):
        assert ECSSD().mode == "ssd"

    def test_enable_disable(self):
        dev = ECSSD()
        dev.ecssd_enable()
        assert dev.mode == "accelerator"
        dev.ecssd_disable()
        assert dev.mode == "ssd"

    def test_deploy_requires_accelerator_mode(self, workload):
        dev = ECSSD()
        with pytest.raises(ProtocolError):
            dev.weight_deploy(workload.weights)

    def test_disable_drops_session_state(self, device, workload):
        full_session(device, workload)
        device.ecssd_disable()
        with pytest.raises(ProtocolError):
            device.get_results()
        assert device.last_report is None


class TestWorkflowOrder:
    def test_full_session_returns_labels(self, device, workload):
        labels = full_session(device, workload)
        assert labels.shape == (8, 5)
        assert (labels >= 0).all()

    def test_screen_before_send_rejected(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        with pytest.raises(ProtocolError):
            device.int4_screen()

    def test_classify_before_screen_rejected(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        device.int4_input_send(workload.features[32:34])
        with pytest.raises(ProtocolError):
            device.cfp32_classify()

    def test_classify_requires_cfp32_inputs(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        device.int4_input_send(workload.features[32:34])
        device.int4_screen()
        with pytest.raises(ProtocolError):
            device.cfp32_classify()

    def test_results_before_compute_rejected(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        with pytest.raises(ProtocolError):
            device.get_results()

    def test_send_before_deploy_rejected(self, device, workload):
        with pytest.raises(ProtocolError):
            device.int4_input_send(workload.features[:2])

    def test_empty_cfp32_send_rejected(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        with pytest.raises(ProtocolError):
            device.cfp32_input_send([])

    def test_cfp32_batch_must_match_int4_batch(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        device.cfp32_input_send(device.pre_align(workload.features[40:43]))
        device.int4_input_send(workload.features[32:40])
        device.int4_screen()
        with pytest.raises(ProtocolError, match="3 CFP32 vectors .* batch of 8"):
            device.cfp32_classify()

    def test_cfp32_vector_width_must_match_model(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        features = workload.features[32:40]
        device.cfp32_input_send(device.pre_align(features[:, :17]))
        device.int4_input_send(features)
        device.int4_screen()
        with pytest.raises(ProtocolError, match="length 128"):
            device.cfp32_classify()


class TestSemantics:
    def test_new_inputs_drop_previous_results(self, device, workload):
        full_session(device, workload, batch=slice(32, 40))
        features = workload.features[40:48]
        device.cfp32_input_send(device.pre_align(features))
        device.int4_input_send(features)
        with pytest.raises(ProtocolError):
            device.get_results()
        with pytest.raises(ProtocolError):
            device.cfp32_classify()
        assert device.last_report is None
        device.int4_screen()
        device.cfp32_classify()
        direct = device.device.model.infer(features, top_k=5)
        np.testing.assert_array_equal(device.get_results(), direct.result.top_labels)

    @pytest.mark.parametrize("send", ["int4", "cfp32"])
    def test_either_send_drops_previous_results(self, device, workload, send):
        full_session(device, workload)
        features = workload.features[40:48]
        if send == "int4":
            device.int4_input_send(features)
        else:
            device.cfp32_input_send(device.pre_align(features))
        with pytest.raises(ProtocolError):
            device.get_results()

    def test_nan_filter_threshold_rejected(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        with pytest.raises(WorkloadError, match="NaN"):
            device.filter_threshold(float("nan"))

    def test_results_match_direct_model(self, device, workload):
        labels = full_session(device, workload)
        direct = device.device.model.infer(workload.features[32:40], top_k=5)
        np.testing.assert_array_equal(labels, direct.result.top_labels)

    def test_prealign_roundtrip(self, device, workload):
        aligned = device.pre_align(workload.features[:3])
        assert len(aligned) == 3
        assert all(len(v) == 128 for v in aligned)

    def test_filter_threshold_overrides(self, device, workload):
        device.weight_deploy(workload.weights, train_features=workload.features[:32])
        device.filter_threshold(-1e9)  # keep everything
        features = workload.features[32:34]
        device.int4_input_send(features)
        device.cfp32_input_send(device.pre_align(features))
        screen = device.int4_screen()
        assert screen.candidate_ratio() == pytest.approx(1.0)

    def test_filter_threshold_before_deploy_rejected(self, device):
        with pytest.raises(ProtocolError):
            device.filter_threshold(1.0)

    def test_last_report_populated(self, device, workload):
        full_session(device, workload)
        report = device.last_report
        assert report is not None
        assert report.scaled_total_time > 0

    def test_set_top_k(self, device, workload):
        device.set_top_k(3)
        labels = full_session(device, workload)
        assert labels.shape == (8, 3)
        with pytest.raises(ProtocolError):
            device.set_top_k(0)


class TestBitIdentityPin:
    """Device-query outputs, pinned bit-for-bit.

    Replays the perfbench ``device-query`` shape: a clustered 4096-label x
    256-dim model deployed with ``target_ratio=0.05`` on 64 calibration rows
    kept apart from the queries, then ``CALLS`` Table-1 calls of 8 queries
    each.  The digest covers every call's labels, top scores, candidate
    sets, simulated latency and every CFP32 vector, so any change to
    screening, pre-alignment, classification or tile timing moves it.
    """

    CALLS = 150
    BATCH = 8
    CALIBRATION = 64
    EXPECTED_DIGEST = (
        "b95e859246ff2f8e29fe3ae3510b244bd19ef4f328c17e2cf932cc21ddeac9bf"
    )
    EXPECTED_THRESHOLD = "0x1.1f7b6e0000000p-3"

    def replay(self):
        weights, cluster_of_label = synthetic.generate_weights(4096, 256, seed=11)
        features, _ = synthetic.generate_features(
            self.CALIBRATION + self.CALLS * self.BATCH,
            256,
            weights,
            cluster_of_label,
            seed=12,
        )
        dev = ECSSD()
        dev.ecssd_enable()
        dev.weight_deploy(
            weights, train_features=features[: self.CALIBRATION], target_ratio=0.05
        )
        queries = features[self.CALIBRATION:].reshape(self.CALLS, self.BATCH, 256)
        digest = hashlib.sha256()
        for batch in queries:
            aligned = dev.pre_align(batch)
            dev.cfp32_input_send(aligned)
            dev.int4_input_send(batch)
            screen = dev.int4_screen()
            result = dev.cfp32_classify()
            labels = dev.get_results()
            digest.update(labels.tobytes())
            digest.update(result.top_scores.tobytes())
            for selected in screen.candidates:
                digest.update(selected.tobytes())
            digest.update(dev.last_report.scaled_total_time.hex().encode())
            for vector in aligned:
                digest.update(str(vector.shared_exponent).encode())
                digest.update(vector.mantissas.tobytes())
                digest.update(vector.dropped_bits.tobytes())
        return dev, digest.hexdigest()

    def test_replay_is_bit_identical(self):
        dev, digest = self.replay()
        assert dev.device.model.threshold.hex() == self.EXPECTED_THRESHOLD
        assert digest == self.EXPECTED_DIGEST
