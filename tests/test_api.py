"""Tests for the Table 1 host API (repro.core.api)."""

import numpy as np
import pytest

from repro.core.api import ECSSD
from repro.errors import ProtocolError
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
