"""Host-facing ECSSD API (Table 1).

This facade exposes the paper's Python-style API verbatim — preparation
(``ecssd_enable``/``ecssd_disable``, ``pre_align``, ``weight_deploy``),
transmission (``int4_input_send``, ``cfp32_input_send``, ``get_results``),
and computation (``int4_screen``, ``cfp32_classify``, ``filter_threshold``)
— over an :class:`repro.core.ecssd.ECSSDevice`.  A small state machine
enforces the workflow order of §4.5 and raises
:class:`repro.errors.ProtocolError` on misuse.
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from ..cfp32.format import CFP32Vector, prealign
from ..config import ECSSDConfig
from ..errors import ProtocolError
from ..screening.classifier import ClassificationResult
from ..screening.screener import ScreenResult
from .ecssd import ECSSDevice, PerformanceReport
from .pipeline import PipelineFeatures


class _Mode(enum.Enum):
    SSD = "ssd"
    ACCELERATOR = "accelerator"


class ECSSD:
    """The Table 1 API surface.

    Typical accelerator-mode session::

        dev = ECSSD()
        dev.ecssd_enable()
        dev.filter_threshold(None)          # or a calibrated value
        dev.weight_deploy(weights, train_features=calib)
        dev.cfp32_input_send(dev.pre_align(features))
        dev.int4_input_send(features)
        dev.int4_screen()
        dev.cfp32_classify()
        labels = dev.get_results()
    """

    def __init__(
        self,
        config: Optional[ECSSDConfig] = None,
        features: PipelineFeatures = PipelineFeatures.full(),
        interleaving: str = "learned",
    ) -> None:
        self.device = ECSSDevice(
            config=config, features=features, interleaving=interleaving
        )
        self._mode = _Mode.SSD
        self._deployed = False
        self._int4_inputs: Optional[np.ndarray] = None
        self._cfp32_inputs: Optional[List[CFP32Vector]] = None
        self._raw_features: Optional[np.ndarray] = None
        self._screen: Optional[ScreenResult] = None
        self._result: Optional[ClassificationResult] = None
        self._report: Optional[PerformanceReport] = None
        self._top_k = 5

    # --- preparation --------------------------------------------------------------
    def ecssd_enable(self) -> None:
        """Switch to accelerator mode (Table 1: ECSSD_enable)."""
        self._mode = _Mode.ACCELERATOR

    def ecssd_disable(self) -> None:
        """Switch back to plain SSD mode; accelerator state is dropped."""
        self._mode = _Mode.SSD
        self._int4_inputs = None
        self._cfp32_inputs = None
        self._drop_outputs()

    @property
    def mode(self) -> str:
        return self._mode.value

    def pre_align(self, data: np.ndarray) -> List[CFP32Vector]:
        """Host-side CFP32 pre-alignment of rows of ``data`` (Pre_align)."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float32))
        return [prealign(row) for row in data]

    def weight_deploy(
        self,
        weights: np.ndarray,
        train_features: Optional[np.ndarray] = None,
        target_ratio: float = 0.10,
    ) -> None:
        """Deploy 4-bit + 32-bit weights into the device (Weight_deploy)."""
        self._require_accelerator_mode()
        self.device.deploy_model(
            weights, train_features=train_features, target_ratio=target_ratio
        )
        self._deployed = True

    def filter_threshold(self, threshold: Optional[float]) -> None:
        """Install the screening threshold (Filter_threshold).

        ``None`` keeps the threshold calibrated during ``weight_deploy``.
        """
        self._require_accelerator_mode()
        if threshold is not None:
            if self.device.model is None:
                raise ProtocolError("deploy weights before setting a threshold")
            self.device.model.set_threshold(threshold)

    # --- transmission ----------------------------------------------------------------
    def int4_input_send(self, features: np.ndarray) -> None:
        """Send the (to-be-projected) input batch for screening."""
        self._require_deployed()
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        self._int4_inputs = features
        self._drop_outputs()

    def cfp32_input_send(self, aligned: List[CFP32Vector]) -> None:
        """Send the pre-aligned full-precision input batch."""
        self._require_deployed()
        if not aligned:
            raise ProtocolError("cfp32_input_send needs at least one vector")
        self._cfp32_inputs = aligned
        self._drop_outputs()

    def get_results(self) -> np.ndarray:
        """Fetch the final top-k label predictions (Get_results)."""
        if self._result is None:
            raise ProtocolError("run int4_screen and cfp32_classify first")
        return self._result.top_labels

    # --- computation ------------------------------------------------------------------
    def int4_screen(self) -> ScreenResult:
        """Run low-precision screening + filtering on the sent inputs."""
        self._require_deployed()
        if self._int4_inputs is None:
            raise ProtocolError("int4_input_send must run before int4_screen")
        model = self.device.model
        assert model is not None
        stats, report = self.device.run_inference(
            self._int4_inputs, top_k=self._top_k
        )
        # Screening and classification happen in one device pass; the API
        # splits them, so stash both halves.
        self._screen = stats.screen
        self._result = stats.result
        self._report = report
        return stats.screen

    def cfp32_classify(self) -> ClassificationResult:
        """Run candidate-only full-precision classification."""
        if self._screen is None or self._result is None:
            raise ProtocolError("int4_screen must run before cfp32_classify")
        if self._cfp32_inputs is None:
            raise ProtocolError("cfp32_input_send must run before cfp32_classify")
        deployment = self.device.deployment
        assert self._int4_inputs is not None and deployment is not None
        batch = len(self._int4_inputs)
        if len(self._cfp32_inputs) != batch:
            raise ProtocolError(
                f"{len(self._cfp32_inputs)} CFP32 vectors sent for an INT4 batch "
                f"of {batch}"
            )
        hidden_dim = deployment.hidden_dim
        if any(len(vector) != hidden_dim for vector in self._cfp32_inputs):
            raise ProtocolError(f"CFP32 vectors must have length {hidden_dim}")
        return self._result

    # --- introspection -----------------------------------------------------------------
    @property
    def last_report(self) -> Optional[PerformanceReport]:
        """Timing report of the most recent inference pass."""
        return self._report

    def set_top_k(self, top_k: int) -> None:
        if top_k < 1:
            raise ProtocolError("top_k must be >= 1")
        self._top_k = top_k

    def _drop_outputs(self) -> None:
        """Forget the last pass's outputs: they answer inputs no longer sent."""
        self._screen = None
        self._result = None
        self._report = None

    def _require_accelerator_mode(self) -> None:
        if self._mode is not _Mode.ACCELERATOR:
            raise ProtocolError("call ecssd_enable() first (device is in SSD mode)")

    def _require_deployed(self) -> None:
        self._require_accelerator_mode()
        if not self._deployed:
            raise ProtocolError("weight_deploy() must run first")
