"""End-to-end approximate screening model (Fig. 2's whole pipeline).

:class:`ApproximateScreeningModel` owns the projection, the quantized
screener, the calibrated threshold, and the FP32 classifier, and runs the
two-stage inference: screen with INT4 on projected features, then classify
candidates in full precision.  It also reports the statistics the hardware
model needs — candidate sets (for layout/channel simulation) and FLOP counts
(for roofline/compute analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import WorkloadError
from .classifier import CandidateClassifier, ClassificationResult
from .projection import DEFAULT_PROJECTION_SCALE, ProjectionMatrix, project
from .quantization import Int4Quantizer, QuantizedMatrix
from .screener import Int4Screener, ScreenResult
from .thresholds import CalibrationReport, ThresholdCalibrator


@dataclass
class InferenceStats:
    """Everything one batch inference produced, algorithm-side."""

    result: ClassificationResult
    screen: ScreenResult
    candidate_ratio: float
    int4_ops: int
    fp32_flops: int
    fp32_flops_full: int  # what a no-screening run would have cost


class ApproximateScreeningModel:
    """Two-stage extreme classifier: INT4 screen + FP32 candidate ranking."""

    def __init__(
        self,
        weights: np.ndarray,
        projection_scale: float = DEFAULT_PROJECTION_SCALE,
        seed: int = 0,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 2:
            raise WorkloadError("weights must be (L, D)")
        self.projection = ProjectionMatrix.create(
            input_dim=weights.shape[1], scale=projection_scale, seed=seed
        )
        projected = project(weights, self.projection)
        self.quantized: QuantizedMatrix = Int4Quantizer().quantize(projected)
        self.screener = Int4Screener(self.quantized)
        self.classifier = CandidateClassifier(weights)
        self.threshold: Optional[float] = None

    # --- dimensions -------------------------------------------------------------
    @property
    def num_labels(self) -> int:
        return self.classifier.num_labels

    @property
    def hidden_dim(self) -> int:
        return self.classifier.hidden_dim

    @property
    def shrunk_dim(self) -> int:
        return self.screener.shrunk_dim

    # --- calibration ------------------------------------------------------------
    def calibrate(
        self,
        features: np.ndarray,
        target_ratio: float = 0.10,
        top_k: int = 5,
    ) -> CalibrationReport:
        """Pre-train the filtering threshold on calibration features."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        projected = project(features, self.projection)
        exact = self.classifier.exact_scores(features)
        report = ThresholdCalibrator(self.screener, top_k=top_k).calibrate(
            projected, exact, target_ratio=target_ratio
        )
        self.threshold = report.threshold
        return report

    def set_threshold(self, threshold: float) -> None:
        """Directly install a threshold (the Filter_threshold API).

        ``±inf`` are legal (keep everything / keep only each query's best);
        NaN is rejected because no score compares against it.
        """
        threshold = float(threshold)
        if math.isnan(threshold):
            raise WorkloadError("screening threshold is NaN")
        self.threshold = threshold

    # --- inference ----------------------------------------------------------------
    def infer(
        self,
        features: np.ndarray,
        top_k: int = 5,
        candidate_ratio: Optional[float] = None,
    ) -> InferenceStats:
        """Run screen-then-classify on a feature batch.

        With ``candidate_ratio`` set, screening keeps exactly that top
        fraction per query (the layout experiments' mode); otherwise the
        calibrated threshold is applied.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        projected = project(features, self.projection)
        if candidate_ratio is not None:
            screen = self.screener.screen_top_ratio(projected, candidate_ratio)
        else:
            if self.threshold is None:
                raise WorkloadError(
                    "no threshold calibrated; call calibrate() or pass"
                    " candidate_ratio"
                )
            screen = self.screener.screen(projected, threshold=self.threshold)
        result = self.classifier.classify(features, screen.candidates, top_k=top_k)
        batch = features.shape[0]
        int4_ops = 2 * batch * self.num_labels * self.shrunk_dim
        full_flops = 2 * batch * self.num_labels * self.hidden_dim
        return InferenceStats(
            result=result,
            screen=screen,
            candidate_ratio=screen.candidate_ratio(),
            int4_ops=int4_ops,
            fp32_flops=result.flops,
            fp32_flops_full=full_flops,
        )

    def infer_exact(self, features: np.ndarray, top_k: int = 5) -> ClassificationResult:
        """Reference run without screening (full FP32 classification)."""
        return self.classifier.classify_full(features, top_k=top_k)

    def top1_agreement(self, features: np.ndarray) -> float:
        """Fraction of queries whose top-1 matches the exact classifier.

        The paper reports no accuracy drop from screening; this is the
        directly-checkable analogue on synthetic workloads.
        """
        stats = self.infer(features, top_k=1)
        exact = self.infer_exact(features, top_k=1)
        return float(
            (stats.result.top_labels[:, 0] == exact.top_labels[:, 0]).mean()
        )
