"""Low-precision approximate screening: INT4 scores + threshold filter (§2.1).

The screener computes approximate scores for every label with INT4 arithmetic
(what the accelerator's INT4 MAC array executes) and filters labels whose
approximate score clears a pre-trained threshold.  Those labels become the
*candidates* whose FP32 weight vectors are fetched from flash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import WorkloadError
from .quantization import Int4Quantizer, QuantizedMatrix


@dataclass
class ScreenResult:
    """Output of screening one feature batch against all L labels."""

    scores: np.ndarray  # (B, L) float32 approximate scores
    candidates: List[np.ndarray]  # per query: sorted int64 label indices
    threshold: np.ndarray  # (B,) thresholds actually applied

    @property
    def batch_size(self) -> int:
        return self.scores.shape[0]

    @property
    def num_labels(self) -> int:
        return self.scores.shape[1]

    def candidate_ratio(self) -> float:
        """Mean fraction of labels kept as candidates across the batch."""
        if not self.candidates:
            return 0.0
        total = sum(len(c) for c in self.candidates)
        return total / (len(self.candidates) * self.num_labels)

    def candidate_counts(self) -> np.ndarray:
        return np.array([len(c) for c in self.candidates], dtype=np.int64)


class Int4Screener:
    """Screens feature batches against a quantized (L, K) weight matrix.

    Scores are the exact integer dot products a MAC array would accumulate,
    then dequantized with the row and feature scales so thresholds live in
    the original score space.  The products run as a float32 BLAS matmul
    over one contiguous (K, L) copy of the codes, which is still exact:
    feature codes lie in [-7, 7] and weight codes are int8 (|code| <= 128),
    so every partial sum is an integer of magnitude <= 896·K, and while
    896·K < 2**24 float32 holds each one exactly in any summation order.
    The scores therefore start from the same integer an int32 accumulator
    would hold.  Above that bound (K > 18724) the matmul runs in float64,
    exact while 896·K < 2**53, and the cast to float32 rounds that integer.
    """

    def __init__(self, weights: QuantizedMatrix) -> None:
        self.weights = weights
        self._quantizer = Int4Quantizer()
        exact_in_float32 = 896 * weights.shape[1] < 2**24
        self._dtype = np.float32 if exact_in_float32 else np.float64
        self._codes_t = np.ascontiguousarray(weights.codes.T, dtype=self._dtype)

    @property
    def num_labels(self) -> int:
        return self.weights.shape[0]

    @property
    def shrunk_dim(self) -> int:
        return self.weights.shape[1]

    def scores(self, projected_features: np.ndarray) -> np.ndarray:
        """Approximate (B, L) scores for already-projected (B, K) features."""
        features = np.atleast_2d(np.asarray(projected_features, dtype=np.float32))
        if features.shape[1] != self.shrunk_dim:
            raise WorkloadError(
                f"feature dim {features.shape[1]} != screener dim {self.shrunk_dim}"
            )
        fq = self._quantizer.quantize(features)
        scores = (fq.codes.astype(self._dtype) @ self._codes_t).astype(
            np.float32, copy=False
        )
        scores *= fq.scales[:, None]
        scores *= self.weights.scales
        return scores

    def screen(
        self,
        projected_features: np.ndarray,
        threshold: Optional[np.ndarray] = None,
        min_candidates: int = 1,
    ) -> ScreenResult:
        """Score a batch and keep labels whose score clears the threshold.

        ``threshold`` may be a scalar, a (B,) array, or ``None`` (keep
        everything — degenerate but useful for calibration).  Every query
        keeps at least ``min_candidates`` labels (its best-scoring ones), so
        downstream classification always has something to rank.
        """
        scores = self.scores(projected_features)
        batch = scores.shape[0]
        if threshold is None:
            applied = np.full(batch, -np.inf, dtype=np.float32)
        else:
            applied = np.asarray(threshold, dtype=np.float32)
            try:
                applied = np.full(batch, applied, dtype=np.float32)
            except ValueError:
                raise WorkloadError(
                    f"{applied.size} thresholds for {batch} queries"
                ) from None
            if np.isnan(applied).any():
                raise WorkloadError("screening threshold is NaN")
        # Flat (query, label) hits come sorted by query, so one searchsorted
        # over the queries' flat starts splits them.
        labels = self.num_labels
        hits = np.flatnonzero(scores >= applied[:, None])
        bounds = np.searchsorted(hits, np.arange(batch + 1) * labels)
        cols = hits % labels
        candidates: List[np.ndarray] = []
        for i in range(batch):
            selected = cols[bounds[i]:bounds[i + 1]]
            if len(selected) < min_candidates:
                selected = np.sort(np.argsort(scores[i])[-min_candidates:])
            candidates.append(selected)
        return ScreenResult(scores=scores, candidates=candidates, threshold=applied)

    def screen_top_ratio(
        self, projected_features: np.ndarray, ratio: float
    ) -> ScreenResult:
        """Keep exactly the top ``ratio`` fraction of labels per query.

        This is the fixed-candidate-ratio mode the layout experiments use
        (Fig. 10 sweeps the ratio over {5, 10, 15, 20}%).
        """
        if not (0.0 < ratio <= 1.0):
            raise WorkloadError(f"candidate ratio must be in (0, 1], got {ratio}")
        scores = self.scores(projected_features)
        keep = max(1, int(round(self.num_labels * ratio)))
        candidates: List[np.ndarray] = []
        thresholds = np.empty(scores.shape[0], dtype=np.float32)
        for i, row in enumerate(scores):
            top = np.argpartition(row, -keep)[-keep:]
            candidates.append(np.sort(top).astype(np.int64))
            thresholds[i] = row[top].min()
        return ScreenResult(scores=scores, candidates=candidates, threshold=thresholds)
