"""Candidate-only full-precision classification (§2.1, CFP32_classify API).

After screening, only the candidate rows of the FP32 weight matrix are
multiplied with the original (un-projected) features; the top-k of those
scores are the final predictions.  This module also provides the exact
full-matrix reference used to validate that screening loses no accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import WorkloadError, candidate_ids


@dataclass
class ClassificationResult:
    """Final predictions for one feature batch."""

    top_labels: np.ndarray  # (B, k) label indices, best first
    top_scores: np.ndarray  # (B, k) corresponding scores
    flops: int  # floating-point operations actually spent


class CandidateClassifier:
    """Scores candidate labels in FP32 and ranks the top-k."""

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 2:
            raise WorkloadError("weights must be (L, D)")
        self.weights = weights

    @property
    def num_labels(self) -> int:
        return self.weights.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights.shape[1]

    def classify(
        self,
        features: np.ndarray,
        candidates: Sequence[np.ndarray],
        top_k: int = 5,
    ) -> ClassificationResult:
        """Rank each query's candidates by exact FP32 score.

        Queries with fewer candidates than ``top_k`` are padded with label -1
        and score -inf so the output stays rectangular.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        if features.shape[1] != self.hidden_dim:
            raise WorkloadError(
                f"feature dim {features.shape[1]} != weights dim {self.hidden_dim}"
            )
        if len(candidates) != features.shape[0]:
            raise WorkloadError("one candidate set per query is required")
        if top_k < 1:
            raise WorkloadError(f"top_k must be >= 1, got {top_k}")

        sets = [candidate_ids(selected) for selected in candidates]
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= self.num_labels):
            raise WorkloadError("candidate index outside label range")
        batch = features.shape[0]
        top_labels = np.full((batch, top_k), -1, dtype=np.int64)
        top_scores = np.full((batch, top_k), -np.inf, dtype=np.float32)
        # One take and one gemv per query: a gemm over the candidate union
        # rounds differently.  Reversing the last k of an ascending argsort
        # is the same permutation as argsort()[::-1][:k], ties included.
        for i, (feature, selected) in enumerate(zip(features, sets)):
            if selected.size == 0:
                continue
            scores = self.weights.take(selected, axis=0) @ feature
            k = min(top_k, selected.size)
            order = scores.argsort()[: -k - 1 : -1]
            top_labels[i, :k] = selected[order]
            top_scores[i, :k] = scores[order]
        flops = 2 * flat.size * self.hidden_dim
        return ClassificationResult(
            top_labels=top_labels, top_scores=top_scores, flops=flops
        )

    def classify_full(
        self, features: np.ndarray, top_k: int = 5
    ) -> ClassificationResult:
        """Exact reference: score every label (what CPU-N computes)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        all_labels: List[np.ndarray] = [
            np.arange(self.num_labels, dtype=np.int64)
        ] * features.shape[0]
        return self.classify(features, all_labels, top_k=top_k)

    def exact_scores(self, features: np.ndarray) -> np.ndarray:
        """Full (B, L) FP32 score matrix (for calibration/validation)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        return features @ self.weights.T
