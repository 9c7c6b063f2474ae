"""Synthetic weights/features with the structure the architecture exploits.

Two properties matter and are planted explicitly:

* **Value locality** (§4.2): within one weight/feature vector, magnitudes
  cluster within a few powers of two, so CFP32's 7 compensation bits absorb
  almost every vector-wise alignment shift.  We draw each vector's elements
  from a shared log-magnitude envelope with small spread.
* **Label separability**: each feature belongs to one of ``num_clusters``
  planted clusters; labels are cluster-affiliated, so the exact top-k of a
  query is dominated by its cluster's labels and the screener (which
  preserves inner products approximately) retains them — reproducing the
  paper's "no accuracy drop" behaviour.  Cluster-affiliated (hot) labels are
  laid out in contiguous runs, which is what skews candidate traffic across
  channels in Figs. 8/11/12.

The generators build their outputs in place: the gathered rows are the
output buffer, and the float64 noise and envelope temporaries are drawn in
``_BLOCK_ROWS``-row blocks.  Every random draw and every float operation
happens in the same order and association as a whole-matrix, out-of-place
build, so the outputs are bit-identical to it; only peak memory changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..errors import WorkloadError

# Rows per block of the float64 noise and envelope temporaries.
_BLOCK_ROWS = 256


@dataclass
class SyntheticWorkload:
    """A materialized (small-scale) workload: weights plus feature batches."""

    weights: np.ndarray  # (L, D) float32
    features: np.ndarray  # (Q, D) float32
    cluster_of_label: np.ndarray  # (L,) int64
    cluster_of_query: np.ndarray  # (Q,) int64
    seed: int = 0

    @property
    def num_labels(self) -> int:
        return self.weights.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def num_queries(self) -> int:
        return self.features.shape[0]


def _normal_rows(
    rng: np.random.Generator, rows: int, cols: int, sigma: float
) -> Iterator[tuple[slice, np.ndarray]]:
    """One ``(rows, cols)`` normal draw, yielded as ``(row slice, block)``.

    ``Generator.normal`` fills in C order from one stream, so the blocks
    hold exactly the numbers of a single whole-matrix draw.
    """
    for lo in range(0, rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, rows)
        yield slice(lo, hi), rng.normal(0.0, sigma, size=(hi - lo, cols))


def _magnitude_envelope(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    spread: float,
    row_sigma: float = 1.0,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Per-row log-normal magnitude envelopes with intra-row locality.

    ``spread`` controls intra-row element jitter (small keeps exponents
    clustered — the CFP32 value-locality property); ``row_sigma`` controls
    how much whole rows differ in scale (weight rows vary a lot, normalized
    activations very little).  Yields ``(row slice, envelope block)``.
    """
    row_scale = np.exp(rng.normal(0.0, row_sigma, size=(rows, 1)))
    for block_rows, envelope in _normal_rows(rng, rows, cols, spread):
        np.exp(envelope, out=envelope)
        envelope *= row_scale[block_rows]
        yield block_rows, envelope


def generate_weights(
    num_labels: int,
    hidden_dim: int,
    num_clusters: int = 16,
    cluster_run: int = 32,
    locality_spread: float = 0.35,
    seed: int = 0,
    cluster_of_label: Optional[np.ndarray] = None,
) -> tuple:
    """(weights, cluster_of_label): clustered weight matrix with value locality.

    Labels are grouped into contiguous runs of ``cluster_run`` labels per
    cluster (round-robin over clusters run-by-run), so that hot labels form
    runs in label space.  Each label's vector is its cluster centroid plus
    noise, scaled by a locality-preserving magnitude envelope.
    """
    if num_labels <= 0 or hidden_dim <= 0:
        raise WorkloadError("num_labels/hidden_dim must be positive")
    if num_clusters <= 0 or cluster_run <= 0:
        raise WorkloadError("num_clusters/cluster_run must be positive")
    if cluster_of_label is not None:
        cluster_of_label = np.asarray(cluster_of_label)
        if cluster_of_label.shape != (num_labels,):
            raise WorkloadError("cluster_of_label must have one entry per label")
        if (
            not np.issubdtype(cluster_of_label.dtype, np.integer)
            or cluster_of_label.min() < 0
            or cluster_of_label.max() >= num_clusters
        ):
            raise WorkloadError("cluster_of_label ids must be integers in [0, num_clusters)")
        cluster_of_label = cluster_of_label.astype(np.int64, copy=False)
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(num_clusters, hidden_dim)).astype(np.float32)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    if cluster_of_label is None:
        runs = -(-num_labels // cluster_run)
        run_clusters = rng.integers(0, num_clusters, size=runs)
        cluster_of_label = np.repeat(run_clusters, cluster_run)[:num_labels]

    weights = centroids[cluster_of_label]
    for rows, noise in _normal_rows(rng, num_labels, hidden_dim, 1.0):
        weights[rows] += noise.astype(np.float32)
    del noise  # the loop variable would hold the last block through the envelope
    for rows, envelope in _magnitude_envelope(
        rng, num_labels, hidden_dim, locality_spread, row_sigma=0.2
    ):
        weights[rows] *= envelope.astype(np.float32)
    weights *= 0.05
    return weights, cluster_of_label


def generate_features(
    num_queries: int,
    hidden_dim: int,
    weights: np.ndarray,
    cluster_of_label: np.ndarray,
    query_cluster_skew: float = 1.2,
    locality_spread: float = 0.25,
    seed: int = 1,
) -> tuple:
    """(features, cluster_of_query): query features aligned with label clusters.

    Each query picks a cluster (Zipf-skewed with exponent
    ``query_cluster_skew``, so some clusters are queried far more often —
    the source of persistent per-label hotness) and its feature points
    toward that cluster's mean label direction, plus locality-enveloped
    noise.
    """
    if num_queries <= 0:
        raise WorkloadError("num_queries must be positive")
    weights = np.asarray(weights)
    cluster_of_label = np.asarray(cluster_of_label)
    if weights.ndim != 2 or weights.shape[1] != hidden_dim:
        raise WorkloadError("weights must be (num_labels, hidden_dim)")
    if cluster_of_label.shape != (weights.shape[0],) or cluster_of_label.size == 0:
        raise WorkloadError("cluster_of_label must have one entry per weight row")
    if not np.issubdtype(cluster_of_label.dtype, np.integer) or cluster_of_label.min() < 0:
        raise WorkloadError("cluster_of_label ids must be non-negative integers")
    rng = np.random.default_rng(seed)
    num_clusters = int(cluster_of_label.max()) + 1
    ranks = np.arange(1, num_clusters + 1, dtype=np.float64)
    probs = ranks**-query_cluster_skew
    probs /= probs.sum()
    cluster_of_query = rng.choice(num_clusters, size=num_queries, p=probs)

    # Each query aims at one *target label* inside its cluster (real
    # classifiers have a correct label with a fat margin — that margin is
    # what lets screening keep exact predictions intact).
    weights64 = np.asarray(weights, dtype=np.float64)
    label_norms = np.linalg.norm(weights64, axis=1)
    targets = np.empty(num_queries, dtype=np.int64)
    members_of: dict[int, np.ndarray] = {}
    for q, cluster in enumerate(cluster_of_query):
        members = members_of.get(cluster)
        if members is None:
            members = np.flatnonzero(cluster_of_label == cluster)
            if members.size == 0:
                # Small label spaces may not realize every cluster; fall back
                # to any label and record the cluster actually targeted.
                members = np.arange(len(cluster_of_label))
            members_of[cluster] = members
        targets[q] = members[rng.integers(members.size)]
        cluster_of_query[q] = cluster_of_label[targets[q]]
    base = weights64[targets]
    del weights64
    base /= np.maximum(label_norms[targets][:, None], 1e-12)
    base *= 3.5
    for rows, noise in _normal_rows(rng, num_queries, hidden_dim, 0.3):
        base[rows] += noise
    del noise
    # Activations are effectively layer-normalized in real models: tiny
    # row-scale spread, so one global screening threshold fits all queries.
    features = np.empty((num_queries, hidden_dim), dtype=np.float32)
    for rows, envelope in _magnitude_envelope(
        rng, num_queries, hidden_dim, locality_spread, row_sigma=0.1
    ):
        block = base[rows]
        block *= envelope
        block *= 0.1
        features[rows] = block
    return features, cluster_of_query


def make_workload(
    num_labels: int,
    hidden_dim: int,
    num_queries: int,
    num_clusters: int = 16,
    cluster_run: int = 32,
    seed: int = 0,
) -> SyntheticWorkload:
    """Convenience constructor bundling weights + features + cluster maps."""
    weights, cluster_of_label = generate_weights(
        num_labels, hidden_dim, num_clusters=num_clusters,
        cluster_run=cluster_run, seed=seed,
    )
    features, cluster_of_query = generate_features(
        num_queries, hidden_dim, weights, cluster_of_label, seed=seed + 1
    )
    return SyntheticWorkload(
        weights=weights,
        features=features,
        cluster_of_label=cluster_of_label,
        cluster_of_query=cluster_of_query,
        seed=seed,
    )
