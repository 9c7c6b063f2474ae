"""Label sharding for a scaled-out ECSSD deployment (§7.1).

The scale-out model (:mod:`repro.core.scaleout`) partitions the label space
across S devices; every query visits all S shards and completes at the
slowest shard plus the host-side merge of the per-device top-k lists.  This
module holds the merge's sizing constants and each shard's **hot degree**:
the layout package's :class:`~repro.layout.learned.HotnessPredictor` signal
(§5.3, the same sum-of-|INT4-code| that drives adaptive interleaving),
aggregated over the shard's slice of the label space and normalized to
mean 1.  The fleet simulator (:mod:`repro.cluster`) scales a shard's
candidate work by its hot degree and places extra replicas on the hottest
shards.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..layout.learned import HotnessPredictor
from ..units import gbps
from ..workloads.traces import CandidateTraceGenerator

#: Bytes per (label, score) result entry in the host merge (§7.1).
MERGE_ENTRY_BYTES = 12

#: Host merge link, matching ScaleOutCluster's default.
MERGE_BANDWIDTH = gbps(10.0)

#: Results per query at full fidelity (the top-k each shard returns).
TOP_K = 5

#: Tiles :func:`shard_hot_degrees` samples from each shard's label slice.
TILES_PER_SHARD = 2


def shard_hot_degrees(
    generator: CandidateTraceGenerator,
    num_shards: int,
    tile_size: int,
) -> List[float]:
    """Per-shard hot degree from the §5.3 predictor signal.

    Samples :data:`TILES_PER_SHARD` tiles from each shard's contiguous slice of
    the label space, feeds their |INT4-code| sums through one
    :class:`~repro.layout.learned.HotnessPredictor` (so scores are
    comparable across shards), and returns each shard's share of the total
    predicted candidate load, normalized to mean 1.0.
    """
    if num_shards <= 0:
        raise ConfigurationError("num_shards must be positive")
    if tile_size <= 0:
        raise ConfigurationError("tile_size must be positive")
    per_tile = [
        generator.predictor_abs_sums(shard * TILES_PER_SHARD + sample, tile_size)
        for shard in range(num_shards)
        for sample in range(TILES_PER_SHARD)
    ]
    predictor = HotnessPredictor(np.concatenate(per_tile))
    scores = predictor.scores
    span = TILES_PER_SHARD * tile_size
    masses = np.array(
        [scores[s * span : (s + 1) * span].sum() for s in range(num_shards)]
    )
    mean_mass = masses.mean()
    if mean_mass <= 0:
        return [1.0] * num_shards
    return [float(m / mean_mass) for m in masses]
