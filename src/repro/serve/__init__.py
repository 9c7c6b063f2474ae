"""repro.serve: a deterministic SLO-aware serving layer over the ECSSD models.

The reproduction's timing models answer "how fast is one batch"; this
package answers the production question on top of them — "what latency do
*users* see at a given offered load, and what does the layer do when load
exceeds capacity?".  It is a discrete-event simulation of the full request
lifecycle:

* :mod:`repro.serve.request` — request/shed/completion records and the
  :class:`ServingReport` (goodput, shed rate, p50/p95/p99 vs SLO);
* :mod:`repro.serve.admission` — token-bucket + queue-depth admission with
  explicit shedding and the ``admitted + shed == arrived`` conservation
  invariant;
* :mod:`repro.serve.scheduler` — SLO/deadline-aware batch formation off
  the head of a FIFO queue that never exceeds the roofline knee located by
  :func:`repro.core.batching.optimal_batch`;
* :mod:`repro.serve.router` — idle-group routing over replicated,
  label-sharded device groups, weighted by the §5.3 hot-degree predictor;
* :mod:`repro.serve.degrade` — the graceful-degradation ladder (shrink
  candidate budget and top-k before shedding);
* :mod:`repro.serve.kernel` — the ``(time, kind, seq)`` event heap the
  serving and fleet loops share;
* :mod:`repro.serve.driver` — the event loop, stack builder, and the
  ``repro serve`` CLI's engine.

Everything runs on simulated time with no randomness of its own: the same
seeded arrival stream produces bit-identical shed decisions, batch
boundaries, and latency percentiles on every run.
"""

from __future__ import annotations

from .admission import AdmissionConfig, AdmissionController, TokenBucket
from .degrade import DEFAULT_LADDER_STEPS, DegradationLadder, DegradeStep
from .driver import (
    SERVE_TRACK,
    ServingConfig,
    ServingSimulator,
    build_serving_stack,
    saturating_rate,
)
from .node import ServiceNodeCore
from .request import (
    SHED_QUEUE_DEPTH,
    SHED_TOKEN_BUCKET,
    BatchRecord,
    CompletedRequest,
    Request,
    ServingReport,
    ShedRequest,
)
from .router import (
    ReplicaState,
    Router,
    ShardModel,
    build_replicas,
    shard_hot_degrees,
)
from .scheduler import AffineServiceModel, DeadlineBatcher, calibrate_service_model

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "TokenBucket",
    "DegradationLadder",
    "DegradeStep",
    "DEFAULT_LADDER_STEPS",
    "ServingConfig",
    "ServingSimulator",
    "build_serving_stack",
    "saturating_rate",
    "SERVE_TRACK",
    "ServiceNodeCore",
    "Request",
    "ShedRequest",
    "CompletedRequest",
    "BatchRecord",
    "ServingReport",
    "SHED_TOKEN_BUCKET",
    "SHED_QUEUE_DEPTH",
    "ReplicaState",
    "Router",
    "ShardModel",
    "build_replicas",
    "shard_hot_degrees",
    "AffineServiceModel",
    "DeadlineBatcher",
    "calibrate_service_model",
]
