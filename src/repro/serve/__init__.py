"""repro.serve: the request plane of an SLO-aware ECSSD deployment.

The reproduction's timing models answer "how fast is one batch"; this
package holds the per-host machinery that answers the production question
on top of them — "what latency do *users* see at a given offered load, and
what does the layer do when load exceeds capacity?":

* :mod:`repro.serve.request` — the :class:`Request` record and the
  machine-readable shed reasons;
* :mod:`repro.serve.admission` — token-bucket + queue-depth admission with
  explicit shedding and the ``admitted + shed == arrived`` conservation
  invariant;
* :mod:`repro.serve.scheduler` — SLO/deadline-aware batch formation off
  the head of a FIFO queue that never exceeds the roofline knee located by
  :func:`repro.core.batching.optimal_batch`;
* :mod:`repro.serve.degrade` — the graceful-degradation ladder (shrink
  candidate budget and top-k before shedding);
* :mod:`repro.serve.node` — one host's queue, admission, batching and
  ladder behind one object;
* :mod:`repro.serve.sharding` — per-shard hot degrees and the §7.1 merge
  constants;
* :mod:`repro.serve.kernel` — the ``(time, kind, seq)`` event heap.

The event loop that drives them is the fleet simulator's
(:mod:`repro.cluster`): a single deployment runs as a one-node fleet
(:func:`repro.cluster.build_single_deployment`), and ``repro serve`` is that
run.  Everything runs on simulated time with no randomness of its own: the
same seeded arrival stream produces bit-identical shed decisions, batch
boundaries, and latency percentiles on every run.
"""

from __future__ import annotations

from .admission import AdmissionConfig, AdmissionController, TokenBucket
from .degrade import DEFAULT_LADDER_STEPS, DegradationLadder, DegradeStep
from .node import ServiceNodeCore
from .request import SHED_QUEUE_DEPTH, SHED_TOKEN_BUCKET, Request
from .scheduler import AffineServiceModel, DeadlineBatcher, calibrate_service_model
from .sharding import shard_hot_degrees

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "TokenBucket",
    "DegradationLadder",
    "DegradeStep",
    "DEFAULT_LADDER_STEPS",
    "ServiceNodeCore",
    "Request",
    "SHED_TOKEN_BUCKET",
    "SHED_QUEUE_DEPTH",
    "shard_hot_degrees",
    "AffineServiceModel",
    "DeadlineBatcher",
    "calibrate_service_model",
]
