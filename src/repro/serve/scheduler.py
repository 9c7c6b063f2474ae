"""SLO/deadline-aware batch formation around the roofline knee.

The batching analyzer (:mod:`repro.core.batching`) locates the roofline
corner B* — the smallest batch within 2% of peak throughput.  Fixed-size
batching at B* maximizes throughput but lets the first request of a sparse
batch wait unboundedly; the :class:`DeadlineBatcher` instead closes a batch
when *either*

* the queue holds B* requests (the knee — never more, so operational
  intensity never overshoots the corner), or
* the oldest queued request's **slack** (time left before its deadline minus
  the service time it still needs) runs out, dispatching a partial batch.

:class:`AffineServiceModel` is the cost model both the batcher and the
fleet simulator consult: a least-squares affine fit (``base + per_query * B``) of
:class:`~repro.core.batching.BatchPoint` sweeps, carrying B* from
:func:`~repro.core.batching.optimal_batch` and a ``candidate_fraction``
splitting per-query cost into candidate-dependent work (shrinks under
degradation and sharding) and fixed work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Sequence, Tuple

from ..core.batching import BatchingAnalyzer, BatchPoint, optimal_batch
from ..errors import ConfigurationError, SimulationError
from ..workloads.benchmarks import get_benchmark
from ..workloads.traces import CandidateTraceGenerator, LabelHotnessModel
from .request import Request

#: Padding on the worst-case knee batch time that sets each request's latest
#: safe dispatch (the fleet sizes ``close_margin`` so).
CLOSE_MARGIN_FACTOR = 1.05


@dataclass(frozen=True)
class AffineServiceModel:
    """Batch service time as ``base + per_query * B``, knee-annotated.

    ``candidate_fraction`` is the share of per-query cost spent fetching and
    classifying FP32 candidates — the part that scales with the screener
    candidate budget (degradation) and with the shard's slice of the label
    space.  The remainder (INT4 screen, buffers, merge) is insensitive to
    both.
    """

    base: float
    per_query: float
    knee: int
    candidate_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.base < 0 or self.per_query <= 0:
            raise ConfigurationError(
                "service model needs base >= 0 and per_query > 0"
            )
        if self.knee <= 0:
            raise ConfigurationError("knee batch size must be positive")
        if not 0.0 <= self.candidate_fraction <= 1.0:
            raise ConfigurationError("candidate_fraction must be in [0, 1]")

    def batch_time(
        self,
        batch: int,
        candidate_scale: float = 1.0,
        work_fraction: float = 1.0,
    ) -> float:
        """Service time of one ``batch``-sized dispatch.

        ``candidate_scale`` multiplies the candidate-dependent share (the
        degradation ladder passes < 1, a hot shard passes > 1);
        ``work_fraction`` scales the whole per-query term (a shard holding
        1/S of the labels passes 1/S).
        """
        if batch <= 0:
            raise ConfigurationError("batch must be positive")
        if candidate_scale < 0 or work_fraction < 0:
            raise ConfigurationError("scales cannot be negative")
        variable = self.per_query * batch * work_fraction
        blended = (
            1.0 - self.candidate_fraction
        ) + self.candidate_fraction * candidate_scale
        return self.base + variable * blended

    @property
    def knee_batch_time(self) -> float:
        """Full-fidelity service time of a knee-sized batch."""
        return self.batch_time(self.knee)

    @classmethod
    def from_batch_points(
        cls,
        points: Sequence[BatchPoint],
        candidate_fraction: float = 0.7,
    ) -> "AffineServiceModel":
        """Least-squares affine fit of a batch sweep, knee from the sweep.

        Reuses :func:`~repro.core.batching.optimal_batch` for the knee, so
        the serving layer and the batching ablation agree on where the
        roofline corner sits.
        """
        if not points:
            raise ConfigurationError("need at least one BatchPoint to fit")
        knee = optimal_batch(points).batch
        if len(points) == 1:
            only = points[0]
            return cls(
                base=0.0,
                per_query=only.batch_time / only.batch,
                knee=knee,
                candidate_fraction=candidate_fraction,
            )
        n = float(len(points))
        xs = [float(p.batch) for p in points]
        ys = [p.batch_time for p in points]
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x <= 0:
            raise ConfigurationError("batch sweep needs distinct batch sizes")
        cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        per_query = cov / var_x
        base = mean_y - per_query * mean_x
        if per_query <= 0:
            # Degenerate sweep (flat or inverted): fall back to the knee
            # point's mean cost so the model stays usable.
            per_query = max(ys) / max(xs)
            base = 0.0
        return cls(
            base=max(0.0, base),
            per_query=per_query,
            knee=knee,
            candidate_fraction=candidate_fraction,
        )


def calibrate_service_model(
    benchmark: str, seed: int, sample_tiles: int = 4
) -> Tuple[AffineServiceModel, CandidateTraceGenerator]:
    """Fit the service model to a real batch sweep of ``benchmark``.

    The sweep runs batch sizes 1-32 over a seeded candidate trace (10%
    candidates, 5% query noise), so every serving and fleet run shares the
    roofline knee of the batching ablation.  Returns the model and the trace
    generator, whose hot-label skew sizes the shards.
    """
    spec = get_benchmark(benchmark)
    hotness = LabelHotnessModel(num_labels=spec.num_labels, run_length=1, seed=seed)
    generator = CandidateTraceGenerator(
        hotness, candidate_ratio=0.10, query_noise=0.05
    )
    analyzer = BatchingAnalyzer(spec, generator, sample_tiles=sample_tiles)
    points = analyzer.sweep((1, 2, 4, 8, 16, 32))
    return AffineServiceModel.from_batch_points(points), generator


class DeadlineBatcher:
    """Closes batches at the knee or when the oldest request runs out of slack.

    ``close_margin`` is the service-time estimate subtracted from a request's
    deadline to get its latest safe dispatch time; the simulators set it to
    the *worst-case* (slowest shard, full fidelity) knee batch time times
    :data:`CLOSE_MARGIN_FACTOR`, so a partial-batch dispatch still has a
    chance to finish inside the SLO.
    """

    def __init__(self, service: AffineServiceModel, close_margin: float) -> None:
        if close_margin < 0:
            raise ConfigurationError("close_margin cannot be negative")
        self.service = service
        self.close_margin = close_margin
        self.knee = service.knee

    def close_time(self, request: Request) -> float:
        """Latest dispatch time after which ``request`` would miss its SLO."""
        return request.deadline - self.close_margin

    def should_close(self, queue: Deque[Request], now: float) -> bool:
        """True when a batch must leave the FIFO ``queue`` at ``now``."""
        return len(queue) >= self.knee or (
            bool(queue) and now >= queue[0].deadline - self.close_margin
        )

    def form_batch(self, queue: Deque[Request]) -> List[Request]:
        """Pop the next batch off the head of ``queue`` — never more than B*."""
        if not queue:
            raise SimulationError("dispatch from an empty queue")
        popleft = queue.popleft
        return [popleft() for _ in range(min(self.knee, len(queue)))]
