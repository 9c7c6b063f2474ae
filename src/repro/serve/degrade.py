"""Graceful degradation under overload: shrink fidelity before shedding.

The screener's candidate budget (§6.1) and the returned top-k are quality
knobs with direct service-time leverage: fewer candidates means fewer FP32
pages fetched per query (the dominant per-query cost), and a smaller top-k
shrinks the §7.1 merge.  The :class:`DegradationLadder` walks an ordered
sequence of :class:`DegradeStep` fidelity levels as queue pressure rises —
so under overload the layer first answers slightly-approximate queries
*fast*, and only sheds once the deepest step still cannot keep up.

Escalation is hysteretic and deterministic: the level rises one step each
dispatch while pressure (pending / admission depth limit) sits at or above
``high_watermark`` and falls one step when it drops below ``low_watermark``;
between the watermarks the level holds.  The §6.1 sensitivity study bounds
how far the ladder may reach: candidate budgets below ~25% of the calibrated
ratio start costing accuracy, so the default ladder stops there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DegradeStep:
    """One fidelity level: scales for the candidate budget and top-k."""

    name: str
    candidate_scale: float = 1.0
    top_k_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.candidate_scale <= 1.0:
            raise ConfigurationError("candidate_scale must be in (0, 1]")
        if not 0.0 < self.top_k_scale <= 1.0:
            raise ConfigurationError("top_k_scale must be in (0, 1]")


#: The default ladder: full fidelity, then §6.1-bounded candidate shrinks.
DEFAULT_LADDER_STEPS: Sequence[DegradeStep] = (
    DegradeStep("full", candidate_scale=1.0, top_k_scale=1.0),
    DegradeStep("trim-candidates", candidate_scale=0.6, top_k_scale=1.0),
    DegradeStep("half-candidates", candidate_scale=0.4, top_k_scale=0.6),
    DegradeStep("floor", candidate_scale=0.25, top_k_scale=0.4),
)


class DegradationLadder:
    """Hysteretic fidelity controller driven by queue pressure."""

    def __init__(
        self,
        steps: Sequence[DegradeStep] = DEFAULT_LADDER_STEPS,
        high_watermark: float = 0.6,
        low_watermark: float = 0.25,
    ) -> None:
        if not steps:
            raise ConfigurationError("ladder needs at least one step")
        if steps[0].candidate_scale < 1.0 or steps[0].top_k_scale < 1.0:
            raise ConfigurationError("ladder step 0 must be full fidelity")
        if not 0.0 <= low_watermark < high_watermark <= 1.0:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= low < high <= 1"
            )
        scales = [s.candidate_scale for s in steps]
        if any(b > a for a, b in zip(scales, scales[1:])):
            raise ConfigurationError(
                "candidate_scale must be non-increasing down the ladder"
            )
        self.steps: List[DegradeStep] = list(steps)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.level = 0
        self.peak_level = 0  # deepest level reached so far
        self.escalations = 0

    @property
    def step(self) -> DegradeStep:
        return self.steps[self.level]

    @property
    def candidate_scale(self) -> float:
        return self.step.candidate_scale

    @property
    def top_k_scale(self) -> float:
        return self.step.top_k_scale

    @property
    def max_level(self) -> int:
        return len(self.steps) - 1

    def update(self, pressure: float) -> int:
        """Advance the ladder one step for the observed pressure.

        ``pressure`` is pending work relative to the admission depth limit
        (0 = idle, 1 = at the shed threshold).  Returns the level to run the
        *next* batch at.
        """
        if pressure < 0:
            raise ConfigurationError(f"pressure cannot be negative: {pressure}")
        if pressure >= self.high_watermark and self.level < self.max_level:
            self.level += 1
            self.escalations += 1
            if self.level > self.peak_level:
                self.peak_level = self.level
        elif pressure < self.low_watermark and self.level > 0:
            self.level -= 1
        return self.level
