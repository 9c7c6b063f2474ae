"""Elastic service-node autoscaling driven by the SLO burn rate.

The error budget is ``1 - SLO_TARGET`` of requests allowed to go *bad*
(miss the deadline or get shed), and the burn rate is the budget-normalized
bad fraction over a rolling sim-time window (Google SRE multi-window
paging).  Both the fast window (is it bad right now?) and the slow window
(has it been bad long enough to matter?) must exceed the threshold to scale
**up**; both must sit far below it (a quarter of the threshold —
hysteresis) to scale **down**.  One step per evaluation, so the evaluation
interval doubles as the cooldown.

The controller is a pure function of the completion/shed stream it has
observed — no wall clock, no RNG — so the active-node trajectory is
bit-identical per seed.  Outcomes arrive in event order, so the observation
times form one sorted list; next to it runs the count of bad outcomes before
each observation.  An evaluation bisects each window's head forward from
where it last stood and reads the window's total and bad count by
subtraction: an observation costs two appends, an evaluation two bisections.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Tuple

from ..errors import ConfigurationError, SimulationError

#: Availability target: the fraction of requests that must meet the deadline.
SLO_TARGET = 0.999
#: The error budget, written as ``1 - target`` (not ``0.001``) because the
#: two floats differ and the scale trajectory is pinned bit for bit.
ERROR_BUDGET = 1.0 - SLO_TARGET
#: Burn rate above which a node is added (1.0 = exactly on budget).
BURN_THRESHOLD = 2.0
#: The fast and slow burn windows, in multiples of the SLO.
FAST_WINDOW_SLOS = 5
SLOW_WINDOW_SLOS = 25
#: Scale-down hysteresis: both burn windows must sit below ``BURN_THRESHOLD
#: * SCALE_DOWN_FRACTION`` before a node is released.
SCALE_DOWN_FRACTION = 0.25


class Autoscaler:
    """Burn-rate-driven controller for the active service-node count."""

    def __init__(self, slo: float, min_nodes: int, max_nodes: int) -> None:
        if slo <= 0:
            raise ConfigurationError("slo must be positive")
        if not 1 <= min_nodes <= max_nodes:
            raise ConfigurationError(
                f"need 1 <= min_nodes <= max_nodes, got "
                f"[{min_nodes}, {max_nodes}]"
            )
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.fast_window = FAST_WINDOW_SLOS * slo
        self.slow_window = SLOW_WINDOW_SLOS * slo
        # Observation sim times, non-decreasing, and ``_bad_before[i]``, the
        # bad outcomes (sheds and deadline misses are both budget burn)
        # among the first ``i`` observations; its last entry counts them all.
        # The two window heads only move forward.
        self._times: List[float] = []
        self._bad_before: List[int] = [0]
        self._last = -math.inf
        self._fast_head = 0
        self._slow_head = 0

    def observe(self, time: float, bad: bool) -> None:
        """Record one request outcome (completion or shed) at ``time``."""
        if not time >= self._last:  # also catches NaN
            raise SimulationError(
                f"autoscaler observation at {time} is not at or after the "
                f"previous one at {self._last}"
            )
        self._last = time
        self._times.append(time)
        bad_before = self._bad_before
        bad_before.append(bad_before[-1] + 1 if bad else bad_before[-1])

    def _expire(self, now: float) -> None:
        times = self._times
        self._fast_head = bisect_left(times, now - self.fast_window, self._fast_head)
        slow_head = self._slow_head = bisect_left(
            times, now - self.slow_window, self._slow_head
        )
        # Compact the consumed prefix so a million-request run stays at
        # window-sized memory, not run-sized.
        if slow_head > 65536:
            del times[:slow_head]
            del self._bad_before[:slow_head]
            self._fast_head -= slow_head
            self._slow_head = 0

    def _window(self, head: int) -> Tuple[int, int]:
        """(bad, total) outcomes from ``head`` to the newest observation."""
        bad_before = self._bad_before
        return bad_before[-1] - bad_before[head], len(bad_before) - 1 - head

    def _burn(self, bad: int, total: int) -> float:
        if total == 0:
            return 0.0
        return (bad / total) / ERROR_BUDGET

    def decide(self, now: float, active: int) -> int:
        """The target active-node count after one evaluation at ``now``."""
        self._expire(now)
        fast = self._burn(*self._window(self._fast_head))
        slow = self._burn(*self._window(self._slow_head))
        if fast > BURN_THRESHOLD and slow > BURN_THRESHOLD:
            return min(active + 1, self.max_nodes)
        down_bar = BURN_THRESHOLD * SCALE_DOWN_FRACTION
        if fast < down_bar and slow < down_bar:
            return max(active - 1, self.min_nodes)
        return active
