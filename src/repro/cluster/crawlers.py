"""Background crawlers: scrub, remap, and rebalance sharing the channels.

A production data node never serves foreground traffic alone — background
scrub (media health, :mod:`repro.faults.scrub`), remap (wear-leveling
migration), and rebalance (placement drift repair) crawls continuously walk
the flash and steal channel time.  Rather than simulating each crawl I/O,
the cluster layer prices their *interference*: during a crawler's duty
window, every foreground task on that node runs ``factor`` times slower
(the crawl occupies a fraction of the channel budget).

Windows are strictly periodic per (node, crawler) with a phase drawn from
:func:`repro.faults.hash_uniform` — an order-independent hash, not RNG
state — so the schedule is a pure function of (seed, node) and two runs
never disagree about whether a crawl covered a given instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..faults import hash_uniform

#: Hash salts, one per crawler kind (distinct from the fault-plan salts).
_SALT_SCRUB = 21
_SALT_REMAP = 22
_SALT_REBALANCE = 23


@dataclass(frozen=True)
class CrawlerKind:
    """One background crawler's period, duty cycle, and interference."""

    name: str
    period: float
    duty: float  # fraction of each period the crawl is active
    factor: float  # foreground slowdown multiplier while active
    salt: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("crawler period must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ConfigurationError("crawler duty must be in [0, 1]")
        if self.factor < 1.0:
            raise ConfigurationError("crawler factor must be >= 1")

    def active(self, node: int, seed: int, time: float) -> bool:
        """Whether this crawl covers ``time`` on ``node``."""
        if self.duty <= 0.0:
            return False
        phase = hash_uniform(node, seed, salt=self.salt) * self.period
        position = (time + phase) % self.period
        return position < self.duty * self.period


#: The default crawler mix: a slow scrub sweep, a faster remap pass, and an
#: occasional rebalance, each stealing a modest slice of channel time.
DEFAULT_CRAWLERS: Tuple[CrawlerKind, ...] = (
    CrawlerKind(name="scrub", period=2.0, duty=0.20, factor=1.10, salt=_SALT_SCRUB),
    CrawlerKind(name="remap", period=0.5, duty=0.10, factor=1.15, salt=_SALT_REMAP),
    CrawlerKind(
        name="rebalance", period=5.0, duty=0.05, factor=1.25, salt=_SALT_REBALANCE
    ),
)


class CrawlerSchedule:
    """Per-node deterministic background-crawl interference schedule."""

    def __init__(
        self, seed: int, crawlers: Tuple[CrawlerKind, ...] = DEFAULT_CRAWLERS
    ) -> None:
        self.seed = seed
        self.crawlers = crawlers
        # node -> (period, phase, active window, factor) per crawler with a
        # nonzero duty, the exact operands :meth:`CrawlerKind.active` computes.
        self._windows: Dict[int, List[Tuple[float, float, float, float]]] = {}

    def slowdown(self, node: int, time: float) -> float:
        """Foreground slowdown multiplier on ``node`` at ``time`` (>= 1)."""
        windows = self._windows.get(node)
        if windows is None:
            windows = self._windows[node] = [
                (
                    crawler.period,
                    hash_uniform(node, self.seed, salt=crawler.salt) * crawler.period,
                    crawler.duty * crawler.period,
                    crawler.factor,
                )
                for crawler in self.crawlers
                if crawler.duty > 0.0
            ]
        factor = 1.0
        for period, phase, window, crawl_factor in windows:
            if (time + phase) % period < window:
                factor *= crawl_factor
        return factor

    def mean_overhead(self) -> float:
        """Expected long-run slowdown (duty-weighted product of factors)."""
        overhead = 1.0
        for crawler in self.crawlers:
            overhead *= 1.0 + crawler.duty * (crawler.factor - 1.0)
        return overhead
