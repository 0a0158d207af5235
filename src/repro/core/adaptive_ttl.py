"""Churn-adaptive TTLs for the front-end group-size caches.

PR 1 gave the group-size cache a *fixed* TTL
(``FrontendConfig.size_cache_ttl``).  A fixed TTL is the wrong knob
under heterogeneous churn: a stable infrastructure group's size could be
cached for minutes, while a group whose membership flaps every few
seconds keeps a stale cost estimate for the whole TTL.  This module
makes the TTL a *per-entry* function of observed churn:

* :class:`ChurnTracker` -- an exponentially-decayed event-rate estimator
  (events/second) per key, plus one global stream for cluster-wide
  signals (overlay membership changes).  Both signal sources the system
  already sees feed it for free: ``on_membership_change`` callbacks and
  the changed cost estimates front-ends observe on probe/piggyback
  replies.
* :class:`AdaptiveTTL` -- maps a key's observed churn rate to a TTL
  clamped into ``[ttl_min, ttl_max]``.  The mapping is the natural one:
  cache an entry for about the expected interval between churn events
  (``1 / rate``), never longer than ``ttl_max`` (the old fixed global,
  now the upper bound) and never shorter than ``ttl_min`` (so a churn
  storm cannot disable caching entirely).

Zero observed churn therefore reproduces the fixed-TTL behaviour
exactly (every entry gets ``ttl_max``), which is what keeps the PR 1
configuration -- and ``FrontendConfig.uncached()`` -- bit-compatible.

The tracker is deliberately approximate and O(1) per event: rates decay
with a configurable half-life-style ``window`` and are only updated on
the events the protocol already delivers (no timers).
"""

from __future__ import annotations

from math import exp
from typing import Optional

__all__ = ["AdaptiveTTL", "ChurnTracker"]

#: key under which cluster-wide churn (overlay membership changes) is
#: tracked; every per-key rate reads add the global stream's rate.
GLOBAL_KEY = "*"


class ChurnTracker:
    """Exponentially-decayed per-key event-rate estimator.

    ``record(key, now)`` counts one churn event for ``key``;
    ``rate(key, now)`` returns the decayed events-per-second estimate,
    including the global stream fed by :meth:`record_global`.  With
    events arriving at a steady rate ``r`` the estimate converges to
    ``r``; after events stop it decays toward zero with time constant
    ``window`` seconds.
    """

    def __init__(self, window: float = 30.0, maxsize: int = 4096) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.maxsize = maxsize
        #: key -> (decayed event count / window, last update time)
        self._rates: dict[str, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._rates)

    def _bump(self, key: str, now: float) -> None:
        window = self.window
        entry = self._rates.get(key)
        if entry is None:
            rate = 1.0 / window
        else:
            prior, last = entry
            dt = now - last
            decayed = prior * exp(-dt / window) if dt > 0 else prior
            rate = decayed + 1.0 / window
        self._rates[key] = (rate, now)
        if len(self._rates) > self.maxsize:
            self._prune(now)

    def record(self, key: str, now: float) -> None:
        """Count one churn event for ``key`` (e.g. a cost estimate that
        changed between observations)."""
        self._bump(key, now)

    def record_global(self, now: float) -> None:
        """Count one cluster-wide churn event (overlay membership change);
        it raises the observed rate of *every* key."""
        self._bump(GLOBAL_KEY, now)

    def rate(self, key: str, now: float) -> float:
        """Decayed events/second for ``key`` including the global stream."""
        total = 0.0
        window = self.window
        for k in (key, GLOBAL_KEY) if key != GLOBAL_KEY else (GLOBAL_KEY,):
            entry = self._rates.get(k)
            if entry is None:
                continue
            prior, last = entry
            dt = now - last
            total += prior * exp(-dt / window) if dt > 0 else prior
        return total

    def _prune(self, now: float) -> None:
        """Drop the keys whose decayed rate is lowest (bounded memory)."""
        scored = sorted(
            self._rates.items(),
            key=lambda item: item[1][0] * exp(-(now - item[1][1]) / self.window),
        )
        for key, _ in scored[: len(scored) // 2]:
            if key != GLOBAL_KEY:
                del self._rates[key]

    def clear(self) -> None:
        self._rates.clear()


class AdaptiveTTL:
    """Per-entry TTL policy: cache for about the expected interval
    between churn events, clamped into ``[ttl_min, ttl_max]``.

    ``ttl_max`` is the old fixed TTL (zero churn keeps the exact PR 1
    behaviour); ``ttl_min`` bounds how far a churn storm can shrink
    entries, so caching degrades instead of collapsing.
    """

    def __init__(
        self,
        ttl_min: float,
        ttl_max: float,
        tracker: Optional[ChurnTracker] = None,
    ) -> None:
        if ttl_max <= 0:
            raise ValueError("ttl_max must be positive")
        if ttl_min < 0:
            raise ValueError("ttl_min must be >= 0")
        # A min above the max is a configuration slip, not a crash: the
        # usable range is the intersection.
        self.ttl_min = min(ttl_min, ttl_max)
        self.ttl_max = ttl_max
        self.tracker = tracker or ChurnTracker()

    @classmethod
    def if_enabled(
        cls, enabled: bool, ttl_min: float, ttl_max: float, window: float
    ) -> Optional["AdaptiveTTL"]:
        """The policy a config asks for, or None when adaptivity is off
        or the cache itself is disabled (``ttl_max <= 0``).

        The one construction rule shared by every tier (front-end size
        caches and the shared tier), so the enable condition cannot
        drift between them.
        """
        if not enabled or ttl_max <= 0:
            return None
        return cls(ttl_min, ttl_max, ChurnTracker(window=window))

    def ttl_for(self, key: str, now: float) -> float:
        """The TTL a fresh entry for ``key`` should get right now."""
        rate = self.tracker.rate(key, now)
        if rate <= 0.0:
            return self.ttl_max
        expected_interval = 1.0 / rate
        if expected_interval >= self.ttl_max:
            return self.ttl_max
        if expected_interval <= self.ttl_min:
            return self.ttl_min
        return expected_interval

    def observe(self, key: str, now: float) -> None:
        """Convenience: one churn event for ``key``."""
        self.tracker.record(key, now)

    def observe_global(self, now: float) -> None:
        """Convenience: one cluster-wide churn event."""
        self.tracker.record_global(now)
