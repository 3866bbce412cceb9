"""Tenant policy: weights, token-bucket rate limits, backlog bounds.

A tenant is a named client class with three knobs:

* ``weight`` -- its share of the worker pool under contention (see
  :class:`~repro.service.queue.WeightedFairQueue`; a weight-4 tenant
  drains four jobs for every one of a weight-1 tenant).
* ``rate_per_s`` / ``burst`` -- a token bucket bounding its *admission*
  rate: bursts up to ``burst`` jobs, sustained at ``rate_per_s``.
* ``max_backlog`` -- how many of its jobs may sit queued at once; the
  overflow answer is a structured 429, never an unbounded queue.
* ``max_result_bytes`` -- optional cap on the tenant's footprint in the
  shared result store (canonical-JSON bytes of results its jobs
  stored); submissions past the cap answer 429 ``quota_exceeded``.

Everything is deterministic under an injected clock, so the rate-limit
invariants are property-testable without sleeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = ["TenantConfig", "TenantRegistry", "TokenBucket"]

Clock = Callable[[], float]


@dataclass(frozen=True)
class TenantConfig:
    """Admission and scheduling policy of one tenant."""

    name: str
    weight: float = 1.0
    rate_per_s: float = math.inf
    burst: int = 64
    max_backlog: int = 256
    max_result_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.weight > 0.0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if not self.rate_per_s > 0.0:
            raise ValueError(f"rate_per_s must be > 0, got {self.rate_per_s}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_backlog < 1:
            raise ValueError(
                f"max_backlog must be >= 1, got {self.max_backlog}"
            )
        if self.max_result_bytes is not None and self.max_result_bytes < 1:
            raise ValueError(
                f"max_result_bytes must be >= 1 or None, "
                f"got {self.max_result_bytes}"
            )

    def to_record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "weight": self.weight,
            "rate_per_s": (
                None if math.isinf(self.rate_per_s) else self.rate_per_s
            ),
            "burst": self.burst,
            "max_backlog": self.max_backlog,
            "max_result_bytes": self.max_result_bytes,
        }


class TokenBucket:
    """Deterministic token bucket: ``burst`` capacity, ``rate`` refill.

    Args:
        rate_per_s: Tokens added per second (``inf`` = unlimited).
        burst: Bucket capacity (also the initial fill).
        clock: Monotonic time source; injectable so tests can drive
            virtual time instead of sleeping.
    """

    def __init__(self, rate_per_s: float, burst: int, clock: Clock) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self.clock()
        if math.isinf(self.rate_per_s):
            self._tokens = float(self.burst)
        else:
            elapsed = max(0.0, now - self._updated)
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate_per_s
            )
        self._updated = now

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        self._refill()
        if self._tokens + 1e-12 >= n:
            # The tolerance absorbs refill rounding; never carry it
            # below empty.
            self._tokens = max(0.0, self._tokens - n)
            return True
        return False

    def retry_after_s(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 if now)."""
        self._refill()
        missing = n - self._tokens
        if missing <= 0.0:
            return 0.0
        if math.isinf(self.rate_per_s):
            return 0.0
        return missing / self.rate_per_s

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class TenantRegistry:
    """Known tenants plus the default policy for everyone else.

    Unknown tenant names are materialized on first contact with the
    ``default`` policy (renamed to the caller) -- an open service with
    per-name fairness, rather than a closed allowlist.
    """

    def __init__(
        self,
        tenants: Dict[str, TenantConfig] | None = None,
        default: TenantConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        import time

        self.clock: Clock = clock or time.monotonic
        self.default = default or TenantConfig(name="default")
        self._configs: Dict[str, TenantConfig] = dict(tenants or {})
        self._buckets: Dict[str, TokenBucket] = {}

    def config(self, name: str) -> TenantConfig:
        if name not in self._configs:
            base = self.default
            self._configs[name] = TenantConfig(
                name=name,
                weight=base.weight,
                rate_per_s=base.rate_per_s,
                burst=base.burst,
                max_backlog=base.max_backlog,
                max_result_bytes=base.max_result_bytes,
            )
        return self._configs[name]

    def bucket(self, name: str) -> TokenBucket:
        if name not in self._buckets:
            config = self.config(name)
            self._buckets[name] = TokenBucket(
                config.rate_per_s, config.burst, self.clock
            )
        return self._buckets[name]

    def names(self):
        return sorted(self._configs)

    def to_record(self) -> Dict[str, Any]:
        return {
            "default": self.default.to_record(),
            "tenants": {
                name: config.to_record()
                for name, config in sorted(self._configs.items())
            },
        }
