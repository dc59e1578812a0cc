"""Admission control: token buckets, bounded queues, load shedding.

Three gates run in order before a request is ever enqueued:

1. **validation** - unsupported kind/degree or malformed payloads,
   refused outright (``UNSUPPORTED`` / ``INVALID``);
2. **backpressure** - a full per-parameter-set queue refuses everything
   (``QUEUE_FULL``), and once the queue crosses its shed watermark,
   requests at or below the priority shed floor are dropped early
   (``OVERLOAD_SHED``) so urgent traffic keeps its headroom;
3. **per-tenant token bucket** - each tenant drains a bucket refilled at
   ``tenant_rate`` requests/s with ``tenant_burst`` capacity
   (``RATE_LIMITED``).  This gate runs *last* so refusals the service
   issues on its own account never charge the tenant's quota.

All gates answer with a typed :class:`~repro.serve.requests.Rejection`
rather than raising - shedding is a result the client is meant to see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..obs.span import NULL_SPAN, Span
from .requests import Rejection, RejectReason, ServeRequest

__all__ = ["TokenBucket", "AdmissionPolicy", "AdmissionController"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    The clock is injectable so tests can drive time deterministically.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; never blocks."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the admission controller.

    Args:
        queue_depth: bound of each per-parameter-set queue.
        tenant_rate: sustained requests/s per tenant (``None`` = unlimited).
        tenant_burst: bucket capacity (defaults to 2x rate, min 8).
        shed_watermark: fraction of ``queue_depth`` beyond which
            low-priority traffic is shed before the queue actually fills.
        shed_priority_floor: requests with ``priority >= floor`` are the
            ones shed at the watermark (0 would shed everything).
    """

    queue_depth: int = 128
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    shed_watermark: float = 0.75
    shed_priority_floor: int = 1

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not 0.0 < self.shed_watermark <= 1.0:
            raise ValueError("shed_watermark must be in (0, 1]")


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` to incoming requests."""

    def __init__(self, policy: AdmissionPolicy,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.policy.tenant_rate is None:
            return None
        if tenant not in self._buckets:
            burst = self.policy.tenant_burst
            if burst is None:
                burst = max(8.0, 2.0 * self.policy.tenant_rate)
            self._buckets[tenant] = TokenBucket(
                self.policy.tenant_rate, burst, clock=self._clock)
        return self._buckets[tenant]

    def admit(self, request: ServeRequest, queue_size: int,
              span: Span = NULL_SPAN) -> Optional[Rejection]:
        """``None`` if the request may be enqueued, else the typed refusal.

        The backpressure gates run *before* the tenant bucket is drained:
        a request the service refuses on its own account (full queue,
        overload shed) must not burn the tenant's quota, or a shedding
        service would go on to rate-limit innocent tenants once the
        backlog clears.  Tokens are only consumed for requests the
        service is actually willing to enqueue.

        ``span`` (the request trace's admit span) is annotated with the
        queue depth seen and the gate that fired, so traces answer *why*
        a request was refused, not just that it was.
        """
        traced = span.enabled
        if traced:
            span.set(queue_size=queue_size)
        if queue_size >= self.policy.queue_depth:
            if traced:
                span.set(outcome=RejectReason.QUEUE_FULL.value)
            return Rejection(
                request_id=request.request_id, kind=request.kind,
                n=request.n, reason=RejectReason.QUEUE_FULL,
                detail=f"queue at capacity ({self.policy.queue_depth})",
            )
        watermark = self.policy.shed_watermark * self.policy.queue_depth
        if (queue_size >= watermark
                and request.priority >= self.policy.shed_priority_floor):
            if traced:
                span.set(outcome=RejectReason.OVERLOAD_SHED.value)
            return Rejection(
                request_id=request.request_id, kind=request.kind,
                n=request.n, reason=RejectReason.OVERLOAD_SHED,
                detail=f"backlog {queue_size} over watermark "
                       f"{watermark:.0f}; priority {request.priority} shed",
            )
        bucket = self._bucket(request.tenant)
        if bucket is not None and not bucket.try_take():
            if traced:
                span.set(outcome=RejectReason.RATE_LIMITED.value)
            return Rejection(
                request_id=request.request_id, kind=request.kind,
                n=request.n, reason=RejectReason.RATE_LIMITED,
                detail=f"tenant {request.tenant!r} exceeded "
                       f"{self.policy.tenant_rate:g} req/s",
            )
        if traced:
            span.set(outcome="admitted")
        return None
