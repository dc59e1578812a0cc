"""The adaptive batching window.

CryptoPIM's pipelined superbanks only pay off when a dispatch carries many
polynomials (a full window at n=1024 costs the chip the same cycles as a
single product), but a user-facing service cannot wait forever for a full
batch.
The batching window closes on whichever comes first:

* **capacity** - the batch reaches the chip's parallel-superbank count for
  its degree (or an explicit override), or
* **deadline** - ``max_wait_s`` has elapsed since the *first* request of
  the window was dequeued.

The window is adaptive in the queue-depth sense: whatever is already
backlogged is drained without sleeping, so under saturation batches close
at capacity with zero added latency, while a trickle of traffic pays at
most one deadline of extra wait.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, List

__all__ = ["BatchWindow", "collect_batch"]


@dataclass(frozen=True)
class BatchWindow:
    """Closure policy of one queue's batching window.

    Args:
        capacity: maximum items per batch (>= 1).
        max_wait_s: deadline from the first dequeued item; ``0`` means
            "never sleep": serve whatever is immediately available.
    """

    capacity: int
    max_wait_s: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


async def collect_batch(queue: "asyncio.Queue", window: BatchWindow,
                        out: List[Any] | None = None,
                        dequeued_at: List[float] | None = None) -> List[Any]:
    """Dequeue one batch according to ``window``.

    Blocks until at least one item is available (the service is idle until
    then), drains any existing backlog up to capacity immediately, and only
    then waits out the remaining deadline for stragglers.

    Args:
        out: optional list the batch is accumulated into *incrementally* -
            if the coroutine is cancelled mid-window (service shutdown),
            the caller still sees every item already dequeued and can
            fail them over instead of dropping them silently.
        dequeued_at: optional list receiving one ``loop.time()`` stamp per
            dequeued item (same order as the batch) - the boundary between
            a request's queue wait and its window wait in a trace.
    """
    items: List[Any] = [] if out is None else out
    loop = asyncio.get_running_loop()

    def stamp() -> None:
        if dequeued_at is not None:
            dequeued_at.append(loop.time())

    items.append(await queue.get())
    stamp()
    # adaptive fast path: drain the backlog that is already here
    while len(items) < window.capacity:
        try:
            items.append(queue.get_nowait())
        except asyncio.QueueEmpty:
            break
        stamp()
    if len(items) >= window.capacity or window.max_wait_s == 0:
        return items
    deadline = loop.time() + window.max_wait_s
    # A bare ``wait_for(queue.get(), remaining)`` has the classic item-loss
    # race: the timeout cancellation can land *after* ``get()`` already
    # dequeued, silently dropping that request.  Instead the ``get()`` task
    # is shielded (the deadline never cancels it) and kept across loop
    # iterations; on exit, a get that completed during the timeout window
    # still delivers its item into the batch.
    getter: "asyncio.Task | None" = None
    try:
        while len(items) < window.capacity:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            if getter is None:
                getter = loop.create_task(queue.get())
            try:
                await asyncio.wait_for(asyncio.shield(getter), remaining)
            except asyncio.TimeoutError:
                break
            items.append(getter.result())
            stamp()
            getter = None
    finally:
        if getter is not None:
            if getter.done() and not getter.cancelled():
                # the get raced the deadline (or an outer cancellation) and
                # won: the item belongs to this batch, never the floor
                items.append(getter.result())
                stamp()
            else:
                getter.cancel()
    return items
