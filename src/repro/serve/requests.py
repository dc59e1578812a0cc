"""Typed requests and responses for the serving layer.

The front door of the simulated deployment: clients describe *what* they
want (a raw negacyclic product, an NTT, a Kyber encapsulation, a
homomorphic eval op) plus *who* they are (tenant) and *how urgent* it is
(priority).  The service answers with either a :class:`ServeResult`
carrying the value and its timing breakdown, or a typed
:class:`Rejection` - load shedding is a first-class response, never an
exception or an unbounded queue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple

from ..pim.device import PAPER_DEVICE

__all__ = [
    "RequestKind",
    "RejectReason",
    "ServeRequest",
    "ServeResult",
    "Rejection",
]


class RequestKind(Enum):
    """Operations the service accepts."""

    POLYMUL = "polymul"            # raw negacyclic product in Z_q[x]/(x^n+1)
    NTT_FORWARD = "ntt_forward"    # forward transform of one polynomial
    NTT_INVERSE = "ntt_inverse"    # inverse transform (with n^-1 scaling)
    KYBER_ENCAPS = "kyber_encaps"  # KEM encapsulation against the service key
    KYBER_DECAPS = "kyber_decaps"  # KEM decapsulation of a client ciphertext
    BGV_ADD = "bgv_add"            # homomorphic addition of two ciphertexts
    BGV_MULTIPLY = "bgv_multiply"  # homomorphic tensor product
    BFV_ADD = "bfv_add"
    BFV_MULTIPLY = "bfv_multiply"


class RejectReason(Enum):
    """Why the service refused a request: admission control, shedding, a
    malformed request, shutdown, or a fault of the service itself."""

    QUEUE_FULL = "queue_full"      # the per-parameter-set queue is at capacity
    RATE_LIMITED = "rate_limited"  # tenant token bucket is empty
    OVERLOAD_SHED = "overload_shed"  # backlog watermark hit; low priority shed
    UNSUPPORTED = "unsupported"    # kind/degree combination not servable
    INVALID = "invalid"            # malformed payload
    SHUTDOWN = "shutdown"          # service is draining
    INTERNAL = "internal"          # the service failed the window after dequeue


_REQUEST_IDS = itertools.count(1)


@dataclass
class ServeRequest:
    """One client request.

    Args:
        kind: the operation.
        n: polynomial degree selecting the parameter set (ignored for
            Kyber, which is pinned to the paper's n=256 operating point).
        payload: operand(s); shape depends on ``kind`` (see the handler
            table in :mod:`repro.serve.service`).
        tenant: client identity (a string) used for per-tenant rate
            limiting.
        priority: an integer, 0 is most urgent; under overload, requests
            with priority >= the service's shed floor are dropped first.
    """

    kind: RequestKind
    n: int
    payload: Any = None
    tenant: str = "default"
    priority: int = 1
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))


class ServeResult(NamedTuple):
    """A completed request: the value plus where its time went.

    An immutable tuple with named fields: a window builds one per member,
    and a positional tuple construction costs a fraction of a frozen
    dataclass's one ``object.__setattr__`` per field.  Results compare
    by value.
    """

    request_id: int
    kind: RequestKind
    n: int
    value: Any
    queue_wait_s: float       # enqueue -> batch close (wall clock)
    service_s: float          # the batch's execute interval (wall clock)
    total_s: float            # enqueue -> result ready (wall clock)
    batch_size: int           # occupancy of the batch this request rode in
    completion_cycle: int     # simulated chip cycle the result came back
    chip: int = 0             # fleet shard index the batch executed on

    @property
    def completion_us(self) -> float:
        """``completion_cycle`` in microseconds of chip time."""
        return PAPER_DEVICE.cycles_to_us(self.completion_cycle)

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejection:
    """A refused request - the typed load-shedding result."""

    request_id: int
    kind: RequestKind
    n: int
    reason: RejectReason
    detail: str = ""

    @property
    def ok(self) -> bool:
        return False
