"""repro.serve - async multi-tenant request serving for the CryptoPIM chip.

The front door the ROADMAP's "heavy traffic" goal needs: typed requests,
admission control and backpressure, adaptive batch windows sized to the
chip's parallel superbanks, a fleet of simulated chips shared across
parameter sets, latency/occupancy metrics, and a synthetic load
generator.  See ``README.md`` ("Serving") and ``DESIGN.md`` section 7.
"""

from ..core.scheduler import BatchTiming, ChipTimeline
from .admission import AdmissionController, AdmissionPolicy, TokenBucket
from .batcher import BatchWindow, collect_batch
from .fleet import ChipFleet, ChipShard, FleetDrained
from .loadgen import (
    PROFILES,
    LoadReport,
    PayloadPool,
    TrafficSpec,
    WorkloadProfile,
    run_closed_loop,
    run_open_loop,
)
from .metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from .requests import (
    Rejection,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServeResult,
)
from .service import KYBER_DEGREE, KYBER_RANK, CryptoPimService, ServiceConfig

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "TokenBucket",
    "BatchWindow",
    "collect_batch",
    "ChipFleet",
    "ChipShard",
    "FleetDrained",
    "PROFILES",
    "LoadReport",
    "PayloadPool",
    "TrafficSpec",
    "WorkloadProfile",
    "run_closed_loop",
    "run_open_loop",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Rejection",
    "RejectReason",
    "RequestKind",
    "ServeRequest",
    "ServeResult",
    "BatchTiming",
    "ChipTimeline",
    "KYBER_DEGREE",
    "KYBER_RANK",
    "CryptoPimService",
    "ServiceConfig",
]
