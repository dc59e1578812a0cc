"""Repo-specific knobs the rules consult.

The defaults encode *this* repository's contracts:

* ``max_modulus_bits = 31``: the widest modulus any numpy kernel datapath
  may see.  :data:`repro.ntt.batch.KERNEL_MAX_Q_BITS` enforces the same
  bound at runtime; a residue product then needs at most
  ``2 * 31 + 1 = 63`` bits (the ``+1`` covers the biased difference
  ``t + q - bot < 2q`` the Gentleman-Sande butterfly multiplies), which is
  exactly what makes the ``uint64`` datapath safe.  Any *narrower* unsigned
  product feeding a ``%`` can wrap first and is flagged.
* ``hot_kernel_dirs``: modules where signed-array modular arithmetic is
  treated as a defect rather than style (the numpy kernels the paper's
  width discipline applies to).
* ``counter_attrs`` / ``charge_method_prefixes``: the cycle-accounting
  discipline from the serving layer's ``busy + reconfig + idle == clock``
  invariant.
* ``owned_attrs``: shared mutable state and the module that owns it; a
  coroutine elsewhere mutating it is flagged (the scheduler-ownership rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["AnalyzeConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class AnalyzeConfig:
    max_modulus_bits: int = 31
    hot_kernel_dirs: Tuple[str, ...] = ("ntt", "arch", "pim", "core")
    counter_attrs: Tuple[str, ...] = (
        "busy_cycles", "reconfig_cycles", "idle_cycles", "clock_cycles",
        "cycles", "row_events", "transfers",
    )
    charge_method_prefixes: Tuple[str, ...] = (
        "charge", "advance", "dispatch", "reset", "merge", "record",
        "_charge", "_advance", "__init__", "__post_init__",
    )
    owned_attrs: Dict[str, str] = field(default_factory=lambda: {
        "pending_leases": "serve/fleet.py",
        "healthy": "serve/fleet.py",
        "configured_n": "core/scheduler.py",
    })
    #: method names whose call produces a fresh queue item (ASY001)
    queue_get_methods: Tuple[str, ...] = ("get", "get_nowait")
    #: span-opening methods of the repro.obs tracing API (OBS001);
    #: ``start_trace`` is deliberately absent - root spans are handoff
    #: objects finished wherever the request resolves
    span_open_methods: Tuple[str, ...] = ("start_span", "child")
    #: the matching close
    span_close_methods: Tuple[str, ...] = ("finish",)


DEFAULT_CONFIG = AnalyzeConfig()
