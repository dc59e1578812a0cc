"""The CryptoPIM accelerator facade - the library's main entry point.

Combines the analytic :class:`~repro.core.pipeline.PipelineModel` (latency /
throughput / energy, Table II) with a functional execution path so a single
call both *computes* the polynomial product and *prices* it:

    >>> acc = CryptoPIM.for_degree(1024)
    >>> c = acc.multiply(a, b)
    >>> acc.last_report.latency_us
    83.13...

Fidelity modes (DESIGN.md Section 5):

* ``"fast"`` (default) - the product is computed with the vectorised
  Gentleman-Sande engine; timing/energy come from the analytic model.
  Scales to the paper's full 32k degree.
* ``"bit"`` - the product is computed by the gate-level
  :class:`~repro.arch.dataflow.PimMachine` (genuine row-parallel bit
  schedules on crossbar models).  The machine's metered cycle totals are
  checked against the analytic model on every call.  Practical for
  n <= ~1024.

A :class:`CryptoPIM` instance is also a valid
:class:`~repro.ntt.polynomial.MultiplierBackend`, so ring elements can be
moved onto the accelerator with ``poly.with_backend(acc)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arch.bank import BankPlan, plan_bank
from ..arch.dataflow import PimMachine
from ..ntt.params import params_for_degree
from ..ntt.transform import NttEngine
from ..pim.device import PAPER_DEVICE, DeviceModel
from .config import CryptoPimConfig, PipelineVariant
from .controller import pipelined_completion_cycles
from .pipeline import PipelineModel
from .timing import MultiplicationReport

__all__ = ["CryptoPIM", "BatchResult"]


@dataclass(frozen=True)
class BatchResult:
    """Products and streaming timeline of one pipelined batch."""

    results: list
    completion_cycles: list
    total_us: float
    effective_throughput_per_s: float

_FIDELITIES = ("fast", "bit")
#: above this degree, bit-level simulation is refused (it would take hours)
_BIT_FIDELITY_MAX_N = 4096


class CryptoPIM:
    """One configured CryptoPIM accelerator instance.

    Args:
        config: ring parameters, pipeline variant, device.
        fidelity: ``"fast"`` or ``"bit"`` (see module docstring).
        pipelined: whether reports describe streaming operation; the
            non-pipelined comparisons of Figures 5/6 use ``False`` (and, by
            the paper's convention, the area-efficient block arrangement -
            pass ``variant=PipelineVariant.AREA_EFFICIENT`` for that).
    """

    def __init__(self, config: CryptoPimConfig, fidelity: str = "fast",
                 pipelined: bool = True):
        if fidelity not in _FIDELITIES:
            raise ValueError(f"fidelity must be one of {_FIDELITIES}")
        if fidelity == "bit" and config.n > _BIT_FIDELITY_MAX_N:
            raise ValueError(
                f"bit-level fidelity is limited to n <= {_BIT_FIDELITY_MAX_N}; "
                f"use fidelity='fast' for n = {config.n}"
            )
        self.config = config
        self.fidelity = fidelity
        self.pipelined = pipelined
        self.model = PipelineModel(config)
        self._engine = NttEngine(config.params)
        #: the gate-level machine, built lazily on the first bit-fidelity
        #: call and reused (crossbars + constant tables survive; only the
        #: cycle meter is reset between multiplications)
        self._machine: Optional[PimMachine] = None
        self.last_report: Optional[MultiplicationReport] = None
        self.multiplications = 0

    @classmethod
    def for_degree(
        cls,
        n: int,
        fidelity: str = "fast",
        variant: PipelineVariant = PipelineVariant.CRYPTOPIM,
        device: DeviceModel = PAPER_DEVICE,
        pipelined: bool = True,
    ) -> "CryptoPIM":
        """Build the paper's configuration for polynomial degree ``n``."""
        config = CryptoPimConfig(
            params=params_for_degree(n), variant=variant, device=device
        )
        return cls(config, fidelity=fidelity, pipelined=pipelined)

    # -- the main operation ------------------------------------------------------

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product in ``Z_q[x]/(x^n + 1)``; updates ``last_report``."""
        a = np.asarray(a, dtype=np.uint64) % self.config.q
        b = np.asarray(b, dtype=np.uint64) % self.config.q
        if a.shape != (self.config.n,) or b.shape != (self.config.n,):
            raise ValueError(f"operands must have {self.config.n} coefficients")
        if self.fidelity == "bit":
            if self._machine is None:
                self._machine = PimMachine(self.config.params)
            machine = self._machine
            machine.reset()
            result = machine.multiply(a, b)
            expected = self.model.total_block_cycles()
            if machine.counter.cycles != expected:
                raise AssertionError(
                    f"bit-level machine metered {machine.counter.cycles} cycles "
                    f"but the analytic model predicts {expected} - cost model "
                    f"and hardware simulation have diverged"
                )
        else:
            result = self._engine.multiply(a, b)
        self.multiplications += 1
        self.last_report = self.model.report(pipelined=self.pipelined)
        return result

    def multiply_batch(self, pairs) -> "BatchResult":
        """Stream several multiplications through the pipeline.

        In ``fast`` fidelity the whole batch is computed by one 2-D kernel
        invocation (``NttEngine.multiply_many``) instead of a Python loop;
        ``bit`` fidelity still meters each product on the gate-level
        machine.  The timeline is one pipeline's, from the one completion
        law (:func:`~repro.core.controller.pipelined_completion_cycles`
        with one superbank): result ``k`` completes at
        ``(depth + k - 1) * stage_latency``, so a long batch approaches
        the Table II steady-state throughput.  The chip-level figure with
        every superbank streaming is the serving layer's ``ChipTimeline``.

        An empty batch is a no-op: ``[]`` results on a zero-cycle
        timeline, so callers that drain queues (the serving layer's batch
        windows) never have to special-case "nothing arrived".
        """
        pairs = list(pairs)
        if not pairs:
            return BatchResult(results=[], completion_cycles=[],
                               total_us=0.0, effective_throughput_per_s=0.0)
        if self.fidelity == "bit":
            results = [self.multiply(a, b) for a, b in pairs]
        else:
            n = self.config.n
            # one uint64 block per operand; multiply_many reduces it once
            a_block = np.array([a for a, _ in pairs], dtype=np.uint64)
            b_block = np.array([b for _, b in pairs], dtype=np.uint64)
            if a_block.shape != (len(pairs), n) or b_block.shape != (len(pairs), n):
                raise ValueError(f"operands must have {n} coefficients")
            results = list(self._engine.multiply_many(a_block, b_block))
            self.multiplications += len(pairs)
            self.last_report = self.model.report(pipelined=self.pipelined)
        completions = pipelined_completion_cycles(self.model, len(pairs))
        total_us = self.config.device.cycles_to_us(completions[-1])
        return BatchResult(
            results=results,
            completion_cycles=completions,
            total_us=total_us,
            effective_throughput_per_s=len(pairs) / (total_us * 1e-6),
        )

    # -- reporting -----------------------------------------------------------------

    def report(self, pipelined: Optional[bool] = None) -> MultiplicationReport:
        """Timing/energy report without running a multiplication."""
        if pipelined is None:
            pipelined = self.pipelined
        return self.model.report(pipelined=pipelined)

    def bank_plan(self) -> BankPlan:
        """Bank/softbank sizing for this degree (Section III-D.2)."""
        return plan_bank(self.config.n, self.config.variant)

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def q(self) -> int:
        return self.config.q

    def __repr__(self) -> str:
        return (f"CryptoPIM(n={self.config.n}, q={self.config.q}, "
                f"{self.config.bitwidth}-bit, {self.config.variant.value}, "
                f"fidelity={self.fidelity})")
