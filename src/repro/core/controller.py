"""CryptoPIM controller: microcode compilation and issue scheduling.

The paper implemented its controller in System Verilog and synthesised it
with Synopsys Design Compiler (Section IV-A).  The controller's job is to
sequence, for every memory block, the voltage-application micro-operations
(which gate runs on which columns) and to fire the switch transfer passes
between blocks.  We reproduce it at the microcode level: a
:class:`ControllerProgram` is the complete, cycle-annotated instruction
trace of one polynomial multiplication, and the issue scheduler produces
the steady-state pipelined timeline (which is where the Table II
throughput comes from).

Consistency is enforced both ways: the non-pipelined trace length equals
the analytic model's non-pipelined latency, and the pipelined schedule's
completion times follow ``(depth + k - 1) * stage_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .pipeline import PipelineModel
from .stages import OpKind

__all__ = ["MicroOp", "ControllerProgram", "compile_multiplication",
           "pipelined_completion_cycles", "completion_offsets"]


@dataclass(frozen=True)
class MicroOp:
    """One controller instruction.

    kinds:
      ``xfer``    fire the inter-block switch passes (3N cycles)
      ``write``   latch the arriving vector into the block's data columns
      ``compute`` run one vector-wide arithmetic op in the block
    """

    kind: str
    block: str
    detail: str
    start_cycle: int
    cycles: int

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.cycles

    def __str__(self) -> str:
        return (f"[{self.start_cycle:>8}] {self.kind:7s} {self.block:20s} "
                f"{self.detail:12s} ({self.cycles} cy)")


@dataclass
class ControllerProgram:
    """A compiled, cycle-annotated multiplication."""

    n: int
    variant: str
    ops: List[MicroOp]

    @property
    def total_cycles(self) -> int:
        return self.ops[-1].end_cycle if self.ops else 0

    def ops_for_block(self, block: str) -> List[MicroOp]:
        return [op for op in self.ops if op.block == block]

    def listing(self, limit: int | None = 20) -> str:
        shown = self.ops if limit is None else self.ops[:limit]
        lines = [str(op) for op in shown]
        if limit is not None and len(self.ops) > limit:
            lines.append(f"... ({len(self.ops) - limit} more micro-ops)")
        lines.append(f"total: {self.total_cycles} cycles "
                     f"({len(self.ops)} micro-ops)")
        return "\n".join(lines)


def compile_multiplication(model: PipelineModel) -> ControllerProgram:
    """Compile one multiplication into the sequential (non-pipelined)
    controller trace: for each block in dataflow order, a transfer, a
    write, then its compute micro-ops."""
    from ..pim.logic import transfer_cycles
    from .stages import WRITE_OVERHEAD_FACTOR

    policy = model.policy
    width = model.config.bitwidth
    ops: List[MicroOp] = []
    clock = 0
    for block in model.blocks:
        ops.append(MicroOp("xfer", block.label, "switch",
                           clock, transfer_cycles(width)))
        clock = ops[-1].end_cycle
        ops.append(MicroOp("write", block.label, "operands",
                           clock, WRITE_OVERHEAD_FACTOR * width))
        clock = ops[-1].end_cycle
        for spec in block.ops:
            ops.append(MicroOp("compute", block.label, spec.kind.value,
                               clock, policy.cycles_of(spec.kind)))
            clock = ops[-1].end_cycle
    program = ControllerProgram(n=model.config.n,
                                variant=model.config.variant.value, ops=ops)
    # invariant: the trace is exactly the analytic non-pipelined latency
    assert program.total_cycles == model.latency_cycles(pipelined=False)
    return program


def pipelined_completion_cycles(model: PipelineModel, count: int,
                                superbanks: int = 1,
                                segments: int = 1) -> List[int]:
    """The one completion law, used by every caller: the cycle, from the
    first issue, at which each of ``count`` multiplications completes.

    Item ``i`` takes pipeline slot ``i // superbanks`` of superbank
    ``i % superbanks``; its ``segments`` 32k segments (Section III-D.2)
    stream back to back, so it completes at
    ``(depth + (i // superbanks + 1) * segments - 1) * stage``.  One
    pipeline at a native degree gives ``(depth + k - 1) * stage`` for
    result k (1-based), the Table II streaming law.  Returns a fresh
    list of :func:`completion_offsets`."""
    return list(completion_offsets(model, count, superbanks, segments))


@lru_cache(maxsize=256)
def completion_offsets(model: PipelineModel, count: int,
                       superbanks: int = 1,
                       segments: int = 1) -> Tuple[int, ...]:
    """:func:`pipelined_completion_cycles` as an immutable tuple, priced
    once per ``(model, count, superbanks, segments)``: a model is an
    immutable cost table, so its law never changes, and callers that
    dispatch the same batch shape again only add their start cycle."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if superbanks < 1 or segments < 1:
        raise ValueError("superbanks and segments must be >= 1")
    stage = model.stage_cycles
    depth = model.depth
    return tuple((depth + (i // superbanks + 1) * segments - 1) * stage
                 for i in range(count))
