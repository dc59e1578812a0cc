"""CryptoPIM core: the accelerator, its pipelines and cost model."""

from .accelerator import BatchResult, CryptoPIM
from .controller import (
    ControllerProgram,
    MicroOp,
    compile_multiplication,
    pipelined_completion_cycles,
)
from .scheduler import ChipScheduler, MultiplicationJob, ScheduleReport
from .tracing import CycleAttribution, attribute_cycles, dominance_ratio
from .verify import SelfCheckingBackend, VerificationError, verify_product
from .dse import DesignPoint, enumerate_designs, pareto_front
from .config import CryptoPimConfig, PipelineVariant
from .pipeline import PipelineModel
from .stages import (
    CostPolicy,
    CryptoPimPolicy,
    OpKind,
    OpSpec,
    RowScope,
    StageBlock,
    build_blocks,
)
from .timing import MultiplicationReport

__all__ = [name for name in dir() if not name.startswith("_")]
