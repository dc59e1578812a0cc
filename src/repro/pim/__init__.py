"""ReRAM processing-in-memory substrate (Sections II-III of the paper).

* :mod:`repro.pim.device` - VTEAM-flavoured device constants (1.1 ns cycle)
* :mod:`repro.pim.logic` - in-memory gate library and closed-form op costs
* :mod:`repro.pim.alu` - gate-level row-parallel adder/subtractor/multiplier
* :mod:`repro.pim.crossbar` - 512x512 memory block storage model
* :mod:`repro.pim.shiftadd` - shift-add reduction program IR + cost engine
* :mod:`repro.pim.reduction_programs` - Algorithm 3 generation, Table I
* :mod:`repro.pim.switch` - fixed-function inter-block switches
* :mod:`repro.pim.block` - PIM-enabled block: vector-wide modular arithmetic
* :mod:`repro.pim.energy` - calibrated event-based energy model
* :mod:`repro.pim.variation` - Section IV-A Monte-Carlo robustness study
"""

from .alu import BitSliceAlu, from_bits, to_bits
from .block import PimBlock, execute_program_bitlevel
from .crossbar import ColumnSpan, Crossbar
from .device import PAPER_DEVICE, DeviceModel
from .energy import EnergyBreakdown, EnergyModel
from .ecc import DecodingResult, HammingCode, ProtectedField, parity_bits_needed
from .faults import Fault, FaultKind, FaultyVectorUnit, fault_sensitivity_sweep
from .magic import (
    FULL_ADDER_NETLIST,
    MagicAlu,
    add_cycles_magic,
    magic_full_adder,
    sub_cycles_magic,
)
from .logic import (
    GATE_CYCLES,
    CycleCounter,
    Gate,
    add_cycles,
    mul_cycles_baseline35,
    mul_cycles_cryptopim,
    sub_cycles,
    transfer_cycles,
)
from .reduction_programs import (
    PAPER_MODULI,
    TABLE1_PAPER,
    ReductionKit,
    barrett_program,
    montgomery_program,
    table1_costs,
)
from .shiftadd import Op, ProgramCost, ShiftAddProgram
from .switch import FixedFunctionSwitch, SwitchRouteError
from .variation import VariationResult, monte_carlo_noise_margin, sense_noise_margin

__all__ = [name for name in dir() if not name.startswith("_")]
