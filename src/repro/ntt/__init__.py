"""Number-theoretic-transform substrate (Section II of the paper).

Public surface:

* :mod:`repro.ntt.modmath` - modular arithmetic primitives
* :mod:`repro.ntt.reduction` - Barrett / Montgomery reducers
* :mod:`repro.ntt.bitrev` - bit-reversal permutation
* :mod:`repro.ntt.params` - the paper's (n, q, bitwidth) parameter sets
* :mod:`repro.ntt.transform` - Gentleman-Sande NTT and Algorithm 1
* :mod:`repro.ntt.batch` - batched 2-D kernels, the cached stage plan and
  the width-chosen datapaths
* :mod:`repro.ntt.naive` - schoolbook / Karatsuba reference multipliers
* :mod:`repro.ntt.polynomial` - ring element type
"""

from .batch import (
    KERNEL_MAX_Q_BITS,
    StagePlan,
    check_kernel_modulus,
    gs_kernel_batch,
    stage_plan,
)
from .bitrev import bitrev_indices, bitrev_permute, bitrev_permute_array, reverse_bits
from .modmath import (
    centered,
    egcd,
    is_nth_root_of_unity,
    is_prime,
    mod_add,
    mod_inverse,
    mod_mul,
    mod_pow,
    mod_sub,
    nth_root_of_unity,
    primitive_root,
)
from .cyclic import bigint_multiply, cyclic_convolve, linear_convolve
from .naive import karatsuba_negacyclic, schoolbook_negacyclic, schoolbook_negacyclic_np
from .params import (
    HE_DEGREES,
    PAPER_DEGREES,
    PUBLIC_KEY_DEGREES,
    NttParams,
    bitwidth_for_degree,
    modulus_for_degree,
    named_parameter_sets,
    params_for_degree,
)
from .polynomial import MultiplierBackend, Polynomial
from .rns import RnsBasis, RnsPolynomial, find_ntt_primes
from .reduction import BarrettReducer, MontgomeryReducer, signed_digit_terms
from .incomplete import KYBER_ROUND3_Q, IncompleteNtt
from .transform import (
    NttEngine,
    intt_gs,
    intt_gs_np,
    negacyclic_multiply,
    negacyclic_multiply_np,
    ntt_gs,
    ntt_gs_np,
)
from .variants import intt_dit, negacyclic_multiply_no_bitrev, ntt_dif

__all__ = [name for name in dir() if not name.startswith("_")]
