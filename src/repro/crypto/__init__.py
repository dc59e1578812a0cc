"""Lattice-cryptography workloads built on the accelerated multiplier."""

from .frodo import FrodoLitePke, key_size_comparison
from .dilithium import DilithiumParams, DilithiumSigner, Signature
from .algebra import RelinearizationKey
from .bfv import BfvCiphertext, BfvScheme, BfvSecretKey
from .bgv import BgvCiphertext, BgvScheme, BgvSecretKey
from .bgv_rns import RnsBgvCiphertext, RnsBgvScheme
from .he_apps import (
    encrypted_dot_product,
    encrypted_poly_eval,
    encrypted_xor_aggregate,
    pack_forward,
    pack_reversed,
)
from .kyber import KyberCiphertext, KyberPke, KyberPublicKey, KyberSecretKey
from .newhope import KEY_BITS, NewHopeKem
from .rlwe import RlweCiphertext, RlwePublicKey, RlweScheme, RlweSecretKey
from .serialization import (
    deserialize_ciphertext,
    deserialize_public_key,
    polynomial_from_bytes,
    polynomial_to_bytes,
    serialize_ciphertext,
    serialize_public_key,
    wire_sizes,
)
from .security import (
    SecurityEstimate,
    estimate_rlwe_security,
    paper_parameter_review,
)
from .sampling import (
    DiscreteGaussianSampler,
    cbd_poly,
    gaussian_poly,
    ternary_poly,
    uniform_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
