"""NewHope-style key encapsulation (simplified).

NewHope [16] is the RLWE key-agreement scheme whose parameters
(n=512/1024, q=12289) fix CryptoPIM's 16-bit operating points.  This is
the "NewHope-Simple" encode/decode variant: the shared key is encrypted
bit-wise like an LPR plaintext instead of using the original two-bit
reconciliation, trading a little bandwidth for a much simpler (and easier
to verify) decoder.  Each of the 256 key bits is spread over ``n/256``
coefficients and decoded by majority, which drives the failure probability
to negligible levels.

Keys, ciphertexts, encryption and the threshold decoder are the LPR core
of :mod:`repro.crypto.rlwe`; this module adds only the spread encoding and
the majority decode.  The heavy operations - four ring multiplications per
encapsulation - run on the pluggable multiplier backend, i.e. on CryptoPIM
when one is passed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ntt.params import params_for_degree
from ..ntt.polynomial import MultiplierBackend
from .rlwe import RlweCiphertext, RlwePublicKey, RlweScheme, RlweSecretKey

__all__ = ["NewHopeKem", "KEY_BITS"]

#: shared-secret size (NewHope targets a 256-bit key)
KEY_BITS = 256


class NewHopeKem(RlweScheme):
    """Simplified NewHope KEM over n in {512, 1024}, q = 12289."""

    def __init__(self, n: int = 1024, eta: int = 8,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        if n < KEY_BITS or n % KEY_BITS:
            raise ValueError(f"n must be a multiple of {KEY_BITS}")
        super().__init__(params_for_degree(n), backend=backend, eta=eta,
                         rng=rng)
        self._spread = n // KEY_BITS

    def encapsulate(self, pk: RlwePublicKey) -> tuple[RlweCiphertext, np.ndarray]:
        """Return (ciphertext, shared_key_bits): each key bit is encrypted
        in ``n/256`` coefficients."""
        key_bits = self.rng.integers(0, 2, KEY_BITS)
        return self.encrypt(pk, np.repeat(key_bits, self._spread)), key_bits

    def decapsulate(self, sk: RlweSecretKey, ct: RlweCiphertext) -> np.ndarray:
        """Recover the shared key bits by majority over each bit's group."""
        votes = self.decrypt(sk, ct).reshape(KEY_BITS, self._spread)
        return (votes.sum(axis=1) * 2 > self._spread).astype(np.int64)
