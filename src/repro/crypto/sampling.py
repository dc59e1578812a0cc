"""Samplers for lattice cryptography.

RLWE schemes need three distributions over ``R_q``:

* uniform polynomials (public randomness ``a``);
* small *error/secret* polynomials - we provide the centered binomial
  distribution (CBD) used by NewHope/Kyber, drawn from a byte stream as
  FIPS 203's SamplePolyCBD does, and a discrete Gaussian sampled through
  a cumulative distribution table (CDT), the classic constant-time
  hardware approach;
* ternary polynomials (coefficients in ``{-1, 0, 1}``).

All samplers take a ``numpy.random.Generator`` so callers control
determinism - tests and examples pass seeded generators.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from ..ntt.params import NttParams
from ..ntt.polynomial import Polynomial

__all__ = [
    "uniform_poly",
    "cbd_block",
    "cbd_poly",
    "ternary_poly",
    "DiscreteGaussianSampler",
    "gaussian_poly",
]


def uniform_poly(params: NttParams, rng: np.random.Generator) -> Polynomial:
    """A uniformly random element of ``R_q``."""
    return Polynomial(rng.integers(0, params.q, params.n, dtype=np.int64), params)


#: the widest CBD the byte-stream rule serves: two bytes per coefficient
MAX_CBD_ETA = 8


@lru_cache(maxsize=None)
def _cbd_table(eta: int, q: int) -> np.ndarray:
    """The ``2^(2 eta)``-entry CBD_eta table as residues mod ``q``: entry
    ``x`` is ``popcount(x & (2^eta - 1)) - popcount(x >> eta)``."""
    if not 1 <= eta <= MAX_CBD_ETA:
        raise ValueError(f"eta must be in [1, {MAX_CBD_ETA}], got {eta}")
    x = np.arange(1 << (2 * eta))
    coins = [(x >> bit) & 1 for bit in range(2 * eta)]
    table = ((sum(coins[:eta]) - sum(coins[eta:])) % q).astype(np.uint64)
    table.setflags(write=False)
    return table


def _cbd_width(eta: int) -> int:
    """Bytes of stream per CBD_eta coefficient: ``ceil(2 eta / 8)``."""
    return 1 if eta <= 4 else 2


@lru_cache(maxsize=None)
def _cbd_word_table(eta: int, q: int) -> np.ndarray:
    """:func:`_cbd_table` repeated over every stream word: 256 entries for
    one-byte words, 65,536 for two-byte ones, so entry ``w`` is
    ``_cbd_table(eta, q)[w & (2^(2 eta) - 1)]`` and a word indexes it as
    it is, bits above ``2 eta`` included."""
    small = _cbd_table(eta, q)
    table = np.tile(small, (1 << (8 * _cbd_width(eta))) // len(small))
    table.setflags(write=False)
    return table


def cbd_block(rng: np.random.Generator, eta: int,
              shape: Union[int, Tuple[int, ...]], q: int) -> np.ndarray:
    """A ``shape`` block of CBD_eta residues mod ``q`` (``uint64``), drawn
    from one ``rng.bytes`` call.

    Each coefficient reads ``ceil(2 eta / 8)`` bytes (little-endian): its
    low ``eta`` bits are the ``a`` coins and the next ``eta`` the ``b``
    coins, so the value is ``popcount(a) - popcount(b)`` and any bits
    above ``2 eta`` are dropped - FIPS 203's SamplePolyCBD over a byte
    stream (https://doi.org/10.6028/NIST.FIPS.203).  One ``take`` from a
    cached table that covers the whole word (:func:`_cbd_word_table`)
    replaces ``2 eta`` coin draws and the mask of the dropped bits.

    Blocks drawn back to back read one contiguous stream whenever each
    block's byte count is a multiple of 4 (every ring with n >= 4), so one
    ``(count, n)`` block equals ``count`` successive ``n``-coefficient
    draws bit for bit.
    """
    table = _cbd_word_table(eta, q)
    width = _cbd_width(eta)
    count = int(np.prod(shape))
    stream = np.frombuffer(rng.bytes(count * width),
                           dtype=np.uint8 if width == 1 else "<u2")
    return table.take(stream).reshape(shape)


def cbd_poly(params: NttParams, rng: np.random.Generator, eta: int = 2) -> Polynomial:
    """Centered binomial distribution ``CBD_eta``: sum of ``eta`` coin
    differences per coefficient; support ``[-eta, eta]``, variance ``eta/2``.

    This is the error distribution of Kyber (eta=2) and NewHope (eta=8),
    drawn by :func:`cbd_block`.
    """
    return Polynomial(cbd_block(rng, eta, params.n, params.q), params)


def ternary_poly(params: NttParams, rng: np.random.Generator,
                 hamming_weight: Optional[int] = None) -> Polynomial:
    """Uniform ternary polynomial; optionally with fixed Hamming weight."""
    if hamming_weight is None:
        coeffs = rng.integers(-1, 2, params.n)
    else:
        if not 0 <= hamming_weight <= params.n:
            raise ValueError("hamming weight out of range")
        coeffs = np.zeros(params.n, dtype=np.int64)
        positions = rng.choice(params.n, size=hamming_weight, replace=False)
        coeffs[positions] = rng.choice([-1, 1], size=hamming_weight)
    return Polynomial(coeffs, params)


class DiscreteGaussianSampler:
    """Discrete Gaussian over the integers via a cumulative table (CDT).

    The LWE definition samples errors from a (discrete) Gaussian; hardware
    implementations use a precomputed CDT and constant-time table scans.
    The table covers ``[-tail_cut * sigma, +tail_cut * sigma]``; mass beyond
    is below 2^-100 for the default 13-sigma cut.
    """

    def __init__(self, sigma: float, tail_cut: float = 13.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = sigma
        self.bound = max(1, int(math.ceil(sigma * tail_cut)))
        xs = np.arange(-self.bound, self.bound + 1)
        pdf = np.exp(-(xs.astype(float) ** 2) / (2 * sigma * sigma))
        pdf /= pdf.sum()
        self._xs = xs
        self._cdf = np.cumsum(pdf)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` i.i.d. samples as signed integers."""
        u = rng.random(count)
        idx = np.searchsorted(self._cdf, u)
        return self._xs[np.clip(idx, 0, len(self._xs) - 1)]


def gaussian_poly(params: NttParams, rng: np.random.Generator,
                  sigma: float = 3.2) -> Polynomial:
    """Polynomial with discrete-Gaussian coefficients (default sigma per
    the original NewHope/RLWE literature)."""
    sampler = DiscreteGaussianSampler(sigma)
    return Polynomial(sampler.sample(params.n, rng), params)
