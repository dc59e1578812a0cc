"""Tests for the lattice samplers."""

from math import comb

import numpy as np
import pytest

from repro.crypto.sampling import (
    DiscreteGaussianSampler,
    _cbd_table,
    _cbd_word_table,
    cbd_block,
    cbd_poly,
    gaussian_poly,
    ternary_poly,
    uniform_poly,
)
from repro.ntt.params import params_for_degree


@pytest.fixture
def params():
    return params_for_degree(1024)


class TestUniform:
    def test_range(self, params, rng):
        p = uniform_poly(params, rng)
        assert (p.coeffs < params.q).all()

    def test_looks_uniform(self, params, rng):
        # mean of U(0, q) is ~q/2; loose 5% band on 1024 samples
        p = uniform_poly(params, rng)
        mean = float(p.coeffs.mean())
        assert abs(mean - params.q / 2) < 0.05 * params.q

    def test_deterministic_with_seed(self, params):
        a = uniform_poly(params, np.random.default_rng(1))
        b = uniform_poly(params, np.random.default_rng(1))
        assert a == b


class TestCbd:
    def test_support(self, params, rng):
        for eta in (1, 2, 8):
            p = cbd_poly(params, rng, eta)
            assert p.infinity_norm() <= eta

    def test_variance(self, params):
        """CBD_eta has variance eta/2."""
        rng = np.random.default_rng(42)
        samples = np.concatenate([
            cbd_poly(params, rng, 4).centered_coeffs() for _ in range(20)
        ])
        assert np.var(samples) == pytest.approx(2.0, rel=0.15)

    def test_zero_mean(self, params):
        rng = np.random.default_rng(43)
        samples = np.concatenate([
            cbd_poly(params, rng, 2).centered_coeffs() for _ in range(20)
        ])
        assert abs(samples.mean()) < 0.1

    def test_invalid_eta(self, params, rng):
        with pytest.raises(ValueError):
            cbd_poly(params, rng, 0)


class _Stream:
    """A stand-in generator whose byte stream is given, counting reads."""

    def __init__(self, data: bytes):
        self.data = data
        self.read = 0

    def bytes(self, length: int) -> bytes:
        chunk = self.data[self.read:self.read + length]
        self.read += length
        return chunk


class TestCbdBlock:
    Q = 7681

    @pytest.mark.parametrize("eta", [1, 2, 3, 4, 8])
    def test_table_is_the_binomial_law(self, eta):
        """Feed every 2*eta-bit input once: each maps to popcount(low eta
        bits) - popcount(next eta bits), so exactly C(2 eta, eta + v) of
        the 2^(2 eta) inputs give the value v - CBD_eta's law, exactly."""
        inputs = np.arange(1 << (2 * eta))
        width = 1 if eta <= 4 else 2
        stream = _Stream(inputs.astype(f"<u{width}").tobytes())
        values = cbd_block(stream, eta, inputs.shape, self.Q)
        assert stream.read == width * len(inputs)
        assert values.dtype == np.uint64
        residues = values.astype(np.int64)
        signed = np.where(residues > self.Q // 2, residues - self.Q, residues)
        for x, got in zip(inputs.tolist(), signed.tolist()):
            low, high = x & ((1 << eta) - 1), x >> eta
            assert got == bin(low).count("1") - bin(high).count("1")
        counts = np.bincount(signed + eta, minlength=2 * eta + 1)
        assert counts.tolist() == [comb(2 * eta, eta + v)
                                   for v in range(-eta, eta + 1)]

    @pytest.mark.parametrize("eta, width", [(1, 1), (4, 1), (5, 2), (8, 2)])
    def test_bytes_per_coefficient(self, eta, width):
        """ceil(2 eta / 8) bytes per coefficient; bits above 2 eta drop."""
        stream = _Stream(b"\xff" * 64)
        values = cbd_block(stream, eta, (4, 8), self.Q)
        assert stream.read == 32 * width
        assert values.shape == (4, 8)
        assert not values.any()  # all coins set: popcounts cancel

    @pytest.mark.parametrize("eta", [0, 9, -1])
    def test_eta_outside_one_to_eight_refused(self, eta):
        with pytest.raises(ValueError):
            cbd_block(np.random.default_rng(1), eta, 16, self.Q)

    @pytest.mark.parametrize("eta", [2, 3, 8])
    def test_block_equals_successive_draws(self, eta):
        block = cbd_block(np.random.default_rng(5), eta, (5, 3, 256), self.Q)
        rng = np.random.default_rng(5)
        rows = [cbd_block(rng, eta, 256, self.Q) for _ in range(15)]
        assert np.array_equal(block.reshape(15, 256), np.stack(rows))

    def test_cbd_poly_reads_the_same_stream(self, params):
        a = cbd_poly(params, np.random.default_rng(9), 3)
        b = cbd_block(np.random.default_rng(9), 3, params.n, params.q)
        assert np.array_equal(a.coeffs, b)


class TestCbdWordTable:
    """The whole-word table is the ``2^(2 eta)``-entry table repeated, so
    indexing it with a stream word equals masking the word first."""

    @pytest.mark.parametrize("eta", range(1, 9))
    def test_word_table_is_the_masked_table(self, eta, paper_modulus):
        small = _cbd_table(eta, paper_modulus)
        table = _cbd_word_table(eta, paper_modulus)
        width = 1 if eta <= 4 else 2
        words = np.arange(1 << (8 * width))
        assert len(small) == 1 << (2 * eta)
        assert table.dtype == np.uint64 and not table.flags.writeable
        assert np.array_equal(table, small[words & (len(small) - 1)])

    @pytest.mark.parametrize("eta", [1, 3, 4, 5, 8])
    def test_block_is_the_masked_rule_on_seeded_streams(self, eta):
        width = 1 if eta <= 4 else 2
        shape = (3, 5, 256)
        block = cbd_block(np.random.default_rng(eta), eta, shape, 7681)
        stream = np.frombuffer(
            np.random.default_rng(eta).bytes(width * 3 * 5 * 256),
            dtype=f"<u{width}")
        small = _cbd_table(eta, 7681)
        expected = small[stream & (len(small) - 1)].reshape(shape)
        assert block.dtype == np.uint64 and block.shape == shape
        assert np.array_equal(block, expected)


class TestTernary:
    def test_support(self, params, rng):
        p = ternary_poly(params, rng)
        assert set(np.unique(p.centered_coeffs())) <= {-1, 0, 1}

    def test_fixed_weight(self, params, rng):
        p = ternary_poly(params, rng, hamming_weight=64)
        assert int(np.count_nonzero(p.centered_coeffs())) == 64

    def test_weight_bounds(self, params, rng):
        with pytest.raises(ValueError):
            ternary_poly(params, rng, hamming_weight=params.n + 1)


class TestGaussian:
    def test_sampler_moments(self):
        sampler = DiscreteGaussianSampler(sigma=3.2)
        rng = np.random.default_rng(7)
        samples = sampler.sample(50000, rng)
        assert abs(samples.mean()) < 0.1
        assert np.std(samples) == pytest.approx(3.2, rel=0.05)

    def test_tail_cut(self):
        sampler = DiscreteGaussianSampler(sigma=2.0, tail_cut=3.0)
        rng = np.random.default_rng(8)
        assert np.abs(sampler.sample(10000, rng)).max() <= 6

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            DiscreteGaussianSampler(sigma=0)

    def test_gaussian_poly(self, params, rng):
        p = gaussian_poly(params, rng, sigma=3.2)
        assert p.infinity_norm() <= int(np.ceil(3.2 * 13))
