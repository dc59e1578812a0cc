"""Tests for the bitrev-free DIF/DIT NTT variants."""

import numpy as np
import pytest

from repro.ntt.batch import ct_forward_float, gs_inverse_float
from repro.ntt.bitrev import bitrev_permute
from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.params import params_for_degree
from repro.ntt.rns import RnsBasis
from repro.ntt.transform import NttEngine, ntt_gs
from repro.ntt.variants import intt_dit, negacyclic_multiply_no_bitrev, ntt_dif


class TestDifForward:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_agrees_with_gs_kernel_up_to_bitrev(self, n, rng):
        """Two independent dataflow derivations of the same transform."""
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n).tolist()
        assert ntt_dif(a, p) == bitrev_permute(ntt_gs(a, p))

    def test_linearity(self, rng):
        p = params_for_degree(64)
        a = rng.integers(0, p.q, 64).tolist()
        b = rng.integers(0, p.q, 64).tolist()
        fa, fb = ntt_dif(a, p), ntt_dif(b, p)
        fsum = ntt_dif([(x + y) % p.q for x, y in zip(a, b)], p)
        assert fsum == [(x + y) % p.q for x, y in zip(fa, fb)]

    def test_length_check(self):
        p = params_for_degree(16)
        with pytest.raises(ValueError):
            ntt_dif([1] * 8, p)


class TestDitInverse:
    @pytest.mark.parametrize("n", [4, 16, 256, 1024])
    def test_roundtrip(self, n, rng):
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n).tolist()
        assert intt_dit(ntt_dif(a, p), p) == a

    def test_length_check(self):
        p = params_for_degree(16)
        with pytest.raises(ValueError):
            intt_dit([1] * 32, p)


class TestNoBitrevMultiply:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_against_schoolbook(self, n, rng):
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n).tolist()
        b = rng.integers(0, p.q, n).tolist()
        assert (negacyclic_multiply_no_bitrev(a, b, p)
                == schoolbook_negacyclic(a, b, p.q))

    def test_agrees_with_paper_dataflow(self, rng):
        from repro.ntt.transform import negacyclic_multiply
        p = params_for_degree(128)
        a = rng.integers(0, p.q, 128).tolist()
        b = rng.integers(0, p.q, 128).tolist()
        assert (negacyclic_multiply_no_bitrev(a, b, p)
                == negacyclic_multiply(a, b, p))


def float_engine(n):
    """An engine on the float64 datapath: the paper's q = 786433 from
    n = 2048 up, a 20-bit NTT prime below that."""
    if n >= 2048:
        return NttEngine.for_degree(n)
    return RnsBasis.generate(n, 1, bits=20).engine(0)


class TestNumpyVariants:
    """The numpy DIF/DIT-order kernels are the float64 production kernels:
    natural in, bit-reversed between the transforms, natural out."""

    @staticmethod
    def forward(eng, values):
        block = np.asfortranarray(np.asarray(values, dtype=np.float64)[None])
        block, spare = ct_forward_float(block, np.empty_like(block),
                                        eng._cyclic, eng._schedule)
        return eng._canonical(block, spare)[0].astype(np.uint64)

    @staticmethod
    def inverse(eng, values):
        # n^-1 is folded into the last inverse pass
        block = np.asfortranarray(np.asarray(values, dtype=np.float64)[None])
        block, spare = gs_inverse_float(block, np.empty_like(block),
                                        eng._cyclic_inv, eng._schedule)
        return eng._canonical(block, spare)[0].astype(np.uint64)

    @pytest.mark.parametrize("n", [16, 512, 4096])
    def test_dif_np_matches_python(self, n, rng):
        eng = float_engine(n)
        p = eng.params
        a = rng.integers(0, p.q, n)
        spectrum = self.forward(eng, a)
        assert spectrum.tolist() == ntt_dif(a.tolist(), p)
        assert np.array_equal(self.inverse(eng, spectrum), a.astype(np.uint64))

    @pytest.mark.parametrize("n", [16, 512, 4096])
    def test_dit_np_matches_python(self, n, rng):
        eng = float_engine(n)
        p = eng.params
        spectrum = ntt_dif(rng.integers(0, p.q, n).tolist(), p)
        assert self.inverse(eng, spectrum).tolist() == intt_dit(spectrum, p)

    def test_shape_check(self):
        eng = float_engine(16)
        with pytest.raises(ValueError):
            ct_forward_float(np.zeros(16), np.zeros(16), eng._cyclic,
                             eng._schedule)
        with pytest.raises(ValueError):
            eng.forward_many(np.zeros((1, 8), dtype=np.uint64))
        with pytest.raises(ValueError):
            eng.inverse_many(np.zeros((1, 32), dtype=np.uint64))
