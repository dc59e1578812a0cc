"""Tests for the batch streaming API."""

import numpy as np
import pytest

from repro.core.accelerator import CryptoPIM


class TestBatchApi:
    def test_batch_results_match_singles(self, rng):
        acc = CryptoPIM.for_degree(256)
        pairs = [(rng.integers(0, acc.q, 256), rng.integers(0, acc.q, 256))
                 for _ in range(4)]
        batch = acc.multiply_batch(pairs)
        for (a, b), result in zip(pairs, batch.results):
            assert np.array_equal(result, acc.multiply(a, b))

    def test_streaming_timeline(self, rng):
        acc = CryptoPIM.for_degree(512)
        pairs = [(rng.integers(0, acc.q, 512), rng.integers(0, acc.q, 512))
                 for _ in range(10)]
        batch = acc.multiply_batch(pairs)
        gaps = {b - a for a, b in zip(batch.completion_cycles,
                                      batch.completion_cycles[1:])}
        assert gaps == {acc.model.stage_cycles}
        assert batch.completion_cycles[0] == acc.model.latency_cycles(True)

    def test_large_batch_approaches_table2_throughput(self, rng):
        acc = CryptoPIM.for_degree(256)
        a = rng.integers(0, acc.q, 256)
        batch = acc.multiply_batch([(a, a)] * 400)
        assert batch.effective_throughput_per_s == pytest.approx(
            553311, rel=0.15)

    def test_empty_batch_is_noop(self):
        batch = CryptoPIM.for_degree(256).multiply_batch([])
        assert batch.results == []
        assert batch.completion_cycles == []
        assert batch.total_us == 0.0
