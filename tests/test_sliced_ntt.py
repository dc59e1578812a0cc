"""Host cores as superbanks: ``NttEngine`` blocks sliced by rows.

A ``*_many`` block of at least ``SLICE_MIN_ELEMENTS`` elements is split
into contiguous row ranges, one per usable core, on one process-wide
thread pool.  These tests force slicing on and off by patching that
constant and the pool width (``_CORES``), and check that slicing changes
nothing but the wall time: results are bit-identical to the whole-block
path and to the pure-Python oracles, errors are the same, concurrent
callers and profilers stay exact, and a 1-core host never builds a pool.
"""

import os
import re
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.accelerator import CryptoPIM
from repro.crypto.bgv import BgvScheme
from repro.ntt import transform
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.params import params_for_degree
from repro.ntt.rns import RnsBasis
from repro.ntt.transform import (
    SLICE_MIN_ELEMENTS,
    NttEngine,
    intt_gs,
    ntt_gs,
    row_slices,
)
from repro.obs import KernelProfiler
from repro.serve.service import CryptoPimService

#: (n, rows) blocks at or above the threshold; 4096 x 33 splits unevenly
SLICED_BLOCKS = [(4096, 64), (4096, 33), (2048, 64), (256, 512)]


@pytest.fixture
def width(monkeypatch):
    """``width(cores)`` sets the pool width on a fresh, test-owned pool."""
    owned = []

    def set_width(cores: int) -> None:
        monkeypatch.setattr(transform, "_CORES", cores)
        monkeypatch.setattr(transform, "_POOL", None)
        owned.append(cores)

    yield set_width
    # runs before monkeypatch restores the process pool
    if owned and transform._POOL is not None:
        transform._POOL.shutdown(wait=True)


def whole(fn, *args):
    """``fn(*args)`` with slicing forced off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
        return fn(*args)


def operands(n: int, rows: int, seed: int):
    q = params_for_degree(n).q
    rng = np.random.default_rng(seed)
    # full-width words, so the reduction mod q is part of every slice
    a = rng.integers(0, 1 << 63, (rows, n), dtype=np.uint64)
    b = rng.integers(0, q, (rows, n), dtype=np.uint64)
    return a, b


class TestRule:
    def test_threshold_and_width(self, width):
        width(2)
        assert row_slices(64, 4096) == 2
        assert row_slices(512, 256) == 2
        assert row_slices(64, 2048) == 2
        # the largest closed-pk-256 block (a Kyber encaps window) is whole
        assert row_slices(384, 256) == 1
        assert row_slices(16, 4096) == 1
        assert row_slices(1, 1 << 17) == 1   # one row cannot split
        assert row_slices(0, 4096) == 1

    def test_slices_keep_half_the_threshold(self, width):
        width(8)
        assert row_slices(64, 2048) == 2
        assert row_slices(64, 4096) == 4
        assert row_slices(512, 4096) == 8

    def test_one_core_never_slices(self, width):
        width(1)
        assert row_slices(4096, 4096) == 1

    def test_threshold_is_the_measured_one(self):
        assert SLICE_MIN_ELEMENTS == 1 << 17

    def test_width_is_the_affinity_mask(self):
        assert transform._CORES == len(os.sched_getaffinity(0))

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) > 1,
                        reason="needs a process pinned to one core")
    def test_pinned_process_runs_whole(self):
        eng = NttEngine.shared(params_for_degree(4096))
        a, b = operands(4096, 64, seed=2)
        assert row_slices(64, 4096) == 1
        assert np.array_equal(eng.multiply_many(a, b),
                              whole(eng.multiply_many, a, b))
        assert transform._POOL is None


class TestBitIdentical:
    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("n,rows", SLICED_BLOCKS)
    def test_all_three_methods(self, n, rows, cores, width):
        eng = NttEngine.shared(params_for_degree(n))
        a, b = operands(n, rows, seed=n + rows)
        expected = [whole(eng.forward_many, a), whole(eng.inverse_many, b),
                    whole(eng.multiply_many, a, b)]
        width(cores)
        slices = row_slices(rows, n)
        # each slice keeps at least half the threshold
        assert slices == min(cores, 2 * rows * n // SLICE_MIN_ELEMENTS) > 1
        got = [eng.forward_many(a), eng.inverse_many(b),
               eng.multiply_many(a, b)]
        assert transform._POOL is not None
        for want, have in zip(expected, got):
            assert have.dtype == np.uint64 and have.shape == (rows, n)
            assert np.array_equal(have, want)
        # two rows of each against the independent oracles: the first,
        # and the first of the last slice
        p = eng.params
        for r in (0, rows - rows // slices):
            assert got[0][r].tolist() == ntt_gs((a[r] % p.q).tolist(), p)
            assert got[1][r].tolist() == intt_gs(b[r].tolist(), p)
            assert np.array_equal(
                got[2][r], schoolbook_negacyclic_np(a[r] % p.q, b[r], p.q))

    def test_wide_modulus_datapath(self, width):
        """The uint64 ``%`` path is sliced by the same helper."""
        eng = RnsBasis.generate(2048, 1, bits=30).engine(0)
        assert eng.q >= 1 << 26
        a, b = operands(2048, 64, seed=3)
        b %= np.uint64(eng.q)
        expected = whole(eng.multiply_many, a, b)
        width(2)
        assert np.array_equal(eng.multiply_many(a, b), expected)
        assert np.array_equal(
            expected[5], schoolbook_negacyclic_np(a[5] % eng.q, b[5], eng.q))

    def test_multiply_batch(self, width):
        acc = CryptoPIM.for_degree(4096)
        a, b = operands(4096, 64, seed=11)
        pairs = list(zip(a, b))
        expected = whole(acc.multiply_batch, pairs)
        width(2)
        got = acc.multiply_batch(pairs)
        assert got.completion_cycles == expected.completion_cycles
        for want, have in zip(expected.results, got.results):
            assert np.array_equal(have, want)

    def test_bgv_block_crossing_threshold(self, width):
        pairs_count = 16    # 4 cross products each: 64 rows x 2048 = 2^17
        scheme = BgvScheme(n=2048, rng=np.random.default_rng(5))
        sk = scheme.keygen()
        msgs = np.random.default_rng(6).integers(0, 2, (2 * pairs_count, 2048))
        cts = [scheme.encrypt(sk, m) for m in msgs]
        pairs = list(zip(cts[::2], cts[1::2]))
        width(2)
        assert row_slices(4 * pairs_count, 2048) == 2
        expected = whole(scheme.multiply_many, pairs)
        got = scheme.multiply_many(pairs)
        for want, have in zip(expected, got):
            assert len(have.parts) == len(want.parts) == 3
            for x, y in zip(have.parts, want.parts):
                assert np.array_equal(x.coeffs, y.coeffs)
        # and the ring product still decrypts
        assert np.array_equal(scheme.decrypt(sk, got[0]),
                              schoolbook_negacyclic_np(msgs[0], msgs[1],
                                                       scheme.t))


def run_callers(target, count: int) -> None:
    """``target(i)`` on ``count`` threads with a short switch interval,
    so a lost update between them is likely to show."""
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "sliced calls hung"


class TestConcurrency:
    def test_concurrent_callers(self, width):
        eng = NttEngine.shared(params_for_degree(2048))
        inputs = [operands(2048, 64, seed=100 + i) for i in range(4)]
        expected = [whole(eng.multiply_many, a, b) for a, b in inputs]
        width(2)
        matched = [0] * 4

        def caller(i: int) -> None:
            a, b = inputs[i]
            for _ in range(10):
                matched[i] += np.array_equal(eng.multiply_many(a, b),
                                             expected[i])

        run_callers(caller, 4)
        assert matched == [10] * 4

    def test_profiler_totals_exact_across_callers(self, width):
        n, rows, calls = 256, 512, 20
        eng = NttEngine.shared(params_for_degree(n))
        block = operands(n, rows, seed=7)[0]
        width(2)
        slices = row_slices(rows, n)
        assert slices == 2

        def caller(_: int) -> None:
            for _ in range(calls):
                eng.forward_many(block)

        with KernelProfiler() as prof:
            run_callers(caller, 2)
        stages = prof.stages(n)
        assert sorted(stage for _, stage in stages) == list(range(8))
        for cell in stages.values():
            assert cell["calls"] == 2 * calls * slices
            assert cell["rows"] == 2 * calls * rows
            assert cell["seconds"] > 0

    def test_profiler_hook_is_thread_safe(self):
        """Eight threads race to create and bump the same cells; without
        the profiler's lock some creations overwrite each other."""
        prof = KernelProfiler()
        keys, barrier = 20000, threading.Barrier(8)

        def hammer(_: int) -> None:
            barrier.wait()
            for key in range(keys):
                prof(key, 0, 1, 0.5)

        run_callers(hammer, 8)
        cells = prof.stages()
        assert len(cells) == keys
        assert all(c["calls"] == 8 and c["rows"] == 8
                   for c in cells.values())

    def test_one_core_builds_no_pool(self, width):
        eng = NttEngine.shared(params_for_degree(4096))
        a, b = operands(4096, 64, seed=9)
        expected = whole(eng.multiply_many, a, b)
        width(1)
        assert np.array_equal(eng.multiply_many(a, b), expected)
        assert np.array_equal(eng.forward_many(a), whole(eng.forward_many, a))
        assert transform._POOL is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, width):
        eng = NttEngine.shared(params_for_degree(2048))
        a, b = operands(2048, 64, seed=12)
        width(2)
        expected = eng.multiply_many(a, b)     # the parent's pool exists
        assert transform._POOL is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:   # child: a stale pool would never run the slice
            ok = np.array_equal(eng.multiply_many(a, b), expected)
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on the parent's pool")
        assert os.waitstatus_to_exitcode(status) == 0


class TestErrors:
    """Checks run on the calling thread before any slicing."""

    def test_mismatched_batches(self, width):
        eng = NttEngine.shared(params_for_degree(4096))
        a, _ = operands(4096, 64, seed=1)
        width(2)
        with pytest.raises(ValueError,
                           match=re.escape("operand batches differ: 64 vs 63")):
            eng.multiply_many(a, a[:63])

    def test_wrong_degree(self, width):
        eng = NttEngine.shared(params_for_degree(4096))
        block = np.zeros((64, 2048), dtype=np.uint64)
        width(2)
        text = re.escape("expected a (batch, 4096) array, got shape (64, 2048)")
        for call in (eng.forward_many, eng.inverse_many):
            with pytest.raises(ValueError, match=text):
                call(block)
        with pytest.raises(ValueError, match=text):
            eng.multiply_many(np.zeros((64, 4096), dtype=np.uint64), block)


class TestSharedEngines:
    """One engine per parameter set, and its tables are read-only."""

    def test_callers_share_one_engine(self):
        for n in (256, 4096):
            shared = NttEngine.shared(params_for_degree(n))
            assert CryptoPIM.for_degree(n)._engine is shared
            assert CryptoPimService().engine(n) is shared
        basis = RnsBasis.generate(1024, 2)
        for i, q in enumerate(basis.primes):
            again = RnsBasis(1024, list(basis.primes))
            assert again.engine(i) is basis.engine(i)
            assert basis.engine(i) is NttEngine.shared(basis.engine(i).params)

    @staticmethod
    def tables(engine: NttEngine):
        for value in vars(engine).values():
            parts = value if isinstance(value, tuple) else (value,)
            yield from (p for p in parts if isinstance(p, np.ndarray))

    @pytest.mark.parametrize("engine", [
        NttEngine.shared(params_for_degree(256)),
        RnsBasis.generate(64, 1, bits=30).engine(0),
    ], ids=["float64", "uint64"])
    def test_tables_read_only(self, engine):
        tables = list(self.tables(engine))
        assert len(tables) >= 4
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
