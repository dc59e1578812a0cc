"""Per-thread float workspaces of ``NttEngine``.

Every ``_*_rows`` body runs its float temporaries in the calling thread's
three reusable blocks (``transform._workspace``) instead of fresh heap
arrays.  These tests check that the blocks are reused, that each thread -
pool threads included - has its own set, that no returned array is
workspace memory, that concurrent callers stay exact, and that outputs
are bit-identical to the allocating kernel that came before (sha256 pins
over every paper degree, whole and sliced).
"""

import hashlib
import threading

import numpy as np
import pytest

from repro.ntt import transform
from repro.ntt.bitrev import bitrev_indices
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.params import PAPER_DEGREES, params_for_degree
from repro.ntt.transform import NttEngine, intt_gs_np, ntt_gs_np


def in_thread(fn, *args):
    """``fn(*args)`` on a fresh thread, which starts with no workspace."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn(*args)))
    thread.start()
    thread.join()
    return box[0]


def buffers():
    """This thread's flat workspace buffers (``None`` before first use)."""
    return getattr(transform._WORKSPACES, "buffers", None)


@pytest.fixture
def recorded(monkeypatch):
    """Record ``(thread id, buffers)`` for every workspace a body takes."""
    seen = []
    take = transform._workspace

    def record(rows, n):
        blocks = take(rows, n)
        seen.append((threading.get_ident(), buffers()))
        return blocks

    monkeypatch.setattr(transform, "_workspace", record)
    return seen


@pytest.fixture
def sliced(monkeypatch):
    """Two row ranges for every block of at least 2 x 2048 elements, on a
    fresh, test-owned two-thread pool."""
    monkeypatch.setattr(transform, "_CORES", 2)
    monkeypatch.setattr(transform, "SLICE_MIN_ELEMENTS", 4096)
    monkeypatch.setattr(transform, "_POOL", None)
    yield
    # runs before monkeypatch restores the process pool
    if transform._POOL is not None:
        transform._POOL.shutdown(wait=True)


def whole(fn, *args):
    """``fn(*args)`` with slicing forced off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
        return fn(*args)


def words(rows: int, n: int, salt: int) -> np.ndarray:
    """Deterministic full-width (63-bit) words, stable across numpy
    versions, so every call also reduces its input mod q."""
    i = np.arange(rows * n, dtype=np.uint64).reshape(rows, n)
    return (i * np.uint64(0x9E3779B97F4A7C15) + np.uint64(salt)) \
        >> np.uint64(1)


def residues(rows: int, n: int, seed: int) -> np.ndarray:
    q = params_for_degree(n).q
    return np.random.default_rng(seed).integers(0, q, (rows, n),
                                                dtype=np.uint64)


def from_ntt(engine: NttEngine, hat: np.ndarray) -> np.ndarray:
    """NTT-domain rows back to coefficients through ``dot_many``: the rows
    are a one-term key, dotted with the unit polynomial."""
    unit = np.zeros((1, 1, engine.n), dtype=np.uint64)
    unit[..., 0] = 1
    return engine.dot_many(hat[:, None], unit)[0]


def every_output(engine: NttEngine, a: np.ndarray, b: np.ndarray):
    """One result of each public ``*_many`` body, ``dot_many`` both as the
    inverse transform and as per-member products."""
    return [engine.multiply_many(a, b), engine.forward_many(a),
            engine.inverse_many(a), engine.to_ntt_many(a),
            from_ntt(engine, b),
            engine.dot_many(engine.to_ntt_many(a)[:, None, None],
                            b[:, None])[:, 0]]


class TestReuse:
    def test_same_buffers_across_calls(self):
        def run():
            engine = NttEngine.for_degree(256)
            a, b = residues(16, 256, 1), residues(16, 256, 2)
            engine.multiply_many(a, b)
            first = buffers()
            engine.multiply_many(a, b)
            engine.forward_many(a[:3])       # smaller: a prefix of the same
            NttEngine.for_degree(1024).inverse_many(residues(4, 1024, 3))
            return first, buffers()

        first, later = in_thread(run)
        assert len(first) == 3
        assert all(x is y for x, y in zip(first, later))
        assert all(buf.size == 16 * (256 + 8) for buf in first)

    def test_buffers_grow_to_the_largest_block(self):
        def run():
            engine = NttEngine.for_degree(512)
            engine.multiply_many(residues(2, 512, 1), residues(2, 512, 2))
            small = buffers()
            engine.multiply_many(residues(8, 512, 1), residues(8, 512, 2))
            return small, buffers()

        small, grown = in_thread(run)
        assert all(buf.size == 2 * (512 + 8) for buf in small)
        assert all(buf.size == 8 * (512 + 8) for buf in grown)

    def test_views_keep_the_column_major_layout(self):
        blocks = in_thread(transform._workspace, 5, 256)
        assert len(blocks) == 3
        for block in blocks:
            assert block.shape == (5, 256)
            assert block.dtype == np.float64
            assert block.flags.f_contiguous

    def test_empty_block(self):
        engine = NttEngine.for_degree(256)
        empty = np.zeros((0, 256), dtype=np.uint64)
        for out in every_output(engine, empty, empty)[:5]:
            assert out.shape == (0, 256) and out.dtype == np.uint64


class TestOneSetPerThread:
    def test_threads_get_their_own_set(self):
        def run():
            NttEngine.for_degree(256).multiply_many(residues(4, 256, 1),
                                                    residues(4, 256, 2))
            return buffers()

        ours = run()
        theirs = [in_thread(run) for _ in range(2)]
        sets = [ours] + theirs
        flat = [buf for s in sets for buf in s]
        assert len({id(buf) for buf in flat}) == 9
        for i, x in enumerate(flat):
            for y in flat[i + 1:]:
                assert not np.shares_memory(x, y)

    def test_pool_threads_get_their_own_set(self, sliced, recorded):
        engine = NttEngine.for_degree(1024)
        engine.multiply_many(residues(8, 1024, 1), residues(8, 1024, 2))
        me = threading.get_ident()
        assert len({ident for ident, _ in recorded}) == 2
        ours = [bufs for ident, bufs in recorded if ident == me]
        pool = [bufs for ident, bufs in recorded if ident != me]
        assert ours and pool                  # the caller ran one range
        for x in ours[0]:
            for y in pool[0]:
                assert not np.shares_memory(x, y)


class TestOutputsAreFresh:
    @pytest.mark.parametrize("mode", ["whole", "sliced"])
    def test_no_result_shares_workspace_memory(self, request, recorded,
                                               mode):
        if mode == "sliced":
            request.getfixturevalue("sliced")
        engine = NttEngine.for_degree(1024)
        a, b = words(8, 1024, 1), words(8, 1024, 2)
        outputs = every_output(engine, a, b) + [
            engine.forward(a[0]), engine.inverse(a[0]),
            engine.multiply(a[0], b[0])]
        assert recorded
        for out in outputs:
            assert out.dtype == np.uint64
            for _, bufs in recorded:
                for buf in bufs:
                    assert not np.shares_memory(out, buf)

    def test_later_calls_leave_earlier_results_unchanged(self):
        engine = NttEngine.for_degree(256)
        a, b = words(12, 256, 1), words(12, 256, 2)
        results = every_output(engine, a, b)
        kept = [r.copy() for r in results]
        for n, rows in [(256, 12), (256, 40), (1024, 3), (4096, 2),
                        (512, 64)]:
            every_output(NttEngine.for_degree(n), words(rows, n, 7),
                         words(rows, n, 8))
        for got, want in zip(results, kept):
            np.testing.assert_array_equal(got, want)


class TestConcurrentCallers:
    #: (n, rows) per job; 2048 x 64 reaches the real slice threshold
    SHAPES = [(256, 7), (256, 40), (512, 5), (1024, 9), (2048, 64)]

    def jobs(self):
        """``(label, call, expected)`` triples with oracle answers."""
        out = []
        for i, (n, rows) in enumerate(self.SHAPES):
            params = params_for_degree(n)
            engine = NttEngine.shared(params)
            q = params.q
            a, b = residues(rows, n, 10 + i), residues(rows, n, 20 + i)
            checked = min(rows, 4)        # the schoolbook oracle is O(n^2)
            product = np.stack([schoolbook_negacyclic_np(x, y, q)
                                for x, y in zip(a[:checked], b[:checked])])
            out.append((f"multiply {n}x{rows}",
                        lambda e=engine, a=a, b=b, c=checked:
                        e.multiply_many(a, b)[:c], product))
            out.append((f"forward {n}x{rows}",
                        lambda e=engine, a=a: e.forward_many(a),
                        np.stack([ntt_gs_np(x, params) for x in a])))
            out.append((f"inverse {n}x{rows}",
                        lambda e=engine, a=a: e.inverse_many(a),
                        np.stack([intt_gs_np(x, params) for x in a])))
            phi = np.asarray(params.phi_powers(), dtype=np.uint64)
            rev = np.asarray(bitrev_indices(n))
            hat = np.stack([ntt_gs_np(x * phi % q, params)[rev] for x in a])
            out.append((f"to_ntt {n}x{rows}",
                        lambda e=engine, a=a: e.to_ntt_many(a), hat))
            out.append((f"from_ntt {n}x{rows}",
                        lambda e=engine, h=hat: from_ntt(e, h), a))
        return out

    def test_two_threads_hammer_one_engine_set(self):
        jobs = self.jobs()
        barrier = threading.Barrier(2)
        failures = []

        def hammer(order):
            try:
                barrier.wait()
                for _ in range(3):
                    for index in order:
                        label, call, want = jobs[index]
                        if not np.array_equal(call(), want):
                            failures.append(label)
            except Exception as exc:  # an error on a thread fails the test
                failures.append(repr(exc))

        forward = list(range(len(jobs)))
        threads = [threading.Thread(target=hammer, args=(order,))
                   for order in (forward, forward[::-1])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


#: sha256 over ``multiply_many``, ``forward_many``, ``inverse_many``,
#: ``to_ntt_many`` and the inverse NTT-domain transform (a ``dot_many``
#: with the unit polynomial, see :func:`from_ntt`) of ``2^17 / n`` rows of
#: :func:`words`, as computed by the allocating kernel before workspaces
PINNED = {
    256: "0c6f31221a45f9ad7d7f730c600f8cc56e8a4def0018ab5b4d8bcf54b2adbd73",
    512: "8d0b5599308f70e54073a4ae1140eb8ace2187596e62be10bc842d07e263e616",
    1024: "a89cf194f68b93f735ffe4e1752bb42939396c6e868ab1e63b588a14ac7a7e3b",
    2048: "dffb176f9ab6ed9a237e457253f76c85f205b4242e3467fb1801c94526170f20",
    4096: "e0d9abe60872654ff4a9bfafc67860dd138041964c56fe2ff1d26c09344d2962",
    8192: "60ff6316c558f1de2b60ac526d90e03ef4897118042b3d191eb9a69f9734c276",
    16384: "e037c892de9eb5aae2632f94b7dbb8a87f6957f997dcf01d4a316b82a175a7d4",
    32768: "4672061e41d75de516ffe4ef0f2d8347626e26737d76eecba1dabd747481fc94",
}


def digest(n: int) -> str:
    engine = NttEngine.for_degree(n)
    rows = (1 << 17) // n
    a, b = words(rows, n, 1), words(rows, n, 2)
    h = hashlib.sha256()
    for out in (engine.multiply_many(a, b), engine.forward_many(a),
                engine.inverse_many(a), engine.to_ntt_many(a),
                from_ntt(engine, b)):
        h.update(np.ascontiguousarray(out, dtype=np.uint64).tobytes())
    return h.hexdigest()


class TestBitIdentical:
    def test_pins_cover_every_paper_degree(self):
        assert sorted(PINNED) == list(PAPER_DEGREES)

    @pytest.mark.parametrize("n", PAPER_DEGREES)
    def test_whole(self, n):
        assert whole(digest, n) == PINNED[n]

    @pytest.mark.parametrize("n", PAPER_DEGREES)
    def test_sliced(self, sliced, n):
        assert transform.row_slices((1 << 17) // n, n) == 2
        assert digest(n) == PINNED[n]
