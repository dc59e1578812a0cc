"""The staged entry transpose of ``NttEngine``.

A row-major block of at least ``STAGE_MIN_ROWS`` rows whose row stride is a
multiple of 4 KiB enters the kernel through a skewed row-major staging view
(``transform._staging``) instead of one transposed cast.  These tests check
that every public ``*_many`` method and ``dot_many`` stay bit-identical
to the unstaged path and to the ``schoolbook_negacyclic_np`` / ``ntt_gs`` /
``intt_gs`` oracles, whole and sliced, around the row threshold, on
full-width inputs that take the ``% q`` branch inside staging; and that the
staging helper engages exactly when the rule says.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.ntt import transform
from repro.ntt.bitrev import bitrev_indices
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.params import params_for_degree
from repro.ntt.transform import STAGE_MIN_ROWS, NttEngine, intt_gs, ntt_gs

from .test_ntt_workspace import from_ntt, sliced, words  # noqa: F401

DEGREES = [512, 1024, 4096, 8192]
ROWS = sorted({15, 16, 17, 64, STAGE_MIN_ROWS - 1, STAGE_MIN_ROWS,
               STAGE_MIN_ROWS + 1})
#: float64 between the rows of a wider block, off any 4 KiB multiple
WIDER = 24


def address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def unstaged(fn, *args):
    """``fn(*args)`` with staging forced off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transform, "STAGE_MIN_ROWS", 1 << 62)
        return fn(*args)


def every_output(engine: NttEngine, a: np.ndarray, b: np.ndarray):
    """One result of each public ``*_many`` method, and of ``dot_many``
    with a one-term key (row 0 of ``a``) and with per-member left
    operands, ``b`` on the right of both."""
    hat_a = engine.to_ntt_many(a)
    return [engine.multiply_many(a, b), engine.forward_many(a),
            engine.inverse_many(a), hat_a,
            engine.dot_many(hat_a[:1, None], b[:, None])[:, 0],
            engine.dot_many(hat_a[:, None, None], b[:, None])[:, 0]]


@lru_cache(maxsize=None)
def oracle(n: int):
    """The oracle answers for row 0 of ``words(rows, n, 1)`` and
    ``words(rows, n, 2)``, which is the same row for every ``rows``."""
    params = params_for_degree(n)
    q = params.q
    a, b = (words(1, n, salt)[0] % np.uint64(q) for salt in (1, 2))
    rev = np.asarray(bitrev_indices(n))
    phi = params.phi_powers()
    hat_a = np.asarray(ntt_gs([int(x) * f % q for x, f in zip(a, phi)],
                              params))[rev]
    product = schoolbook_negacyclic_np(a, b, q)
    return [product, ntt_gs(a.tolist(), params), intt_gs(a.tolist(), params),
            hat_a, product, product]


def check(engine: NttEngine, a: np.ndarray, b: np.ndarray) -> None:
    """Every output equals the unstaged path's, and row 0 the oracle's."""
    got = every_output(engine, a, b)
    for out, want in zip(got, unstaged(every_output, engine, a, b)):
        assert out.dtype == np.uint64
        np.testing.assert_array_equal(out, want)
    for out, want in zip(got, oracle(engine.n)):
        np.testing.assert_array_equal(out[0], np.asarray(want,
                                                         dtype=np.uint64))


@pytest.fixture
def spy(monkeypatch):
    """Record ``(rows, row stride, engaged)`` for every staging decision."""
    seen = []
    take = transform._staging

    def record(block, via):
        stage = take(block, via)
        seen.append((block.shape[0], block.strides[0], stage is not None))
        return stage

    monkeypatch.setattr(transform, "_staging", record)
    return seen


class TestBitIdentical:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", DEGREES)
    def test_whole(self, n, rows):
        engine = NttEngine.for_degree(n)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
            check(engine, words(rows, n, 1), words(rows, n, 2))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", DEGREES)
    def test_sliced(self, sliced, n, rows):
        assert transform.row_slices(rows, n) == 2
        check(NttEngine.for_degree(n), words(rows, n, 1), words(rows, n, 2))

    @pytest.mark.parametrize("n", [512, 4096])
    def test_inputs_at_and_above_q(self, n):
        # canonical words, q - 1 rows and full-width words: the cast and
        # the % q branch both run inside staging
        engine = NttEngine.for_degree(n)
        q = np.uint64(engine.q)
        rows = 2 * STAGE_MIN_ROWS
        full = words(rows, n, 3)
        for a in (full % q, np.full((rows, n), q - np.uint64(1)), full):
            b = words(rows, n, 4)
            got = every_output(engine, a, b)
            for out, want in zip(got, unstaged(every_output, engine, a, b)):
                np.testing.assert_array_equal(out, want)
            np.testing.assert_array_equal(
                from_ntt(engine, engine.to_ntt_many(a)), a % q)

    @pytest.mark.parametrize("n", [512, 4096])
    def test_row_slice_of_a_wider_block(self, spy, n):
        rows = 64
        wide_a = words(rows, n + WIDER, 1)
        wide_b = words(rows, n + WIDER, 2)
        a, b = wide_a[:, :n], wide_b[:, :n]
        assert a.strides[0] % 4096
        engine = NttEngine.for_degree(n)
        got = every_output(engine, a, b)
        assert spy and not any(engaged for *_, engaged in spy)
        for out, want in zip(got, every_output(engine, a.copy(), b.copy())):
            np.testing.assert_array_equal(out, want)


class TestRule:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", [256] + DEGREES)
    def test_engages_exactly_when_the_rule_says(self, spy, n, rows):
        engine = NttEngine.for_degree(n)
        a, b = words(rows, n, 1), words(rows, n, 2)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
            every_output(engine, a, b)
        # one entry per transform body; multiply_many has two operands
        # and dot_many one, its right operand
        assert len(spy) == 7
        want = rows >= STAGE_MIN_ROWS and n >= 512
        assert all(engaged == want for *_, engaged in spy)

    def test_sliced_ranges_decide_on_their_own_rows(self, sliced, spy):
        rows = 2 * STAGE_MIN_ROWS
        NttEngine.for_degree(1024).multiply_many(words(rows, 1024, 1),
                                                 words(rows, 1024, 2))
        assert [r for r, _, _ in spy] == [STAGE_MIN_ROWS] * 4
        assert all(engaged for *_, engaged in spy)
        spy.clear()
        rows = 2 * STAGE_MIN_ROWS - 2
        NttEngine.for_degree(1024).multiply_many(words(rows, 1024, 1),
                                                 words(rows, 1024, 2))
        assert len(spy) == 4 and not any(engaged for *_, engaged in spy)

    def test_rule_reads_shape_and_strides_only(self):
        n, rows = 512, STAGE_MIN_ROWS
        via = transform._workspace(rows, n)[0]
        c_order = np.zeros((rows, n), dtype=np.uint64)
        assert transform._staging(c_order, via) is not None
        assert transform._staging(c_order[:-1], via[:-1]) is None
        assert transform._staging(np.asfortranarray(c_order), via) is None
        wide = np.zeros((rows, 2 * n), dtype=np.uint64)
        assert transform._staging(wide[:, :n], via) is not None
        wide = np.zeros((rows, n + WIDER), dtype=np.uint64)
        assert transform._staging(wide[:, :n], via) is None

    def test_staging_view_is_skewed_and_inside_the_buffer(self):
        n, rows = 1024, STAGE_MIN_ROWS
        via = transform._workspace(rows, n)[1]
        stage = transform._staging(np.zeros((rows, n), dtype=np.uint64),
                                   via)
        assert stage.shape == (rows, n) and stage.dtype == np.float64
        assert stage.strides == (8 * (n + transform._SKEW), 8)
        assert np.shares_memory(stage, via)
        (buffer,) = [buf for buf in transform._WORKSPACES.buffers
                     if np.shares_memory(buf, via)]
        assert address(stage) == address(buffer)
        last = address(stage[-1, -1:]) + 8
        assert last <= address(buffer) + buffer.nbytes

    def test_workspace_buffers_are_staggered(self):
        transform._workspace(STAGE_MIN_ROWS, 4096)
        starts = [address(buf) for buf in transform._WORKSPACES.buffers]
        gaps = np.diff(starts) - transform._WORKSPACES.buffers[0].nbytes
        assert list(gaps) == [8 * transform._STAGGER] * 2
        assert (8 * transform._STAGGER // 64) % 2 == 1
