"""Regression tests for the first confirmed finding of each analyze rule
family (the satellite fixes riding along with ``repro.analyze``).

Each test fails against the pre-fix code:

* modmath: ``find_ntt_primes`` capped candidates at 62 bits "to keep
  uint64 products safe" - but a 62-bit modulus makes the ``%``-path
  butterfly product need up to 125 bits, wrapping uint64 silently.  The
  kernels now enforce :data:`repro.ntt.batch.KERNEL_MAX_Q_BITS` (31).
* asyncio: ``CryptoPimService._drain`` failed dequeued requests over on
  cancellation during ``collect_batch`` but not during the fleet lease /
  dispatch awaits - ``stop()`` mid-lease abandoned their futures forever.
* accounting: ``ShiftAddProgram.cost`` mutated ``ProgramCost.cycles``
  directly from outside; the ledger now exposes charge methods.
"""

import asyncio

import numpy as np
import pytest

from repro.ntt.batch import (
    KERNEL_MAX_Q_BITS,
    check_kernel_modulus,
    gs_kernel_batch,
)
from repro.ntt.rns import RnsBasis, find_ntt_primes
from repro.ntt.transform import NttEngine
from repro.ntt.params import NttParams
from repro.arch.segmented import SegmentedMultiplier
from repro.pim.logic import add_cycles, sub_cycles
from repro.pim.reduction_programs import barrett_program
from repro.pim.shiftadd import ProgramCost
from repro.serve.requests import Rejection, RejectReason, RequestKind, ServeRequest
from repro.serve.service import CryptoPimService, ServiceConfig

# a 33-bit NTT-friendly prime (p = 1 + k*2n for n = 256): products of two
# 33-bit residues need 66 bits - they *wrap* a uint64 datapath
WIDE_PRIME = 4294968833
assert WIDE_PRIME.bit_length() == 33
assert (WIDE_PRIME - 1) % 512 == 0


class TestModmathWidthGuard:
    def test_wide_modulus_products_really_wrap_uint64(self):
        # the arithmetic fact the guard encodes: without it, the kernel's
        # biased-difference product silently loses high bits
        residue = np.uint64(WIDE_PRIME - 1)
        with np.errstate(over="ignore"):
            wrapped = int(residue * residue)  # numpy wraps mod 2^64
        exact = (WIDE_PRIME - 1) ** 2
        assert wrapped != exact

    def test_find_ntt_primes_refuses_unsafe_widths(self):
        # old code accepted anything up to 62 bits and returned primes
        # whose kernel arithmetic was silently wrong
        with pytest.raises(ValueError, match="kernel datapath cap"):
            find_ntt_primes(256, 1, bits=40)

    def test_find_ntt_primes_still_serves_safe_widths(self):
        primes = find_ntt_primes(256, 2, bits=24)
        assert all(p.bit_length() <= KERNEL_MAX_Q_BITS for p in primes)

    def test_check_kernel_modulus_boundary(self):
        assert check_kernel_modulus((1 << 31) - 1) == (1 << 31) - 1
        with pytest.raises(ValueError, match="KERNEL_MAX_Q_BITS"):
            check_kernel_modulus(1 << 31)
        with pytest.raises(ValueError):
            check_kernel_modulus(1)

    def test_rns_basis_rejects_wide_primes(self):
        with pytest.raises(ValueError, match="KERNEL_MAX_Q_BITS"):
            RnsBasis(256, [WIDE_PRIME])

    def test_gs_kernel_batch_rejects_wide_modulus(self):
        values = np.zeros((1, 4), dtype=np.uint64)
        twiddles = np.ones(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="KERNEL_MAX_Q_BITS"):
            gs_kernel_batch(values, twiddles, WIDE_PRIME)

    def test_ntt_engine_rejects_wide_modulus(self):
        # bypass params_for_degree: hand-build a parameter set around the
        # wide prime (root arithmetic itself is fine on python ints)
        from repro.ntt.modmath import nth_root_of_unity

        phi = nth_root_of_unity(512, WIDE_PRIME)
        params = NttParams(n=256, q=WIDE_PRIME, bitwidth=33,
                           w=pow(phi, 2, WIDE_PRIME), phi=phi)
        with pytest.raises(ValueError, match="KERNEL_MAX_Q_BITS"):
            NttEngine(params)

    def test_segmented_multiplier_rejects_wide_modulus(self):
        class FakeBackend:
            def multiply(self, a, b):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(ValueError, match="KERNEL_MAX_Q_BITS"):
            SegmentedMultiplier(512, native_degree=256,
                                backend=FakeBackend(), q=WIDE_PRIME)


class TestServiceCancellationFailover:
    def test_stop_mid_lease_fails_over_dequeued_requests(self):
        """A request dequeued from the queue but blocked waiting for the
        chip lease must resolve with a SHUTDOWN rejection when the service
        stops - pre-fix, its future was abandoned and this test hung."""

        async def scenario():
            n = 64
            q = NttEngine.for_degree(n).q
            rng = np.random.default_rng(7)
            payload = (rng.integers(0, q, n).astype(np.uint64),
                       rng.integers(0, q, n).astype(np.uint64))
            service = CryptoPimService(ServiceConfig(max_batch_wait_s=0.0))
            # hold the only chip's lock: the drain worker will dequeue the
            # request, close its window, then block inside fleet.lease()
            async with service.fleet.shards[0].lock:
                task = asyncio.create_task(service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=n, payload=payload)))
                for _ in range(50):
                    await asyncio.sleep(0.002)
                    if service.summary()["queues"].get(f"polymul.{n}") == 0:
                        break  # the worker has taken it off the queue
                await service.stop()
            return await asyncio.wait_for(task, timeout=2.0)

        result = asyncio.run(scenario())
        assert isinstance(result, Rejection)
        assert result.reason is RejectReason.SHUTDOWN

    def test_normal_shutdown_still_clean(self):
        async def scenario():
            async with CryptoPimService() as service:
                n = 64
                q = NttEngine.for_degree(n).q
                rng = np.random.default_rng(3)
                payload = (rng.integers(0, q, n).astype(np.uint64),
                           rng.integers(0, q, n).astype(np.uint64))
                result = await service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=n, payload=payload))
                assert result.ok
            return True

        assert asyncio.run(scenario())


class TestProgramCostChargeMethods:
    def test_charge_methods_exist_and_book_consistently(self):
        # pre-fix ProgramCost had no charge methods at all
        cost = ProgramCost()
        cost.charge_add(17)
        cost.charge_sub(14)
        cost.charge_or()
        cost.charge_free()
        assert cost.adds == 1 and cost.subs == 1 and cost.free_ops == 2
        assert cost.cycles == add_cycles(17) + sub_cycles(14) + 1

    def test_cost_totals_unchanged_by_refactor(self):
        # the ledger change must not change any reported totals
        prog = barrett_program(12289, input_bound=(12289 - 1) ** 2)
        cost = prog.cost()
        assert cost.adds + cost.subs > 0
        recomputed = ProgramCost()
        for op, width in zip(prog.ops, prog.op_widths()):
            if op.kind in ("add", "addc"):
                recomputed.charge_add(max(width, 1))
            elif op.kind in ("sub", "csubq"):
                recomputed.charge_sub(max(width, 1))
            elif op.kind == "nzbit":
                recomputed.charge_or()
            else:
                recomputed.charge_free()
        assert recomputed == cost

    def test_analyzer_confirms_shiftadd_clean(self):
        from pathlib import Path

        from repro.analyze import Analyzer

        import repro.pim.shiftadd as shiftadd

        report = Analyzer(rules=["ACC001"]).run([Path(shiftadd.__file__)])
        assert report.findings == []
