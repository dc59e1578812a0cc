"""One submit path: every request of a served (kind, n) key, traced or
not, takes the key's one record, built by the key's first request that
passes the key and payload checks.  A request refuses exactly what it
would refuse before its key had a record, with the same reason and
detail, no later, and a malformed request is refused alone."""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.crypto.kyber import KyberCiphertext
from repro.ntt.params import params_for_degree
from repro.ntt.polynomial import Polynomial
from repro.ntt.transform import NttEngine
from repro.pim.device import PAPER_DEVICE
from repro.serve import service as service_module
from repro.serve import (
    KYBER_DEGREE,
    KYBER_RANK,
    CryptoPimService,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServeResult,
    ServiceConfig,
)


def _vector(rng, n=256):
    return rng.integers(0, NttEngine.for_degree(n).q, n).astype(np.uint64)


def _good(kind, rng, n=256):
    if kind is RequestKind.POLYMUL:
        return ServeRequest(kind, n, (_vector(rng, n), _vector(rng, n)))
    return ServeRequest(kind, n, _vector(rng, n))


def _count_key_checks(monkeypatch):
    """Record the key of every key check a submit runs."""
    calls = []
    unsupported = service_module._unsupported

    def counting(kind, n):
        calls.append((kind, n))
        return unsupported(kind, n)

    monkeypatch.setattr(service_module, "_unsupported", counting)
    return calls


class TestRoutes:
    """Each case runs untraced here and traced in TestTracedRoutes."""

    tracing = False

    def _config(self, **changes):
        return replace(ServiceConfig(max_batch_wait_s=0,
                                     tracing=self.tracing), **changes)

    def _run(self, scenario, **changes):
        async def main():
            async with CryptoPimService(self._config(**changes)) as service:
                return await asyncio.wait_for(scenario(service), timeout=20)

        return asyncio.run(main())

    def test_one_key_check_per_served_key(self, monkeypatch):
        rng = np.random.default_rng(1)

        async def scenario(service):
            checks = _count_key_checks(monkeypatch)
            results = []
            for kind in (RequestKind.POLYMUL, RequestKind.NTT_FORWARD):
                results.append(await service.submit(_good(kind, rng)))
                assert (kind, 256) in service._queues
                results += await asyncio.gather(*(
                    service.submit(_good(kind, rng)) for _ in range(5)))
            return results, checks

        results, checks = self._run(scenario)
        assert all(r.ok for r in results)
        assert checks == [(RequestKind.POLYMUL, 256),
                          (RequestKind.NTT_FORWARD, 256)]

    def test_submit_after_stop_is_refused(self):
        rng = np.random.default_rng(2)

        async def main():
            service = CryptoPimService(self._config())
            first = await service.submit(_good(RequestKind.NTT_FORWARD, rng))
            await service.stop()
            late = await asyncio.wait_for(service.submit(
                _good(RequestKind.NTT_FORWARD, rng)), timeout=10)
            return service, first, late

        service, first, late = asyncio.run(main())
        assert (RequestKind.NTT_FORWARD, 256) in service._queues
        assert first.ok
        assert late.reason == RejectReason.SHUTDOWN
        assert late.detail == "service is draining"
        counters = service.metrics.snapshot()["counters"]
        assert counters["requests.ntt_forward"] == 2
        assert counters["rejected.shutdown"] == 1

    @pytest.mark.parametrize("kind, malformed", [
        (RequestKind.POLYMUL, ([1.5] * 256, [1] * 256)),
        (RequestKind.POLYMUL, np.zeros(256, dtype=np.uint64)),
        (RequestKind.NTT_FORWARD, np.full(256, -1)),
        (RequestKind.NTT_INVERSE, np.zeros(255, dtype=np.uint64)),
    ])
    def test_malformed_payload_is_refused_alone(self, kind, malformed):
        """Refused before and after its key has a record with the same
        detail, while its window siblings are served together."""
        rng = np.random.default_rng(3)

        async def scenario(service):
            cold = await service.submit(ServeRequest(kind, 256, malformed))
            assert (kind, 256) not in service._queues
            await service.submit(_good(kind, rng))
            assert (kind, 256) in service._queues
            window = [_good(kind, rng) for _ in range(3)]
            window.insert(1, ServeRequest(kind, 256, malformed))
            return cold, await asyncio.gather(
                *(service.submit(r) for r in window))

        cold, results = self._run(scenario)
        warm = results[1]
        assert cold.reason == warm.reason == RejectReason.INVALID
        assert warm.detail == cold.detail
        siblings = [results[0], results[2], results[3]]
        assert all(r.ok for r in siblings)
        assert all(r.batch_size == 3 for r in siblings)

    @pytest.mark.parametrize("kind, n", [
        ("bogus", 256),
        (RequestKind.POLYMUL, 1000),
        (RequestKind.POLYMUL, 65536),
        (RequestKind.KYBER_ENCAPS, 512),
        ([RequestKind.POLYMUL], 256),
        (RequestKind.POLYMUL, 256.0),  # equals the warm (POLYMUL, 256) key
        (RequestKind.NTT_FORWARD, None),
    ])
    def test_unsupported_key_is_refused_the_same_every_time(self, kind, n):
        rng = np.random.default_rng(4)

        async def scenario(service):
            await service.submit(_good(RequestKind.POLYMUL, rng))
            return [await service.submit(ServeRequest(kind, n))
                    for _ in range(3)], list(service._queues)

        refusals, records = self._run(scenario)
        assert {r.reason for r in refusals} == {RejectReason.UNSUPPORTED}
        assert len({r.detail for r in refusals}) == 1
        assert records == [(RequestKind.POLYMUL, 256)]

    def test_numpy_integer_degree_is_served(self):
        rng = np.random.default_rng(7)

        async def scenario(service):
            first = await service.submit(_good(RequestKind.NTT_FORWARD, rng))
            request = _good(RequestKind.NTT_FORWARD, rng)
            request.n = np.int64(256)
            return first, await service.submit(request)

        first, second = self._run(scenario)
        assert first.ok and second.ok
        assert second.batch_size == 1

    def test_numpy_integer_degree_builds_an_int_key(self):
        rng = np.random.default_rng(8)

        async def scenario(service):
            request = _good(RequestKind.NTT_FORWARD, rng)
            request.n = np.int64(256)
            first = await service.submit(request)
            second = await service.submit(_good(RequestKind.NTT_FORWARD, rng))
            return first, second, list(service._queues)

        first, second, records = self._run(scenario)
        assert first.ok and second.ok
        assert [type(n) for _, n in records] == [int]
        assert records == [(RequestKind.NTT_FORWARD, 256)]

    def test_bad_decaps_payload_is_refused_at_submit(self):
        async def scenario(service):
            kem, pk, _ = service.kyber()
            ct, key = kem.encapsulate(pk)
            good = await service.submit(ServeRequest(
                RequestKind.KYBER_DECAPS, 256, ct))
            before = service.fleet.snapshot()["batches"]
            bad = await service.submit(ServeRequest(
                RequestKind.KYBER_DECAPS, 256, "not a ciphertext"))
            after = service.fleet.snapshot()["batches"]
            return good, key, bad, before, after, service

        good, key, bad, before, after, service = self._run(scenario)
        assert (RequestKind.KYBER_DECAPS, 256) in service._queues
        assert good.ok and good.value == key
        assert bad.reason == RejectReason.INVALID
        assert bad.detail == "decaps payload must be a Kyber ciphertext"
        assert after == before  # no window ran for it

    @pytest.mark.parametrize("malform", [
        "rank_one", "rank_three", "u_outside_ring", "v_outside_ring",
        "v_missing", "u_not_a_list"])
    def test_malformed_decaps_ciphertext_is_refused_alone(self, malform):
        """A ciphertext of the wrong rank or outside the Kyber ring is
        refused at submit before and after its key has a record, while
        its window siblings decapsulate together."""
        wide = params_for_degree(2 * KYBER_DEGREE)

        def bad(ct):
            u, v = list(ct.u), ct.v
            if malform == "rank_one":
                u = u[:1]
            elif malform == "rank_three":
                u = u + u[:1]
            elif malform == "u_outside_ring":
                u[1] = Polynomial(np.zeros(wide.n, dtype=np.uint64), wide)
            elif malform == "v_outside_ring":
                v = Polynomial(np.zeros(wide.n, dtype=np.uint64), wide)
            elif malform == "v_missing":
                v = None
            else:
                u = u[0]
            return KyberCiphertext(u=u, v=v)

        async def scenario(service):
            kem, pk, _ = service.kyber()
            key = (RequestKind.KYBER_DECAPS, KYBER_DEGREE)
            pairs = kem.encapsulate_many(pk, 4)
            cold = await service.submit(ServeRequest(
                *key, bad(pairs[0][0])))
            assert key not in service._queues
            first = await service.submit(ServeRequest(*key, pairs[0][0]))
            assert key in service._queues
            window = [ServeRequest(*key, ct) for ct, _ in pairs[1:]]
            window.insert(1, ServeRequest(*key, bad(pairs[1][0])))
            results = await asyncio.gather(
                *(service.submit(r) for r in window))
            return cold, first, results, [key for _, key in pairs]

        cold, first, results, keys = self._run(scenario)
        warm = results[1]
        assert cold.reason == warm.reason == RejectReason.INVALID
        assert warm.detail == cold.detail == \
            "decaps payload must be a Kyber ciphertext"
        assert first.ok and first.value == keys[0]
        siblings = [results[0], results[2], results[3]]
        assert [r.value for r in siblings] == keys[1:]
        assert all(r.batch_size == 3 for r in siblings)

    def test_service_key_has_the_service_rank(self):
        async def scenario(service):
            kem, pk, sk = service.kyber()
            return kem.pke.k, len(pk.t), len(sk.s)

        assert self._run(scenario) == (KYBER_RANK,) * 3

    def test_bad_he_payload_is_refused_at_submit(self):
        rng = np.random.default_rng(5)

        async def scenario(service):
            scheme, sk = service.bgv(1024)
            x = scheme.encrypt(sk, rng.integers(0, scheme.t, 1024))
            good = await service.submit(ServeRequest(
                RequestKind.BGV_ADD, 1024, (x, x)))
            before = service.fleet.snapshot()["batches"]
            bad = await asyncio.gather(*(service.submit(ServeRequest(
                RequestKind.BGV_ADD, 1024, payload)) for payload in (
                    (x, replace(x, parts=[])), (x,), (x, x, x))))
            after = service.fleet.snapshot()["batches"]
            return good, bad, before, after, service

        good, bad, before, after, service = self._run(scenario)
        assert (RequestKind.BGV_ADD, 1024) in service._queues
        assert good.ok
        assert {r.reason for r in bad} == {RejectReason.INVALID}
        assert after == before

    @pytest.mark.parametrize("field, value, detail", [
        ("priority", None, "priority must be an integer"),
        ("priority", 1.5, "priority must be an integer"),
        ("priority", "1", "priority must be an integer"),
        ("tenant", ["t"], "tenant must be a string"),
        ("tenant", None, "tenant must be a string"),
    ])
    def test_malformed_priority_or_tenant_is_refused_alone(
            self, field, value, detail):
        """The heap compares priorities and the token buckets hash
        tenants: a malformed one is refused before either sees it, so
        its window siblings resolve and every counter reconciles."""
        rng = np.random.default_rng(9)
        kind = RequestKind.NTT_FORWARD

        async def scenario(service):
            cold = await service.submit(
                replace(_good(kind, rng), **{field: value}))
            assert (kind, 256) not in service._queues
            first = await service.submit(_good(kind, rng))
            window = [_good(kind, rng) for _ in range(4)]
            window[1] = replace(window[1], **{field: value})
            results = await asyncio.gather(
                *(service.submit(r) for r in window))
            await service.drain()
            return cold, first, results, service

        cold, first, results, service = self._run(
            scenario, tenant_rate=1000.0)
        warm = results[1]
        assert cold.reason == warm.reason == RejectReason.INVALID
        assert cold.detail == warm.detail == detail
        siblings = [results[0], results[2], results[3]]
        assert first.ok and all(r.ok for r in siblings)
        assert all(r.batch_size == 3 for r in siblings)
        counters = service.metrics.snapshot()["counters"]
        assert counters["requests_submitted"] == 6
        assert counters["requests_completed"] == 4
        assert counters["requests_rejected"] == 2
        assert counters["rejected.invalid"] == 2
        assert service._backlog.items == service._backlog.unresolved == 0

    def test_equal_request_ids_ride_one_window(self):
        """Queue order within a priority class is the service's arrival
        order, so two requests never compare each other."""
        rng = np.random.default_rng(10)

        async def scenario(service):
            await service.submit(_good(RequestKind.POLYMUL, rng))
            window = [replace(_good(RequestKind.POLYMUL, rng), request_id=5)
                      for _ in range(4)]
            return await asyncio.gather(*(service.submit(r) for r in window))

        results = self._run(scenario)
        assert [(r.ok, r.request_id, r.batch_size) for r in results] == [
            (True, 5, 4)] * 4

    def test_drain_waits_for_an_open_window(self):
        """A request dequeued into a batch window that is still open is
        neither queued nor on a chip; drain() waits for it all the
        same."""
        rng = np.random.default_rng(11)

        async def scenario(service):
            task = asyncio.ensure_future(
                service.submit(_good(RequestKind.NTT_FORWARD, rng)))
            await asyncio.sleep(0.005)
            assert service._backlog.items == 0  # in the open window
            await service.drain()
            done = task.done()
            return done, await task

        done, result = self._run(scenario, max_batch_wait_s=0.05)
        assert done and result.ok


class TestTracedRoutes(TestRoutes):
    """TestRoutes on a traced service: tracing only adds spans."""

    tracing = True


class TestServeResult:
    def _result(self, **changes):
        fields = dict(request_id=7, kind=RequestKind.POLYMUL, n=256,
                      value=(1, 2), queue_wait_s=0.25, service_s=0.5,
                      total_s=1.0, batch_size=3, completion_cycle=1200,
                      chip=1)
        fields.update(changes)
        return ServeResult(**fields)

    def test_fields_cannot_be_assigned(self):
        result = self._result()
        for name in ("request_id", "value", "total_s", "chip"):
            with pytest.raises(AttributeError):
                setattr(result, name, 0)
        with pytest.raises(AttributeError):
            result.extra = 1  # no instance dict either

    def test_equal_by_value(self):
        assert self._result() == self._result()
        assert self._result() != self._result(completion_cycle=1201)
        assert self._result(chip=0) == ServeResult(
            7, RequestKind.POLYMUL, 256, (1, 2), 0.25, 0.5, 1.0, 3, 1200)

    def test_service_s_is_the_execute_interval(self):
        """One clock: each member's ``service_s`` is its trace's execute
        span, to the bit."""
        rng = np.random.default_rng(13)

        async def main():
            config = ServiceConfig(tracing=True, max_batch_wait_s=0)
            async with CryptoPimService(config) as service:
                results = [await service.submit(_good(RequestKind.POLYMUL,
                                                      rng))]
                results += await asyncio.gather(*(
                    service.submit(_good(RequestKind.POLYMUL, rng))
                    for _ in range(6)))
            return results, service.journal.traces()

        results, traces = asyncio.run(main())
        execute = {t.attrs["request_id"]: [c for c in t.children
                                           if c.name == "execute"]
                   for t in traces}
        assert len(results) == len(execute) == 7
        for result in results:
            (span,) = execute[result.request_id]
            assert result.service_s == span.duration_s

    def test_readable_repr_and_properties(self):
        result = self._result()
        text = repr(result)
        assert text.startswith("ServeResult(request_id=7, ")
        assert "completion_cycle=1200" in text
        assert result.ok
        assert result.completion_us == PAPER_DEVICE.cycles_to_us(1200)
