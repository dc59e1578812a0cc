"""A fault in the drain loop's own bookkeeping refuses one window, never
the key: the window's members resolve as ``INTERNAL`` refusals, the key's
next request is served, ``drain()`` and ``stop()`` return, and every
submitted request is counted once, as completed or as rejected."""

import asyncio

import numpy as np
import pytest

from repro.core.scheduler import ChipTimeline
from repro.serve import (
    CryptoPimService,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServiceConfig,
)
from repro.serve import service as service_module

#: the bookkeeping steps after a window is dequeued, each of which may
#: raise: pricing, the chip ledger, the metrics and (traced) the spans
FAULTS = [(CryptoPimService, "_mult_equivalents"),
          (ChipTimeline, "dispatch"),
          (CryptoPimService, "_complete_batch"),
          (CryptoPimService, "_trace_batch")]
KEY = (RequestKind.NTT_FORWARD, 256)


def _request():
    return ServeRequest(*KEY, np.arange(256, dtype=np.uint64))


def _raise_once(monkeypatch, owner, name):
    real = getattr(owner, name)
    raised = []

    def faulty(*args, **kwargs):
        if not raised:
            raised.append(name)
            raise RuntimeError(f"fault in {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)
    return raised


@pytest.mark.parametrize("owner, name", FAULTS,
                         ids=[name for _, name in FAULTS])
def test_bookkeeping_fault_refuses_its_window_alone(owner, name,
                                                    monkeypatch):
    raised = _raise_once(monkeypatch, owner, name)
    tracing = name == "_trace_batch"

    async def scenario():
        service = CryptoPimService(
            ServiceConfig(tracing=tracing, max_batch_wait_s=0))
        window = await asyncio.wait_for(asyncio.gather(
            *(service.submit(_request()) for _ in range(3))), 5)
        later = await asyncio.wait_for(service.submit(_request()), 5)
        await asyncio.wait_for(service.drain(), 5)
        await asyncio.wait_for(service.stop(), 5)
        return service, window, later

    service, window, later = asyncio.run(scenario())
    assert raised == [name]
    assert [r.reason for r in window] == [RejectReason.INTERNAL] * 3
    assert all(r.detail == f"RuntimeError('fault in {name}')"
               for r in window)
    assert later.ok and later.batch_size == 1
    assert np.array_equal(later.value,
                          service.engine(256).forward(np.arange(256)))
    counters = service.metrics.snapshot()["counters"]
    assert counters["requests_submitted"] == 4
    assert counters["requests_completed"] == 1
    assert counters["requests_rejected"] == counters["rejected.internal"] == 3
    assert service._backlog.unresolved == 0
    if tracing:
        traces = service.journal.traces()
        assert [t.attrs.get("rejected") for t in traces] == \
            ["internal"] * 3 + [None]


def test_stop_fails_every_key_over_after_a_drain_task_died(monkeypatch):
    """A drain task that ended with an exception no longer stops
    ``stop()`` before the other keys' leftovers are refused; the
    exception is raised once all of them are."""
    real_collect = service_module.collect_batch
    inverse = (RequestKind.NTT_INVERSE, 256)

    async def scenario():
        service = CryptoPimService(ServiceConfig(max_batch_wait_s=5))

        async def collect(queue, window, **kwargs):
            if queue is service._queues[KEY].queue:
                raise RuntimeError("drain task fault")
            return await real_collect(queue, window, **kwargs)

        monkeypatch.setattr(service_module, "collect_batch", collect)
        dead = [asyncio.create_task(service.submit(_request()))
                for _ in range(2)]
        await asyncio.sleep(0.01)
        assert service._queues[KEY].worker.done()
        live = [asyncio.create_task(service.submit(ServeRequest(
            *inverse, np.zeros(256, dtype=np.uint64)))) for _ in range(3)]
        await asyncio.sleep(0)
        with pytest.raises(RuntimeError, match="drain task fault"):
            await service.stop()
        responses = await asyncio.wait_for(asyncio.gather(*dead, *live), 5)
        return service, responses

    service, responses = asyncio.run(scenario())
    assert [r.reason for r in responses] == [RejectReason.SHUTDOWN] * 5
    counters = service.metrics.snapshot()["counters"]
    assert counters["requests_submitted"] == 5
    assert counters["requests_rejected"] == 5
    assert service._backlog.unresolved == 0
