"""Seeded request payloads and the independent oracles that check them.

Every payload is generated from the benchmark seed before the timed
region, and every checked result is compared with a value computed
without the code path under test:

=================  ==========================================================
POLYMUL            ``schoolbook_negacyclic_np`` (O(n^2) convolution)
NTT_FORWARD        ``ntt_gs`` (pure-Python Gentleman-Sande loop)
NTT_INVERSE        ``intt_gs``
KYBER_ENCAPS       decapsulating the returned ciphertext recovers the key
KYBER_DECAPS       the key recorded when the ciphertext was made
=================  ==========================================================

Oracle values are computed lazily, once per distinct payload, and always
outside the timed region.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.params import params_for_degree
from repro.ntt.transform import intt_gs, ntt_gs
from repro.serve import RequestKind, ServeRequest, TrafficSpec

#: distinct payloads generated per traffic spec
PER_SPEC = 16


class Payloads:
    """Per-spec payload pools for one service, with their oracles."""

    def __init__(self, service: Any, specs: Sequence[TrafficSpec],
                 rng: np.random.Generator):
        self.service = service
        self.specs = list(specs)
        self._rng = rng
        # id(payload) -> what the oracle needs to know about it
        self._facts: Dict[int, Any] = {}
        self._expected: Dict[int, Any] = {}
        self.pools: List[List[Any]] = [
            [self._build(spec) for _ in range(PER_SPEC)]
            for spec in self.specs]

    def _build(self, spec: TrafficSpec) -> Any:
        kind, n, rng = spec.kind, spec.n, self._rng
        if kind is RequestKind.POLYMUL:
            q = params_for_degree(n).q
            return (rng.integers(0, q, n).astype(np.uint64),
                    rng.integers(0, q, n).astype(np.uint64))
        if kind in (RequestKind.NTT_FORWARD, RequestKind.NTT_INVERSE):
            return rng.integers(0, params_for_degree(n).q, n).astype(np.uint64)
        if kind is RequestKind.KYBER_ENCAPS:
            self.service.kyber()  # key generation belongs to set-up
            return None
        if kind is RequestKind.KYBER_DECAPS:
            kem, pk, _ = self.service.kyber()
            ct, key = kem.encapsulate(pk)
            self._facts[id(ct)] = key
            return ct
        raise ValueError(f"no payload builder for {kind}")

    def requests(self, count: int) -> List[Tuple[int, int]]:
        """``count`` (spec index, payload index) picks in a seeded order.

        Each spec gets its weight's share of ``count`` exactly (largest
        remainder), so two seeds differ in order and payloads but never
        in the mix itself.
        """
        weights = np.asarray([s.weight for s in self.specs], dtype=float)
        share = weights / weights.sum() * count
        counts = np.floor(share).astype(int)
        short = count - int(counts.sum())
        counts[np.argsort(counts - share)[:short]] += 1
        order = np.repeat(np.arange(len(self.specs)), counts)
        self._rng.shuffle(order)
        return [(int(i), int(self._rng.integers(len(self.pools[i]))))
                for i in order]

    def request(self, pick: Tuple[int, int]) -> ServeRequest:
        spec = self.specs[pick[0]]
        return ServeRequest(kind=spec.kind, n=spec.n,
                            payload=self.pools[pick[0]][pick[1]],
                            priority=spec.priority)

    # -- oracles ---------------------------------------------------------------

    def _oracle(self, kind: RequestKind, n: int, payload: Any) -> Any:
        key = id(payload)
        if key in self._expected:
            return self._expected[key]
        if kind is RequestKind.POLYMUL:
            a, b = payload
            value = schoolbook_negacyclic_np(a, b, params_for_degree(n).q)
        elif kind is RequestKind.NTT_FORWARD:
            value = np.asarray(ntt_gs([int(x) for x in payload],
                                      params_for_degree(n)))
        elif kind is RequestKind.NTT_INVERSE:
            value = np.asarray(intt_gs([int(x) for x in payload],
                                       params_for_degree(n)))
        elif kind is RequestKind.KYBER_DECAPS:
            value = self._facts[key]
        else:
            raise ValueError(f"no oracle for {kind}")
        self._expected[key] = value
        return value

    def wrong(self, request: ServeRequest, response: Any) -> int:
        """1 if the response is a rejection or a wrong value, else 0."""
        if not response.ok:
            return 1
        kind, n, value = request.kind, request.n, response.value
        if kind is RequestKind.KYBER_ENCAPS:
            kem, _, sk = self.service.kyber()
            ct, key = value
            return int(kem.decapsulate(sk, ct) != key)
        if kind is RequestKind.KYBER_DECAPS:
            return int(value != self._oracle(kind, n, request.payload))
        return int(not np.array_equal(
            np.asarray(value), self._oracle(kind, n, request.payload)))
