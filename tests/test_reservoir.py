"""Tests for ``repro.obs.reservoir``: the one skip-based reservoir rule
shared by the serve histograms and the trace journal."""

import numpy as np
import pytest

from repro.obs import Span, TraceJournal
from repro.obs.reservoir import _BLOCK, Reservoir


def _offer(capacity, stream, cuts, seed=7):
    reservoir, sample = Reservoir(capacity, seed), []
    for lo, hi in zip(cuts, cuts[1:]):
        reservoir.extend(sample, stream[lo:hi])
    return reservoir, sample


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        Reservoir(0, seed=1)


@pytest.mark.parametrize("cuts", [
    [0, 3, 5, 6, 40, 41, 2000, 5000],
    [0, 5000],
    list(range(0, 5001, 13)) + [5000],
])
def test_chunking_never_changes_the_state(cuts):
    stream = list(range(5000))
    one, single = _offer(5, stream, list(range(5001)))
    many, sample = _offer(5, stream, cuts)
    assert sample == single
    assert many.seen == one.seen == 5000
    assert many.rng.bit_generator.state == one.rng.bit_generator.state


def test_fill_keeps_the_first_items_verbatim():
    reservoir, sample = _offer(8, list(range(7)), [0, 3, 7])
    assert sample == list(range(7))
    # no draw until the sample is full
    assert reservoir.rng.bit_generator.state == \
        np.random.default_rng(7).bit_generator.state
    reservoir.extend(sample, [7])
    assert sample == list(range(8))


def test_every_item_equally_likely():
    """Inclusion frequency of each of 20 items in a 4-item sample is
    4/20 over many seeds, the items right at the fill boundary too."""
    trials, capacity, stream = 4000, 4, list(range(20))
    hits = np.zeros(len(stream))
    for seed in range(trials):
        _, sample = _offer(capacity, stream, [0, 20], seed=seed)
        hits[sample] += 1
    assert np.all(np.abs(hits / trials - capacity / len(stream)) < 0.04), hits


def test_draws_come_in_blocks():
    reservoir, _ = _offer(4, list(range(64)), [0, 64])
    fresh = np.random.default_rng(7)
    fresh.random(_BLOCK)
    assert reservoir.rng.bit_generator.state == fresh.bit_generator.state


def test_journal_drops_every_trace_past_capacity():
    journal = TraceJournal(capacity=16, keep_slowest=0)
    for i in range(500):
        root = Span("request", trace_id=i + 1, start_s=float(i))
        root.end_s = float(i) + 1.0
        journal.record(root)
    assert journal.completed == 500
    assert journal.dropped == 500 - 16
    retained = journal.traces()
    assert len(retained) == 16
    assert len({s.trace_id for s in retained}) == 16
    # the reservoir replaced some of the first 16 traces
    assert max(s.trace_id for s in retained) > 16
