"""Tests for the metrics registry and cross-process merging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_worker_metrics,
)
from repro.observability.metrics import DEFAULT_BUCKETS


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        assert g.value is None
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_bucketing(self):
        h = Histogram(bounds=(1, 2, 4))
        for v in (0, 1, 2, 3, 4, 100):
            h.observe(v)
        # counts: <=1, <=2, <=4, overflow
        assert h.counts == [2, 1, 2, 1]
        assert h.count == 6
        assert h.sum == 110
        assert h.mean == pytest.approx(110 / 6)
        assert (h.min, h.max) == (0, 100)

    def test_histogram_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2, 1))

    def test_default_buckets_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_histogram_bounds_collision_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1, 2, 3))

    def test_contains(self):
        reg = MetricsRegistry()
        reg.counter("seen")
        assert "seen" in reg
        assert "unseen" not in reg

    def test_as_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(7)
        reg.gauge("load").set(2.5)
        reg.histogram("spread", bounds=(1, 2)).observe(2)
        other = MetricsRegistry()
        other.merge_dict(reg.as_dict())
        assert other.as_dict() == reg.as_dict()


class TestMerging:
    def test_counters_and_histograms_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ops").inc(3)
        b.counter("ops").inc(4)
        a.histogram("h", bounds=(1,)).observe(0)
        b.histogram("h", bounds=(1,)).observe(5)
        merged = merge_worker_metrics([a.as_dict(), b.as_dict()])
        assert merged.counter("ops").value == 7
        h = merged.histogram("h", bounds=(1,))
        assert h.counts == [1, 1]
        assert h.count == 2 and h.sum == 5
        assert (h.min, h.max) == (0, 5)

    def test_counter_merge_is_order_independent(self):
        payloads = []
        for v in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("ops").inc(v)
            payloads.append(reg.as_dict())
        fwd = merge_worker_metrics(payloads).as_dict()
        rev = merge_worker_metrics(reversed(payloads)).as_dict()
        assert fwd == rev

    def test_gauge_merge_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        assert merge_worker_metrics([a.as_dict(), b.as_dict()]).gauge("g").value == 2.0

    def test_unset_gauge_does_not_clobber(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g")  # created but never set
        assert merge_worker_metrics([a.as_dict(), b.as_dict()]).gauge("g").value == 1.0

    def test_incompatible_histogram_payload(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2))
        bad = {"histograms": {"h": {"bounds": [1, 2], "counts": [0, 0], "sum": 0, "count": 0}}}
        with pytest.raises(ValueError):
            reg.merge_dict(bad)

    def test_live_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc()
        b.counter("c").inc()
        a.merge(b)
        assert a.counter("c").value == 2


# -- property: additive kinds merge order-independently -----------------

_NAMES = ("engine.ops", "engine.borrows", "load.spread")
_BOUNDS = (1.0, 4.0, 16.0)


@st.composite
def worker_payloads(draw):
    """A list of as_dict()-shaped worker payloads with counters and
    histograms only (the additive kinds — gauges are documented as
    last-write-wins, so order is allowed to matter for them)."""
    payloads = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        reg = MetricsRegistry()
        for name in draw(st.sets(st.sampled_from(_NAMES))):
            reg.counter(name).inc(draw(st.integers(min_value=0, max_value=50)))
        obs = draw(
            st.lists(
                st.integers(min_value=0, max_value=40), max_size=8
            )
        )
        if obs:
            h = reg.histogram("hist", bounds=_BOUNDS)
            for v in obs:
                h.observe(v)
        payloads.append(reg.as_dict())
    return payloads


class TestMergeOrderIndependence:
    @given(payloads=worker_payloads(), seed=st.integers(0, 2**32 - 1))
    def test_permuted_payloads_merge_identically(self, payloads, seed):
        import random

        shuffled = list(payloads)
        random.Random(seed).shuffle(shuffled)
        fwd = merge_worker_metrics(payloads).as_dict()
        perm = merge_worker_metrics(shuffled).as_dict()
        assert fwd == perm
        # integer observations keep float sums exact, so the aggregate
        # totals are also checkable directly
        total = sum(
            p.get("histograms", {}).get("hist", {}).get("count", 0)
            for p in payloads
        )
        hists = perm.get("histograms", {})
        assert hists.get("hist", {}).get("count", 0) == total
