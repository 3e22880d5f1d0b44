"""Tests for the metrics registry."""

import json

import pytest

from repro.observability import Counter, Gauge, Histogram, MetricsRegistry
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
        payload = reg.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["counters"] == {"ops": 7}
        assert payload["gauges"] == {"load": 2.5}
        assert payload["histograms"]["spread"]["counts"] == [0, 1, 0]

