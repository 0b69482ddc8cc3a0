"""MetricsRegistry unit tests: instruments, labels, snapshots."""

import pytest

from repro.experiments.harness import Cdf
from repro.obs.metrics import MetricsError, MetricsRegistry


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        registry.counter("sent").inc()
        registry.counter("sent").inc(4)
        assert registry.value("sent") == 5

    def test_labelled_counters_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("sent", type="A").inc()
        registry.counter("sent", type="B").inc(2)
        assert registry.value("sent", type="A") == 1
        assert registry.value("sent", type="B") == 2
        assert registry.value("sent", type="C") is None

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("m", a="1", b="2").inc()
        assert registry.value("m", b="2", a="1") == 1

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("sent").inc(-1)


class TestGauges:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert registry.value("depth") == 7


class TestHistograms:
    def test_summary_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == 10.0
        assert hist.mean == 2.5
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 4.0

    @pytest.mark.parametrize(
        "q, expected", [(0.0, 1), (0.1, 1), (0.34, 4), (0.5, 5), (1.0, 10)]
    )
    def test_quantile_reaches_q(self, q, expected):
        """The smallest sample whose cumulative fraction is >= ``q``
        (over 1..10 at q=0.34: 4, since 3 only reaches 0.3), as
        :meth:`Cdf.quantile` defines it."""
        hist = MetricsRegistry().histogram("latency")
        for v in range(1, 11):
            hist.observe(float(v))
        assert hist.quantile(q) == expected == Cdf(range(1, 11)).quantile(q)

    def test_empty_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        assert hist.count == 0
        assert hist.mean == 0.0
        with pytest.raises(ValueError):
            hist.quantile(0.5)

    def test_value_rejects_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("latency").observe(1.0)
        with pytest.raises(MetricsError):
            registry.value("latency")


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricsError):
            registry.gauge("m")

    def test_snapshot_flattens_labels_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("sent", type="A").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(2.0)
        snap = registry.snapshot()
        assert snap["sent{type=A}"] == 3
        assert snap["depth"] == 7
        assert snap["lat_count"] == 1.0
        assert snap["lat_sum"] == 2.0
        assert snap["lat_mean"] == 2.0

    def test_values_by_label(self):
        registry = MetricsRegistry()
        registry.counter("sent", type="A").inc(3)
        registry.counter("sent", type="B").inc(1)
        registry.counter("other", type="A").inc(9)
        assert registry.values_by_label("sent", "type") == {"A": 3, "B": 1}

    def test_values_by_label_sums_over_other_labels(self):
        registry = MetricsRegistry()
        registry.counter("sent_by", sender="a", type="X").inc(3)
        registry.counter("sent_by", sender="b", type="X").inc(2)
        registry.counter("sent_by", sender="b", type="Y").inc(1)
        assert registry.values_by_label("sent_by", "type") == {
            "X": 5, "Y": 1,
        }
        assert registry.values_by_label("sent_by", "sender") == {
            "a": 3, "b": 3,
        }

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.counter("sent", type="A")
        registry.counter("sent", type="B")
        assert "sent" in registry
        assert "missing" not in registry
        assert len(registry) == 2
