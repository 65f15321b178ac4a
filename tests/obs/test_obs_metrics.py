"""Tests for the metrics core: types, registry, drain/merge, exposition."""

import pickle
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    VOLUME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    WINDOW_SIZE,
    MetricsRegistry,
    WindowedHistogram,
    log_buckets,
)


class TestLogBuckets:
    def test_ascending_unique_and_covers_hi(self):
        bounds = log_buckets(1e-6, 100.0, per_decade=3)
        assert list(bounds) == sorted(set(bounds))
        assert bounds[0] == 1e-6
        assert bounds[-1] >= 100.0

    def test_deterministic_across_calls(self):
        """Two processes computing the same spec must agree bitwise —
        the merge precondition; rounding to 6 significant digits makes
        the float math reproducible."""
        assert log_buckets(1e-6, 100.0, 3) == log_buckets(1e-6, 100.0, 3)
        assert LATENCY_BUCKETS == log_buckets(1e-6, 100.0, per_decade=3)
        assert VOLUME_BUCKETS == log_buckets(1.0, 1e9, per_decade=3)
        assert COUNT_BUCKETS == log_buckets(1.0, 1e6, per_decade=4)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="lo"):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError, match="lo"):
            log_buckets(2.0, 1.0)
        with pytest.raises(ValueError, match="per_decade"):
            log_buckets(1.0, 10.0, per_decade=0)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = Counter("c", "help")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_labeled_children_are_cached(self):
        counter = Counter("c", "help", labelnames=("kind",))
        child = counter.labels("engine")
        assert counter.labels("engine") is child
        child.inc(2)
        counter.labels("closed").inc()
        assert counter.sample_items() == {("closed",): 1.0, ("engine",): 2.0}

    def test_label_arity_checked(self):
        counter = Counter("c", "help", labelnames=("kind",))
        with pytest.raises(ValueError, match="label value"):
            counter.labels("a", "b")


class TestGauge:
    def test_set_inc_dec_set_max(self):
        gauge = Gauge("g", "help")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(3.0)
        assert gauge.value == 4.0
        gauge.set_max(10.0)
        gauge.set_max(1.0)
        assert gauge.value == 10.0


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        hist = Histogram("h", "help", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1e6):
            hist.observe(value)
        sample = hist.sample_items()[()]
        # counts[i] covers (bounds[i-1], bounds[i]]; last is overflow.
        assert sample["counts"] == [2, 1, 1, 1]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(0.5 + 1.0 + 5.0 + 100.0 + 1e6)

    def test_summary_and_quantile(self):
        hist = Histogram("h", "help", bounds=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(1.5)
        # All mass in (1, 2]: interpolated quantiles stay in that bucket.
        assert 1.0 <= summary["p50"] <= 2.0
        assert 1.0 <= summary["p95"] <= 2.0
        assert hist.quantile(0.0) >= 0.0
        assert hist.quantile(1.0) <= 2.0

    def test_quantile_empty_and_bounds_checked(self):
        hist = Histogram("h", "help", bounds=(1.0, 2.0))
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", "help", bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", "help", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", "help", bounds=())


class TestWindowedHistogram:
    def test_window_keeps_the_last_observations_per_child(self):
        hist = WindowedHistogram("w", "", bounds=(1.0, 2.0), labelnames=("s",))
        values = [float(i) for i in range(WINDOW_SIZE + 5)]
        for value in values:
            hist.labels("a").observe(value)
        hist.labels("b").observe(0.5)
        assert hist.labels("a").window() == values[5:]
        assert hist.labels("b").window() == [0.5]
        assert hist.labels("c").window() == []
        # The buckets still count the whole lifetime.
        assert hist.sample_items()[("a",)]["count"] == WINDOW_SIZE + 5

    def test_exports_and_merges_like_a_histogram(self):
        windowed, plain = MetricsRegistry(), MetricsRegistry()
        windowed.windowed_histogram("h", "help", bounds=(1.0, 2.0))
        plain.histogram("h", "help", bounds=(1.0, 2.0))
        for registry in (windowed, plain):
            for value in (0.5, 1.5, 3.0):
                registry.get("h").observe(value)
        assert windowed.to_prometheus_text() == plain.to_prometheus_text()
        assert windowed.collect() == plain.collect()
        # A merged-in delta adds buckets only; the window stays local.
        windowed.merge(plain.drain())
        assert windowed.get("h").summary()["count"] == 6
        assert windowed.get("h").window() == [0.5, 1.5, 3.0]
        # A plain histogram request finds the windowed family (merge
        # relies on it); a windowed request for a plain one is refused.
        assert windowed.histogram("h", bounds=(1.0, 2.0)) is windowed.get("h")
        with pytest.raises(ValueError, match="already registered"):
            plain.windowed_histogram("h", bounds=(1.0, 2.0))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry("laca")
        first = registry.counter("a_total", "help")
        assert registry.counter("a_total", "other help") is first
        assert registry.get("a_total") is first
        assert registry.get("missing") is None

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x", "help")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "help", labelnames=("kind",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("x", "help", labelnames=("other",))

    def test_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", "help", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            registry.histogram("h", "help", bounds=(1.0, 3.0))

    def test_snapshot_renders_labeled_keys(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "", ("path",)).labels("engine").inc(3)
        registry.gauge("epoch", "").set(7)
        snap = registry.snapshot()
        assert snap["req_total{path=engine}"] == 3.0
        assert snap["epoch"] == 7.0

    def test_hooks_run_before_snapshot(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth", "")
        live = {"depth": 0}
        registry.add_hook(lambda: depth.set(live["depth"]))
        live["depth"] = 42
        assert registry.snapshot()["queue_depth"] == 42.0

    def test_drain_resets_and_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "").inc(5)
        registry.histogram("h", "", bounds=(1.0, 2.0)).observe(1.5)
        registry.gauge("g", "").set(9)
        delta = registry.drain()
        # The delta must survive the pool's result queue.
        delta = pickle.loads(pickle.dumps(delta))
        names = {family["name"] for family in delta}
        assert names == {"c_total", "h"}  # gauges are point-in-time
        assert registry.counter("c_total", "").value == 0.0
        assert registry.get("h").summary()["count"] == 0
        assert registry.get("g").value == 9.0
        # Merging the drained delta restores the original totals.
        registry.merge(delta)
        assert registry.counter("c_total", "").value == 5.0
        assert registry.get("h").summary()["count"] == 1

    def test_merge_creates_missing_metrics(self):
        source = MetricsRegistry()
        source.counter("only_there_total", "made elsewhere", ("k",)).labels(
            "x"
        ).inc(2)
        source.histogram("vol", "", bounds=(1.0, 10.0)).observe(3.0)
        head = MetricsRegistry()
        head.merge(source.collect(run_hooks=False))
        assert head.get("only_there_total").sample_items() == {("x",): 2.0}
        assert head.get("vol").summary()["count"] == 1

    def test_merge_rejects_mismatched_histogram_bounds(self):
        source = MetricsRegistry()
        source.histogram("h", "", bounds=(1.0, 2.0)).observe(1.0)
        head = MetricsRegistry()
        head.histogram("h", "", bounds=(1.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            head.merge(source.collect(run_hooks=False))

    def test_gauge_merge_is_last_write_wins(self):
        source = MetricsRegistry()
        source.gauge("g", "").set(3)
        head = MetricsRegistry()
        head.gauge("g", "").set(11)
        head.merge(source.collect(run_hooks=False))
        assert head.get("g").value == 3.0

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("kind",)).labels("x")
        hist = registry.histogram("h", "", bounds=(1.0, 2.0))

        def worker():
            for _ in range(500):
                counter.inc()
                hist.observe(1.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.get("c_total").sample_items()[("x",)] == 4000.0
        assert registry.get("h").summary()["count"] == 4000


class TestPrometheusText:
    def test_format_is_parseable(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", ("path",)).labels(
            "engine"
        ).inc(3)
        registry.histogram("lat", "latency", bounds=(0.1, 1.0)).observe(0.5)
        registry.gauge("epoch", "current epoch").set(2)
        text = registry.to_prometheus_text()
        lines = text.strip().splitlines()
        assert "# TYPE req_total counter" in lines
        assert "# TYPE lat histogram" in lines
        assert "# TYPE epoch gauge" in lines
        assert 'req_total{path="engine"} 3' in lines
        # Cumulative buckets: each le= includes everything below it.
        assert 'lat_bucket{le="0.1"} 0' in lines
        assert 'lat_bucket{le="1"} 1' in lines
        assert 'lat_bucket{le="+Inf"} 1' in lines
        assert "lat_sum 0.5" in lines
        assert "lat_count 1" in lines

    def test_bucket_counts_are_monotone_and_match_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", bounds=LATENCY_BUCKETS)
        for value in (1e-7, 1e-3, 0.5, 2.0, 500.0):
            hist.observe(value)
        text = registry.to_prometheus_text()
        buckets = []
        for line in text.splitlines():
            if line.startswith("h_bucket"):
                buckets.append(int(line.rsplit(" ", 1)[1]))
        assert buckets == sorted(buckets)
        assert buckets[-1] == 5
        assert "h_count 5" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("kind",)).labels('we"ird\n').inc()
        text = registry.to_prometheus_text()
        assert 'c_total{kind="we\\"ird\\n"} 1' in text


def _apply(registry: MetricsRegistry, ops):
    """Replay a generated operation list against a fresh registry."""
    for kind, value in ops:
        if kind == "c":
            registry.counter("c_total", "", ("k",)).labels("x").inc(value)
        else:
            registry.histogram("h", "", bounds=(0.1, 1.0, 10.0)).observe(value)


def _totals(registry: MetricsRegistry):
    counter = registry.get("c_total")
    hist = registry.get("h")
    return (
        counter.sample_items() if counter is not None else {},
        hist.sample_items() if hist is not None else {},
    )


def _assert_totals_close(left, right):
    """Equal up to float-summation reassociation (bucket counts exact)."""
    counters_l, hists_l = left
    counters_r, hists_r = right
    assert counters_l == pytest.approx(counters_r)
    assert hists_l.keys() == hists_r.keys()
    for key in hists_l:
        sample_l, sample_r = hists_l[key], hists_r[key]
        assert sample_l["counts"] == sample_r["counts"]
        assert sample_l["bounds"] == sample_r["bounds"]
        assert sample_l["sum"] == pytest.approx(sample_r["sum"])


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["c", "h"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    max_size=30,
)


class TestMergeAlgebra:
    """Merging drained deltas must not depend on how they interleave —
    the property that makes the pool's worker → head metric shipping
    correct regardless of completion order."""

    @given(ops_a=_OPS, ops_b=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes(self, ops_a, ops_b):
        a, b = MetricsRegistry(), MetricsRegistry()
        _apply(a, ops_a)
        _apply(b, ops_b)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a.collect(run_hooks=False))
        ab.merge(b.collect(run_hooks=False))
        ba.merge(b.collect(run_hooks=False))
        ba.merge(a.collect(run_hooks=False))
        _assert_totals_close(_totals(ab), _totals(ba))

    @given(ops_a=_OPS, ops_b=_OPS, ops_c=_OPS)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, ops_a, ops_b, ops_c):
        def build(ops):
            registry = MetricsRegistry()
            _apply(registry, ops)
            return registry.collect(run_hooks=False)

        left, right = MetricsRegistry(), MetricsRegistry()
        # (a + b) + c
        inner = MetricsRegistry()
        inner.merge(build(ops_a))
        inner.merge(build(ops_b))
        left.merge(inner.collect(run_hooks=False))
        left.merge(build(ops_c))
        # a + (b + c)
        inner = MetricsRegistry()
        inner.merge(build(ops_b))
        inner.merge(build(ops_c))
        right.merge(build(ops_a))
        right.merge(inner.collect(run_hooks=False))
        _assert_totals_close(_totals(left), _totals(right))

    @given(ops=_OPS)
    @settings(max_examples=40, deadline=None)
    def test_drain_partitions_the_stream(self, ops):
        """drain() then merge() equals never having drained: successive
        deltas partition the observation stream exactly."""
        direct = MetricsRegistry()
        _apply(direct, ops)
        chunked = MetricsRegistry()
        head = MetricsRegistry()
        for index, op in enumerate(ops):
            _apply(chunked, [op])
            if index % 3 == 2:
                head.merge(chunked.drain())
        head.merge(chunked.drain())
        _assert_totals_close(_totals(head), _totals(direct))
