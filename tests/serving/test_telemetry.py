"""Tests for the telemetry accumulator and its stats snapshot."""

import numpy as np

from repro.eval.harness import latency_percentile
from repro.obs.metrics import WINDOW_SIZE
from repro.serving import ServiceTelemetry


class TestServiceTelemetry:
    def test_empty_snapshot_is_all_zero(self):
        stats = ServiceTelemetry().snapshot()
        assert stats["requests"] == 0
        assert stats["batches"] == 0
        assert stats["mean_batch_occupancy"] == 0.0
        assert stats["seeds_per_s"] == 0.0
        assert stats["p50_latency_s"] == 0.0
        assert stats["p95_latency_s"] == 0.0

    def test_occupancy_and_throughput(self):
        telemetry = ServiceTelemetry()
        telemetry.record_batch(4, engine_seconds=0.1)
        telemetry.record_batch(2, engine_seconds=0.1)
        stats = telemetry.snapshot()
        assert stats["batches"] == 2
        assert stats["engine_served"] == 6
        assert stats["mean_batch_occupancy"] == 3.0
        assert stats["max_batch_occupancy"] == 4
        assert stats["seeds_per_s"] == 30.0

    def test_latency_percentiles_match_harness_helper(self):
        telemetry = ServiceTelemetry()
        samples = [0.01, 0.02, 0.03, 0.04, 0.4]
        for value in samples:
            telemetry.record_latency(value)
        stats = telemetry.snapshot()
        assert stats["p50_latency_s"] == round(latency_percentile(samples, 50.0), 6)
        assert stats["p95_latency_s"] == round(latency_percentile(samples, 95.0), 6)

    def test_latency_window_is_bounded(self):
        telemetry = ServiceTelemetry()
        recent = [0.1 + 1e-4 * i for i in range(WINDOW_SIZE)]
        for value in [9.0, 9.0, 9.0] + recent:
            telemetry.record_latency(value)
        stats = telemetry.snapshot()
        # Only the last WINDOW_SIZE samples survive; the 9.0s outliers
        # pushed first rolled off (kept, they would shift the median).
        assert telemetry.metrics.request_seconds.window() == recent
        assert stats["p50_latency_s"] == round(latency_percentile(recent, 50.0), 6)
        assert stats["p95_latency_s"] == round(latency_percentile(recent, 95.0), 6)
        assert stats["p95_latency_s"] < 1.0
        # The exported histogram still counts every observation.
        assert telemetry.metrics.request_seconds.summary()["count"] == (
            WINDOW_SIZE + 3
        )

    def test_cache_and_error_counters(self):
        telemetry = ServiceTelemetry()
        telemetry.record_cache_hit()
        telemetry.record_cache_hit()
        telemetry.record_batch(1, engine_seconds=0.01)
        telemetry.record_error()
        stats = telemetry.snapshot()
        assert stats["cache_served"] == 2
        assert stats["requests"] == 3
        assert stats["errors"] == 1

    def test_worker_occupancy_keys_are_sorted_ints_and_counts_are_ints(self):
        """The registry labels workers with strings and counts in floats;
        stats() hands back int keys in numeric order ("10" sorts before
        "2" as a string) and int counts (the serve CLI prints JSON)."""
        telemetry = ServiceTelemetry()
        telemetry.record_batch(3, engine_seconds=0.01, worker_id=10)
        telemetry.record_batch(2, engine_seconds=0.01, worker_id=2)
        telemetry.record_batch(1, engine_seconds=0.01, worker_id=2)
        telemetry.record_error("engine")
        stats = telemetry.snapshot()
        assert list(stats["worker_occupancy"]) == [2, 10]
        assert stats["worker_occupancy"] == {
            2: {"batches": 2, "seeds": 3},
            10: {"batches": 1, "seeds": 3},
        }
        counts = [
            stats[key]
            for key in (
                "requests", "engine_served", "cache_served", "errors",
                "batches", "max_batch_occupancy", "updates", "shed",
                "deadline_misses", "worker_restarts", "block_retries",
                "wal_records", "entries_invalidated", "entries_promoted",
            )
        ]
        counts += list(stats["errors_by_kind"].values())
        counts += [
            value
            for worker in stats["worker_occupancy"].values()
            for value in worker.values()
        ]
        assert all(type(value) is int for value in counts)
        assert stats["max_batch_occupancy"] == 3


class TestLatencyPercentile:
    def test_empty_sample(self):
        assert latency_percentile([], 50.0) == 0.0

    def test_matches_numpy(self, rng):
        sample = rng.random(101)
        assert latency_percentile(sample, 95.0) == float(np.percentile(sample, 95.0))

    def test_median_of_odd_sample(self):
        assert latency_percentile([3.0, 1.0, 2.0], 50.0) == 2.0
