"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.baselines.pr_nibble import PRNibble
from repro.eval.harness import (
    MethodEvaluation,
    evaluate_many,
    evaluate_method,
    grid_search,
    sample_seeds,
)


class TestSampleSeeds:
    def test_distinct_and_in_range(self, small_sbm):
        seeds = sample_seeds(small_sbm, 30)
        assert np.unique(seeds).shape[0] == 30
        assert seeds.min() >= 0 and seeds.max() < small_sbm.n

    def test_clamps_to_n(self, tiny_graph):
        assert sample_seeds(tiny_graph, 100).shape[0] == 6

    def test_deterministic_default(self, small_sbm):
        assert np.array_equal(sample_seeds(small_sbm, 5), sample_seeds(small_sbm, 5))


class TestEvaluateMethod:
    def test_by_name(self, small_sbm):
        seeds = sample_seeds(small_sbm, 5)
        evaluation = evaluate_method(small_sbm, "PR-Nibble", seeds)
        assert evaluation.method == "PR-Nibble"
        assert evaluation.dataset == "small-sbm"
        assert len(evaluation.precisions) == 5
        assert 0.0 <= evaluation.mean_precision <= 1.0
        assert evaluation.mean_online_seconds > 0.0

    def test_by_instance(self, small_sbm):
        seeds = sample_seeds(small_sbm, 3)
        evaluation = evaluate_method(small_sbm, PRNibble(), seeds)
        assert len(evaluation.recalls) == 3

    def test_quality_metrics_optional(self, small_sbm):
        seeds = sample_seeds(small_sbm, 3)
        without = evaluate_method(small_sbm, "PR-Nibble", seeds)
        assert without.conductances == []
        with_quality = evaluate_method(
            small_sbm, "PR-Nibble", seeds, compute_quality=True
        )
        assert len(with_quality.conductances) == 3
        assert len(with_quality.wcss_values) == 3

    def test_laca_preprocessing_time_recorded(self, small_sbm):
        seeds = sample_seeds(small_sbm, 2)
        evaluation = evaluate_method(small_sbm, "LACA (C)", seeds)
        assert evaluation.preprocessing_seconds > 0.0

    def test_as_row_schema(self, small_sbm):
        seeds = sample_seeds(small_sbm, 2)
        row = evaluate_method(small_sbm, "PR-Nibble", seeds).as_row()
        assert set(row) == {
            "method", "dataset", "precision", "recall", "conductance",
            "wcss", "online_s", "p50_online_s", "p95_online_s",
            "preprocess_s", "throughput_seeds_per_s",
        }

    def test_empty_evaluation_means_zero(self):
        evaluation = MethodEvaluation(method="x", dataset="y")
        assert evaluation.mean_precision == 0.0
        assert evaluation.mean_online_seconds == 0.0
        assert evaluation.throughput_seeds_per_s == 0.0
        assert evaluation.p50_online_seconds == 0.0
        assert evaluation.p95_online_seconds == 0.0

    def test_latency_percentiles(self):
        evaluation = MethodEvaluation(
            method="x", dataset="y", online_seconds=[0.1, 0.2, 0.3]
        )
        assert evaluation.p50_online_seconds == pytest.approx(0.2)
        assert evaluation.p95_online_seconds == pytest.approx(0.29)
        row = evaluation.as_row()
        assert row["p50_online_s"] == pytest.approx(0.2)
        assert row["p95_online_s"] == pytest.approx(0.29)


class TestThroughput:
    def test_throughput_is_inverse_mean_online(self):
        evaluation = MethodEvaluation(
            method="x", dataset="y", online_seconds=[0.5, 0.25, 0.25]
        )
        assert evaluation.total_online_seconds == 1.0
        assert evaluation.throughput_seeds_per_s == pytest.approx(3.0)

    def test_throughput_in_row(self, small_sbm):
        seeds = sample_seeds(small_sbm, 3)
        row = evaluate_method(small_sbm, "PR-Nibble", seeds).as_row()
        assert row["throughput_seeds_per_s"] > 0.0


class TestEvaluateMany:
    def test_multiple_methods(self, small_sbm):
        seeds = sample_seeds(small_sbm, 3)
        results = evaluate_many(small_sbm, ["PR-Nibble", "Jaccard"], seeds)
        assert [r.method for r in results] == ["PR-Nibble", "Jaccard"]


class TestGridSearch:
    def test_picks_best_precision(self, small_sbm):
        seeds = sample_seeds(small_sbm, 5)
        params, evaluation = grid_search(
            small_sbm,
            lambda alpha: PRNibble(alpha=alpha),
            {"alpha": [0.1, 0.8]},
            seeds,
        )
        assert params["alpha"] in (0.1, 0.8)
        # The chosen one must be at least as good as the alternative.
        other = 0.8 if params["alpha"] == 0.1 else 0.1
        other_eval = evaluate_method(small_sbm, PRNibble(alpha=other), seeds)
        assert evaluation.mean_precision >= other_eval.mean_precision

    def test_empty_grid_raises(self, small_sbm):
        seeds = sample_seeds(small_sbm, 2)
        with pytest.raises(AssertionError, match="empty"):
            grid_search(small_sbm, PRNibble, {"alpha": []}, seeds)
