"""Tests for the high-level LACA pipeline API."""

import numpy as np
import pytest

from repro.attributes.tnam import TNAM
from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.eval.metrics import precision
from repro.graphs.datasets import dataset_names, load_dataset
from repro.graphs.graph import AttributedGraph

ENGINES = ["greedy", "nongreedy", "adaptive", "push"]

#: Graph/config variants the many-seed entry points must agree on:
#: attributed with SNAS, the w/o-SNAS ablation, and a non-attributed graph.
VARIANTS = {
    "snas": ("small_sbm", {}),
    "no-snas": ("small_sbm", {"use_snas": False}),
    "plain": ("plain_graph", {}),
}


class TestLifecycle:
    def test_fit_then_cluster(self, small_sbm):
        model = LACA(metric="cosine", k=8).fit(small_sbm)
        cluster = model.cluster(seed=0, size=15)
        assert cluster.shape == (15,)
        assert 0 in cluster

    def test_query_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            LACA().scores(0)

    def test_preprocessing_timed(self, small_sbm):
        model = LACA(metric="cosine").fit(small_sbm)
        assert model.preprocessing_seconds >= 0.0
        assert model.tnam is not None

    def test_no_tnam_without_snas(self, small_sbm):
        model = LACA(use_snas=False).fit(small_sbm)
        assert model.tnam is None
        assert model.cluster(0, 10).shape == (10,)

    def test_no_tnam_on_plain_graph(self, plain_graph):
        model = LACA(metric="cosine").fit(plain_graph)
        assert model.tnam is None
        assert model.cluster(0, 10).shape == (10,)

    def test_refit_replaces_state(self, small_sbm, plain_graph):
        model = LACA().fit(small_sbm)
        assert model.tnam is not None
        model.fit(plain_graph)
        assert model.tnam is None
        assert model.graph is plain_graph


class TestConfigPlumbing:
    def test_overrides_applied(self):
        model = LACA(metric="exp_cosine", alpha=0.9, k=16)
        assert model.config.metric == "exp_cosine"
        assert model.config.alpha == 0.9
        assert model.config.k == 16

    def test_explicit_config(self):
        config = LacaConfig(alpha=0.5)
        assert LACA(config).config.alpha == 0.5

    def test_config_plus_overrides(self):
        config = LacaConfig(alpha=0.5)
        model = LACA(config, metric="exp_cosine")
        assert model.config.alpha == 0.5
        assert model.config.metric == "exp_cosine"

    def test_invalid_config_rejected_on_construction(self):
        with pytest.raises(ValueError):
            LACA(alpha=2.0)

    def test_describe(self):
        assert LACA(metric="cosine").describe() == "LACA (C)"
        assert LACA(metric="exp_cosine").describe() == "LACA (E)"
        assert LACA(use_snas=False).describe() == "LACA (w/o SNAS)"


class TestQuality:
    def test_recovers_planted_cluster(self, small_sbm):
        """On an easy SBM, LACA should recover most of the community."""
        model = LACA(metric="cosine", k=16).fit(small_sbm)
        hits = []
        for seed in [0, 25, 60]:
            truth = small_sbm.ground_truth_cluster(seed)
            predicted = model.cluster(seed, truth.shape[0])
            hits.append(precision(predicted, truth))
        assert np.mean(hits) > 0.7

    def test_attributes_help_under_noise(self, medium_sbm):
        """LACA with SNAS beats the attribute-free ablation when edges
        are noisy but attributes carry signal (the paper's core claim)."""
        with_attrs = LACA(metric="cosine", k=16).fit(medium_sbm)
        without = LACA(use_snas=False).fit(medium_sbm)
        rng = np.random.default_rng(1)
        seeds = rng.choice(medium_sbm.n, size=10, replace=False)

        def mean_precision(model):
            values = []
            for seed in seeds:
                truth = medium_sbm.ground_truth_cluster(int(seed))
                predicted = model.cluster(int(seed), truth.shape[0])
                values.append(precision(predicted, truth))
            return np.mean(values)

        assert mean_precision(with_attrs) > mean_precision(without)

    def test_score_vector_matches_scores(self, small_sbm):
        model = LACA(metric="cosine", k=8).fit(small_sbm)
        assert np.array_equal(model.score_vector(3), model.scores(3).scores)


class TestBatchAPI:
    def test_cluster_many_fixed_size(self, small_sbm):
        model = LACA(metric="cosine", k=8).fit(small_sbm)
        clusters = model.cluster_many([0, 5, 9], size=12)
        assert set(clusters) == {0, 5, 9}
        for seed, cluster in clusters.items():
            assert cluster.shape == (12,)
            assert seed in cluster

    def test_cluster_many_ground_truth_sizes(self, small_sbm):
        model = LACA(metric="cosine", k=8).fit(small_sbm)
        clusters = model.cluster_many([0, 5])
        for seed, cluster in clusters.items():
            truth = small_sbm.ground_truth_cluster(seed)
            assert cluster.shape[0] == truth.shape[0]

    @pytest.fixture(params=list(VARIANTS))
    def variant(self, request):
        fixture, overrides = VARIANTS[request.param]
        return request.getfixturevalue(fixture), overrides

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cluster_many_matches_single_queries(self, variant, engine):
        graph, overrides = variant
        model = LACA(metric="cosine", k=8, diffusion=engine, **overrides).fit(graph)
        seeds = [2, 4, 33, 4]  # the duplicate is answered once, identically
        batch = model.cluster_many(seeds, size=10)
        assert sorted(batch) == [2, 4, 33]
        for seed in seeds:
            assert np.array_equal(batch[seed], model.cluster(seed, 10))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_scores_batch_matches_single_queries(self, variant, engine):
        graph, overrides = variant
        model = LACA(metric="cosine", k=8, diffusion=engine, **overrides).fit(graph)
        seeds = [2, 4, 33, 4]
        results = model.scores_batch(seeds)
        assert [result.seed for result in results] == seeds
        for seed, result in zip(seeds, results):
            single = model.scores(seed)
            assert np.array_equal(result.scores, single.scores)
            assert np.array_equal(result.scores_support, single.scores_support)
        # Results are fresh arrays, not views into one shared workspace.
        assert results[1].scores is not results[3].scores
        assert np.array_equal(results[1].scores, results[3].scores)

    def test_clusters_equal_sequential_cluster_many(self, medium_sbm):
        """Ground-truth-sized ``cluster_many`` == per-seed ``cluster``."""
        model = LACA(metric="cosine", k=16, diffusion="greedy").fit(medium_sbm)
        rng = np.random.default_rng(3)
        seeds = [int(s) for s in rng.choice(medium_sbm.n, size=12, replace=False)]
        clusters = model.cluster_many(seeds)
        assert sorted(clusters) == sorted(seeds)
        for seed in seeds:
            size = medium_sbm.ground_truth_cluster(seed).shape[0]
            np.testing.assert_array_equal(clusters[seed], model.cluster(seed, size))

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_registered_datasets_identical_clusters(self, dataset):
        """Both many-seed entry points == per-seed ``cluster`` on every
        registered dataset, at each seed's ground-truth size."""
        graph = load_dataset(dataset, scale=0.05)
        model = LACA(metric="cosine", k=8, diffusion="greedy").fit(graph)
        rng = np.random.default_rng(0)
        seeds = [int(s) for s in rng.choice(graph.n, size=4, replace=False)]
        clusters = model.cluster_many(seeds)
        for seed, result in zip(seeds, model.scores_batch(seeds)):
            size = graph.ground_truth_cluster(seed).shape[0]
            single = model.cluster(seed, size)
            np.testing.assert_array_equal(result.cluster(size), single)
            np.testing.assert_array_equal(clusters[seed], single)

    @pytest.mark.parametrize("call", ["cluster_many", "scores_batch"])
    def test_many_seed_calls_require_fit(self, call):
        with pytest.raises(RuntimeError, match="fit"):
            getattr(LACA(), call)([0, 1])

    def test_out_of_range_seed(self, small_sbm):
        model = LACA(metric="cosine", k=8).fit(small_sbm)
        with pytest.raises(IndexError, match="out of range"):
            model.scores_batch([0, small_sbm.n])
        with pytest.raises(IndexError, match="out of range"):
            model.cluster_many([0, small_sbm.n], size=5)

    def test_zero_snas_mass_seed(self):
        """A seed whose whole RWR support has zero TNAM rows gets ψ = 0,
        hence φ′ = 0 (Eq. 13): Step 3 is skipped and every score is zero,
        while a live seed on the same model is unaffected."""
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = AttributedGraph.from_edges(
            6, edges, attributes=np.ones((6, 2)),
            communities=np.array([0, 0, 0, 1, 1, 1]), name="triangles",
        )
        model = LACA(metric="cosine", k=2, epsilon=1e-3).fit(graph)
        z = np.ones((6, 2))
        z[[0, 1, 2]] = 0.0
        model.tnam = TNAM(z=z, metric="cosine", k=2)
        dead, live = model.scores_batch([0, 4])
        assert dead.scores.sum() == 0.0 and dead.support_size == 0
        assert live.scores.sum() > 0.0
        clusters = model.cluster_many([0, 4], size=3)
        assert 0 in clusters[0]
        for seed in (0, 4):
            assert np.array_equal(clusters[seed], model.cluster(seed, 3))


class TestFitState:
    def test_round_trip_in_memory(self, small_sbm):
        model = LACA(metric="cosine", k=8).fit(small_sbm)
        rebuilt = LACA.from_fit_state(model.fit_state(), small_sbm)
        assert rebuilt.config == model.config
        np.testing.assert_array_equal(rebuilt.tnam.z, model.tnam.z)
        np.testing.assert_array_equal(
            rebuilt.cluster(0, 15), model.cluster(0, 15)
        )

    def test_state_is_savez_ready(self, small_sbm):
        state = LACA(metric="cosine", k=8).fit(small_sbm).fit_state()
        for key, value in state.items():
            assert isinstance(value, np.ndarray), key
            assert value.dtype != object, key

    def test_unfitted_model_has_no_state(self):
        with pytest.raises(RuntimeError, match="fit"):
            LACA().fit_state()

    def test_unsupported_version_rejected(self, small_sbm):
        state = LACA(k=8).fit(small_sbm).fit_state()
        state["format_version"] = np.asarray(999)
        with pytest.raises(ValueError, match="version 999"):
            LACA.from_fit_state(state, small_sbm)

    def test_graph_size_mismatch_rejected(self, small_sbm, plain_graph):
        state = LACA(k=8).fit(small_sbm).fit_state()
        with pytest.raises(ValueError, match="n="):
            LACA.from_fit_state(state, plain_graph)

    def test_missing_config_key_uses_default(self, small_sbm):
        # Forward compatibility: states written before a knob existed
        # fall back to that knob's default.
        state = LACA(k=8).fit(small_sbm).fit_state()
        del state["config_sigma"]
        rebuilt = LACA.from_fit_state(state, small_sbm)
        assert rebuilt.config.sigma == LacaConfig().sigma
        assert rebuilt.config.k == 8
