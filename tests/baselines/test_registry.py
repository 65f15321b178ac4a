"""Tests for the method registry and the common baseline interface."""

import numpy as np
import pytest

from repro.baselines.base import LocalClusteringMethod
from repro.baselines.registry import (
    METHOD_FACTORIES,
    make_method,
    method_names,
    methods_in_category,
)


class TestRegistry:
    def test_competitor_count(self):
        """17 competitors (embedding ones × 3 modes) + 3 LACA variants."""
        names = method_names()
        laca = [name for name in names if name.startswith("LACA")]
        assert len(laca) == 3
        # 6 LGC + 4 link + 3 attr + 4 embeddings × 3 modes = 25 competitor
        # entries, mirroring Table V's row structure.
        assert len(names) - len(laca) == 25

    def test_make_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown method"):
            make_method("GraphZeppelin")

    def test_all_methods_instantiate(self):
        for name in method_names():
            method = make_method(name)
            assert isinstance(method, LocalClusteringMethod)
            assert method.name == name

    def test_categories_cover_table_iv(self):
        assert set(methods_in_category("lgc")) == {
            "PR-Nibble", "APR-Nibble", "HK-Relax", "CRD", "p-Norm FD", "WFD",
        }
        assert set(methods_in_category("link")) == {
            "Jaccard", "Adamic-Adar", "Common-Nbrs", "SimRank",
        }
        assert set(methods_in_category("attr")) == {
            "SimAttr (C)", "SimAttr (E)", "AttriRank",
        }
        assert len(methods_in_category("embedding")) == 12
        assert len(methods_in_category("ours")) == 3

    def test_factories_are_fresh_instances(self):
        a = make_method("PR-Nibble")
        b = make_method("PR-Nibble")
        assert a is not b


class TestBaseInterface:
    def test_cluster_defaults_to_top_k(self, small_sbm):
        method = make_method("PR-Nibble").fit(small_sbm)
        scores = method.score_vector(0)
        cluster = method.cluster(0, 12)
        top = set(np.argsort(-scores)[:12])
        assert set(cluster) <= top | {0}

    def test_unfitted_query_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            make_method("PR-Nibble").score_vector(0)

    def test_laca_adapter_runs_end_to_end(self, small_sbm):
        method = make_method("LACA (C)").fit(small_sbm)
        cluster = method.cluster(0, 10)
        assert cluster.shape == (10,)
        assert method.category == "ours"

    def test_score_vector_batch_matches_sequential(self, small_sbm):
        # Element b of the default loop answers seeds[b], bitwise.
        for name in ("PR-Nibble", "LACA (C)"):
            method = make_method(name).fit(small_sbm)
            seeds = [0, 7, 33]
            vectors = method.score_vector_batch(seeds)
            assert len(vectors) == len(seeds)
            for seed, vector in zip(seeds, vectors):
                np.testing.assert_array_equal(vector, method.score_vector(seed))

    @pytest.mark.parametrize("name", method_names())
    def test_cluster_batch_matches_per_seed_cluster(self, small_sbm, name):
        """The default many-seed loops (what CLI ``--batch`` calls) answer
        element b for seeds[b], bitwise, duplicates included."""
        method = make_method(name).fit(small_sbm)
        seeds, sizes = [0, 7, 33, 7], [10, 5, 12, 5]
        clusters = method.cluster_batch(seeds, sizes)
        assert len(clusters) == len(seeds)
        for seed, size, cluster in zip(seeds, sizes, clusters):
            np.testing.assert_array_equal(cluster, method.cluster(seed, size))
        vectors = method.score_vector_batch(seeds)
        for seed, vector in zip(seeds, vectors):
            np.testing.assert_array_equal(vector, method.score_vector(seed))
