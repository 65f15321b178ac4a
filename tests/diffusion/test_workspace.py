"""DiffusionWorkspace: buffer recycling, reuse parity, allocation behavior.

The workspace's contract is that reuse is *invisible*: any sequence of
queries through one workspace yields bitwise the results of fresh-buffer
runs, because ``begin()`` restores every buffer to its pristine state in
O(touched).  These tests drive mixed engine/input/epsilon sequences
through a single workspace and hold it to that contract, plus the
zero-length-``n``-allocation claim for steady-state local queries.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.laca import laca_scores
from repro.core.pipeline import LACA
from repro.diffusion.adaptive import adaptive_diffuse
from repro.diffusion.greedy import greedy_diffuse
from repro.diffusion.nongreedy import nongreedy_diffuse
from repro.diffusion.push import push_diffuse
from repro.diffusion.workspace import DiffusionWorkspace, sorted_union
from repro.graphs.generators import SBMConfig, attributed_sbm
from repro.obs.metrics import MetricsRegistry
from repro.serving.service import answer_block
from repro.serving.telemetry import make_engine_metrics

ENGINES = {
    "greedy": greedy_diffuse,
    "nongreedy": nongreedy_diffuse,
    "adaptive": adaptive_diffuse,
    "push": push_diffuse,
}


@pytest.fixture(scope="module")
def graph():
    return attributed_sbm(
        SBMConfig(n=150, n_communities=3, avg_degree=8.0, d=8),
        seed=1,
        name="ws-graph",
    )


def _one_hot(n, i):
    f = np.zeros(n)
    f[i] = 1.0
    return f


class TestReuseParity:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_consecutive_queries_match_fresh_runs(self, graph, engine):
        """Two consecutive queries through one workspace match
        fresh-allocation results bitwise (the satellite requirement)."""
        fn = ENGINES[engine]
        ws = DiffusionWorkspace(graph)
        for seed in (3, 77):
            fresh = fn(graph, _one_hot(graph.n, seed), 0.8, 1e-4)
            ws.begin()
            reused = fn(graph, _one_hot(graph.n, seed), 0.8, 1e-4, workspace=ws)
            assert np.array_equal(reused.q, fresh.q)
            assert np.array_equal(reused.residual, fresh.residual)

    def test_mixed_engine_epsilon_sequence(self, graph):
        """Interleaving engines and thresholds cannot leak state."""
        ws = DiffusionWorkspace(graph)
        sequence = [
            ("greedy", 5, 1e-3),
            ("adaptive", 9, 1e-5),
            ("push", 5, 1e-3),
            ("nongreedy", 120, 1e-4),
            ("greedy", 5, 1e-5),
        ]
        for engine, seed, epsilon in sequence:
            fn = ENGINES[engine]
            fresh = fn(graph, _one_hot(graph.n, seed), 0.8, epsilon)
            ws.begin()
            reused = fn(graph, _one_hot(graph.n, seed), 0.8, epsilon, workspace=ws)
            assert np.array_equal(reused.q, fresh.q), (engine, seed, epsilon)
            assert np.array_equal(reused.residual, fresh.residual)

    def test_laca_scores_reuse_matches_fresh(self, graph):
        config = LacaConfig(metric="cosine", k=8, diffusion="adaptive", epsilon=1e-4)
        model = LACA(config).fit(graph)
        ws = model.make_workspace()
        for seed in (0, 42, 0, 99):
            fresh = laca_scores(graph, seed, config=config, tnam=model.tnam)
            reused = laca_scores(
                graph, seed, config=config, tnam=model.tnam, workspace=ws
            )
            assert np.array_equal(fresh.scores, reused.scores)
            assert np.array_equal(fresh.cluster(12), reused.cluster(12))

    def test_pipeline_cluster_with_workspace(self, graph):
        model = LACA(LacaConfig(metric="cosine", k=8, epsilon=1e-4)).fit(graph)
        ws = model.make_workspace()
        for seed in (1, 2, 3):
            plain = model.cluster(seed, 10)
            reused = model.cluster(seed, 10, workspace=ws)
            np.testing.assert_array_equal(plain, reused)
            # clusters are fresh arrays, never workspace views
            assert reused.base is None or reused.base is not ws.scores


class TestBufferHygiene:
    def test_begin_restores_pristine_buffers(self, graph):
        ws = DiffusionWorkspace(graph)
        ws.begin()
        greedy_diffuse(graph, _one_hot(graph.n, 3), 0.8, 1e-5, workspace=ws)
        ws.begin()
        for slot in ws._slots:
            assert not slot.q.any()
            assert not slot.r.any()
            assert not slot.seen.any()
        assert not ws.input.any()
        assert not ws.scores.any()
        assert not ws.in_queue.any()
        assert not ws.staging.any()

    def test_laca_query_then_begin_is_clean(self, graph):
        config = LacaConfig(metric="cosine", k=8, epsilon=1e-4)
        model = LACA(config).fit(graph)
        ws = model.make_workspace()
        laca_scores(graph, 7, config=config, tnam=model.tnam, workspace=ws)
        ws.begin()
        for slot in ws._slots:
            assert not slot.q.any() and not slot.r.any() and not slot.seen.any()
        assert not ws.input.any() and not ws.scores.any()

    def test_third_acquire_raises(self, graph):
        ws = DiffusionWorkspace(graph)
        ws.begin()
        greedy_diffuse(graph, _one_hot(graph.n, 1), 0.8, 1e-3, workspace=ws)
        greedy_diffuse(graph, _one_hot(graph.n, 2), 0.8, 1e-3, workspace=ws)
        with pytest.raises(RuntimeError, match="exhausted"):
            greedy_diffuse(graph, _one_hot(graph.n, 3), 0.8, 1e-3, workspace=ws)

    def test_push_failure_leaves_flags_clean(self, graph):
        ws = DiffusionWorkspace(graph)
        ws.begin()
        with pytest.raises(RuntimeError, match="exceeded"):
            push_diffuse(
                graph, _one_hot(graph.n, 0), 0.8, 1e-7, max_pushes=3, workspace=ws
            )
        assert not ws.in_queue.any()


@pytest.fixture(scope="module")
def big_model():
    big = attributed_sbm(
        SBMConfig(n=40_000, n_communities=10, avg_degree=6.0, d=8),
        seed=3,
        name="ws-big",
    )
    config = LacaConfig(
        metric="cosine", k=8, diffusion="greedy", epsilon=1e-3
    )
    return LACA(config).fit(big)


def _length_n_blocks(snapshot, n):
    """Traces at least half a float64 length-``n`` buffer in size."""
    threshold = n * 8 // 2
    return [trace for trace in snapshot.traces if trace.size >= threshold]


class TestZeroAllocationHotPath:
    def test_local_query_allocates_no_length_n_arrays(self, big_model):
        """A steady-state query in the local regime must not allocate any
        length-``n`` array (the PR 3 serving contract)."""
        model = big_model
        big = model.graph
        ws = model.make_workspace()
        model.cluster(11, 8, workspace=ws)  # warm: caches and pools settled
        result = laca_scores(
            big, 12, config=model.config, tnam=model.tnam, workspace=ws
        )
        # ε=1e-3 bounds the touched volume at 5000 ≪ n/8: every scatter
        # stays on the zero-allocation unique route.
        assert 8 < result.scores_support.size < big.n // 8
        tracemalloc.start()
        try:
            model.cluster(13, 8, workspace=ws)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        big_blocks = _length_n_blocks(snapshot, big.n)
        assert not big_blocks, (
            f"hot path allocated {len(big_blocks)} length-n-scale block(s)"
        )

    def test_answer_block_allocates_no_length_n_arrays(self, big_model):
        """The serving compute path keeps the contract for a whole block:
        engine, top-k, cache footprint and introspection for 4 local
        queries allocate nothing of length ``n``."""
        model = big_model
        ws = model.make_workspace()
        engine_metrics = make_engine_metrics(MetricsRegistry("laca"))
        answer_block(model, ws, [11, 12, 13, 14], [8] * 4, engine_metrics)  # warm
        tracemalloc.start()
        try:
            clusters, supports, _seconds = answer_block(
                model, ws, [15, 16, 17, 18], [8] * 4, engine_metrics
            )
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert [cluster.size for cluster in clusters] == [8] * 4
        assert all(8 < support.size < model.graph.n // 8 for support in supports)
        big_blocks = _length_n_blocks(snapshot, model.graph.n)
        assert not big_blocks, (
            f"answer_block allocated {len(big_blocks)} length-n-scale block(s)"
        )

    def test_cluster_many_allocates_no_length_n_array_per_seed(self, big_model):
        """``cluster_many`` is a loop over one workspace: past that
        workspace's own buffers, 16 local queries raise the traced peak
        by less than half a length-``n`` float array (an ``n × B`` block
        would add ``8·n·B`` bytes per block-sized buffer)."""
        model = big_model
        n = model.graph.n
        seeds = list(range(20, 36))
        model.cluster_many(seeds[:2], size=8)  # warm: caches and pools settled
        tracemalloc.start()
        try:
            model.make_workspace()
            workspace_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            clusters = model.cluster_many(seeds, size=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(clusters) == seeds
        assert peak - workspace_bytes < n * 8 // 2, (
            f"cluster_many over {len(seeds)} seeds peaked "
            f"{peak - workspace_bytes} bytes above one workspace (n={n})"
        )


class TestSortedUnion:
    def test_matches_union1d(self, rng):
        for _ in range(20):
            a = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)))
            b = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)))
            np.testing.assert_array_equal(sorted_union(a, b), np.union1d(a, b))

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_union(empty, empty).size == 0
        np.testing.assert_array_equal(
            sorted_union(empty, np.array([3, 5])), np.array([3, 5])
        )
