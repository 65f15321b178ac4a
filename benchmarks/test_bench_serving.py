"""Bench: the micro-batching service against a raw sequential loop.

The dispatcher gathers concurrent queries into blocks (the unit of
dispatch) and answers each block query by query on the sequential
frontier engines, so the service's cost over a plain
``LACA.scores`` + ``top_k_cluster`` loop is scheduling and bookkeeping
alone.  The headline gate runs at the paper's reference scale — the
fig10 arxiv graph at scale 21 (n ≈ 168k), ε = 1e-6 — with 256 requests
in flight: blocks must really form (mean occupancy > 1) and the service
must keep at least 0.8× the raw loop's wall-clock seeds/s on the same
seeds.  On a host with two or more usable cores a second gate asks
more: the dispatcher splits each block across one engine thread per
core, so the same 256 in flight must beat the raw single-thread loop
by 1.2x.  The result cache is disabled throughout so the comparison
measures scheduling, not memoization.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.laca import top_k_cluster
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset
from repro.serving import ClusterService
from repro.serving.service import _usable_cores

N_THREADS = 8
N_SEEDS = 128
CLUSTER_SIZE = 20


@pytest.fixture(scope="module")
def setup(bench_scale):
    graph = load_dataset("arxiv", scale=bench_scale)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = np.random.default_rng(0).choice(graph.n, size=N_SEEDS, replace=False)
    seeds = [int(seed) for seed in seeds]
    for seed in seeds[:8]:  # warm caches
        model.cluster(seed, CLUSTER_SIZE)
    return model, seeds


def _serve_once(model, seeds):
    """One closed-loop run: N_THREADS submitters over disjoint seed shards."""
    with ClusterService(
        model, max_batch=N_THREADS, max_wait_s=0.001, cache_size=0
    ) as service:
        shards = [seeds[offset::N_THREADS] for offset in range(N_THREADS)]

        def worker(shard):
            for seed in shard:
                service.cluster(seed, CLUSTER_SIZE)

        threads = [
            threading.Thread(target=worker, args=(shard,)) for shard in shards
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = service.stats()
    return len(seeds) / elapsed, stats


def test_bench_serving_throughput(benchmark, setup):
    model, seeds = setup
    rate, _stats = benchmark.pedantic(
        _serve_once, args=(model, seeds), rounds=1, iterations=1
    )
    assert rate > 0.0


def test_telemetry_accounts_every_request(setup):
    model, seeds = setup
    _rate, stats = _serve_once(model, seeds)
    assert stats["engine_served"] == N_SEEDS
    assert stats["requests"] == N_SEEDS
    assert stats["p95_latency_s"] >= stats["p50_latency_s"] > 0.0


#: The paper's reference operating point: fig10's arxiv analog at scale
#: 21 (n ≈ 168k, the real ogbn-arxiv's size) at LacaConfig's default ε.
REFERENCE_SCALE = 21.0
IN_FLIGHT = 256
REFERENCE_BATCH = 32
REFERENCE_SIZE = 50
REFERENCE_REPEATS = 2
#: Share of the raw loop's seeds/s the service must keep.
PACE_RATIO = 0.8


@pytest.fixture(scope="module")
def reference_setup():
    graph = load_dataset("arxiv", scale=REFERENCE_SCALE)
    model = LACA(LacaConfig(diffusion="greedy")).fit(graph)
    seeds = np.random.default_rng(0).choice(graph.n, size=IN_FLIGHT, replace=False)
    return model, [int(seed) for seed in seeds]


def _raw_loop_rate(model, seeds):
    """Wall-clock seeds/s of the bare compute: scores + top-k on one
    reused workspace, no scheduling, footprint or telemetry."""
    workspace = model.make_workspace()
    start = time.perf_counter()
    for seed in seeds:
        result = model.scores(seed, workspace=workspace)
        top_k_cluster(
            result.scores, REFERENCE_SIZE, seed, support=result.scores_support
        )
    return len(seeds) / (time.perf_counter() - start)


def _in_flight_rate(model, seeds):
    """Wall-clock seeds/s with every seed submitted at once."""
    with ClusterService(model, max_batch=REFERENCE_BATCH, cache_size=0) as service:
        start = time.perf_counter()
        futures = service.submit_many(seeds, REFERENCE_SIZE)
        for future in futures:
            future.result()
        elapsed = time.perf_counter() - start
        stats = service.stats()
    return len(seeds) / elapsed, stats


def test_service_keeps_pace_with_raw_loop_at_reference_scale(reference_setup):
    """Acceptance bar: 256 requests in flight form real blocks and reach
    at least 0.8x the raw loop's wall-clock seeds/s on the same seeds."""
    model, seeds = reference_setup
    _raw_loop_rate(model, seeds[:8])  # warm
    raw, served, stats = 0.0, 0.0, None
    for _ in range(REFERENCE_REPEATS):  # alternate sides against drift
        raw = max(raw, _raw_loop_rate(model, seeds))
        rate, run_stats = _in_flight_rate(model, seeds)
        if rate > served:
            served, stats = rate, run_stats
    assert stats["mean_batch_occupancy"] > 1.0, stats
    assert served >= PACE_RATIO * raw, (
        f"service {served:.1f} seeds/s vs raw loop {raw:.1f} seeds/s "
        f"(occupancy {stats['mean_batch_occupancy']:.2f})"
    )


#: Multiple of the raw single-thread loop's seeds/s the service must
#: reach once its blocks split across engine threads.
SPLIT_RATIO = 1.2


@pytest.mark.skipif(
    _usable_cores() < 2,
    reason="one usable core: every block is answered on the dispatcher alone",
)
def test_split_blocks_beat_raw_loop_at_reference_scale(reference_setup):
    """With two or more usable cores, 256 requests in flight through
    ``ClusterService(max_batch=32)`` reach at least 1.2x the raw loop."""
    model, seeds = reference_setup
    _raw_loop_rate(model, seeds[:8])  # warm
    raw, served, stats = 0.0, 0.0, None
    for _ in range(REFERENCE_REPEATS):  # alternate sides against drift
        raw = max(raw, _raw_loop_rate(model, seeds))
        rate, run_stats = _in_flight_rate(model, seeds)
        if rate > served:
            served, stats = rate, run_stats
    assert served >= SPLIT_RATIO * raw, (
        f"service {served:.1f} seeds/s vs raw loop {raw:.1f} seeds/s on "
        f"{_usable_cores()} usable cores "
        f"(occupancy {stats['mean_batch_occupancy']:.2f})"
    )
