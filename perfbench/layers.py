"""Per-layer passes for the traced run.

The program is not instrumented for this: each pass times calls into one
layer's public functions from here, or reads the spans and counters the
program already exposes (``TraceLog`` records, ``stats()``, the kernel
tally).  Passes run outside the service, after the measured phases.
"""

from __future__ import annotations

import json
import time

import numpy as np
from repro import LACA, GraphDelta, GraphStore, greedy_diffuse, top_k_cluster
from repro.diffusion.base import begin_kernel_tally, end_kernel_tally
from repro.graphs import GraphWAL, publish_snapshot

from inputs import CLUSTER_SIZE
from measure import percentile


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _touched(diffusion) -> list[np.ndarray]:
    """Nodes one diffusion wrote to; an engine that fell back to a dense
    pass reports ``touched=None``, and then ``q``/``r`` non-zeros cover it."""
    if diffusion.touched is not None:
        return [diffusion.touched]
    return [np.flatnonzero(diffusion.q), np.flatnonzero(diffusion.residual)]


def _nonzero(diffusion) -> np.ndarray:
    """Sorted support of ``q``, found as ``laca_scores`` finds it."""
    if diffusion.touched is None:
        return np.flatnonzero(diffusion.q)
    return diffusion.touched[diffusion.q[diffusion.touched] != 0.0]


def _footprint(result) -> np.ndarray:
    """Sorted union of the nodes both diffusions of one query touched (the
    cache footprint), copied out of the workspace views."""
    merged = np.sort(np.concatenate(_touched(result.rwr) + _touched(result.bdd)))
    if merged.size:
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        merged = merged[keep]
    return merged


def three_steps(model, seed: int):
    """Algo 4's three steps called one by one, each timed.

    Step 1 diffuses the one-hot seed, Step 2 builds φ′ from π′ and the
    TNAM factor (Eqs. 12/13), Step 3 diffuses φ′ at threshold ε‖φ′‖₁ and
    divides by degrees.  Returns ``(ρ′, (rwr_s, snas_s, bdd_s))``.  The
    engines run without a workspace, so each step also pays its own
    length-``n`` buffers.
    """
    graph, config, tnam = model.graph, model.config, model.tnam
    n, degrees = graph.n, graph.degrees
    one_hot = np.zeros(n)
    one_hot[seed] = 1.0
    seed_index = np.array([seed], dtype=np.int64)
    phi = np.zeros(n)
    rho = np.zeros(n)

    started = time.perf_counter()
    rwr = greedy_diffuse(graph, one_hot, alpha=config.alpha,
                         epsilon=config.epsilon, f_support=seed_index)
    after_rwr = time.perf_counter()
    pi = rwr.q
    support = _nonzero(rwr)
    z_rows = tnam.z[support]
    psi = pi[support] @ z_rows
    phi[support] = np.maximum(z_rows @ psi, 0.0) * degrees[support]
    mass = float(phi.sum())
    after_snas = time.perf_counter()
    if mass > 0.0:
        bdd = greedy_diffuse(graph, phi, alpha=config.alpha,
                             epsilon=config.epsilon * mass, f_support=support)
        bdd_support = _nonzero(bdd)
        rho[bdd_support] = bdd.q[bdd_support] / degrees[bdd_support]
    after_bdd = time.perf_counter()
    return rho, (after_rwr - started, after_snas - after_rwr, after_bdd - after_snas)


def sequential_pass(model, seeds) -> tuple[dict, list[str]]:
    """``LACA.scores`` + ``top_k_cluster`` per seed on a workspace, with
    the kernel tally around each query, then the three steps one by one.

    Returns the per-layer metrics and the seeds whose step-by-step ρ′
    differs from ``LACA.scores`` bitwise (a correctness failure).
    """
    degrees = model.graph.degrees
    workspace = model.make_workspace()
    rows: dict[str, list[float]] = {
        key: [] for key in (
            "scores", "topk", "rwr", "snas", "bdd", "iterations",
            "touched", "support", "volume", "gather", "csc", "full",
        )
    }
    mismatches = []
    for seed in (int(s) for s in seeds):
        begin_kernel_tally()
        started = time.perf_counter()
        result = model.scores(seed, workspace=workspace)
        scored = time.perf_counter()
        kernels = end_kernel_tally()
        top_k_cluster(result.scores, CLUSTER_SIZE, seed,
                      support=result.scores_support)
        ranked = time.perf_counter()
        touched = _footprint(result)
        rows["scores"].append(_ms(scored - started))
        rows["topk"].append(_ms(ranked - scored))
        rows["iterations"].append(result.rwr.iterations + result.bdd.iterations)
        rows["touched"].append(touched.size)
        rows["support"].append(result.support_size)
        rows["volume"].append(float(degrees[touched].sum()))
        for kind in ("gather", "csc", "full"):
            rows[kind].append(kernels.get(kind, 0))
        served = np.array(result.scores)
        rho, steps = three_steps(model, seed)
        for key, seconds in zip(("rwr", "snas", "bdd"), steps):
            rows[key].append(_ms(seconds))
        if not np.array_equal(rho, served):
            mismatches.append(
                f"step-by-step rho' differs from LACA.scores for seed {seed}"
            )
    metrics = {
        "core.scores_ms.p50": percentile(rows["scores"], 50),
        "core.topk_ms.p50": percentile(rows["topk"], 50),
        "core.rwr_ms.p50": percentile(rows["rwr"], 50),
        "core.snas_ms.p50": percentile(rows["snas"], 50),
        "core.bdd_ms.p50": percentile(rows["bdd"], 50),
        "diffusion.iterations.p50": percentile(rows["iterations"], 50),
        "diffusion.touched_nodes.p50": percentile(rows["touched"], 50),
        "diffusion.score_support.p50": percentile(rows["support"], 50),
        "diffusion.touched_volume.p50": percentile(rows["volume"], 50),
    }
    for kind in ("gather", "csc", "full"):
        metrics[f"diffusion.kernel.{kind}"] = float(np.mean(rows[kind]))
    return metrics, mismatches


def block_pass(model, block) -> dict:
    """``LACA.scores_batch`` on one block, with the kernel tally around it."""
    begin_kernel_tally()
    started = time.perf_counter()
    model.scores_batch([int(s) for s in block])
    elapsed = time.perf_counter() - started
    kernels = end_kernel_tally()
    return {
        "core.scores_batch_ms_per_seed.p50": _ms(elapsed) / len(block),
        "diffusion.kernel.block_sparse": float(kernels.get("block_sparse", 0)),
        "diffusion.kernel.block_dense": float(kernels.get("block_dense", 0)),
    }


def store_pass(base_graph, base_state, deltas, wal_path) -> dict:
    """Replay a delta stream layer by layer: ``GraphWAL.append`` with
    fsync, ``GraphStore.apply`` on a store without a WAL,
    ``LACA.refresh`` on a mirror model, ``publish_snapshot`` of each new
    head (closed right away)."""
    store = GraphStore(base_graph)
    mirror = LACA.from_fit_state(base_state, base_graph)
    rows: dict[str, list[float]] = {"wal": [], "apply": [], "refresh": [], "publish": []}
    with GraphWAL(wal_path, fsync="always") as wal:
        for add, remove in deltas:
            delta = GraphDelta(add_edges=add, remove_edges=remove)
            started = time.perf_counter()
            wal.append({"epoch": store.epoch + 1, "delta": delta.to_mapping()})
            logged = time.perf_counter()
            head = store.apply(delta)
            applied = time.perf_counter()
            mirror.refresh(store)
            refreshed = time.perf_counter()
            shared = publish_snapshot(head, tnam_z=mirror.tnam.z)
            published = time.perf_counter()
            shared.close()
            rows["wal"].append(_ms(logged - started))
            rows["apply"].append(_ms(applied - logged))
            rows["refresh"].append(_ms(refreshed - applied))
            rows["publish"].append(_ms(published - refreshed))
    return {
        "graphs.wal_append_ms.p50": percentile(rows["wal"], 50),
        "graphs.store_apply_ms.p50": percentile(rows["apply"], 50),
        "core.refresh_ms.p50": percentile(rows["refresh"], 50),
        "graphs.shm_publish_ms.p50": percentile(rows["publish"], 50),
    }


def read_spans(path) -> list[dict]:
    """Request spans from a ``TraceLog`` JSONL file."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if r.get("event") == "request"]


def span_metrics(spans) -> dict:
    """Stage percentiles over the engine-path spans."""
    engine = [s for s in spans if s.get("path") == "engine" and s.get("total_s") is not None]
    waits = [_ms(s["queue_wait_s"]) for s in engine]
    engines = [_ms(s["engine_s"]) for s in engine]
    transit = [
        _ms(s["total_s"] - s["queue_wait_s"] - s["engine_s"]) for s in engine
    ]
    return {
        "serving.queue_wait_ms.p50": percentile(waits, 50),
        "serving.queue_wait_ms.p95": percentile(waits, 95),
        "serving.engine_ms.p50": percentile(engines, 50),
        "serving.transit_ms.p50": percentile(transit, 50),
    }
