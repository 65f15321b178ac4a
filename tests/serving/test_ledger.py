"""Conservation laws of the request ledger, for both front ends.

Every submitted request ends in exactly one place: answered by an
engine, answered from the cache, shed at admission, dropped past its
deadline, or failed.  Once every future has resolved the counts must
add up to the submissions, and ``stats()`` must equal the registry
families ``/metrics`` renders — both are views of one registry.
"""

import threading
import time

import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta
from repro.serving import (
    ClusterService,
    DeadlineExceeded,
    PoolClusterService,
    PoolSaturated,
)
from repro.serving import service as service_module
from repro.testing import FaultError, FaultPlan, FaultRule

#: Scalar ``stats()`` counts and the registry sample each must equal.
STATS_TO_FAMILY = {
    "engine_served": "laca_requests_total{path=engine}",
    "cache_served": "laca_requests_total{path=cache}",
    "shed": "laca_shed_total",
    "deadline_misses": "laca_deadline_misses_total",
    "batches": "laca_batches_total",
    "max_batch_occupancy": "laca_batch_occupancy_max",
    "updates": "laca_updates_total",
    "entries_invalidated": "laca_cache_entries_invalidated_total",
    "entries_promoted": "laca_cache_entries_promoted_total",
    "worker_restarts": "laca_worker_restarts_total",
    "block_retries": "laca_block_retries_total",
    "wal_records": "laca_wal_records_total",
}


def _model(graph):
    return LACA(LacaConfig(k=8)).fit(graph)


def _labeled(snap: dict, family: str) -> dict[str, float]:
    """``{label value: sample}`` for a one-label family in a snapshot."""
    prefix = f"{family}{{"
    return {
        key[len(prefix):-1].split("=", 1)[1]: value
        for key, value in snap.items()
        if key.startswith(prefix)
    }


def _assert_ledger(service, submitted: int) -> dict:
    """Check both conservation laws once every future has resolved."""
    stats = service.stats()
    snap = service.telemetry.registry.snapshot()
    assert (
        stats["engine_served"]
        + stats["cache_served"]
        + stats["shed"]
        + stats["deadline_misses"]
        + stats["errors"]
        == submitted
    ), stats
    for key, family in STATS_TO_FAMILY.items():
        assert stats[key] == snap[family], key
    assert stats["requests"] == (
        snap["laca_requests_total{path=engine}"]
        + snap["laca_requests_total{path=cache}"]
    )
    assert stats["errors_by_kind"] == _labeled(snap, "laca_errors_total")
    assert stats["errors"] == sum(_labeled(snap, "laca_errors_total").values())
    batches = _labeled(snap, "laca_worker_batches_total")
    seeds = _labeled(snap, "laca_worker_seeds_total")
    assert stats["worker_occupancy"] == {
        int(worker): {"batches": batches[worker], "seeds": seeds[worker]}
        for worker in batches
    }
    occupancy = snap["laca_batch_occupancy"]
    assert occupancy["count"] == stats["batches"]
    assert stats["mean_batch_occupancy"] == round(
        occupancy["sum"] / occupancy["count"], 3
    )
    assert stats["engine_seconds"] == round(snap["laca_engine_seconds_total"], 6)
    return stats


def _settle(futures) -> None:
    for future in futures:
        try:
            future.result(timeout=60)
        except Exception:  # noqa: BLE001 — the ledger books the failure
            pass


def test_in_process_ledger_balances(small_sbm, monkeypatch):
    """Engine answers, cache hits, and engine errors (a seed the
    patched engine refuses) each land in exactly one count."""
    poison = 5
    answer_block = service_module.answer_block

    def refusing(model, workspace, seeds, sizes, metrics):
        if poison in seeds:
            raise ValueError("engine refused the poison seed")
        return answer_block(model, workspace, seeds, sizes, metrics)

    monkeypatch.setattr(service_module, "answer_block", refusing)
    with ClusterService(
        _model(small_sbm), max_batch=4, max_wait_s=0.0, cache_size=64
    ) as service:
        answered = [service.submit(seed, 10) for seed in range(5)]
        _settle(answered)
        hits = [service.submit(seed, 10) for seed in (0, 1, 2)]
        # A refused block fails every request it carries.
        refused = [service.submit(seed, 10) for seed in (poison, 6, 7)]
        _settle(hits + refused)
        with pytest.raises(ValueError, match="poison"):
            refused[0].result()
        stats = _assert_ledger(
            service, submitted=len(answered) + len(hits) + len(refused)
        )
    assert stats["engine_served"] >= 5
    assert stats["cache_served"] == 3
    assert stats["errors"] >= 1 and set(stats["errors_by_kind"]) == {"engine"}


def test_pool_ledger_balances(small_sbm):
    """A 2-worker pool over every terminal path: an engine error (worker
    0's first block raises), engine answers, cache hits, and — while a
    delayed worker reload holds the dispatcher in the epoch barrier —
    shed admissions and queued requests that outlive their deadline."""
    plan = FaultPlan(
        [
            FaultRule(site="worker.block", match={"worker_id": 0}),
            FaultRule(site="worker.reload", action="delay", delay_s=1.0),
        ]
    )
    service = PoolClusterService(
        _model(small_sbm),
        workers=2,
        max_pending=4,
        deadline_s=0.3,
        max_wait_s=0.0,
        cache_size=64,
        fault_plan=plan,
    )
    submitted = 0
    try:
        with pytest.raises(FaultError):
            service.submit(0, 10).result(timeout=60)
        submitted += 1
        for seed in (1, 2, 3, 4):  # answered by an engine ...
            service.submit(seed, 10).result(timeout=60)
        for seed in (1, 2, 3, 4):  # ... then from the cache
            service.submit(seed, 10).result(timeout=60)
        submitted += 8

        # The update's marker holds the dispatcher in the reload barrier
        # for delay_s: nothing queued behind it resolves meanwhile.
        updater = threading.Thread(
            target=service.apply_update,
            args=(GraphDelta(add_edges=[(0, 119)]),),
        )
        updater.start()
        while service.epoch == 0 and updater.is_alive():
            time.sleep(0.005)
        assert service.epoch == 1
        queued = []
        for seed in range(10, 16):
            submitted += 1
            try:
                queued.append(service.submit(seed, 10))
            except PoolSaturated:
                pass
        for future in queued:
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=60)
        updater.join(60)
        assert not updater.is_alive()
        deadline = time.monotonic() + 10
        while service.stats()["updates"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # update telemetry rides the marker's callback
        stats = _assert_ledger(service, submitted)
    finally:
        service.close(timeout=60)
    assert stats["errors_by_kind"] == {"engine": 1}
    assert stats["engine_served"] == 4 and stats["cache_served"] == 4
    # max_pending=4 of the 6 queued requests were admitted (give or take
    # an admission slot whose release callback was still running).
    assert stats["shed"] >= 1 and stats["deadline_misses"] >= 3
    assert stats["shed"] + stats["deadline_misses"] == 6
    assert stats["updates"] == 1 and stats["pending"] == 0
