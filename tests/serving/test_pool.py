"""Tests for PoolClusterService: cross-process parity, epoch barrier,
admission control, and lifecycle.

Everything here runs real worker processes over real shared-memory
segments — the cross-process complement of tests/graphs/test_shm.py.
The governing contract is inherited from ClusterService: answers are
bitwise identical to ``LACA.cluster``, and no future ever hangs.
"""

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta, GraphStore
from repro.serving import (
    DeadlineExceeded,
    PoolClusterService,
    PoolSaturated,
)
from repro.serving import service as service_module
from repro.testing import FaultPlan, FaultRule


def _model(graph, **overrides):
    overrides.setdefault("k", 8)
    return LACA(LacaConfig(**overrides)).fit(graph)


class TestCrossProcessParity:
    def test_bitwise_equal_to_sequential(self, small_sbm):
        model = _model(small_sbm)
        seeds = [0, 7, 33, 60, 91, 7]
        size = 25
        expected = {seed: model.cluster(seed, size) for seed in set(seeds)}
        with PoolClusterService(
            model, workers=2, max_batch=8, max_wait_s=0.02
        ) as service:
            futures = [service.submit(seed, size) for seed in seeds]
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), expected[seed]
                )
            # Second round: every seed now hits the parent-side cache.
            for seed in set(seeds):
                np.testing.assert_array_equal(
                    service.cluster(seed, size), expected[seed]
                )
            stats = service.stats()
        assert stats["cache_served"] >= len(set(seeds))
        assert stats["workers"] == 2

    def test_non_attributed_graph(self, plain_graph):
        model = _model(plain_graph)
        with PoolClusterService(model, workers=2, max_wait_s=0.0) as service:
            for seed in (0, 10, 55):
                np.testing.assert_array_equal(
                    service.cluster(seed, 20), model.cluster(seed, 20)
                )

    def test_blocks_spread_across_workers(self, small_sbm):
        """With singleton blocks and several workers, more than one
        worker must end up answering (the dispatcher is least-loaded,
        not sticky)."""
        model = _model(small_sbm)
        with PoolClusterService(
            model, workers=2, max_batch=1, max_wait_s=0.0, cache_size=0
        ) as service:
            futures = [service.submit(seed, 10) for seed in range(24)]
            for future in futures:
                future.result(timeout=60)
            stats = service.stats()
        occupancy = stats["worker_occupancy"]
        assert sum(w["seeds"] for w in occupancy.values()) == 24
        assert len(occupancy) == 2  # both workers served


class TestEpochBarrier:
    def test_update_answers_track_head(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        with PoolClusterService(model, workers=2, cache_size=64) as service:
            service.cluster(0, 20)  # cached at epoch 0
            out = service.apply_update(
                GraphDelta(add_edges=[(0, 60), (0, 90)]), timeout=60
            )
            assert out["epoch"] == 1 and service.epoch == 1
            after = service.cluster(0, 20)
            fresh = LACA(config).fit(service.store.head)
            np.testing.assert_array_equal(after, fresh.cluster(0, 20))
            # The epoch-0 answer's footprint holds its seed, node 0,
            # which the delta touches: the entry cannot survive.
            assert out["entries_invalidated"] >= 1

    def test_no_post_marker_request_on_pre_marker_snapshot(self, small_sbm):
        """Requests racing an update must each match the fresh-fit
        answer of an epoch that was live while they were in flight —
        never a mixture, never a stale post-marker answer."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        seeds = [0, 7, 33]
        size = 20
        delta = GraphDelta(add_edges=[(0, 70), (7, 81)])
        probe = GraphStore(small_sbm)
        valid = {0: {s: model.cluster(s, size) for s in seeds}}
        head = probe.apply(delta)
        fresh = LACA(config).fit(head)
        valid[1] = {s: fresh.cluster(s, size) for s in seeds}

        mismatches = []
        stop = threading.Event()
        with PoolClusterService(
            model, workers=2, cache_size=64, max_batch=4
        ) as service:
            def reader():
                rng = np.random.default_rng(threading.get_ident() % 2**31)
                while not stop.is_set():
                    seed = seeds[int(rng.integers(len(seeds)))]
                    epoch_before = service.epoch
                    cluster = service.cluster(seed, size)
                    epoch_after = service.epoch
                    ok = any(
                        np.array_equal(cluster, valid[e][seed])
                        for e in range(epoch_before, epoch_after + 1)
                    )
                    if not ok:
                        mismatches.append((seed, epoch_before, epoch_after))

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.05)
                service.apply_update(delta, timeout=60)
                for seed in seeds:
                    np.testing.assert_array_equal(
                        service.cluster(seed, size), valid[1][seed]
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        assert not mismatches, mismatches[:5]

    def test_consecutive_updates(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        with PoolClusterService(model, workers=2, cache_size=16) as service:
            for step in range(3):
                service.apply_update(
                    GraphDelta(add_edges=[(step, 90 + step)]), timeout=60
                )
            assert service.epoch == 3
            fresh = LACA(config).fit(service.store.head)
            np.testing.assert_array_equal(
                service.cluster(1, 15), fresh.cluster(1, 15)
            )


class TestAdmissionControl:
    def test_saturation_sheds_with_typed_rejection(self, small_sbm):
        model = _model(small_sbm)
        service = PoolClusterService(
            model, workers=1, max_pending=2, max_wait_s=0.0, cache_size=0
        )
        try:
            admitted = []
            shed = 0
            for seed in range(30):
                try:
                    admitted.append(service.submit(seed % 100, 10))
                except PoolSaturated:
                    shed += 1
            # the bound was enforced at *some* point (workers may drain
            # a couple before the loop outruns them) and nothing hangs
            for future in admitted:
                assert len(future.result(timeout=60)) == 10
            stats = service.stats()
            assert stats["shed"] == shed
            assert stats["pending"] == 0
        finally:
            service.close(timeout=30)

    def test_saturation_bound_is_tight(self, small_sbm):
        """With the dispatcher unable to drain (deadline far away but a
        wedged single worker), at most max_pending requests are ever
        admitted."""
        model = _model(small_sbm)
        service = PoolClusterService(
            model,
            workers=1,
            max_pending=3,
            max_wait_s=0.0,
            cache_size=0,
            # Pin pre-supervision behavior: the dead worker must stay
            # dead so nothing ever drains the admission ledger.
            restart_budget=0,
            max_retries=0,
        )
        try:
            # kill the worker so nothing drains, then hammer submit
            service._procs[0].terminate()
            service._procs[0].join(10)
            results = []
            for seed in range(10):
                try:
                    results.append(service.submit(seed, 10))
                except PoolSaturated:
                    results.append(None)
                except RuntimeError:
                    results.append(None)  # failed-service rejection
            live = [future for future in results if future is not None]
            assert len(live) <= 3
        finally:
            service.close(timeout=30)

    def test_deadline_miss_is_typed_and_counted(self, small_sbm):
        """A gather window longer than the deadline guarantees every
        request in the block expires while queued: all must fail with
        DeadlineExceeded (never be computed late) and be counted."""
        model = _model(small_sbm)
        service = PoolClusterService(
            model,
            workers=1,
            deadline_s=0.05,
            max_wait_s=0.5,
            max_batch=8,
            cache_size=0,
        )
        try:
            futures = [service.submit(seed, 10) for seed in (0, 1, 2)]
            for future in futures:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=60)
            stats = service.stats()
            assert stats["deadline_misses"] == 3
            assert stats["engine_served"] == 0  # nothing was computed late
        finally:
            service.close(timeout=30)

    def test_invalid_pool_parameters(self, small_sbm):
        model = _model(small_sbm)
        with pytest.raises(ValueError, match="workers"):
            PoolClusterService(model, workers=0)
        with pytest.raises(ValueError, match="max_pending"):
            PoolClusterService(model, max_pending=0)
        with pytest.raises(ValueError, match="deadline_s"):
            PoolClusterService(model, deadline_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            PoolClusterService(model, max_retries=-1)
        with pytest.raises(ValueError, match="restart_budget"):
            PoolClusterService(model, restart_budget=-1)
        with pytest.raises(ValueError, match="restart_window_s"):
            PoolClusterService(model, restart_window_s=0.0)
        with pytest.raises(ValueError, match="backoff"):
            PoolClusterService(model, backoff_base_s=1.0, backoff_max_s=0.5)


class TestPoolLifecycle:
    def test_close_answers_queued_work(self, small_sbm):
        model = _model(small_sbm)
        service = PoolClusterService(model, workers=2, max_wait_s=0.1)
        futures = [service.submit(seed, 15) for seed in (0, 1, 2)]
        assert service.close(timeout=60) is True
        for future in futures:
            assert len(future.result(timeout=1)) == 15

    def test_close_is_idempotent(self, small_sbm):
        service = PoolClusterService(_model(small_sbm), workers=1)
        assert service.close(timeout=60) is True
        service.close(timeout=10)

    def test_submit_after_close_raises(self, small_sbm):
        service = PoolClusterService(_model(small_sbm), workers=1)
        service.close(timeout=60)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(0, 10)

    def test_worker_death_fails_inflight_not_service(self, small_sbm):
        """Killing one of two workers must fail only its in-flight
        requests; the survivor keeps answering.  Supervision is
        disabled here to pin the pre-respawn degraded mode (the
        recovering behavior lives in test_fault_tolerance.py)."""
        model = _model(small_sbm)
        service = PoolClusterService(
            model,
            workers=2,
            max_wait_s=0.0,
            cache_size=0,
            restart_budget=0,
            max_retries=0,
        )
        try:
            service._procs[0].terminate()
            service._procs[0].join(10)
            deadline = time.perf_counter() + 10
            while (
                not service._worker_dead[0] and time.perf_counter() < deadline
            ):
                time.sleep(0.05)  # collector reaps on its poll interval
            # the pool still serves on the surviving worker
            assert len(service.cluster(5, 10)) == 10
            assert service.stats()["workers_alive"] == 1
        finally:
            service.close(timeout=30)

    def test_collector_crash_fails_and_books_block_futures(self, small_sbm):
        """An exception while the collector resolves a worker's result
        (here: poisoned telemetry) must fail every future of the block,
        each booked once — the block is already out of the in-flight
        table, so nothing else would ever resolve it."""
        service = PoolClusterService(
            _model(small_sbm), workers=1, max_wait_s=0.2, cache_size=0
        )

        def poisoned(*_args, **_kwargs):
            raise ZeroDivisionError("telemetry exploded")

        try:
            service.telemetry.record_batch = poisoned
            futures = [service.submit(seed, 10) for seed in range(4)]
            for future in futures:
                with pytest.raises(ZeroDivisionError):
                    future.result(timeout=30)
            stats = service.stats()
            assert stats["errors_by_kind"] == {"collector": len(futures)}
            assert stats["pending"] == 0
        finally:
            service.close(timeout=30)

    @pytest.mark.parametrize("fallback", [False, True], ids=["workers", "fallback"])
    def test_head_never_starts_engine_threads(
        self, small_sbm, monkeypatch, fallback
    ):
        """Even where the in-process service would split a block across
        engine threads, the pool head answers on its dispatcher alone —
        through its workers and through the in-process fallback — so
        worker forks and respawns never run beside helper threads."""
        monkeypatch.setattr(service_module, "_usable_cores", lambda: 2)
        model = _model(small_sbm)
        seeds = [0, 7, 33, 60]
        expected = [model.cluster(seed, 12) for seed in seeds]
        extra = {}
        if fallback:
            extra = dict(
                fault_plan=FaultPlan(
                    [FaultRule(site="worker.block", action="exit", times=0)]
                ),
                restart_budget=0,
                max_retries=4,
                fallback_inprocess=True,
            )
        service = PoolClusterService(
            model, workers=1, max_batch=4, max_wait_s=5.0, cache_size=0,
            **extra,
        )
        try:
            futures = service.submit_many(seeds, 12)
            for future, want in zip(futures, expected):
                np.testing.assert_array_equal(future.result(timeout=60), want)
            stats = service.stats()
            assert stats["max_batch_occupancy"] == len(seeds)
            assert stats["fallback_active"] is fallback
            assert not [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("cluster-engine-")
            ]
        finally:
            service.close(timeout=60)

    def test_pool_fit_state_drops_maintenance_and_factor(self, small_sbm):
        model = _model(small_sbm)
        state = PoolClusterService._worker_fit_state(model)
        assert "tnam_z" not in state
        assert "tnam_y" not in state and "tnam_basis" not in state
        assert "tnam_metric" in state  # identity scalars still travel


def _segment_names(service) -> dict[str, str]:
    """``{array key: segment name}`` of the generation the pool serves."""
    return {
        key: spec["segment"]
        for key, spec in service._shared.manifest["arrays"].items()
    }


def _live_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


class TestSegmentReuse:
    """An epoch advance republishes only the segments its delta changed;
    machine-independent (segment names and bitwise answers, no clocks)."""

    def test_edge_only_delta_republishes_only_the_csr_arrays(self, small_sbm):
        model = _model(small_sbm)
        with PoolClusterService(model, workers=2, cache_size=0) as service:
            before = _segment_names(service)
            service.apply_update(
                GraphDelta(add_edges=[(0, 60), (7, 90)]), timeout=60
            )
            after = _segment_names(service)
            changed = {key for key in after if after[key] != before[key]}
            assert changed == {"indptr", "indices", "degrees", "inv_degrees"}
            assert after["tnam_z"] == before["tnam_z"]
            assert after["data"] == before["data"]
            for seed in (0, 7, 60):
                np.testing.assert_array_equal(
                    service.cluster(seed, 20), service.model.cluster(seed, 20)
                )

    def test_node_append_outgrowing_headroom_recreates_data(self, rng, small_sbm):
        """Appending nodes whose edges add more than nnz/4 entries
        outgrows the ones segment's headroom: ``data`` is re-created and
        the new nodes are answered on the grown graph."""
        model = _model(small_sbm)
        n, nnz = small_sbm.n, small_sbm.adjacency.nnz
        added = 8
        edges = [
            (n + i, int(v))
            for i in range(added)
            for v in rng.choice(n, size=nnz // (2 * added) + 1, replace=False)
        ]
        assert 2 * len(edges) > nnz // 4
        delta = GraphDelta(
            add_nodes=added,
            add_edges=edges,
            add_attributes=np.abs(rng.normal(size=(added, small_sbm.d))) + 0.05,
            add_communities=[0] * added,
        )
        with PoolClusterService(model, workers=2, cache_size=0) as service:
            before = _segment_names(service)
            service.apply_update(delta, timeout=60)
            after = _segment_names(service)
            assert after["data"] != before["data"]
            assert after["tnam_z"] != before["tnam_z"]  # rows were appended
            for seed in (0, n, n + added - 1):
                np.testing.assert_array_equal(
                    service.cluster(seed, 20), service.model.cluster(seed, 20)
                )

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="segments are listed in /dev/shm"
    )
    def test_failed_reload_leaves_no_segment_after_close(self, small_sbm):
        before = _live_segments()
        plan = FaultPlan([FaultRule(site="worker.reload", match={"worker_id": 0})])
        service = PoolClusterService(
            _model(small_sbm), workers=2, fault_plan=plan, restart_budget=0,
            max_wait_s=0.0, cache_size=0,
        )
        try:
            assert _live_segments() - before  # the pool did publish
            with pytest.raises(RuntimeError, match="reload failed"):
                service.apply_update(GraphDelta(add_edges=[(0, 70)]), timeout=60)
        finally:
            service.close(timeout=60)
        assert not _live_segments() - before
