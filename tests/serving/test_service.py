"""Tests for ClusterService: parity, coalescing, caching, lifecycle.

The service is a scheduling layer over engines whose batch parity is
already pinned (tests/core/test_laca_batch.py): whatever blocks the
dispatcher forms, every answer must equal the sequential
``LACA.cluster`` output exactly.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta
from repro.serving import ClusterService, UpdateTimeout
from repro.serving import service as service_module
from repro.serving.service import _footprint

ENGINES = ["greedy", "nongreedy", "adaptive"]


def _model(graph, engine="adaptive", **overrides):
    overrides.setdefault("k", 8)
    return LACA(LacaConfig(diffusion=engine, **overrides)).fit(graph)


class TestBatchParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bitwise_equal_to_sequential(self, small_sbm, engine):
        """Coalesced answers match sequential cluster() across engines,
        on both the cache-miss (first ask) and cache-hit (second ask)
        paths."""
        model = _model(small_sbm, engine)
        seeds = [0, 7, 33, 60, 91, 7]  # includes an in-flight duplicate
        size = 25
        expected = {seed: model.cluster(seed, size) for seed in set(seeds)}
        with ClusterService(model, max_batch=8, max_wait_s=0.05) as service:
            futures = [service.submit(seed, size) for seed in seeds]
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(future.result(), expected[seed])
            # Second round: every seed is now cached.
            for seed in seeds:
                np.testing.assert_array_equal(
                    service.cluster(seed, size), expected[seed]
                )
            stats = service.stats()
        # Every request is accounted for; at least the whole second round
        # came from the cache (the in-flight duplicate may land on either
        # side depending on when its block dispatched).
        assert stats["engine_served"] + stats["cache_served"] == 2 * len(seeds)
        assert stats["cache_served"] >= len(seeds)
        assert stats["engine_served"] >= len(set(seeds))

    def test_non_attributed_graph(self, plain_graph):
        model = _model(plain_graph)
        with ClusterService(model, max_wait_s=0.02) as service:
            for seed in (0, 10, 55):
                np.testing.assert_array_equal(
                    service.cluster(seed, 20), model.cluster(seed, 20)
                )

    def test_mixed_sizes_in_one_block(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.1) as service:
            futures = [
                service.submit(seed, size)
                for seed, size in [(0, 5), (0, 30), (17, 12)]
            ]
            results = [future.result() for future in futures]
        assert [len(cluster) for cluster in results] == [5, 30, 12]
        np.testing.assert_array_equal(results[0], model.cluster(0, 5))
        np.testing.assert_array_equal(results[1], model.cluster(0, 30))


class TestCoalescing:
    def test_quick_burst_forms_one_block(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_batch=8, max_wait_s=0.25) as service:
            futures = [service.submit(seed, 20) for seed in (1, 2, 3, 4)]
            for future in futures:
                future.result()
            stats = service.stats()
        assert stats["batches"] == 1
        assert stats["mean_batch_occupancy"] == 4.0
        assert stats["max_batch_occupancy"] == 4

    def test_max_batch_caps_occupancy(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_batch=2, max_wait_s=0.25) as service:
            futures = [service.submit(seed, 20) for seed in (1, 2, 3, 4)]
            for future in futures:
                future.result()
            stats = service.stats()
        assert stats["max_batch_occupancy"] <= 2
        assert stats["batches"] >= 2

    def test_concurrent_submitters_all_answered_correctly(self, small_sbm):
        model = _model(small_sbm)
        expected = {seed: model.cluster(seed, 20) for seed in range(24)}
        failures: list[str] = []

        def worker(seeds, service):
            for seed in seeds:
                got = service.cluster(seed, 20)
                if not np.array_equal(got, expected[seed]):
                    failures.append(f"seed {seed} mismatched")

        with ClusterService(model, max_batch=8, max_wait_s=0.005) as service:
            threads = [
                threading.Thread(target=worker, args=(range(lo, lo + 3), service))
                for lo in range(0, 24, 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert not failures
        assert stats["engine_served"] == 24
        assert stats["requests"] == 24


class TestCacheIntegration:
    def test_cache_hits_skip_the_engine(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.0) as service:
            first = service.cluster(5, 20)
            second = service.cluster(5, 20)
            stats = service.stats()
        assert second is first  # the very same stored array
        assert stats["engine_served"] == 1
        assert stats["cache_served"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["cache"]["hits"] == 1

    def test_cache_disabled(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, cache_size=0, max_wait_s=0.0) as service:
            service.cluster(5, 20)
            service.cluster(5, 20)
            stats = service.stats()
        assert service.cache is None
        assert stats["cache"] is None
        assert stats["engine_served"] == 2

    def test_results_are_read_only(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.0) as service:
            cluster = service.cluster(5, 20)
        with pytest.raises(ValueError):
            cluster[0] = 99


class TestLifecycleAndValidation:
    def test_close_answers_queued_work(self, small_sbm):
        model = _model(small_sbm)
        service = ClusterService(model, max_wait_s=0.2)
        futures = [service.submit(seed, 15) for seed in (0, 1, 2)]
        service.close()
        for future in futures:
            assert len(future.result()) == 15

    def test_submit_after_close_raises(self, small_sbm):
        service = ClusterService(_model(small_sbm))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(0, 10)

    def test_close_is_idempotent(self, small_sbm):
        service = ClusterService(_model(small_sbm))
        service.close()
        service.close()

    def test_invalid_arguments_fail_fast(self, small_sbm):
        with ClusterService(_model(small_sbm)) as service:
            with pytest.raises(IndexError, match="out of range"):
                service.submit(10_000, 10)
            with pytest.raises(ValueError, match="positive"):
                service.submit(0, 0)

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError, match="fit"):
            ClusterService(LACA())

    def test_invalid_scheduler_parameters(self, small_sbm):
        model = _model(small_sbm)
        with pytest.raises(ValueError, match="max_batch"):
            ClusterService(model, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            ClusterService(model, max_wait_s=-1.0)

    def test_engine_failure_propagates_to_futures(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.1) as service:
            def boom(_seed, workspace=None):
                raise RuntimeError("engine exploded")

            service.model = type(
                "Broken", (), {"scores": staticmethod(boom)}
            )()
            futures = [service.submit(seed, 10) for seed in (0, 1)]
            for future in futures:
                with pytest.raises(RuntimeError, match="exploded"):
                    future.result()
            stats = service.stats()
        assert stats["errors"] == 2

    def test_cancelled_future_does_not_kill_dispatcher(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.2, cache_size=0) as service:
            doomed = service.submit(0, 10)
            doomed.cancel()  # may lose the race; liveness must hold either way
            survivor = service.submit(1, 10)
            assert len(survivor.result(timeout=10)) == 10
            # The service still answers fresh work after the cancellation.
            assert len(service.cluster(2, 10)) == 10

    def test_submit_many(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.05) as service:
            futures = service.submit_many([0, 1, 2], size=12)
            assert all(len(future.result()) == 12 for future in futures)

    def test_submit_many_partial_failure_keeps_earlier_seeds_live(
        self, small_sbm
    ):
        """Documented partial-failure contract: an invalid seed mid-list
        raises, but every seed before it was already enqueued and is
        still answered normally (nothing is rolled back or orphaned)."""
        model = _model(small_sbm)
        service = ClusterService(model, max_wait_s=0.05)
        with pytest.raises(IndexError, match="out of range"):
            service.submit_many([0, 1, 10_000, 2], size=12)
        assert service.close(timeout=10) is True  # answers queued work
        stats = service.stats()
        # Exactly the two seeds ahead of the bad one were served; the
        # seed behind it never entered the queue.
        assert stats["engine_served"] + stats["cache_served"] == 2
        assert stats["errors"] == 0


def _stall_single_queries(service, started, release):
    """Replace the single-query path with one that parks until released.

    Lets a test wedge the dispatcher deterministically: submit one
    query, wait for ``started``, and everything submitted afterwards is
    provably stuck *behind* it in the queue.
    """
    original = service.model.scores

    def slow_scores(seed, workspace=None):
        started.set()
        release.wait(30)
        return original(seed, workspace=workspace)

    service.model.scores = slow_scores


class TestFailureContainment:
    """Regression tests for the hung-future bugfix sweep.

    The liveness contract under test: *every* future handed out by the
    service eventually resolves — with an answer or an error — no
    matter how the dispatcher dies, how close() times out, or how slow
    an update is.  Before the sweep each of these scenarios left
    callers blocked forever in ``Future.result()``.
    """

    def test_dispatcher_crash_fails_block_futures(self, small_sbm):
        """An exception escaping outside the engine call (here: poisoned
        telemetry) used to kill the dispatcher thread silently, hanging
        every in-flight future.  Now the block's futures are failed with
        the cause and the service fails closed."""
        model = _model(small_sbm)
        service = ClusterService(model, max_wait_s=0.2, cache_size=0)

        def poisoned(*_args, **_kwargs):
            raise ZeroDivisionError("telemetry exploded")

        service.telemetry.record_batch = poisoned
        futures = [service.submit(seed, 10) for seed in (0, 1, 2)]
        for future in futures:
            with pytest.raises(RuntimeError, match="crashed"):
                future.result(timeout=10)
        with pytest.raises(RuntimeError, match="failed"):
            service.submit(3, 10)
        # The dispatcher survived the crash and still honors shutdown.
        assert service.close(timeout=10) is True

    def test_dispatcher_crash_drains_queued_requests(self, small_sbm):
        """Requests queued *behind* a crashing block must resolve too:
        the dispatcher drains them with the failure instead of leaving
        them for a thread that will answer nothing further."""
        model = _model(small_sbm)
        started, release = threading.Event(), threading.Event()
        service = ClusterService(model, max_wait_s=0.0, cache_size=0)
        _stall_single_queries(service, started, release)

        def poisoned(*_args, **_kwargs):
            raise ZeroDivisionError("telemetry exploded")

        service.telemetry.record_batch = poisoned
        victim = service.submit(0, 10)
        assert started.wait(10)
        queued = [service.submit(seed, 10) for seed in (1, 2)]
        release.set()
        for future in (victim, *queued):
            with pytest.raises(RuntimeError, match="crashed"):
                future.result(timeout=10)
        assert service.close(timeout=10) is True

    def test_close_timeout_fails_pending_futures_and_reports(self, small_sbm):
        """close(timeout) with a wedged dispatcher used to return as if
        shutdown succeeded, leaving queued futures hanging.  Now it
        fails them and returns False; a later close() re-joins."""
        model = _model(small_sbm)
        started, release = threading.Event(), threading.Event()
        service = ClusterService(model, max_wait_s=0.0, cache_size=0)
        _stall_single_queries(service, started, release)
        in_flight = service.submit(0, 10)
        assert started.wait(10)
        stuck = [service.submit(seed, 10) for seed in (1, 2)]
        assert service.close(timeout=0.1) is False
        for future in stuck:
            with pytest.raises(RuntimeError, match="closed before"):
                future.result(timeout=10)
        release.set()
        # The request the dispatcher was already serving still completes,
        # and the re-joined close reports a clean exit.
        assert len(in_flight.result(timeout=10)) == 10
        assert service.close(timeout=10) is True

    def test_update_timeout_is_typed_and_marker_still_lands(self, small_sbm):
        """apply_update hitting its timeout raises UpdateTimeout but the
        service stays consistent: the marker lands in dispatch order,
        post-timeout submissions are answered by the refreshed model,
        and update telemetry is recorded when the marker resolves."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        started, release = threading.Event(), threading.Event()
        service = ClusterService(model, max_wait_s=0.0, cache_size=64)
        try:
            _stall_single_queries(service, started, release)
            blocker = service.submit(0, 20)
            assert started.wait(10)
            with pytest.raises(UpdateTimeout) as excinfo:
                service.apply_update(
                    GraphDelta(add_edges=[(3, 77)]), timeout=0.05
                )
            # Post-timeout state is already the new epoch; submissions
            # are keyed there and queue behind the marker.
            assert service.epoch == 1
            later = service.submit(3, 20)
            release.set()
            promoted, invalidated = excinfo.value.pending.result(timeout=30)
            assert promoted >= 0 and invalidated >= 0
            assert len(blocker.result(timeout=30)) == 20
            np.testing.assert_array_equal(
                later.result(timeout=30),
                LACA(config).fit(service.store.head).cluster(3, 20),
            )
            deadline = time.perf_counter() + 10
            while (
                service.stats()["updates"] == 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)  # telemetry rides the marker's callback
            assert service.stats()["updates"] == 1
        finally:
            release.set()
            service.close(timeout=10)

    def test_stats_consistent_under_update_storm(self, small_sbm):
        """stats() reads epoch and cache under the close lock: hammered
        from many threads while updates advance epochs, every snapshot
        must be well-formed and its epoch monotone per observer."""
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        problems: list[str] = []
        stop = threading.Event()
        with ClusterService(model, cache_size=64) as service:
            def observer():
                last_epoch = -1
                while not stop.is_set():
                    snapshot = service.stats()
                    if snapshot["epoch"] < last_epoch:
                        problems.append("epoch went backwards")
                    last_epoch = snapshot["epoch"]
                    if snapshot["cache"] is None:
                        problems.append("cache stats vanished")

            threads = [threading.Thread(target=observer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for step in range(5):
                    service.cluster(step, 15)
                    absent = set(small_sbm.neighbors(step))
                    target = next(
                        v
                        for v in range(small_sbm.n - 1, 0, -1)
                        if v not in absent and v != step
                    )
                    service.apply_update(
                        GraphDelta(add_edges=[(step, target)])
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not problems
            assert service.stats()["epoch"] == 5


@pytest.fixture
def two_cores(monkeypatch):
    """Split every block of two or more across two engine threads, as on
    a two-core host, whatever the machine running the test has."""
    monkeypatch.setattr(service_module, "_usable_cores", lambda: 2)


def _engine_threads(name: str) -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(f"cluster-engine-{name}")
    ]


def _wrap_scores(model, before):
    """Call ``before(seed)`` on the answering thread ahead of each
    ``model.scores``."""
    original = model.scores

    def scores(seed, workspace=None):
        before(seed)
        return original(seed, workspace=workspace)

    model.scores = scores


class TestBlockSplit:
    """A block of two or more requests is split into contiguous shares,
    the first answered by the dispatcher and the rest by engine threads;
    the block is joined and resolved as one."""

    def test_shares_run_on_two_threads_bitwise_in_order(
        self, small_sbm, two_cores
    ):
        model = _model(small_sbm)
        queries = [(0, 5), (7, 30), (33, 12), (60, 25), (91, 8), (0, 17)]
        expected = [model.cluster(seed, size) for seed, size in queries]
        threads: dict[int, int] = {}
        _wrap_scores(
            model,
            lambda seed: threads.setdefault(seed, threading.get_ident()),
        )
        resolved: list[int] = []
        with ClusterService(
            model, max_batch=len(queries), max_wait_s=5.0, cache_size=0
        ) as service:
            futures = []
            for index, (seed, size) in enumerate(queries):
                future = service.submit(seed, size)
                future.add_done_callback(
                    lambda _f, index=index: resolved.append(index)
                )
                futures.append(future)
            for future, want in zip(futures, expected):
                np.testing.assert_array_equal(future.result(timeout=30), want)
            stats = service.stats()
        assert stats["batches"] == 1
        assert stats["max_batch_occupancy"] == len(queries)
        assert resolved == list(range(len(queries)))
        # Share 0 (seeds 0, 7, 33) on the dispatcher, share 1 (60, 91)
        # on an engine thread; neither is the submitting thread.
        assert threads[0] == threads[7] == threads[33]
        assert threads[60] == threads[91]
        assert threads[0] != threads[60]
        assert threading.get_ident() not in threads.values()

    def test_helper_failure_fails_block_and_holds_marker(
        self, small_sbm, two_cores
    ):
        model = _model(small_sbm)
        started, release = threading.Event(), threading.Event()
        failure = LookupError("helper share failed")

        def helper_fails(seed):
            if seed == 60:
                started.set()
                release.wait(30)
                raise failure

        _wrap_scores(model, helper_fails)
        service = ClusterService(model, max_batch=4, max_wait_s=5.0)
        try:
            futures = service.submit_many([0, 7, 60, 91], 10)
            assert started.wait(10)
            # The marker queues behind the block and cannot land while
            # the helper's share is still running.
            with pytest.raises(UpdateTimeout) as excinfo:
                service.apply_update(
                    GraphDelta(add_edges=[(3, 77)]), timeout=0.2
                )
            pending = excinfo.value.pending
            assert not pending.done()
            assert not any(future.done() for future in futures)
            release.set()
            for future in futures:
                assert future.exception(timeout=30) is failure
            pending.result(timeout=30)
            assert service.stats()["errors"] == 4
        finally:
            release.set()
            assert service.close(timeout=10) is True

    def test_close_stops_engine_threads(self, small_sbm, two_cores):
        service = ClusterService(
            _model(small_sbm), name="split-close", max_batch=2, max_wait_s=5.0
        )
        for future in service.submit_many([0, 7], 10):
            future.result(timeout=30)
        assert _engine_threads("split-close")
        assert service.close(timeout=10) is True
        assert not _engine_threads("split-close")

    def test_close_timeout_then_close_stops_engine_threads(
        self, small_sbm, two_cores
    ):
        model = _model(small_sbm)
        started, release = threading.Event(), threading.Event()

        def stall_helper(seed):
            if seed == 7:
                started.set()
                release.wait(30)

        _wrap_scores(model, stall_helper)
        service = ClusterService(
            model, name="split-wedged", max_batch=2, max_wait_s=5.0
        )
        try:
            futures = service.submit_many([0, 7], 10)
            assert started.wait(10)
            assert service.close(timeout=0.1) is False
            assert _engine_threads("split-wedged")
        finally:
            release.set()
        for future in futures:
            assert len(future.result(timeout=30)) == 10
        assert service.close(timeout=10) is True
        assert not _engine_threads("split-wedged")


def _unique_footprint(result) -> np.ndarray:
    """The cache footprint as first defined: ``np.unique`` over each
    diffusion's touched set, or over its ``q``/``residual`` non-zeros
    when the run went graph-wide."""
    parts = []
    for diffusion in (result.rwr, result.bdd):
        if diffusion.touched is not None:
            parts.append(diffusion.touched)
        else:
            parts.append(np.flatnonzero(diffusion.q))
            parts.append(np.flatnonzero(diffusion.residual))
    return np.unique(np.concatenate(parts))


class TestFootprint:
    @pytest.mark.parametrize("engine", ENGINES + ["push"])
    @pytest.mark.parametrize(
        "epsilon, graph_wide", [(0.05, False), (1e-6, True)],
        ids=["local", "dense-fallback"],
    )
    def test_equals_unique_definition_bitwise(
        self, small_sbm, engine, epsilon, graph_wide
    ):
        model = _model(small_sbm, engine, epsilon=epsilon)
        workspace = model.make_workspace()
        for seed in (0, 7, 33, 60, 91):
            result = model.scores(seed, workspace=workspace)
            tracked = (result.rwr.touched, result.bdd.touched)
            assert all((t is None) == graph_wide for t in tracked)
            expected = _unique_footprint(result)
            got = _footprint(result, small_sbm.n)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
