"""Per-service telemetry: latency percentiles, occupancy, throughput.

The :class:`~repro.obs.metrics.MetricsRegistry` is the only record of a
serving event.  Each recorder bumps registry metrics and nothing else;
``stats()`` (:meth:`ServiceTelemetry.snapshot`) is a view computed from
the same families ``/metrics`` renders, so the two cannot drift.

Counts, sums, and maxima are registry counters, gauges, and histogram
sums.  The percentiles ``stats()`` pins to the harness's
:func:`~repro.eval.harness.latency_percentile` (``p50_latency_s`` here
and ``p50_online_s`` in evaluation tables mean the same thing) come from
:class:`~repro.obs.metrics.WindowedHistogram` families, which keep the
last :data:`~repro.obs.metrics.WINDOW_SIZE` samples beside their
buckets.  Everything is O(1) in traffic — a long-lived service never
grows its telemetry footprint.

:func:`make_engine_metrics` builds the engine-introspection family
(kernel selections, touched volume, iterations, frontier peaks) against
*any* registry — the head service and every pool worker call it with
their own, so the families carry identical names and bucket bounds and
worker deltas merge into the head registry without coordination.
"""

from __future__ import annotations

from types import SimpleNamespace

from ..eval.harness import latency_percentile
from ..obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    VOLUME_BUCKETS,
    MetricsRegistry,
)

__all__ = ["ServiceTelemetry", "make_engine_metrics"]

#: Pipeline stages whose per-request durations get their own histograms
#: and exact percentile windows (the span's derived durations).
STAGE_NAMES = ("queue_wait", "engine", "collect")


def make_engine_metrics(registry: MetricsRegistry) -> SimpleNamespace:
    """Register (or look up) the engine-introspection metric family.

    Idempotent per registry; the returned namespace carries the live
    metric objects.  Called by the head's :class:`ServiceTelemetry` *and*
    by each pool worker against its private registry, so the families
    are born with identical names, labels, and bucket bounds — the
    precondition for :meth:`MetricsRegistry.merge`.
    """
    return SimpleNamespace(
        kernel_selections=registry.counter(
            "laca_kernel_selections_total",
            "Scatter-kernel selections by the volume switch",
            labelnames=("kernel",),
        ),
        touched_volume=registry.histogram(
            "laca_touched_volume",
            "Per-query touched volume (degree sum of nodes written) — "
            "Theorem IV.1's size-independent quantity, live",
            bounds=VOLUME_BUCKETS,
        ),
        touched_nodes=registry.histogram(
            "laca_touched_nodes",
            "Per-query count of nodes the diffusion wrote to",
            bounds=VOLUME_BUCKETS,
        ),
        query_iterations=registry.histogram(
            "laca_query_iterations",
            "Diffusion iterations per query (RWR + BDD runs summed)",
            bounds=COUNT_BUCKETS,
        ),
        frontier_peak=registry.histogram(
            "laca_frontier_peak",
            "Largest per-iteration frontier per query",
            bounds=COUNT_BUCKETS,
        ),
    )


def _count(metric) -> int:
    """An unlabeled counter or gauge as the int ``stats()`` reports."""
    return int(metric.value)


def _by_label(family) -> dict[str, int]:
    """One read of a one-label counter family: ``{label: count}``."""
    return {key[0]: int(value) for key, value in family.sample_items().items()}


def _percentile(window: list[float], q: float) -> float:
    return round(latency_percentile(window, q), 6)


class ServiceTelemetry:
    """Recorders and a ``stats()`` view over one service's registry.

    Holds no state of its own: ``metrics`` names the registry families
    (and the bound children the hot-path recorders write to), each
    guarded by its own lock.
    """

    def __init__(self) -> None:
        self.registry = reg = MetricsRegistry("laca")
        requests = reg.counter(
            "laca_requests_total", "Requests answered, by path", ("path",)
        )
        stage_seconds = reg.windowed_histogram(
            "laca_stage_seconds",
            "Per-request latency split by pipeline stage",
            bounds=LATENCY_BUCKETS,
            labelnames=("stage",),
        )
        self.metrics = SimpleNamespace(
            requests=requests,
            engine_requests=requests.labels("engine"),
            cache_requests=requests.labels("cache"),
            errors=reg.counter(
                "laca_errors_total", "Failed requests, by cause", ("kind",)
            ),
            shed=reg.counter(
                "laca_shed_total", "Requests rejected at admission (queue full)"
            ),
            deadline_misses=reg.counter(
                "laca_deadline_misses_total",
                "Admitted requests dropped after their deadline passed in queue",
            ),
            batches=reg.counter("laca_batches_total", "Dispatched micro-batches"),
            engine_seconds=reg.counter(
                "laca_engine_seconds_total", "Wall seconds spent inside engines"
            ),
            occupancy=reg.histogram(
                "laca_batch_occupancy",
                "Requests sharing one dispatched block",
                bounds=COUNT_BUCKETS,
            ),
            occupancy_max=reg.gauge(
                "laca_batch_occupancy_max", "Largest dispatched block so far"
            ),
            request_seconds=reg.windowed_histogram(
                "laca_request_seconds",
                "Submit-to-resolve latency of engine-answered requests",
                bounds=LATENCY_BUCKETS,
            ),
            stage_seconds={
                stage: stage_seconds.labels(stage) for stage in STAGE_NAMES
            },
            updates=reg.counter("laca_updates_total", "Graph deltas applied"),
            update_seconds=reg.windowed_histogram(
                "laca_update_seconds",
                "Apply-plus-refresh latency of one graph delta",
                bounds=LATENCY_BUCKETS,
            ),
            invalidated=reg.counter(
                "laca_cache_entries_invalidated_total",
                "Cache entries dropped by epoch advances",
            ),
            promoted=reg.counter(
                "laca_cache_entries_promoted_total",
                "Cache entries carried across epoch advances (support-disjoint)",
            ),
            worker_batches=reg.counter(
                "laca_worker_batches_total",
                "Blocks answered per pool worker",
                ("worker",),
            ),
            worker_seeds=reg.counter(
                "laca_worker_seeds_total", "Seeds answered per pool worker", ("worker",)
            ),
            worker_restarts=reg.counter(
                "laca_worker_restarts_total",
                "Crashed pool workers respawned by the supervisor",
            ),
            block_retries=reg.counter(
                "laca_block_retries_total",
                "Blocks re-dispatched after losing their worker mid-flight",
            ),
            wal_records=reg.counter(
                "laca_wal_records_total",
                "Graph deltas appended to the write-ahead log",
            ),
        )
        self.engine_metrics = make_engine_metrics(reg)

    # ------------------------------------------------------------------
    def record_batch(
        self, occupancy: int, engine_seconds: float, worker_id: int | None = None
    ) -> None:
        """One dispatched block: how many requests shared the traversal,
        and (in a pool) which worker answered it."""
        m = self.metrics
        m.batches.inc()
        m.occupancy.observe(occupancy)
        m.occupancy_max.set_max(occupancy)
        m.engine_seconds.inc(engine_seconds)
        m.engine_requests.inc(occupancy)
        if worker_id is not None:
            m.worker_batches.labels(int(worker_id)).inc()
            m.worker_seeds.labels(int(worker_id)).inc(occupancy)

    def record_latency(self, seconds: float) -> None:
        """Submit→resolve latency of one engine-answered request."""
        self.metrics.request_seconds.observe(seconds)

    def record_span(self, span) -> None:
        """Fold one resolved request span into the per-stage views.

        Accepts anything exposing the :class:`~repro.obs.tracing.Span`
        duration properties; stages whose endpoints were never marked
        (cache hits, failures) are skipped.
        """
        if span.total_s is not None:
            self.record_latency(span.total_s)
        stages = self.metrics.stage_seconds
        for stage, value in (
            ("queue_wait", span.queue_wait_s),
            ("engine", span.engine_s if span.dispatched is not None else None),
            ("collect", span.collect_s),
        ):
            if value is not None:
                stages[stage].observe(value)

    def record_cache_hit(self) -> None:
        """One request resolved from the result cache (no enqueue)."""
        self.metrics.cache_requests.inc()

    def record_error(self, kind: str = "internal") -> None:
        """One failed request, typed by cause (engine / closed / ...)."""
        self.metrics.errors.labels(kind).inc()

    def record_shed(self) -> None:
        """One request rejected at admission (queue depth bound hit)."""
        self.metrics.shed.inc()

    def record_deadline_miss(self) -> None:
        """One admitted request dropped because its deadline passed
        while it sat in the queue (never dispatched to a worker)."""
        self.metrics.deadline_misses.inc()

    def record_worker_restart(self) -> None:
        """One crashed pool worker respawned by the supervisor."""
        self.metrics.worker_restarts.inc()

    def record_block_retry(self) -> None:
        """One block re-dispatched after its worker died mid-flight."""
        self.metrics.block_retries.inc()

    def record_wal_append(self) -> None:
        """One graph delta appended durably to the write-ahead log."""
        self.metrics.wal_records.inc()

    def record_update(
        self, seconds: float, invalidated: int = 0, promoted: int = 0
    ) -> None:
        """One applied graph delta: apply→refresh latency and how the
        result cache was reconciled (entries dropped vs carried over)."""
        m = self.metrics
        m.updates.inc()
        m.update_seconds.observe(seconds)
        m.invalidated.inc(int(invalidated))
        m.promoted.inc(int(promoted))

    # ------------------------------------------------------------------
    def merge_engine_delta(self, families) -> None:
        """Fold a worker registry's :meth:`~MetricsRegistry.drain` home."""
        if families:
            self.registry.merge(families)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat stats dict (the service merges in cache stats).

        Read from the registry families; figures that must agree come
        from one family read (``requests`` is engine + cache of
        ``laca_requests_total``, ``errors`` the sum of
        ``errors_by_kind``).  Counts are ints.  Latency percentiles
        cover the most recent samples (the window); every other figure
        covers the service's whole lifetime.
        """
        m = self.metrics
        requests = _by_label(m.requests)
        served = requests.get("engine", 0)
        cache_served = requests.get("cache", 0)
        errors_by_kind = _by_label(m.errors)
        occupancy = m.occupancy.sample_items()[()]
        engine_seconds = m.engine_seconds.value
        worker_batches = _by_label(m.worker_batches)
        worker_seeds = _by_label(m.worker_seeds)
        latencies = m.request_seconds.window()
        update_latencies = m.update_seconds.window()
        stats = {
            "requests": served + cache_served,
            "engine_served": served,
            "cache_served": cache_served,
            "errors": sum(errors_by_kind.values()),
            "errors_by_kind": errors_by_kind,
            "batches": _count(m.batches),
            "mean_batch_occupancy": round(
                occupancy["sum"] / occupancy["count"] if occupancy["count"] else 0.0,
                3,
            ),
            "max_batch_occupancy": _count(m.occupancy_max),
            "engine_seconds": round(engine_seconds, 6),
            "seeds_per_s": round(
                served / engine_seconds if engine_seconds > 0.0 else 0.0, 1
            ),
            "p50_latency_s": _percentile(latencies, 50.0),
            "p95_latency_s": _percentile(latencies, 95.0),
            "updates": _count(m.updates),
            "update_seconds": round(
                m.update_seconds.sample_items()[()]["sum"], 6
            ),
            "p50_update_s": _percentile(update_latencies, 50.0),
            "entries_invalidated": _count(m.invalidated),
            "entries_promoted": _count(m.promoted),
            "shed": _count(m.shed),
            "deadline_misses": _count(m.deadline_misses),
            "worker_occupancy": {
                int(worker): {
                    "batches": worker_batches[worker],
                    "seeds": worker_seeds.get(worker, 0),
                }
                for worker in sorted(worker_batches, key=int)
            },
            "worker_restarts": _count(m.worker_restarts),
            "block_retries": _count(m.block_retries),
            "wal_records": _count(m.wal_records),
        }
        for stage, child in m.stage_seconds.items():
            window = child.window()
            stats[f"p50_{stage}_s"] = _percentile(window, 50.0)
            stats[f"p95_{stage}_s"] = _percentile(window, 95.0)
        return stats
