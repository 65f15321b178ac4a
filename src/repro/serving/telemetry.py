"""Per-service telemetry: latency percentiles, occupancy, throughput.

Since PR 7 the accumulator is a facade over a
:class:`~repro.obs.metrics.MetricsRegistry`: every event updates both

* the **registry** — log-spaced-bucket histograms and labeled counters,
  O(1) memory, mergeable across the pool's worker processes, rendered by
  ``/metrics`` — and
* a small set of **exact windows** — bounded deques of the most recent
  samples, because ``stats()`` pins its percentiles to the harness's
  :func:`~repro.eval.harness.latency_percentile` (``p50_latency_s`` here
  and ``p50_online_s`` in evaluation tables mean the same thing), which
  bucketed histograms can only approximate.

Both sides are O(1) in traffic: counts, sums, and maxima are running
aggregates, percentile windows are bounded, histogram buckets are fixed
— a long-lived service never grows its telemetry footprint.

:func:`make_engine_metrics` builds the engine-introspection family
(kernel selections, touched volume, iterations, frontier peaks) against
*any* registry — the head service and every pool worker call it with
their own, so the families carry identical names and bucket bounds and
worker deltas merge into the head registry without coordination.
"""

from __future__ import annotations

import threading
from collections import deque
from types import SimpleNamespace

from ..eval.harness import latency_percentile
from ..obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    VOLUME_BUCKETS,
    MetricsRegistry,
)

__all__ = ["ServiceTelemetry", "make_engine_metrics"]

#: Recent latency samples kept for the percentile window.
_LATENCY_WINDOW = 4096

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


class ServiceTelemetry:
    """Thread-safe accumulator for one :class:`ClusterService`.

    One lock guards the exact windows and scalar aggregates; registry
    metrics carry their own per-family locks.  Every recorder takes the
    telemetry lock exactly once (``record_batch`` folds the per-worker
    ledger in rather than paying a second round-trip per pool block).
    """

    def __init__(
        self,
        latency_window: int = _LATENCY_WINDOW,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._stage_windows: dict[str, deque[float]] = {
            stage: deque(maxlen=latency_window) for stage in STAGE_NAMES
        }
        self._batches = 0
        self._occupancy_sum = 0
        self._occupancy_max = 0
        self._engine_seconds = 0.0
        self._served = 0
        self._cache_served = 0
        self._errors = 0
        self._errors_by_kind: dict[str, int] = {}
        self._updates = 0
        self._update_seconds = 0.0
        self._update_latencies: deque[float] = deque(maxlen=latency_window)
        self._entries_invalidated = 0
        self._entries_promoted = 0
        # Pool-serving extensions (stay zero for in-process services).
        self._shed = 0
        self._deadline_misses = 0
        self._worker_batches: dict[int, int] = {}
        self._worker_seeds: dict[int, int] = {}
        # Fault-tolerance extensions (PR 8).
        self._worker_restarts = 0
        self._block_retries = 0
        self._wal_records = 0

        # Registry twin: the mergeable / scrapeable view of the same
        # events.  Bound children are resolved once, here, so recorders
        # pay dict-free fast paths.
        self.registry = registry if registry is not None else MetricsRegistry("laca")
        reg = self.registry
        self._m_requests_engine = reg.counter(
            "laca_requests_total", "Requests answered, by path", ("path",)
        ).labels("engine")
        self._m_requests_cache = reg.get("laca_requests_total").labels("cache")
        self._m_errors = reg.counter(
            "laca_errors_total", "Failed requests, by cause", ("kind",)
        )
        self._m_shed = reg.counter(
            "laca_shed_total", "Requests rejected at admission (queue full)"
        )
        self._m_deadline = reg.counter(
            "laca_deadline_misses_total",
            "Admitted requests dropped after their deadline passed in queue",
        )
        self._m_batches = reg.counter(
            "laca_batches_total", "Dispatched micro-batches"
        )
        self._m_engine_seconds = reg.counter(
            "laca_engine_seconds_total", "Wall seconds spent inside engines"
        )
        self._m_occupancy = reg.histogram(
            "laca_batch_occupancy",
            "Requests sharing one dispatched block",
            bounds=COUNT_BUCKETS,
        )
        self._m_request_seconds = reg.histogram(
            "laca_request_seconds",
            "Submit-to-resolve latency of engine-answered requests",
            bounds=LATENCY_BUCKETS,
        )
        stage_hist = reg.histogram(
            "laca_stage_seconds",
            "Per-request latency split by pipeline stage",
            bounds=LATENCY_BUCKETS,
            labelnames=("stage",),
        )
        self._m_stage = {stage: stage_hist.labels(stage) for stage in STAGE_NAMES}
        self._m_updates = reg.counter(
            "laca_updates_total", "Graph deltas applied"
        )
        self._m_update_seconds = reg.histogram(
            "laca_update_seconds",
            "Apply-plus-refresh latency of one graph delta",
            bounds=LATENCY_BUCKETS,
        )
        self._m_invalidated = reg.counter(
            "laca_cache_entries_invalidated_total",
            "Cache entries dropped by epoch advances",
        )
        self._m_promoted = reg.counter(
            "laca_cache_entries_promoted_total",
            "Cache entries carried across epoch advances (support-disjoint)",
        )
        self._m_worker_batches = reg.counter(
            "laca_worker_batches_total", "Blocks answered per pool worker", ("worker",)
        )
        self._m_worker_seeds = reg.counter(
            "laca_worker_seeds_total", "Seeds answered per pool worker", ("worker",)
        )
        self._m_worker_restarts = reg.counter(
            "laca_worker_restarts_total",
            "Crashed pool workers respawned by the supervisor",
        )
        self._m_block_retries = reg.counter(
            "laca_block_retries_total",
            "Blocks re-dispatched after losing their worker mid-flight",
        )
        self._m_wal_records = reg.counter(
            "laca_wal_records_total",
            "Graph deltas appended to the write-ahead log",
        )
        self.engine_metrics = make_engine_metrics(reg)

    # ------------------------------------------------------------------
    def record_batch(
        self, occupancy: int, engine_seconds: float, worker_id: int | None = None
    ) -> None:
        """One dispatched block: how many requests shared the traversal.

        ``worker_id`` folds the pool's per-worker occupancy ledger into
        the same lock acquisition (it used to be a second round-trip).
        """
        occupancy = int(occupancy)
        engine_seconds = float(engine_seconds)
        with self._lock:
            self._batches += 1
            self._occupancy_sum += occupancy
            self._occupancy_max = max(self._occupancy_max, occupancy)
            self._engine_seconds += engine_seconds
            self._served += occupancy
            if worker_id is not None:
                worker_id = int(worker_id)
                self._worker_batches[worker_id] = (
                    self._worker_batches.get(worker_id, 0) + 1
                )
                self._worker_seeds[worker_id] = (
                    self._worker_seeds.get(worker_id, 0) + occupancy
                )
        self._m_batches.inc()
        self._m_occupancy.observe(occupancy)
        self._m_engine_seconds.inc(engine_seconds)
        self._m_requests_engine.inc(occupancy)
        if worker_id is not None:
            self._m_worker_batches.labels(worker_id).inc()
            self._m_worker_seeds.labels(worker_id).inc(occupancy)

    def record_latency(self, seconds: float) -> None:
        """Submit→resolve latency of one engine-answered request."""
        seconds = float(seconds)
        with self._lock:
            self._latencies.append(seconds)
        self._m_request_seconds.observe(seconds)

    def record_span(self, span) -> None:
        """Fold one resolved request span into the per-stage views.

        Accepts anything exposing the :class:`~repro.obs.tracing.Span`
        duration properties; stages whose endpoints were never marked
        (cache hits, failures) are skipped.
        """
        total = span.total_s
        if total is not None:
            self.record_latency(total)
        durations = (
            ("queue_wait", span.queue_wait_s),
            ("engine", span.engine_s if span.dispatched is not None else None),
            ("collect", span.collect_s),
        )
        with self._lock:
            for stage, value in durations:
                if value is not None:
                    self._stage_windows[stage].append(float(value))
        for stage, value in durations:
            if value is not None:
                self._m_stage[stage].observe(value)

    def record_cache_hit(self) -> None:
        """One request resolved from the result cache (no enqueue)."""
        with self._lock:
            self._cache_served += 1
        self._m_requests_cache.inc()

    def record_error(self, kind: str = "internal") -> None:
        """One failed request, typed by cause (engine / closed / ...)."""
        kind = str(kind)
        with self._lock:
            self._errors += 1
            self._errors_by_kind[kind] = self._errors_by_kind.get(kind, 0) + 1
        self._m_errors.labels(kind).inc()

    def record_shed(self) -> None:
        """One request rejected at admission (queue depth bound hit)."""
        with self._lock:
            self._shed += 1
        self._m_shed.inc()

    def record_deadline_miss(self) -> None:
        """One admitted request dropped because its deadline passed
        while it sat in the queue (never dispatched to a worker)."""
        with self._lock:
            self._deadline_misses += 1
        self._m_deadline.inc()

    def record_worker_restart(self) -> None:
        """One crashed pool worker respawned by the supervisor."""
        with self._lock:
            self._worker_restarts += 1
        self._m_worker_restarts.inc()

    def record_block_retry(self) -> None:
        """One block re-dispatched after its worker died mid-flight."""
        with self._lock:
            self._block_retries += 1
        self._m_block_retries.inc()

    def record_wal_append(self) -> None:
        """One graph delta appended durably to the write-ahead log."""
        with self._lock:
            self._wal_records += 1
        self._m_wal_records.inc()

    def record_update(
        self, seconds: float, invalidated: int = 0, promoted: int = 0
    ) -> None:
        """One applied graph delta: apply→refresh latency and how the
        result cache was reconciled (entries dropped vs carried over)."""
        seconds = float(seconds)
        with self._lock:
            self._updates += 1
            self._update_seconds += seconds
            self._update_latencies.append(seconds)
            self._entries_invalidated += int(invalidated)
            self._entries_promoted += int(promoted)
        self._m_updates.inc()
        self._m_update_seconds.observe(seconds)
        self._m_invalidated.inc(int(invalidated))
        self._m_promoted.inc(int(promoted))

    # ------------------------------------------------------------------
    def merge_engine_delta(self, families) -> None:
        """Fold a worker registry's :meth:`~MetricsRegistry.drain` home."""
        if families:
            self.registry.merge(families)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat stats dict (the service merges in cache stats).

        Latency percentiles cover the most recent samples (the window
        size); every other figure covers the service's whole lifetime.
        """
        with self._lock:
            latencies = list(self._latencies)
            stage_windows = {
                stage: list(window)
                for stage, window in self._stage_windows.items()
            }
            batches = self._batches
            occupancy_sum = self._occupancy_sum
            occupancy_max = self._occupancy_max
            engine_seconds = self._engine_seconds
            served = self._served
            cache_served = self._cache_served
            errors = self._errors
            errors_by_kind = dict(sorted(self._errors_by_kind.items()))
            updates = self._updates
            update_seconds = self._update_seconds
            update_latencies = list(self._update_latencies)
            entries_invalidated = self._entries_invalidated
            entries_promoted = self._entries_promoted
            shed = self._shed
            deadline_misses = self._deadline_misses
            worker_restarts = self._worker_restarts
            block_retries = self._block_retries
            wal_records = self._wal_records
            worker_occupancy = {
                worker_id: {
                    "batches": self._worker_batches[worker_id],
                    "seeds": self._worker_seeds.get(worker_id, 0),
                }
                for worker_id in sorted(self._worker_batches)
            }
        occupancy = occupancy_sum / batches if batches else 0.0
        seeds_per_s = served / engine_seconds if engine_seconds > 0.0 else 0.0
        stats = {
            "requests": served + cache_served,
            "engine_served": served,
            "cache_served": cache_served,
            "errors": errors,
            "errors_by_kind": errors_by_kind,
            "batches": batches,
            "mean_batch_occupancy": round(occupancy, 3),
            "max_batch_occupancy": occupancy_max,
            "engine_seconds": round(engine_seconds, 6),
            "seeds_per_s": round(seeds_per_s, 1),
            "p50_latency_s": round(latency_percentile(latencies, 50.0), 6),
            "p95_latency_s": round(latency_percentile(latencies, 95.0), 6),
            "updates": updates,
            "update_seconds": round(update_seconds, 6),
            "p50_update_s": round(latency_percentile(update_latencies, 50.0), 6),
            "entries_invalidated": entries_invalidated,
            "entries_promoted": entries_promoted,
            "shed": shed,
            "deadline_misses": deadline_misses,
            "worker_occupancy": worker_occupancy,
            "worker_restarts": worker_restarts,
            "block_retries": block_retries,
            "wal_records": wal_records,
        }
        for stage in STAGE_NAMES:
            window = stage_windows[stage]
            stats[f"p50_{stage}_s"] = round(latency_percentile(window, 50.0), 6)
            stats[f"p95_{stage}_s"] = round(latency_percentile(window, 95.0), 6)
        return stats
