"""Closed-loop clients for the three workloads.

Each client talks to a service only through ``submit``, ``apply_update``
and ``stats``, timestamps every answer in the future's done-callback, and
returns a :class:`Phase` holding what it saw.  All three are closed loops:
the client sends more only when earlier requests have resolved.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import CLUSTER_SIZE, MIXED_INFLIGHT, QUERIES_PER_UPDATE

#: Fewest answered queries a measured phase holds (p95 needs 200).
MIN_QUERIES = 200


@dataclass
class Phase:
    """What one measured phase submitted, got back and how long it took."""

    latencies: list[float] = field(default_factory=list)
    #: ``(seed, epoch the query was keyed at, cluster)`` per answer.
    answers: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    query_attempted: int = 0
    query_failed: int = 0
    update_latencies: list[float] = field(default_factory=list)
    update_attempted: int = 0
    update_failed: int = 0
    #: Deltas applied, as ``(add_edges, remove_edges)``, in order.
    deltas: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    elapsed: float = 0.0
    #: ``service.stats()`` once every submitted future had resolved.
    stats: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return len(self.latencies)

    def fail_query(self, exc: BaseException) -> None:
        self.query_failed += 1
        self.errors.append(f"query: {type(exc).__name__}: {exc}")


def _stamped(future, done: queue.SimpleQueue, tag) -> None:
    """Push ``(tag, future, resolve time)`` onto ``done`` when it resolves.

    The callback runs in the resolving thread right after the result is
    set (or at once for an already-resolved cache hit), so the time is
    the resolve time, not the time the client got round to looking.
    """
    future.add_done_callback(
        lambda fut: done.put((tag, fut, time.perf_counter()))
    )


def _settle(phase: Phase, future, submitted_at: float, resolved_at: float,
            seed: int, epoch: int) -> None:
    try:
        cluster = future.result()
    except Exception as exc:  # typed service failures count, never abort
        phase.fail_query(exc)
        return
    phase.latencies.append(resolved_at - submitted_at)
    phase.answers.append((int(seed), int(epoch), np.asarray(cluster)))


def run_serial(service, seeds, seconds: float) -> Phase:
    """One client, one query at a time, distinct uniform seeds."""
    phase = Phase()
    done: queue.SimpleQueue = queue.SimpleQueue()
    start = time.perf_counter()
    for seed in seeds:
        if time.perf_counter() - start >= seconds and phase.answered >= MIN_QUERIES:
            break
        phase.query_attempted += 1
        submitted_at = time.perf_counter()
        try:
            future = service.submit(int(seed), CLUSTER_SIZE)
        except Exception as exc:
            phase.fail_query(exc)
            continue
        _stamped(future, done, None)
        _, future, resolved_at = done.get()
        _settle(phase, future, submitted_at, resolved_at, seed, 0)
    phase.elapsed = time.perf_counter() - start
    phase.stats = service.stats()
    return phase


def run_burst(service, waves, seconds: float) -> Phase:
    """Whole waves submitted at once; the next wave waits for the last.

    Latency runs from the wave's submit time, so it includes the time a
    request queued behind the rest of its wave.
    """
    phase = Phase()
    done: queue.SimpleQueue = queue.SimpleQueue()
    start = time.perf_counter()
    for wave in waves:
        if time.perf_counter() - start >= seconds and phase.answered >= MIN_QUERIES:
            break
        wave_start = time.perf_counter()
        pending = 0
        for seed in wave:
            phase.query_attempted += 1
            try:
                future = service.submit(int(seed), CLUSTER_SIZE)
            except Exception as exc:
                phase.fail_query(exc)
                continue
            _stamped(future, done, int(seed))
            pending += 1
        for _ in range(pending):
            seed, future, resolved_at = done.get()
            _settle(phase, future, wave_start, resolved_at, seed, 0)
    phase.elapsed = time.perf_counter() - start
    phase.stats = service.stats()
    return phase


def run_mixed(service, seeds, deltas, make_delta, seconds: float,
              min_updates: int) -> Phase:
    """``MIXED_INFLIGHT`` queries in flight; a delta after every
    ``QUERIES_PER_UPDATE`` answers, applied by the same client thread.

    ``deltas`` yields ``(add_edges, remove_edges)``; ``make_delta`` turns
    one into the program's delta object.  Update pauses count in the
    elapsed time.
    """
    phase = Phase()
    done: queue.SimpleQueue = queue.SimpleQueue()
    seeds = iter(seeds)
    inflight: dict[int, tuple[int, float, int]] = {}
    next_tag = 0
    since_update = 0
    start = time.perf_counter()

    def enough() -> bool:
        return (
            time.perf_counter() - start >= seconds
            and phase.answered >= MIN_QUERIES
            and phase.update_attempted >= min_updates
        )

    stopping = False
    while True:
        stopping = stopping or enough()
        while not stopping and len(inflight) < MIXED_INFLIGHT:
            seed = int(next(seeds))
            epoch = service.epoch
            phase.query_attempted += 1
            submitted_at = time.perf_counter()
            try:
                future = service.submit(seed, CLUSTER_SIZE)
            except Exception as exc:
                phase.fail_query(exc)
                continue
            inflight[next_tag] = (seed, submitted_at, epoch)
            _stamped(future, done, next_tag)
            next_tag += 1
        if not inflight:
            break
        tag, future, resolved_at = done.get()
        seed, submitted_at, epoch = inflight.pop(tag)
        _settle(phase, future, submitted_at, resolved_at, seed, epoch)
        since_update += 1
        if since_update >= QUERIES_PER_UPDATE and not stopping:
            since_update = 0
            add, remove = next(deltas)
            phase.update_attempted += 1
            began = time.perf_counter()
            try:
                service.apply_update(make_delta(add, remove))
            except Exception as exc:
                phase.update_failed += 1
                phase.errors.append(f"update: {type(exc).__name__}: {exc}")
                continue
            phase.update_latencies.append(time.perf_counter() - began)
            phase.deltas.append((add, remove))
    phase.elapsed = time.perf_counter() - start
    phase.stats = service.stats()
    return phase


def ledger(phase: Phase) -> dict:
    """The request ledger read from outside: what the client submitted
    against what ``stats()`` accounts for.  A non-zero gap is a finding."""
    stats = phase.stats
    accounted = (
        stats["engine_served"] + stats["cache_served"] + stats["shed"]
        + stats["deadline_misses"] + stats["errors"]
    )
    return {
        "queries": {
            "attempted": phase.query_attempted,
            "succeeded": phase.answered,
            "failed": phase.query_failed,
        },
        "updates": {
            "attempted": phase.update_attempted,
            "succeeded": len(phase.update_latencies),
            "failed": phase.update_failed,
        },
        "stats_accounted": accounted,
        "ledger_gap": phase.query_attempted - accounted,
    }
