"""Multi-process serving: a worker pool over one shared-memory graph.

:class:`~repro.serving.service.ClusterService` answers every block in
one process — one GIL, shared by its engine threads.
:class:`PoolClusterService` keeps the exact same front-end (``submit`` /
``cluster`` / ``apply_update`` / ``stats``) and fans the gathered blocks
out to ``workers`` OS processes instead:

- the head snapshot's CSR arrays and TNAM factor are published **once**
  into :mod:`multiprocessing.shared_memory` segments
  (:func:`~repro.graphs.shm.publish_snapshot`; an epoch advance copies
  only the arrays the delta changed and shares the rest with the
  generation it replaces); each worker attaches a
  zero-copy :class:`~repro.graphs.graph.AttributedGraph` view, hydrates
  a :class:`~repro.core.pipeline.LACA` from the parent's fit state
  (:meth:`LACA.from_fit_state` — no refitting), and owns a private
  :class:`~repro.diffusion.workspace.DiffusionWorkspace`;
- the dispatcher thread gathers blocks exactly as before but *assigns*
  them to the least-loaded live worker and moves on; the worker
  computes the block with the service's own
  :func:`~repro.serving.service.answer_block`, and a collector thread
  hands each result to the service's resolve step as it streams back,
  so all workers compute concurrently;
- answers are **bitwise identical** to :meth:`LACA.cluster`: same
  arrays (shared pages), same engines, same arithmetic.

Fault tolerance (PR 8) rests on exactly that identity: a cluster query
is a pure function of ``(snapshot, seed, size)``, so recomputing a lost
block *is* the answer, not an approximation of it.  Three mechanisms:

- **Supervision & respawn** — a supervisor thread detects dead workers,
  fails nothing, and respawns them with capped exponential backoff
  under a restart budget per sliding window.  Respawned workers
  re-hydrate from the shared-memory manifest *at the current
  generation* (the respawn path and the epoch barrier read/write the
  manifest under one lock), so they rejoin correctly even mid-update.
- **Idempotent block retry** — blocks in flight on a dead worker are
  re-enqueued onto the dispatcher queue (up to ``max_retries`` per
  request, per-request deadlines still honored) and re-dispatched to a
  surviving or respawned worker.  A retry that crossed an epoch
  advance is failed instead of recomputed — its cache key names the
  old snapshot.
- **In-process fallback** — with ``fallback_inprocess=True``, losing
  *every* worker degrades the pool to answering blocks on the
  dispatcher thread (the plain :class:`ClusterService` path, same
  bitwise answers, never split across engine threads, so a respawn
  never forks beside them) instead of failing the service; the pool
  re-engages automatically once a respawn lands.

Epoch advances reuse the in-process marker mechanism and add a barrier:
:meth:`_propagate_refresh` publishes the refreshed snapshot, enqueues a
``reload`` message on every worker's task queue — FIFO order *is* the
barrier: the reload rides behind every block gathered before the
marker, so no worker ever answers a post-marker request on a pre-marker
snapshot — and waits for all acks before releasing the old generation
(which unlinks only the segments the new one does not share).
A worker that dies mid-barrier no longer hangs it: the supervisor
removes it from the pending-ack set.  A worker that fails to reload
fails the service closed (it could otherwise silently serve stale
answers).

Admission control bounds what the pool will buffer: ``max_pending``
caps in-flight requests (excess is shed with :class:`PoolSaturated`),
and ``deadline_s`` stamps each admitted request with a deadline —
requests still queued when it passes are dropped with
:class:`DeadlineExceeded` instead of being computed late.  Both surface
in :meth:`stats` (``shed``, ``deadline_misses``, ``worker_occupancy``),
as do the fault-tolerance counters (``worker_restarts``,
``block_retries``, ``fallback_active``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
import traceback

from ..core.pipeline import LACA
from ..graphs.shm import attach_snapshot, publish_snapshot
from ..graphs.store import GraphStore
from ..obs.metrics import MetricsRegistry
from .service import (
    ClusterService,
    _fail_future,
    _Request,
    _unresolved,
    answer_block,
)
from .telemetry import make_engine_metrics

__all__ = [
    "PoolClusterService",
    "PoolSaturated",
    "DeadlineExceeded",
    "WorkerError",
]


class PoolSaturated(RuntimeError):
    """Typed load-shed rejection: the pool's pending-queue bound is hit.

    Raised by ``submit`` *before* enqueueing, so no future is created —
    the caller backs off (or retries) immediately instead of queueing
    work the pool cannot absorb.
    """


class DeadlineExceeded(TimeoutError):
    """An admitted request's deadline passed while it waited in queue.

    The request was never dispatched to a worker (or lost its worker
    and expired before a retry): shedding it keeps a backed-up pool
    from burning cycles computing answers nobody is still waiting for.
    """


class WorkerError(RuntimeError):
    """Portable stand-in for a worker exception that cannot pickle.

    Queues pickle everything they carry; an exception class holding a
    lock, a socket, or a custom ``__init__`` the parent cannot call
    would otherwise surface as an opaque transport error.  This wrapper
    preserves what the future holder actually needs — the original type
    name, message, and formatted traceback — and is itself always
    picklable (``__reduce__`` rebuilds from those three strings).
    """

    def __init__(
        self, original_type: str, original_message: str, traceback_text: str = ""
    ) -> None:
        super().__init__(f"{original_type}: {original_message}")
        self.original_type = original_type
        self.original_message = original_message
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (
            WorkerError,
            (self.original_type, self.original_message, self.traceback_text),
        )


def _portable_error(exc: BaseException) -> BaseException:
    """A picklable stand-in for ``exc`` (result queues pickle).

    The original instance is kept only when a pickle round-trip
    faithfully reproduces it (same type, same message) — merely *not
    raising* is not enough, since a lossy ``__reduce__`` could silently
    strip the message.  Everything else is wrapped in
    :class:`WorkerError`, preserving type name, message, and traceback.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc) and str(clone) == str(exc):
            return exc
    except Exception:
        pass
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return WorkerError(type(exc).__name__, str(exc), tb)


def _hydrate(fit_state: dict, attached) -> LACA:
    """Rebuild the parent's fitted model over the attached shared view.

    The TNAM factor travels through shared memory, not the pickled fit
    state: reinserting ``attached.tnam_z`` (float64 already, so
    ``np.asarray`` inside ``from_fit_state`` copies nothing) keeps the
    worker's model zero-copy end to end.
    """
    state = dict(fit_state)
    if attached.tnam_z is not None:
        state["tnam_z"] = attached.tnam_z
    return LACA.from_fit_state(state, attached.graph)


def _worker_main(
    worker_id, spawn, manifest, fit_state, tasks, results, fault_plan=None
) -> None:
    """Pool worker process: attach, hydrate, answer blocks until told to stop.

    Messages in (FIFO — ordering is the epoch barrier):
      ``("block", block_id, seeds, sizes)`` — answer one gathered block;
      ``("reload", generation, manifest, fit_state)`` — re-attach the new
      snapshot, then ack;
      ``("stop",)`` — exit after the queue drained to here.
    Messages out: ``("result", worker_id, block_id, payload, error)`` and
    ``("reload-ack", worker_id, generation, error)``.

    ``spawn`` counts incarnations of this worker slot (0 for the
    original, +1 per respawn) — fault-plan rules match on it to target
    a specific incarnation, since rule counters are per-process state.

    Result payloads are ``(clusters, supports, engine_seconds,
    metrics_delta)``: the worker observes engine introspection into a
    private registry and drains it per block, so its counters ride the
    existing result queue home and merge into the head registry —
    no extra IPC channel, no shared locks.
    """
    attached = attach_snapshot(manifest)
    model = _hydrate(fit_state, attached)
    workspace = model.make_workspace()
    registry = MetricsRegistry("laca")
    engine_metrics = make_engine_metrics(registry)
    blocks_seen = 0
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "reload":
            _, generation, new_manifest, new_state = message
            try:
                if fault_plan is not None:
                    # "delay" holds the ack back; "raise" fails the reload.
                    fault_plan.check(
                        "worker.reload",
                        worker_id=worker_id, spawn=spawn, generation=generation,
                    )
                fresh = attach_snapshot(new_manifest)
                model = _hydrate(new_state, fresh)
                workspace = model.make_workspace()
                attached.close()
                attached = fresh
                results.put(("reload-ack", worker_id, generation, None))
            except BaseException as exc:  # noqa: BLE001 — must always ack
                results.put(
                    ("reload-ack", worker_id, generation, _portable_error(exc))
                )
            continue
        _, block_id, seeds, sizes = message
        try:
            if fault_plan is not None:
                # "exit" is a hard kill mid-block (the block is lost and
                # must be retried); "raise" emulates an engine crash.
                fault_plan.check(
                    "worker.block",
                    worker_id=worker_id, spawn=spawn, block_index=blocks_seen,
                )
            clusters, supports, engine_seconds = answer_block(
                model, workspace, seeds, sizes, engine_metrics
            )
            payload = (clusters, supports, engine_seconds, registry.drain())
            results.put(("result", worker_id, block_id, payload, None))
        except BaseException as exc:  # noqa: BLE001 — must always answer
            results.put(
                ("result", worker_id, block_id, None, _portable_error(exc))
            )
        blocks_seen += 1
    attached.close()


class PoolClusterService(ClusterService):
    """:class:`ClusterService` front-end, multi-process back-end.

    Parameters (beyond :class:`ClusterService`'s)
    ----------
    workers:
        Number of worker processes.  Each holds a zero-copy view of the
        shared graph and a private diffusion workspace.
    max_pending:
        Admission bound: highest number of admitted-but-unresolved
        requests.  ``submit`` beyond it raises :class:`PoolSaturated`
        (and the shed is counted in telemetry).  ``None`` = unbounded.
    deadline_s:
        Per-request deadline stamped at admission.  A request still
        undisptached when it expires fails with
        :class:`DeadlineExceeded` instead of occupying a worker.
        ``None`` = no deadlines.
    max_retries:
        How many times one request may be re-enqueued after losing its
        worker mid-flight before it fails.  Retried answers are bitwise
        identical by construction (pure function of snapshot and
        query).  ``0`` pins the pre-supervision behavior: a worker
        death fails its in-flight requests outright.
    restart_budget:
        How many respawns one worker slot gets per
        ``restart_window_s`` sliding window.  ``0`` disables
        supervision entirely (dead workers stay dead).
    restart_window_s / backoff_base_s / backoff_max_s:
        Respawn pacing: the k-th respawn within a window waits
        ``min(backoff_base_s * 2**k, backoff_max_s)``.
    fallback_inprocess:
        When True, losing every worker degrades the pool to in-process
        answering (dispatcher-thread compute, same bitwise answers)
        instead of failing the service; the pool re-engages once a
        respawned worker is available.
    fault_plan:
        Optional :class:`~repro.testing.faults.FaultPlan` threaded into
        every worker (``worker.block`` / ``worker.reload`` sites) and
        the collector (``pool.result``) for deterministic chaos tests.
    mp_context:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/...).
        Default: ``fork`` where available (Linux — instant start), else
        ``spawn``.  Workers are started before any service thread, so
        fork is safe here; respawns fork from a threaded parent, which
        is safe for these workers because they touch only their own
        state, the shared segments, and their queues.
    reload_timeout_s:
        How long an epoch advance waits for every worker to ack its
        reload before failing the service closed.
    """

    def __init__(
        self,
        model: LACA,
        *,
        workers: int = 2,
        max_pending: int | None = None,
        deadline_s: float | None = None,
        max_retries: int = 2,
        restart_budget: int = 3,
        restart_window_s: float = 60.0,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 5.0,
        fallback_inprocess: bool = False,
        fault_plan=None,
        mp_context: str | None = None,
        reload_timeout_s: float = 60.0,
        store: GraphStore | None = None,
        **kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        if restart_window_s <= 0:
            raise ValueError(
                f"restart_window_s must be positive, got {restart_window_s}"
            )
        if backoff_base_s < 0 or backoff_max_s < backoff_base_s:
            raise ValueError(
                "backoff bounds must satisfy 0 <= backoff_base_s <= "
                f"backoff_max_s, got {backoff_base_s}/{backoff_max_s}"
            )
        # The store-head refresh normally done by the base constructor
        # must happen *before* the snapshot is published, so workers
        # attach the snapshot the service will actually serve.
        graph = model._require_fit()
        if store is not None and store.head is not graph:
            model.refresh(store)
            graph = model._require_fit()

        self.workers = int(workers)
        self.max_pending = max_pending if max_pending is None else int(max_pending)
        self.deadline_s = deadline_s if deadline_s is None else float(deadline_s)
        self.max_retries = int(max_retries)
        self.restart_budget = int(restart_budget)
        self.restart_window_s = float(restart_window_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.fallback_inprocess = bool(fallback_inprocess)
        self._fault_plan = fault_plan
        self._reload_timeout_s = float(reload_timeout_s)

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = ctx = multiprocessing.get_context(mp_context)

        self._shared = publish_snapshot(
            graph, tnam_z=model.tnam.z if model.tnam is not None else None
        )
        worker_state = self._worker_fit_state(model)
        self._tasks = [ctx.SimpleQueue() for _ in range(self.workers)]
        self._results = ctx.Queue()
        # Pool state shared between dispatcher, collector, and supervisor.
        self._pool_lock = threading.Lock()
        self._pending = 0
        self._next_block = 0
        self._inflight: dict[int, tuple[int, list[_Request]]] = {}
        self._outstanding = [0] * self.workers
        self._worker_dead = [False] * self.workers
        self._reload_generation = 0
        self._reload_pending: set[int] = set()
        self._reload_errors: list[BaseException] = []
        self._reload_event = threading.Event()
        self._collector_stop = threading.Event()
        self._pool_closed = False
        # Supervision state.  The *current* manifest/fit-state pair is
        # what a respawn hydrates from; the epoch barrier updates it
        # under the pool lock, so respawns always join at the serving
        # generation.
        self._current_manifest = self._shared.manifest
        self._current_state = worker_state
        self._spawn_counts = [0] * self.workers
        self._restart_times: list[list[float]] = [[] for _ in range(self.workers)]
        self._respawn_at: list[float | None] = [None] * self.workers
        self._parked: list[list[_Request]] = []
        self._fallback_active = False
        self._supervisor_stop = threading.Event()
        self._supervise_interval_s = 0.05

        # Workers fork before any service thread exists (fork-with-
        # threads is the classic multiprocessing deadlock).
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    i,
                    0,
                    self._shared.manifest,
                    worker_state,
                    self._tasks[i],
                    self._results,
                    fault_plan,
                ),
                name=f"cluster-pool-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        try:
            for proc in self._procs:
                proc.start()
            super().__init__(model, store=store, **kwargs)
        except BaseException:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            self._shared.close()
            raise
        self._collector = threading.Thread(
            target=self._collect_loop,
            name=f"cluster-pool-collector-{self.name}",
            daemon=True,
        )
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name=f"cluster-pool-supervisor-{self.name}",
            daemon=True,
        )
        self._supervisor.start()

        registry = self.telemetry.registry
        pending_gauge = registry.gauge(
            "laca_pending_requests", "Admitted-but-unresolved requests"
        )
        alive_gauge = registry.gauge(
            "laca_workers_alive", "Live pool worker processes"
        )
        inflight_gauge = registry.gauge(
            "laca_inflight_blocks", "Blocks dispatched but not yet resolved"
        )
        fallback_gauge = registry.gauge(
            "laca_fallback_active",
            "1 while blocks are answered in-process because no pool "
            "worker is alive",
        )

        def _pool_gauges() -> None:
            with self._pool_lock:
                pending_gauge.set(self._pending)
                alive_gauge.set(sum(1 for dead in self._worker_dead if not dead))
                inflight_gauge.set(len(self._inflight))
                fallback_gauge.set(1.0 if self._fallback_active else 0.0)

        registry.add_hook(_pool_gauges)

    @staticmethod
    def _worker_fit_state(model: LACA) -> dict:
        """Hydration state shipped to workers: no maintenance arrays
        (workers never refresh) and no TNAM factor (it travels through
        shared memory instead of the pickle)."""
        state = model.fit_state(include_maintenance=False)
        state.pop("tnam_z", None)
        return state

    # ------------------------------------------------------------------
    # Admission control (runs under the close lock, from submit()).
    def _admit(self, request: _Request) -> None:
        with self._pool_lock:
            if self.max_pending is not None and self._pending >= self.max_pending:
                self.telemetry.record_shed()
                raise PoolSaturated(
                    f"pool is saturated: {self._pending} requests pending "
                    f"(max_pending={self.max_pending}); retry after backoff"
                )
            self._pending += 1
        if self.deadline_s is not None:
            request.deadline = request.enqueued_at + self.deadline_s
        request.future.add_done_callback(self._release_admission)

    def _release_admission(self, _future) -> None:
        with self._pool_lock:
            self._pending -= 1

    def _engine_width(self, block_size: int) -> int:
        """One thread: blocks go to worker processes, and the in-process
        fallback must not leave engine threads alive in a head that
        forks respawned workers."""
        return 1

    @property
    def pending(self) -> int:
        """Admitted requests not yet resolved (the admission ledger)."""
        with self._pool_lock:
            return self._pending

    # ------------------------------------------------------------------
    # Dispatch: assign the gathered block to a worker and move on.
    def _answer(self, block: list[_Request]) -> None:
        if self._failed is not None:
            error = RuntimeError("service is failed: an update did not land")
            error.__cause__ = self._failed
            self._fail_requests(block, error, "failed")
            return
        now = time.perf_counter()
        live: list[_Request] = []
        for request in block:
            if request.deadline is not None and now > request.deadline:
                self.telemetry.record_deadline_miss()
                self._trace_failed_span(request, "deadline_exceeded", now)
                _fail_future(
                    request.future,
                    DeadlineExceeded(
                        f"request (seed={request.seed}) spent more than "
                        f"{self.deadline_s}s queued and was dropped undispatched"
                    ),
                )
            elif (
                request.requeued
                and request.epoch is not None
                and request.epoch != self._epoch
            ):
                # A retried (or parked) request that crossed an epoch
                # advance: its cache key names the snapshot it was
                # submitted against, and recomputing it on the new one
                # would poison the cache with a cross-epoch answer.
                self.telemetry.record_error("stale_epoch")
                self._trace_failed_span(request, "stale_epoch", now)
                _fail_future(
                    request.future,
                    RuntimeError(
                        f"request (seed={request.seed}) was keyed at epoch "
                        f"{request.epoch} but the service moved to epoch "
                        f"{self._epoch} before it could be dispatched "
                        "(it lost its worker mid-update); resubmit"
                    ),
                )
            else:
                if request.span is not None:
                    request.span.mark("dispatched", now)
                live.append(request)
        if not live:
            return
        if self._dispatch(live):
            return
        # No live worker to take the block.
        if self.fallback_inprocess:
            self._set_fallback(True)
            ClusterService._answer(self, live)
            return
        with self._pool_lock:
            park = not self._pool_closed and any(
                at is not None for at in self._respawn_at
            )
            if park:
                # A respawn is scheduled: hold the block until the
                # worker is back rather than failing the service.
                self._parked.append(live)
        if park:
            return
        error = RuntimeError("every pool worker is dead; the service is failed")
        with self._close_lock:
            if self._failed is None:
                self._failed = error
        self._fail_requests(live, error, "worker")

    def _dispatch(self, live: list[_Request]) -> bool:
        """Hand ``live`` to the least-loaded live worker; False if none."""
        with self._pool_lock:
            alive = [
                i
                for i in range(self.workers)
                if not self._worker_dead[i] and self._procs[i].is_alive()
            ]
            if not alive:
                return False
            worker_id = min(alive, key=lambda i: self._outstanding[i])
            block_id = self._next_block
            self._next_block += 1
            self._inflight[block_id] = (worker_id, live)
            self._outstanding[worker_id] += 1
        self._set_fallback(False)
        try:
            self._tasks[worker_id].put(
                (
                    "block",
                    block_id,
                    [int(request.seed) for request in live],
                    [int(request.size) for request in live],
                )
            )
        except BaseException as exc:  # worker pipe broke mid-dispatch
            with self._pool_lock:
                self._inflight.pop(block_id, None)
                self._outstanding[worker_id] -= 1
            # The worker is dying (or dead); run the death bookkeeping
            # now rather than waiting for the supervisor's next sweep,
            # then send these requests down the ordinary retry path.
            self._mark_worker_dead(worker_id)
            error = RuntimeError(f"dispatch to pool worker {worker_id} failed")
            error.__cause__ = exc
            self._retry_or_fail(live, error, worker_id)
            self._check_terminal()
        return True

    def _trace_failed_span(self, request: _Request, error: str, now: float) -> None:
        if request.span is not None and self.trace_log is not None:
            request.span.error = error
            request.span.mark("resolved", now)
            self.trace_log.record_span(request.span)

    def _set_fallback(self, active: bool) -> None:
        with self._pool_lock:
            if self._fallback_active == active:
                return
            self._fallback_active = active
        if self.trace_log is not None:
            self.trace_log.record_event("fallback_inprocess", active=active)

    # ------------------------------------------------------------------
    # Collector: resolve futures as workers stream results back.
    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._results.get(timeout=0.25)
            except queue.Empty:
                if self._collector_stop.is_set():
                    return
                continue
            except (OSError, EOFError):
                return  # queue torn down under us during interpreter exit
            except Exception:  # noqa: BLE001 — unpicklable payload
                # The message is consumed and unattributable; its block
                # resolves through the death/retry machinery instead of
                # taking the collector thread down with it.
                self.telemetry.record_error("collector")
                continue
            kind = message[0]
            if kind == "collector-stop":
                return
            if self._fault_plan is not None and self._fault_plan.check(
                "pool.result", kind=kind, worker_id=message[1]
            ):
                continue  # injected message loss (a torn result pipe)
            block = None
            try:
                if kind == "reload-ack":
                    self._note_reload_ack(message)
                elif kind == "result":
                    _, worker_id, block_id, payload, error = message
                    with self._pool_lock:
                        entry = self._inflight.pop(block_id, None)
                        if entry is not None:
                            self._outstanding[worker_id] -= 1
                    # No entry: a late result for a block close() failed
                    # or the reaper already retried.
                    if entry is not None:
                        block = entry[1]
                        self._resolve_block(worker_id, block, payload, error)
            except BaseException as exc:  # noqa: BLE001 — keep collecting
                # The block is out of the in-flight table, so nothing
                # else will ever resolve what it left unanswered.
                if block is not None:
                    self._fail_requests(_unresolved(block), exc, "collector")

    def _note_reload_ack(self, message) -> None:
        _, worker_id, generation, error = message
        with self._pool_lock:
            if generation != self._reload_generation:
                return  # stale ack from an abandoned reload
            if error is not None:
                self._reload_errors.append(error)
            self._reload_pending.discard(worker_id)
            if not self._reload_pending:
                self._reload_event.set()

    def _resolve_block(self, worker_id, block, payload, error) -> None:
        if error is not None:
            self._fail_requests(block, error, "engine")
            return
        clusters, supports, engine_seconds, metrics_delta = payload
        self.telemetry.merge_engine_delta(metrics_delta)
        self._resolve(block, clusters, supports, engine_seconds, worker_id)

    # ------------------------------------------------------------------
    # Supervisor: detect deaths, retry lost blocks, respawn workers.
    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(self._supervise_interval_s):
            try:
                self._reap_dead_workers()
                self._respawn_due()
            except Exception:  # noqa: BLE001 — supervision must survive
                self.telemetry.record_error("supervisor")

    def _mark_worker_dead(self, worker_id: int) -> list[list[_Request]]:
        """Bookkeeping for one observed death (idempotent).

        Flags the slot dead, collects its in-flight request lists (the
        caller retries them), zeroes its load, unblocks a reload
        barrier waiting on its ack, and schedules a respawn if the
        restart budget allows.  Returns the lost request lists.
        """
        with self._pool_lock:
            if self._worker_dead[worker_id]:
                return []
            self._worker_dead[worker_id] = True
            lost_ids = [
                block_id
                for block_id, entry in self._inflight.items()
                if entry[0] == worker_id
            ]
            lost = [self._inflight.pop(block_id)[1] for block_id in lost_ids]
            self._outstanding[worker_id] = 0
            if worker_id in self._reload_pending:
                # A dead worker can never ack; holding the barrier on
                # it would hang every epoch advance behind a crash.
                self._reload_pending.discard(worker_id)
                if not self._reload_pending:
                    self._reload_event.set()
            now = time.monotonic()
            window = [
                at
                for at in self._restart_times[worker_id]
                if now - at < self.restart_window_s
            ]
            self._restart_times[worker_id] = window
            if len(window) < self.restart_budget and not self._pool_closed:
                delay = min(
                    self.backoff_base_s * (2 ** len(window)), self.backoff_max_s
                )
                self._respawn_at[worker_id] = now + delay
                respawn_in = delay
            else:
                self._respawn_at[worker_id] = None
                respawn_in = None
        if self.trace_log is not None:
            self.trace_log.record_event(
                "worker_death",
                worker_id=worker_id,
                exit_code=self._procs[worker_id].exitcode,
                lost_blocks=len(lost),
                respawn_in_s=respawn_in,
            )
        return lost

    def _reap_dead_workers(self) -> None:
        """Sweep for dead workers; retry their blocks, schedule respawns."""
        for worker_id in range(self.workers):
            with self._pool_lock:
                undetected = (
                    not self._worker_dead[worker_id]
                    and not self._procs[worker_id].is_alive()
                )
            if not undetected:
                continue
            lost = self._mark_worker_dead(worker_id)
            error = RuntimeError(
                f"pool worker {worker_id} died "
                f"(exit code {self._procs[worker_id].exitcode})"
            )
            for requests in lost:
                self._retry_or_fail(requests, error, worker_id)
            self._check_terminal()

    def _retry_or_fail(
        self, requests: list[_Request], cause: BaseException, worker_id: int
    ) -> None:
        """Re-enqueue requests lost to a worker death, within budgets.

        Retries ride the ordinary dispatcher queue, so they are
        re-gathered and re-dispatched exactly like fresh submissions —
        one code path, same bitwise answers.  Requests past their
        deadline or out of retries fail here instead.
        """
        now = time.perf_counter()
        survivors: list[_Request] = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                self.telemetry.record_deadline_miss()
                self._trace_failed_span(request, "deadline_exceeded", now)
                _fail_future(
                    request.future,
                    DeadlineExceeded(
                        f"request (seed={request.seed}) lost its worker and "
                        "its deadline passed before a retry could be "
                        "dispatched"
                    ),
                )
            elif request.retries >= self.max_retries:
                self.telemetry.record_error("worker")
                self._trace_failed_span(request, "retries_exhausted", now)
                error = RuntimeError(
                    f"request (seed={request.seed}) lost its pool worker "
                    f"{request.retries + 1} time(s) and is out of retries "
                    f"(max_retries={self.max_retries})"
                )
                error.__cause__ = cause
                _fail_future(request.future, error)
            else:
                request.retries += 1
                if request.span is not None:
                    request.span.retries = request.retries
                survivors.append(request)
        if not survivors:
            return
        self.telemetry.record_block_retry()
        if self.trace_log is not None:
            self.trace_log.record_event(
                "block_retry",
                worker_id=worker_id,
                requests=len(survivors),
            )
        self._requeue(survivors, cause)

    def _requeue(self, requests: list[_Request], cause: BaseException) -> None:
        """Put requests back on the dispatcher queue (close-safe)."""
        with self._close_lock:
            closed = self._closed
            if not closed:
                for request in requests:
                    request.requeued = True
                    self._queue.put(request)
        if closed:
            error = RuntimeError(
                "service closed before this request could be retried"
            )
            error.__cause__ = cause
            self._fail_requests(requests, error, "closed")

    def _respawn_due(self) -> None:
        """Start respawns whose backoff has elapsed.

        The whole respawn — manifest read, fork, liveness flip — holds
        the pool lock, making it atomic against the epoch barrier's
        manifest swap: a respawn sees either the old generation (and
        then receives the reload like any live worker would have,
        queued FIFO behind nothing) or the new one (already current).
        """
        now = time.monotonic()
        for worker_id in range(self.workers):
            spawned = False
            with self._pool_lock:
                at = self._respawn_at[worker_id]
                if (
                    at is None
                    or now < at
                    or self._pool_closed
                    or self._failed is not None
                ):
                    continue
                self._respawn_at[worker_id] = None
                spawn = self._spawn_counts[worker_id] + 1
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        spawn,
                        self._current_manifest,
                        self._current_state,
                        self._tasks[worker_id],
                        self._results,
                        self._fault_plan,
                    ),
                    name=f"cluster-pool-worker-{worker_id}-r{spawn}",
                    daemon=True,
                )
                try:
                    proc.start()
                except Exception:  # noqa: BLE001 — fork pressure; back off
                    self._respawn_at[worker_id] = now + self.backoff_max_s
                    continue
                self._procs[worker_id] = proc
                self._worker_dead[worker_id] = False
                self._spawn_counts[worker_id] = spawn
                self._restart_times[worker_id].append(time.monotonic())
                parked, self._parked = self._parked, []
                spawned = True
            if not spawned:
                continue
            self.telemetry.record_worker_restart()
            if self.trace_log is not None:
                self.trace_log.record_event(
                    "worker_respawn",
                    worker_id=worker_id,
                    spawn=spawn,
                    epoch=self._epoch,
                    generation=self._reload_generation,
                )
            for requests in parked:
                # Parked blocks flow back through _answer: deadline and
                # epoch checks re-run there before dispatch.
                self._requeue(
                    requests,
                    RuntimeError("no live pool worker when first dispatched"),
                )

    def _check_terminal(self) -> None:
        """Fail the service once recovery is impossible.

        Every worker dead, no respawn scheduled (budget exhausted), and
        no in-process fallback: nothing can ever answer again, so fail
        closed now — including any parked blocks — instead of letting
        futures hang until close().
        """
        if self.fallback_inprocess:
            return
        with self._pool_lock:
            recoverable = (
                any(not dead for dead in self._worker_dead)
                or any(at is not None for at in self._respawn_at)
                or self._pool_closed
            )
            if recoverable:
                return
            parked, self._parked = self._parked, []
        error = RuntimeError(
            "every pool worker is dead and the restart budget is "
            "exhausted; the service is failed"
        )
        with self._close_lock:
            if self._failed is None:
                self._failed = error
        for requests in parked:
            self._fail_requests(requests, error, "worker")

    # ------------------------------------------------------------------
    # Epoch barrier: republish, reload every worker, then retire the old
    # segments.  Runs on the dispatcher thread from _refresh(), after
    # the parent model refreshed but before the serving epoch advances.
    def _propagate_refresh(self, head) -> None:
        model = self.model
        state = self._worker_fit_state(model)
        # Segments whose bytes did not change (the TNAM factor on an
        # edge-only delta, the ones segment while nnz fits) are shared
        # with the serving generation instead of copied again.
        shared = publish_snapshot(
            head,
            tnam_z=model.tnam.z if model.tnam is not None else None,
            previous=self._shared,
        )
        previous = None
        try:
            with self._pool_lock:
                live = [
                    i for i in range(self.workers) if not self._worker_dead[i]
                ]
                self._reload_generation += 1
                generation = self._reload_generation
                self._reload_pending = set(live)
                self._reload_errors = []
                self._reload_event.clear()
                # Respawns from here on hydrate the *new* snapshot (the
                # respawn path reads these under this same lock).
                previous = (self._current_manifest, self._current_state)
                self._current_manifest = shared.manifest
                self._current_state = state
            if live:
                for worker_id in live:
                    # FIFO: this rides behind every pre-marker block
                    # already on the worker's queue — the epoch barrier.
                    self._tasks[worker_id].put(
                        ("reload", generation, shared.manifest, state)
                    )
                if not self._reload_event.wait(self._reload_timeout_s):
                    raise RuntimeError(
                        f"epoch {head.epoch} reload: not every worker acked "
                        f"within {self._reload_timeout_s}s"
                    )
                with self._pool_lock:
                    errors = list(self._reload_errors)
                if errors:
                    raise RuntimeError(
                        f"epoch {head.epoch} reload failed in "
                        f"{len(errors)} worker(s)"
                    ) from errors[0]
            else:
                with self._pool_lock:
                    recoverable = self.fallback_inprocess or any(
                        at is not None for at in self._respawn_at
                    )
                if not recoverable:
                    raise RuntimeError("no live pool workers to reload")
                # No barrier needed: respawns attach the new manifest
                # (swapped above), and fallback serves from the parent
                # model, which is already refreshed.
        except BaseException:
            with self._pool_lock:
                if previous is not None:
                    self._current_manifest, self._current_state = previous
            # Unlinks only what this publish created; the segments it
            # shares stay with the serving generation.
            shared.close()
            raise
        old = self._shared
        self._shared = shared
        # Every live worker acked (and respawns attach the new
        # manifest): old mappings are closed, and unlinked segments
        # stay valid for any mapping that still exists anyway.  Segments
        # the new generation shares survive this close.
        old.close()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        snapshot = super().stats()
        with self._pool_lock:
            snapshot["workers"] = self.workers
            snapshot["workers_alive"] = sum(
                1 for dead in self._worker_dead if not dead
            )
            snapshot["pending"] = self._pending
            snapshot["inflight_blocks"] = len(self._inflight)
            snapshot["parked_blocks"] = len(self._parked)
            snapshot["fallback_active"] = self._fallback_active
        snapshot["max_pending"] = self.max_pending
        snapshot["deadline_s"] = self.deadline_s
        snapshot["max_retries"] = self.max_retries
        snapshot["restart_budget"] = self.restart_budget
        return snapshot

    # ------------------------------------------------------------------
    def _do_close(self, timeout: float | None) -> bool:
        clean = super()._do_close(timeout)
        with self._pool_lock:
            first_close = not self._pool_closed
            self._pool_closed = True
            self._respawn_at = [None] * self.workers
        self._supervisor_stop.set()
        if first_close:
            for tasks in self._tasks:
                try:
                    tasks.put(("stop",))
                except Exception:
                    pass  # already-broken pipe of a dead worker
        budget = 30.0 if timeout is None else timeout
        deadline = time.monotonic() + budget
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                clean = False
                proc.terminate()
                proc.join(5.0)
        # Workers exited (or were killed) — anything they flushed is in
        # the result queue ahead of this stop marker, so the collector
        # resolves every last future before exiting.
        self._collector_stop.set()
        try:
            self._results.put(("collector-stop",))
        except Exception:
            pass
        self._collector.join(max(1.0, deadline - time.monotonic()))
        if self._collector.is_alive():
            clean = False
        self._supervisor.join(max(1.0, deadline - time.monotonic()))
        if self._supervisor.is_alive():
            clean = False
        # The supervisor may have re-enqueued retries after the
        # dispatcher consumed the shutdown sentinel; nothing will ever
        # gather them, so fail them now.
        self._drain_queue(
            RuntimeError("service closed before this request was answered")
        )
        with self._pool_lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
            parked, self._parked = self._parked, []
        error = RuntimeError(
            "service closed before this request was answered "
            "(its pool worker was terminated)"
        )
        for requests in [entry[1] for entry in leftovers] + parked:
            self._fail_requests(requests, error, "closed")
        self._shared.close()
        return clean
