"""Serving layer: fit once offline, answer concurrent queries online.

The pipeline (``repro.core``) builds models and answers one seed at a
time through the frontier-local diffusion engines; this package turns
that into a long-lived service:

- :mod:`~repro.serving.persistence` — fitted models as ``.npz``
  artifacts (:func:`save_model` / :func:`load_model`) and a lazy
  :class:`ModelRegistry`;
- :mod:`~repro.serving.service` — :class:`ClusterService`, the
  thread-safe micro-batching scheduler that gathers concurrent
  ``submit`` calls into blocks, answers each block query by query with
  :func:`~repro.serving.service.answer_block` (the one compute path the
  in-process dispatcher and every pool worker share), and applies live
  graph deltas (``apply_update``) without dropping traffic;
- :mod:`~repro.serving.pool` — :class:`PoolClusterService`, the same
  front-end fanned out to worker *processes* over a shared-memory
  graph (:mod:`repro.graphs.shm`), with admission control
  (``max_pending`` load-shedding, per-request deadlines) and fault
  tolerance (worker supervision/respawn, idempotent block retry,
  optional in-process fallback);
- :mod:`~repro.serving.cache` — the epoch-aware LRU
  :class:`ResultCache` and the :func:`config_digest` that keys it;
- :mod:`~repro.serving.telemetry` — per-service latency/occupancy/
  throughput stats.

Typical use::

    from repro.serving import ClusterService, load_model, save_model

    save_model(LACA().fit(graph), "model.npz")          # offline, once
    model = load_model("model.npz", graph)               # any process
    with ClusterService(model, max_batch=64) as service:
        futures = [service.submit(seed, 50) for seed in seeds]
        clusters = [future.result() for future in futures]
        print(service.stats())
"""

from .cache import ResultCache, config_digest, query_key
from .persistence import ModelRegistry, load_model, save_model
from .pool import DeadlineExceeded, PoolClusterService, PoolSaturated, WorkerError
from .service import ClusterService, UpdateTimeout
from .telemetry import ServiceTelemetry

__all__ = [
    "ClusterService",
    "DeadlineExceeded",
    "ModelRegistry",
    "PoolClusterService",
    "PoolSaturated",
    "ResultCache",
    "ServiceTelemetry",
    "UpdateTimeout",
    "WorkerError",
    "config_digest",
    "load_model",
    "query_key",
    "save_model",
]
