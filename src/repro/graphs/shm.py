"""Shared-memory export of graph snapshots for multi-process serving.

A local clustering query touches a size-independent sliver of the graph
(Theorem IV.1), but a *worker pool* still needs the whole CSR resident in
every process.  Copying it per worker would multiply memory by the pool
size and add seconds of startup per epoch advance; this module instead
places what Algo 4 reads into :mod:`multiprocessing.shared_memory`
segments, published through a small picklable *manifest* (plain dict:
segment names, shapes, dtypes, and the snapshot's identity scalars).

**What is published.**  ``indptr``, ``indices``, ``data``, ``degrees``,
``inv_degrees`` and, when given, the TNAM factor ``z``.  The attribute
matrix is not: the online query reads ``z`` only (Eq. 12–13), so an
attached graph has ``attributes=None`` and the SNAS switch follows the
model's TNAM (:func:`~repro.core.laca.laca_scores`).  The head graph
keeps its attributes, because :meth:`LACA.refresh` folds TNAM rows from
them in the publishing process.

**What is reused.**  :func:`publish_snapshot` takes an optional
``previous`` snapshot — the generation being replaced — and reuses
each of its segments that still holds the right bytes instead of
copying them again:

- an array segment is reused when its source array is the *same object*
  as the one ``previous`` exported (snapshots are immutable, so the same
  object means the same bytes).  For an edge-only delta that is
  ``tnam_z``; an attribute-only delta also keeps the CSR arrays;
- a binary adjacency's all-ones ``data`` lives in a *ones segment*
  sized ``nnz + nnz // 4``, attached as a length-``nnz`` prefix view.
  It is reused while ``nnz`` fits and re-created (with fresh headroom)
  only when ``nnz`` outgrows it.

**Lifecycle.**  A segment is reference-counted across the generations
that hold it.  :meth:`SharedSnapshot.close` drops one generation's
references and unlinks exactly the segments no live generation holds
any more; closing twice is a no-op.  A publish that fails mid-export
unlinks only the segments it created and leaves every reused one to
``previous``.  The publisher keeps a generation alive while any worker
may attach it — the pool's reload barrier: publish B with
``previous=A``, reload every worker onto B, then close A.

Workers :func:`attach_snapshot` the manifest and get a **zero-copy**
:class:`~repro.graphs.graph.AttributedGraph` view: every array is backed
directly by a shared segment (``np.ndarray(..., buffer=shm.buf)``), so
``P`` applications in one worker read the same physical pages as every
other worker.  Attached arrays are marked read-only — snapshots are
immutable by contract, and a stray in-place write in one process must not
corrupt its siblings.  Bitwise identity is free: the segments hold the
parent's arrays byte for byte, so a diffusion in a worker is the same
arithmetic on the same bits as in the parent.  Attachers close their
:class:`AttachedSnapshot` when done (never unlinking).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph

__all__ = ["SharedSnapshot", "AttachedSnapshot", "publish_snapshot", "attach_snapshot"]

#: Manifest schema version, bumped on incompatible layout changes
#: (2: no ``attributes`` segment; ``data`` may be a ones-segment prefix).
MANIFEST_VERSION = 2

#: Guards every segment's reference count: generations are published and
#: closed from different threads (dispatcher, close()).
_REFS_LOCK = threading.Lock()


def _export_array(array: np.ndarray) -> tuple[shared_memory.SharedMemory, dict]:
    """Copy ``array`` into a fresh named segment; returns (segment, spec).

    An all-stride-0 ``array`` (a broadcast scalar) is written into the
    segment without being materialized first — the ones segment's fill.
    """
    if any(array.strides):
        array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        spec = {
            "segment": segment.name,
            "shape": list(array.shape),
            "dtype": array.dtype.str,
        }
    except BaseException:
        # The segment exists under a published name the caller never
        # learns; without the unlink it outlives the process in /dev/shm.
        view = None  # a live buffer view would block close()
        segment.close()
        segment.unlink()
        raise
    return segment, spec


def _ones_capacity(nnz: int) -> int:
    """Entries of a fresh ones segment: ``nnz`` plus a quarter of headroom,
    so a stream of edge insertions keeps attaching prefixes of one segment."""
    return max(nnz + nnz // 4, 1)


class _Segment:
    """One published segment and the number of generations holding it.

    ``source`` is the array copied in — the identity key for reuse — or
    ``None`` for a ones segment of ``capacity`` float64 entries.
    """

    __slots__ = ("shm", "spec", "source", "capacity", "refs")

    def __init__(self, shm, spec, source=None, capacity=0) -> None:
        self.shm = shm
        self.spec = spec
        self.source = source
        self.capacity = capacity
        self.refs = 1

    @classmethod
    def export(cls, array: np.ndarray) -> "_Segment":
        shm, spec = _export_array(array)
        return cls(shm, spec, source=array)

    @classmethod
    def ones(cls, capacity: int) -> "_Segment":
        shm, spec = _export_array(np.broadcast_to(1.0, (capacity,)))
        return cls(shm, spec, capacity=capacity)

    def reusable_for(self, key: str, array: np.ndarray | None, nnz: int) -> bool:
        """Whether this segment already holds what ``key`` needs next."""
        if key == "data" and array is None:
            return self.source is None and self.capacity >= nnz
        return self.source is not None and self.source is array

    def destroy(self) -> None:
        """Unmap and unlink (the last reference is gone)."""
        self.source = None
        try:
            self.shm.close()
        except BufferError:
            pass  # a view escaped; the mapping dies with it, the name not
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass  # unlinked by someone else already


def _release(segments) -> None:
    """Drop one reference to each of ``segments``; unlink the orphans."""
    with _REFS_LOCK:
        orphans = []
        for segment in segments:
            segment.refs -= 1
            if segment.refs == 0:
                orphans.append(segment)
    for segment in orphans:
        segment.destroy()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without handing it to the resource tracker.

    ``SharedMemory(name=...)`` registers the mapping with the resource
    tracker, which "helpfully" unlinks anything still registered when its
    process exits — destroying segments the *publisher* still serves
    from — and, when attacher and publisher share one tracker (forked
    workers, same-process tests), an unregister-after-attach would
    instead clobber the publisher's own registration.  Attachers are not
    owners, so registration is suppressed entirely for the attach call
    (Python 3.13 grew ``track=False`` for exactly this; this is the
    portable equivalent).
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_array(spec: dict, segment: shared_memory.SharedMemory) -> np.ndarray:
    # A spec may describe a prefix of its segment (the ones segment).
    array: np.ndarray = np.ndarray(
        tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=segment.buf
    )
    array.setflags(write=False)
    return array


@dataclass
class SharedSnapshot:
    """Publisher-side handle: the manifest plus one reference to each
    segment it names (shared with the generations before and after it)."""

    manifest: dict
    _segments: dict[str, _Segment] = field(default_factory=dict)

    def close(self) -> None:
        """Release this generation (idempotent).

        Unlinks every segment no other live generation holds.  Call only
        after every attacher of this generation is done — a worker still
        mapping an unlinked segment keeps its pages alive (POSIX
        semantics), but no new attach can succeed.
        """
        with _REFS_LOCK:
            segments, self._segments = self._segments, {}
        _release(segments.values())


@dataclass
class AttachedSnapshot:
    """Worker-side handle: the zero-copy graph view over shared segments.

    Keep this object alive as long as ``graph`` (or ``tnam_z``) is in
    use — the arrays borrow the segment buffers it holds open.
    """

    graph: AttributedGraph
    tnam_z: np.ndarray | None
    _segments: list[shared_memory.SharedMemory] = field(default_factory=list)

    def close(self) -> None:
        """Drop the mappings (never unlinks; the publisher owns that)."""
        # The numpy views hold exported buffers; break our references
        # first so memoryview teardown does not outlive the segments.
        self.graph = None  # type: ignore[assignment]
        self.tnam_z = None
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                pass  # a view escaped; the mapping dies with the process
        self._segments = []


def publish_snapshot(
    graph: AttributedGraph,
    *,
    tnam_z: np.ndarray | None = None,
    previous: SharedSnapshot | None = None,
) -> SharedSnapshot:
    """Export ``graph`` (and optionally a TNAM factor) to shared memory.

    Returns a :class:`SharedSnapshot` whose ``manifest`` is a plain,
    picklable dict — send it over a pipe/queue and
    :func:`attach_snapshot` in any process on this machine.  With
    ``previous`` (a live generation), every segment of ``previous`` that
    already holds the right bytes is shared instead of copied; see the
    module docstring for the rule.  Attributes and ground-truth
    community labels are deliberately not exported: serving workers
    answer ``(seed, size)`` queries from the CSR and ``z`` alone.
    """
    adjacency = graph.adjacency
    binary = bool(graph._binary_adjacency)
    nnz = int(adjacency.indices.shape[0])
    arrays: dict[str, np.ndarray | None] = {
        "indptr": adjacency.indptr,
        "indices": adjacency.indices,
        # None: the all-ones data lives in a (prefix of a) ones segment.
        "data": None if binary else adjacency.data,
        "degrees": graph.degrees,
        "inv_degrees": graph.inv_degrees,
    }
    if tnam_z is not None:
        arrays["tnam_z"] = np.asarray(tnam_z, dtype=np.float64)

    segments: dict[str, _Segment] = {}
    with _REFS_LOCK:  # take the reused references before previous can drop them
        held = previous._segments if previous is not None else {}
        for key, segment in held.items():
            if key in arrays and segment.reusable_for(key, arrays[key], nnz):
                segment.refs += 1
                segments[key] = segment
    reused = list(segments.values())
    created: list[_Segment] = []
    try:
        for key, array in arrays.items():
            if key in segments:
                continue
            if array is None:
                segment = _Segment.ones(_ones_capacity(nnz))
            else:
                segment = _Segment.export(array)
            created.append(segment)
            segments[key] = segment
    except BaseException:
        # Unlink what this call created; the reused segments go back to
        # previous untouched (don't leak /dev/shm on a partial export).
        _release(created + reused)
        raise
    specs = {key: dict(segments[key].spec) for key in arrays}
    specs["data"]["shape"] = [nnz]
    manifest = {
        "version": MANIFEST_VERSION,
        "name": graph.name,
        "n": int(graph.n),
        "epoch": int(graph.epoch),
        "binary_adjacency": binary,
        "arrays": specs,
    }
    return SharedSnapshot(manifest=manifest, _segments=segments)


def attach_snapshot(manifest: dict) -> AttachedSnapshot:
    """Rebuild a zero-copy :class:`AttributedGraph` view from a manifest.

    The returned graph satisfies every invariant of the published
    snapshot (same epoch, degrees, adjacency bits) without validating or
    copying anything: construction goes through
    :meth:`AttributedGraph._from_parts`, trusting the publisher exactly
    like the incremental store does.  It carries no attributes (they are
    not published); hydrate the model's TNAM from ``tnam_z`` instead.
    """
    version = int(manifest.get("version", -1))
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported shared-snapshot manifest version {version} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    segments: list[shared_memory.SharedMemory] = []
    views: dict[str, np.ndarray] = {}
    try:
        for key, spec in manifest["arrays"].items():
            segment = _attach_segment(spec["segment"])
            segments.append(segment)
            views[key] = _attach_array(spec, segment)
    except Exception:
        for segment in segments:
            segment.close()
        raise

    n = int(manifest["n"])
    adjacency = sp.csr_matrix(
        (views["data"], views["indices"], views["indptr"]),
        shape=(n, n),
        copy=False,
    )
    graph = AttributedGraph._from_parts(
        adjacency=adjacency,
        degrees=views["degrees"],
        inv_degrees=views["inv_degrees"],
        binary_adjacency=bool(manifest["binary_adjacency"]),
        attributes=None,
        communities=None,
        secondary_communities=None,
        name=str(manifest["name"]),
        epoch=int(manifest["epoch"]),
    )
    return AttachedSnapshot(
        graph=graph, tnam_z=views.get("tnam_z"), _segments=segments
    )
