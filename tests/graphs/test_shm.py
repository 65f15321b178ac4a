"""Tests for the shared-memory snapshot export (graphs/shm.py).

The contract is bitwise: an attached view is the published snapshot's
arrays byte for byte, so every diffusion run against it must equal the
same diffusion on the original graph exactly.  Cross-process attachment
itself is exercised end-to-end by the pool suite (tests/serving/
test_pool.py); here we pin the manifest round-trip, zero-copy-ness,
immutability, and lifecycle in-process.
"""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.laca import laca_scores
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta, GraphStore
from repro.graphs.shm import _attach_segment, attach_snapshot, publish_snapshot


def _names(snapshot) -> dict[str, str]:
    """``{array key: segment name}``; an equal name is a reused segment."""
    return {key: spec["segment"] for key, spec in snapshot.manifest["arrays"].items()}


def _unlinked(name: str) -> bool:
    try:
        segment = _attach_segment(name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


def _assert_attaches_bitwise(manifest, graph, tnam_z) -> None:
    attached = attach_snapshot(manifest)
    try:
        view = attached.graph
        assert view.epoch == graph.epoch
        for got, want in (
            (view.adjacency.indptr, graph.adjacency.indptr),
            (view.adjacency.indices, graph.adjacency.indices),
            (view.adjacency.data, graph.adjacency.data),
            (view.degrees, graph.degrees),
            (view.inv_degrees, graph.inv_degrees),
            (attached.tnam_z, tnam_z),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    finally:
        attached.close()


@pytest.fixture()
def published(small_sbm):
    model = LACA(LacaConfig(k=8)).fit(small_sbm)
    snapshot = publish_snapshot(small_sbm, tnam_z=model.tnam.z)
    yield small_sbm, model, snapshot
    snapshot.close()


class TestRoundTrip:
    def test_manifest_is_plain_and_picklable(self, published):
        import pickle

        _, _, snapshot = published
        manifest = pickle.loads(pickle.dumps(snapshot.manifest))
        assert manifest == snapshot.manifest
        # Attributes are not published: Algo 4 reads only the TNAM
        # factor, and the head keeps them for LACA.refresh.
        assert set(manifest["arrays"]) == {
            "indptr", "indices", "data", "degrees", "inv_degrees", "tnam_z",
        }
        assert "attributes" not in manifest["arrays"]

    def test_attached_graph_is_bitwise_identical(self, published):
        graph, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            view = attached.graph
            assert view.n == graph.n and view.m == graph.m
            assert view.epoch == graph.epoch and view.name == graph.name
            np.testing.assert_array_equal(
                view.adjacency.indptr, graph.adjacency.indptr
            )
            np.testing.assert_array_equal(
                view.adjacency.indices, graph.adjacency.indices
            )
            np.testing.assert_array_equal(view.degrees, graph.degrees)
            np.testing.assert_array_equal(view.inv_degrees, graph.inv_degrees)
            np.testing.assert_array_equal(view.adjacency.data, graph.adjacency.data)
            assert graph.attributes is not None and view.attributes is None
        finally:
            attached.close()

    def test_queries_on_attached_view_are_bitwise_equal(self, published):
        graph, model, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            hydrated = LACA.from_fit_state(model.fit_state(), attached.graph)
            for seed in (0, 17, 64):
                np.testing.assert_array_equal(
                    hydrated.cluster(seed, 20), model.cluster(seed, 20)
                )
        finally:
            attached.close()

    def test_snas_follows_the_tnam_not_the_attributes(self, published):
        """The attached view carries no attributes, yet with the TNAM it
        runs Step 2 (SNAS) exactly like the attributed graph; without a
        TNAM an attributed graph still refuses to answer."""
        graph, model, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            config = model.config
            on_view = laca_scores(attached.graph, 17, config=config, tnam=model.tnam)
            on_head = laca_scores(graph, 17, config=config, tnam=model.tnam)
            assert on_view.psi is not None
            np.testing.assert_array_equal(on_view.psi, on_head.psi)
            np.testing.assert_array_equal(on_view.scores, on_head.scores)
        finally:
            attached.close()
        with pytest.raises(ValueError, match="TNAM"):
            laca_scores(graph, 17, config=config)

    def test_non_attributed_graph_round_trips(self, plain_graph):
        snapshot = publish_snapshot(plain_graph)
        try:
            attached = attach_snapshot(snapshot.manifest)
            try:
                assert attached.graph.attributes is None
                assert attached.tnam_z is None
                np.testing.assert_array_equal(
                    attached.graph.adjacency.toarray(),
                    plain_graph.adjacency.toarray(),
                )
            finally:
                attached.close()
        finally:
            snapshot.close()


class TestLifecycleAndSafety:
    def test_attached_arrays_are_read_only(self, published):
        _, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            with pytest.raises(ValueError):
                attached.graph.degrees[0] = 99.0
            with pytest.raises(ValueError):
                attached.tnam_z[0, 0] = 1.0
        finally:
            attached.close()

    def test_attached_arrays_are_views_not_copies(self, published):
        """Zero-copy contract: the attached arrays borrow the segment
        buffer instead of materializing a private copy."""
        _, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            assert not attached.graph.degrees.flags.owndata
            assert not attached.tnam_z.flags.owndata
            assert not attached.graph.adjacency.indices.flags.owndata
        finally:
            attached.close()

    def test_close_is_idempotent_and_unlinks(self, small_sbm):
        snapshot = publish_snapshot(small_sbm)
        manifest = snapshot.manifest
        snapshot.close()
        snapshot.close()
        with pytest.raises(FileNotFoundError):
            attach_snapshot(manifest)

    def test_unknown_manifest_version_rejected(self, published):
        _, _, snapshot = published
        bad = dict(snapshot.manifest, version=999)
        with pytest.raises(ValueError, match="manifest version"):
            attach_snapshot(bad)

    def test_failed_publish_unlinks_created_segments(
        self, small_sbm, monkeypatch
    ):
        """A publish that dies mid-export must not leak the segments it
        already created: their names never reach a caller, so nothing
        could ever unlink them (they would outlive the process in
        /dev/shm).  Regression test for the partial-publish path."""
        from multiprocessing import shared_memory

        from repro.graphs import shm as shm_module

        real = shared_memory.SharedMemory
        created: list[str] = []
        calls = {"n": 0}

        def failing(*args, **kwargs):
            if kwargs.get("create"):
                calls["n"] += 1
                if calls["n"] == 3:  # die after two segments exist
                    raise OSError("no space left on device")
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", failing
        )
        with pytest.raises(OSError, match="no space"):
            publish_snapshot(small_sbm)
        monkeypatch.undo()
        assert len(created) == 2  # the failure really was mid-publish
        for name in created:  # and both survivors were unlinked
            with pytest.raises(FileNotFoundError):
                real(name=name)

    def test_failed_export_copy_unlinks_its_segment(self, monkeypatch):
        """_export_array's own failure window: the segment is created
        but the copy into it dies.  The name was never returned, so the
        only correct move is close + unlink before re-raising."""
        from multiprocessing import shared_memory

        from repro.graphs.shm import _export_array

        real = shared_memory.SharedMemory
        created: list[str] = []

        def tracking(*args, **kwargs):
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        import types

        from repro.graphs import shm as shm_module

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", tracking
        )

        def no_view(*args, **kwargs):
            raise TypeError("cannot map this dtype onto a buffer")

        # Fail the view construction *after* the segment allocation —
        # the exact window the cleanup covers.
        monkeypatch.setattr(
            shm_module,
            "np",
            types.SimpleNamespace(
                ascontiguousarray=np.ascontiguousarray, ndarray=no_view
            ),
        )
        with pytest.raises(TypeError, match="cannot map"):
            _export_array(np.arange(4.0))
        monkeypatch.undo()
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real(name=created[0])


class TestGenerations:
    """Segment reuse across generations: publish B with ``previous=A``
    shares what did not change, and each segment lives exactly as long
    as some generation holding it."""

    @staticmethod
    def _advance(graph, delta):
        model = LACA(LacaConfig(k=8)).fit(graph)
        store = GraphStore(graph)
        first = publish_snapshot(graph, tnam_z=model.tnam.z)
        head = store.apply(delta)
        model.refresh(store)
        return model, head, first

    def test_reuse_survives_closing_the_previous_generation(self, small_sbm):
        adjacency = small_sbm.adjacency
        neighbor = int(adjacency.indices[adjacency.indptr[0]])
        model, head, first = self._advance(
            small_sbm, GraphDelta(add_edges=[(0, 77)], remove_edges=[(0, neighbor)])
        )
        second = publish_snapshot(head, tnam_z=model.tnam.z, previous=first)
        try:
            before, after = _names(first), _names(second)
            changed = {key for key in after if after[key] != before[key]}
            assert changed == {"indptr", "indices", "degrees", "inv_degrees"}
            first.close()
            for key in changed:
                assert _unlinked(before[key])
            _assert_attaches_bitwise(second.manifest, head, model.tnam.z)
        finally:
            second.close()
        assert all(_unlinked(name) for name in {*before.values(), *after.values()})

    def test_failed_publish_with_previous_unlinks_only_its_own(
        self, small_sbm, monkeypatch
    ):
        from multiprocessing import shared_memory

        from repro.graphs import shm as shm_module

        graph = small_sbm
        model, head, first = self._advance(graph, GraphDelta(add_edges=[(0, 77)]))
        real = shared_memory.SharedMemory
        created: list[str] = []

        def failing(*args, **kwargs):
            if kwargs.get("create") and len(created) == 2:
                raise OSError("no space left on device")
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(shm_module.shared_memory, "SharedMemory", failing)
        try:
            with pytest.raises(OSError, match="no space"):
                publish_snapshot(head, tnam_z=model.tnam.z, previous=first)
            monkeypatch.undo()
            assert len(created) == 2  # died mid-export, after two copies
            assert all(_unlinked(name) for name in created)
            # Every segment the failed publish meant to reuse is intact.
            _assert_attaches_bitwise(first.manifest, graph, model.tnam.z)
        finally:
            first.close()
        # ... and its reference went back: closing A now unlinks them all.
        assert all(_unlinked(name) for name in _names(first).values())

    def test_double_close_across_generations_is_idempotent(self, small_sbm):
        model, head, first = self._advance(small_sbm, GraphDelta(add_edges=[(0, 77)]))
        second = publish_snapshot(head, tnam_z=model.tnam.z, previous=first)
        shared = _names(second)["tnam_z"]
        second.close()
        second.close()  # must not drop the reference first still holds
        assert not _unlinked(shared)
        _assert_attaches_bitwise(first.manifest, small_sbm, model.tnam.z)
        first.close()
        first.close()
        assert _unlinked(shared)

    def test_ones_segment_serves_a_prefix_until_outgrown(self, small_sbm):
        """``data`` is one all-ones segment attached as a length-nnz
        prefix: a delta that fits its headroom reuses it, one whose nnz
        outgrows it gets a fresh segment."""
        model, head, first = self._advance(small_sbm, GraphDelta(add_edges=[(0, 77)]))
        nnz = small_sbm.adjacency.nnz
        dense = head.adjacency.toarray()
        absent = [
            (u, v)
            for u in range(head.n)
            for v in range(u + 1, head.n)
            if dense[u, v] == 0
        ][: nnz // 4]  # 2 × nnz/4 new entries: beyond nnz/4 of headroom
        store = GraphStore(head)
        grown = store.apply(GraphDelta(add_edges=absent))
        second = publish_snapshot(head, tnam_z=model.tnam.z, previous=first)
        third = publish_snapshot(grown, tnam_z=model.tnam.z, previous=second)
        try:
            assert _names(second)["data"] == _names(first)["data"]
            assert _names(third)["data"] != _names(second)["data"]
            assert third.manifest["arrays"]["data"]["shape"] == [grown.adjacency.nnz]
            _assert_attaches_bitwise(third.manifest, grown, model.tnam.z)
        finally:
            for snapshot in (first, second, third):
                snapshot.close()
