"""Workload inputs, generated only from the workload seed and the graph.

Nothing here calls into ``repro`` beyond reading the base graph's CSR
arrays, so a change under ``src/`` cannot alter what a workload sends.
Every stream draws from its own ``numpy.random.default_rng`` keyed by
``(seed, stream tag)``: the same seed always gives the same queries and
deltas, and the streams do not shift when one of them draws more.
"""

from __future__ import annotations

import numpy as np

#: Cluster size every query asks for.
CLUSTER_SIZE = 50
#: Queries one ``burst`` wave submits at once.
WAVE_SIZE = 256
#: Queries ``mixed`` keeps in flight.
MIXED_INFLIGHT = 2
#: ``mixed`` applies one delta after this many answered queries.
QUERIES_PER_UPDATE = 32
#: Edges each ``mixed`` delta adds (and, once it can, removes).
EDGES_PER_DELTA = 4
#: Zipf exponent of ``mixed``'s seed popularity.
ZIPF_EXPONENT = 1.1

_STREAM_TAGS = {"serial": 1, "burst": 2, "mixed": 3, "deltas": 4, "sample": 5}


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named input stream of a workload."""
    return np.random.default_rng([int(seed), _STREAM_TAGS[name]])


def serial_seeds(seed: int, n: int, count: int) -> np.ndarray:
    """``count`` distinct uniformly random query seeds."""
    return stream(seed, "serial").choice(n, size=count, replace=False)


def burst_waves(seed: int, n: int, waves: int) -> list[np.ndarray]:
    """``waves`` waves of ``WAVE_SIZE`` distinct uniformly random seeds."""
    rng = stream(seed, "burst")
    return [rng.choice(n, size=WAVE_SIZE, replace=False) for _ in range(waves)]


def mixed_seeds(seed: int, n: int, count: int) -> np.ndarray:
    """``count`` Zipf(``ZIPF_EXPONENT``)-popular seeds over a seeded
    permutation of the nodes, so popular seeds repeat and hit the cache."""
    rng = stream(seed, "mixed")
    order = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    ranks = rng.choice(n, size=count, p=weights / weights.sum())
    return order[ranks]


class DeltaStream:
    """``mixed``'s structural deltas: each adds ``EDGES_PER_DELTA`` random
    edges absent from the current graph and removes as many edges that an
    earlier delta of this stream added.

    Removing only edges the stream itself added returns every degree to at
    least its base value, so no delta can isolate a node.  The first delta
    has nothing to remove and only adds.
    """

    def __init__(self, seed: int, base_graph) -> None:
        adjacency = base_graph.adjacency
        self._indptr = adjacency.indptr
        self._indices = adjacency.indices
        self._n = base_graph.n
        self._rng = stream(seed, "deltas")
        self._added: set[tuple[int, int]] = set()

    def _is_base_edge(self, u: int, v: int) -> bool:
        row = self._indices[self._indptr[u] : self._indptr[u + 1]]
        at = int(np.searchsorted(row, v))
        return at < row.size and int(row[at]) == v

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        """The next delta as ``(add_edges, remove_edges)``, each ``(k, 2)``."""
        rng = self._rng
        removable = sorted(self._added)
        remove: list[tuple[int, int]] = []
        if len(removable) >= EDGES_PER_DELTA:
            picks = rng.choice(len(removable), size=EDGES_PER_DELTA, replace=False)
            remove = [removable[i] for i in sorted(picks)]
        add: list[tuple[int, int]] = []
        while len(add) < EDGES_PER_DELTA:
            u, v = (int(x) for x in rng.integers(0, self._n, size=2))
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in self._added or edge in add or self._is_base_edge(*edge):
                continue
            add.append(edge)
        self._added.difference_update(remove)
        self._added.update(add)
        return (
            np.asarray(add, dtype=np.int64).reshape(-1, 2),
            np.asarray(remove, dtype=np.int64).reshape(-1, 2),
        )

    def take(self, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self.next() for _ in range(count)]
