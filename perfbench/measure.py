"""Measurement helpers: percentiles, host description, identities."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys

import numpy as np
import scipy

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples
    lie beyond it, i.e. ``len(values) * (1 - q/100) >= MIN_BEYOND``: the
    median needs 20 samples, the 95th percentile 200.
    """
    values = np.asarray(values, dtype=np.float64)
    beyond = values.size * (1.0 - q / 100.0)
    if beyond < MIN_BEYOND - 1e-9:
        raise TooFewSamples(
            f"p{q:g} of {values.size} samples has {beyond:.1f} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(np.percentile(values, q))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_average() -> float:
    return os.getloadavg()[0]


def host_block(load_at_start: float) -> dict:
    """What a reader needs to tell a number from a loaded or different host."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "loadavg_1m_start": round(load_at_start, 2),
        "loadavg_1m_end": round(load_average(), 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": sys.platform,
    }


def csr_checksum(graph) -> str:
    """Short digest of the graph's CSR arrays, so a changed dataset shows."""
    digest = hashlib.sha256()
    adjacency = graph.adjacency
    for array in (adjacency.indptr, adjacency.indices, adjacency.data):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]
