"""Reference-scale benchmark of the LACA serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload serial --seed 1 --seconds 10 --trace 0

Every workload serves ``load_dataset("arxiv", scale=21)`` with
``LACA(LacaConfig(diffusion="greedy"))`` (cosine, k=32, ε=1e-6, α=0.8)
and asks for clusters of 50:

* ``serial``: in-process ``ClusterService``, no cache, one client sending
  distinct uniform seeds one at a time;
* ``burst``: the same service, waves of 256 uniform seeds submitted at
  once, the next wave sent when the last has resolved;
* ``mixed``: ``PoolClusterService`` with 2 workers and a 1024-entry cache
  over a ``GraphStore`` with an fsync-always ``GraphWAL``; 2 Zipf-popular
  queries in flight and a 4-edge structural delta after every 32 answers.

``--trace 0`` measures end to end with tracing off.  ``--trace 1`` runs
the same phase untraced and then traced (``TraceLog`` at sample rate 1),
then times each layer's public functions from outside (``layers.py``).
Either way the served answers are checked bitwise against reference
models, and the process exits 1 if any differs.

The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a JSON report with the host,
the graph identity, sample counts, the request ledger and the checks.
``metric_map.json`` records which end-to-end metric and workload each
per-layer metric should move.  ``python3 perfbench/selftest.py`` tests
the input generators, the percentile helper and that the checks can fail.
"""

import time

#: ``setup_s`` runs from here: imports, data set, fit, service start.
PROCESS_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def require_program() -> None:
    """Put the program's source on the path, or stop without a result."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {source / 'repro'}")
    sys.path.insert(0, str(source))


if __name__ == "__main__":
    require_program()
    from bench import main

    sys.exit(main(sys.argv[1:], ROOT, PROCESS_STARTED))
