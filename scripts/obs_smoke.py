#!/usr/bin/env python
"""Observability smoke: serve through a real pool, scrape /metrics.

Launches ``python -m repro serve --workers 2 --metrics-port 0`` as a
subprocess (the exact deployment shape), parses the ephemeral port off
stderr, scrapes ``/metrics`` and ``/stats`` during the linger window,
and asserts the signals an operator would alarm on are present and
non-empty:

* Prometheus text parses (TYPE lines, cumulative histogram buckets);
* kernel-selection counters are non-empty — proof that engine
  introspection recorded in *worker processes* merged into the head
  registry across the IPC boundary;
* per-stage latency histograms and the touched-volume histogram carry
  one sample per request;
* ``/stats`` agrees with ``/metrics`` on the request, error, and batch
  counts — both are views of one registry;
* every JSON response line carries a trace id, and the trace log holds
  one span per request;
* serve exits 0 on SIGTERM and leaves no ``/dev/shm/psm_*`` segment
  behind (the pool unlinks what it published).

Exits non-zero with a reason on any missing signal.  Used by CI; also
handy manually::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

N_QUERIES = 24
LINGER_S = 20.0
STOP_TIMEOUT_S = 30.0


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill serve *and* its pool workers (they share a process group,
    which serve leads: it was started with ``start_new_session``)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        pass


def stop(proc: subprocess.Popen) -> int | None:
    """SIGTERM serve, which closes its pool and unlinks the pool's shared
    memory, and wait for it to exit.  SIGKILL then reaps whatever is
    left of the process group.  Returns serve's exit status, or None
    when serve was still running at the timeout."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    status = proc.poll()
    kill_tree(proc)
    return status


def shm_segments() -> set[str]:
    """The multiprocessing shared-memory segments that exist right now."""
    return set(glob.glob("/dev/shm/psm_*"))


def stop_cleanly(proc: subprocess.Popen, shm_before: set[str]) -> None:
    """Stop serve with SIGTERM; fail unless it exited 0 and left no
    shared-memory segment behind."""
    published = shm_segments() - shm_before
    status = stop(proc)
    if not published:
        fail("no shared-memory segment seen while serving: leak check is void")
    if status is None:
        fail(f"serve still running {STOP_TIMEOUT_S:.0f}s after SIGTERM")
    if status != 0:
        fail(f"serve exited with status {status} on SIGTERM")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        fail(f"shared memory outlived serve: {leaked}")


def fail(reason: str, proc: subprocess.Popen | None = None) -> "NoReturn":
    print(f"SMOKE FAIL: {reason}", file=sys.stderr)
    if proc is not None:
        stop(proc)
    sys.exit(1)


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.read().decode()


def samples(metrics: str, name: str) -> dict[str, float]:
    """``{rendered labels: value}`` for every sample line of ``name``."""
    found = {}
    for line in metrics.splitlines():
        match = re.match(rf"^{name}(\{{[^}}]*\}})? (\S+)$", line)
        if match:
            found[match.group(1) or ""] = float(match.group(2))
    return found


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="obs-smoke-"))
    queries = tmp / "queries.txt"
    queries.write_text("".join(f"{seed} 15\n" for seed in range(N_QUERIES)))
    trace_path = tmp / "trace.jsonl"

    shm_before = shm_segments()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "cora", "--scale", "0.2",
            "--queries", str(queries),
            "--workers", "2",
            "--metrics-port", "0",
            "--trace-log", str(trace_path),
            "--linger-s", str(LINGER_S),
            "--stats",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    # The port announcement races the fit; poll stderr line-by-line.
    port = None
    deadline = time.time() + 120.0
    stderr_seen = []
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            if proc.poll() is not None:
                break
            continue
        stderr_seen.append(line)
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        fail(f"metrics port never announced; stderr: {''.join(stderr_seen)}", proc)

    # Wait for all responses on stdout (the service then lingers).
    responses = []
    for _ in range(N_QUERIES):
        line = proc.stdout.readline()
        if not line:
            fail("serve exited before answering every query", proc)
        responses.append(json.loads(line))
    if not all(record.get("trace_id") for record in responses):
        fail("response lines missing trace ids", proc)

    metrics = scrape(port, "/metrics")
    stats = json.loads(scrape(port, "/stats"))
    health = scrape(port, "/healthz")
    stop_cleanly(proc, shm_before)

    if health.strip() != "ok":
        fail(f"unexpected /healthz body: {health!r}")

    kernel_lines = [
        line for line in metrics.splitlines()
        if line.startswith("laca_kernel_selections_total{")
    ]
    if not kernel_lines:
        fail("no kernel-selection counters: worker metrics never merged")
    if sum(float(line.rsplit(" ", 1)[1]) for line in kernel_lines) <= 0:
        fail(f"kernel-selection counters all zero: {kernel_lines}")

    for needle in (
        "# TYPE laca_request_seconds histogram",
        "# TYPE laca_stage_seconds histogram",
        "# TYPE laca_touched_volume histogram",
        'laca_stage_seconds_bucket{stage="queue_wait",le="+Inf"}',
    ):
        if needle not in metrics:
            fail(f"missing from /metrics: {needle!r}")

    volume_count = re.search(r"^laca_touched_volume_count (\d+)$", metrics, re.M)
    if volume_count is None or int(volume_count.group(1)) != N_QUERIES:
        fail(
            f"touched-volume histogram should carry {N_QUERIES} samples, "
            f"got {volume_count and volume_count.group(1)}"
        )

    if stats.get("requests") != N_QUERIES or "p50_queue_wait_s" not in stats:
        fail(f"/stats malformed: {json.dumps(stats)[:300]}")

    requests = samples(metrics, "laca_requests_total")
    scraped = {
        "requests": sum(requests.values()),
        "engine_served": requests.get('{path="engine"}', 0.0),
        "cache_served": requests.get('{path="cache"}', 0.0),
        "errors": sum(samples(metrics, "laca_errors_total").values()),
        "batches": sum(samples(metrics, "laca_batches_total").values()),
    }
    disagree = {
        key: (stats.get(key), value)
        for key, value in scraped.items()
        if stats.get(key) != value
    }
    if disagree:
        fail(f"/stats disagrees with /metrics as (stats, metrics): {disagree}")

    spans = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if json.loads(line).get("event") == "request"
    ]
    if len(spans) != N_QUERIES:
        fail(f"trace log holds {len(spans)} spans, expected {N_QUERIES}")
    if not all("worker_id" in span for span in spans):
        fail("pool spans missing worker attribution")

    print(
        f"obs smoke OK: {N_QUERIES} traced requests over 2 workers, "
        f"{len(kernel_lines)} kernel counter(s) "
        f"({', '.join(line.split(' ')[0] for line in kernel_lines)}), "
        f"p50 queue wait {stats['p50_queue_wait_s'] * 1e3:.2f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
