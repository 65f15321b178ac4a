"""Set-up, measured phases, checks and result assembly for ``run.py``."""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import shutil
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

from repro import (
    LACA,
    AttributedGraph,
    ClusterService,
    GraphDelta,
    GraphStore,
    LacaConfig,
    load_dataset,
)
from repro.graphs import GraphWAL
from repro.obs import TraceLog
from repro.serving import PoolClusterService, config_digest

import checks
import inputs
import layers
import measure
import workloads
from inputs import CLUSTER_SIZE
from measure import percentile

WORKLOADS = ("serial", "burst", "mixed")
DATASET, SCALE = "arxiv", 21
#: Coalescing knobs of the in-process service (the BENCH config).
SERVICE_KNOBS = {"max_batch": 32, "max_wait_s": 0.002}
#: The pool answers one request per block.  With coalescing on, the two
#: in-flight queries resolve together, are resubmitted together and
#: coalesce again, so every block would be a pair on the block engine
#: (about 0.8 s a pair, one worker idle); ``burst`` measures that engine.
POOL_KNOBS = {"max_batch": 1}
POOL_WORKERS = 2
MIXED_CACHE_SIZE = 1024
#: Deltas each ``mixed`` phase of the traced run applies at least: the
#: update median pools both phases and needs ten samples beyond it.
TRACED_MIN_UPDATES = 10
#: Length of the generated input streams (more than any phase uses).
SERIAL_STREAM, BURST_WAVES, MIXED_STREAM = 4096, 16, 16384
#: Final-epoch queries ``mixed`` sends, untimed, for the from-scratch check.
VERIFY_QUERIES = 16
#: Layer passes: seeds for the sequential pass, the width of the block
#: pass's one block, and the fewest deltas for the store pass.
SEQUENTIAL_SEEDS, BATCH_WIDTH, STORE_DELTAS = 32, 32, 20

def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Reference-scale benchmark of the LACA serving stack.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_delta(add, remove) -> GraphDelta:
    return GraphDelta(add_edges=add, remove_edges=remove)


class Serving:
    """One started service, plus the store and WAL it owns on ``mixed``."""

    #: Every instance not yet closed, so that ``main`` can close them on
    #: any path out, an exception included.
    unclosed: list["Serving"] = []

    def __init__(self, workload, model, graph, workdir: Path, tag: str,
                 trace_log=None) -> None:
        started = time.perf_counter()
        self.store = self.wal = None
        Serving.unclosed.append(self)
        if workload == "mixed":
            self.wal = GraphWAL(workdir / f"{tag}.wal", fsync="always")
            self.store = GraphStore(graph, wal=self.wal)
            self.service = PoolClusterService(
                model, workers=POOL_WORKERS, cache_size=MIXED_CACHE_SIZE,
                store=self.store, trace_log=trace_log, **POOL_KNOBS,
            )
        else:
            self.service = ClusterService(
                model, cache_size=0, trace_log=trace_log, **SERVICE_KNOBS
            )
        self.start_s = time.perf_counter() - started

    def close(self) -> None:
        if self in Serving.unclosed:
            Serving.unclosed.remove(self)
        if hasattr(self, "service"):
            self.service.close()
        if self.wal is not None:
            self.wal.close()


def stop_processes() -> None:
    """Close every service still open, then stop and reap every process
    the run started: pool workers, and the resource tracker that
    ``multiprocessing.shared_memory`` starts.  The tracker otherwise
    outlives the benchmark until it notices the benchmark has gone."""
    for serving in list(Serving.unclosed):
        try:
            serving.close()
        except Exception:
            pass  # the processes are stopped below either way
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


class Bench:
    """One invocation: set-up, measured phase(s), checks, metrics."""

    def __init__(self, args, workdir: Path, process_started: float) -> None:
        self.workload, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.min_updates = TRACED_MIN_UPDATES if args.trace else 0
        self.workdir = workdir
        started = time.perf_counter()
        self.graph = load_dataset(DATASET, scale=SCALE)
        self.load_s = time.perf_counter() - started
        self.model = LACA(LacaConfig(diffusion="greedy")).fit(self.graph)
        # The pool refreshes its model in place; keep the base epoch's state.
        self.base_state = self.model.fit_state()
        self.serving = Serving(self.workload, self.model, self.graph, workdir, "run")
        self.setup_s = time.perf_counter() - process_started

        n = self.graph.n
        self.waves = None
        if self.workload == "serial":
            self.queries = inputs.serial_seeds(self.seed, n, SERIAL_STREAM)
        elif self.workload == "burst":
            self.waves = inputs.burst_waves(self.seed, n, BURST_WAVES)
            self.queries = [int(s) for wave in self.waves for s in wave]
        else:
            self.queries = inputs.mixed_seeds(self.seed, n, MIXED_STREAM)
        self.identity = {
            "dataset": DATASET,
            "scale": SCALE,
            "n": n,
            "nnz": int(self.graph.adjacency.nnz),
            "csr_checksum": measure.csr_checksum(self.graph),
            "config_digest": config_digest(self.model.config),
        }
        self.mismatches: list[str] = []
        self.compared = 0
        self.phases: dict[str, workloads.Phase] = {}

    # ------------------------------------------------------------------
    def drive(self, serving: Serving) -> workloads.Phase:
        service = serving.service
        if self.workload == "serial":
            return workloads.run_serial(service, self.queries, self.seconds)
        if self.workload == "burst":
            return workloads.run_burst(service, self.waves, self.seconds)
        deltas = inputs.DeltaStream(self.seed, self.graph)
        return workloads.run_mixed(
            service, self.queries, iter(deltas.next, None), make_delta,
            self.seconds, self.min_updates,
        )

    def verify(self, serving: Serving, phase: workloads.Phase, model) -> None:
        """Close ``serving`` and compare ``phase``'s answers with
        reference models; mismatches land in ``self.mismatches``."""
        sample = checks.sample_answers(phase.answers, self.seed)
        self.compared += len(sample)
        if self.workload != "mixed":
            serving.close()
            self.mismatches += checks.check_static(phase.answers, model, self.seed)
            return
        # Final-epoch answers for the from-scratch comparison, sent after
        # the measured phase so they do not count in it.  Popular seeds
        # lead the stream, so some of these come from the cache.
        verify = list(dict.fromkeys(int(s) for s in self.queries))[:VERIFY_QUERIES]
        epoch = serving.service.epoch
        final = [
            (seed, epoch, serving.service.submit(seed, CLUSTER_SIZE).result())
            for seed in verify
        ]
        head = serving.store.head
        serving.close()

        mirror_store = GraphStore(self.graph)
        mirror = LACA.from_fit_state(self.base_state, self.graph)
        self.mismatches += checks.check_epochs(
            phase.answers, mirror, mirror_store, phase.deltas, make_delta,
            self.seed,
        )
        if not checks.same_structure(mirror_store.head, head):
            self.mismatches.append(
                "the service's store head differs from the mirror store's"
            )
        # from_edges normalizes the attribute rows again, which moves the
        # TNAM by a few ulps; the clusters are still compared bitwise.
        rebuilt = AttributedGraph.from_edges(
            head.n, head.edge_list(), attributes=head.attributes,
            communities=head.communities,
            secondary_communities=head.secondary_communities, name=head.name,
        )
        fresh = LACA(self.model.config).fit(rebuilt)
        self.compared += len(final)
        self.mismatches += checks.compare(
            final, lambda s: fresh.cluster(s, CLUSTER_SIZE),
            "served vs from-scratch fit",
        )

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        """The untraced measured phase and its end-to-end metrics."""
        phase = self.phases["untraced"] = self.drive(self.serving)
        rss = measure.peak_rss_mb()
        self.verify(self.serving, phase, self.model)
        latencies = phase.latencies
        return {
            "throughput_qps": phase.answered / phase.elapsed,
            "query_p50_ms": percentile(latencies, 50) * 1000.0,
            "query_p95_ms": percentile(latencies, 95) * 1000.0,
            "cluster_precision": checks.precision(phase.answers, self.graph),
            "setup_s": self.setup_s,
            "peak_rss_mb": rss,
        }

    def traced(self) -> dict:
        """The engine passes, the untraced phase, the traced phase, then
        the store pass.  The engine passes run first so that both phases
        start with the engines equally warm."""
        base = LACA.from_fit_state(self.base_state, self.graph)
        metrics = {
            "graphs.load_s": self.load_s,
            "attributes.tnam_build_s": self.model.preprocessing_seconds,
            "serving.start_s": self.serving.start_s,
        }
        sequential, step_mismatches = layers.sequential_pass(
            base, self.queries[:SEQUENTIAL_SEEDS]
        )
        self.mismatches += step_mismatches
        metrics.update(sequential)
        metrics.update(layers.block_pass(base, self.queries[:BATCH_WIDTH]))

        untraced = self.phases["untraced"] = self.drive(self.serving)
        self.verify(self.serving, untraced, self.model)
        trace_path = self.workdir / "trace.jsonl"
        # The pool refreshed self.model; the traced phase starts over at
        # the base epoch, as the untraced one did.
        model = (
            LACA.from_fit_state(self.base_state, self.graph)
            if self.workload == "mixed" else self.model
        )
        with TraceLog(trace_path, sample_rate=1.0) as trace_log:
            serving = Serving(self.workload, model, self.graph, self.workdir,
                              "traced", trace_log)
            traced = self.phases["traced"] = self.drive(serving)
            # The verification queries below are traced too; leave them out.
            spans_written = trace_log.spans_sampled
            self.verify(serving, traced, model)
        worker_rss = measure.peak_rss_mb(resource.RUSAGE_CHILDREN)

        deltas = inputs.DeltaStream(self.seed, self.graph).take(
            max(STORE_DELTAS, len(untraced.deltas))
        )
        metrics.update(layers.store_pass(
            self.graph, self.base_state, deltas, self.workdir / "layers.wal"
        ))
        spans = layers.read_spans(trace_path)[:spans_written]
        metrics.update(layers.span_metrics(spans))

        stats = traced.stats
        served = stats["engine_served"] + stats["cache_served"]
        reconciled = stats["entries_promoted"] + stats["entries_invalidated"]
        metrics.update({
            "serving.block_size.mean": float(stats["mean_batch_occupancy"]),
            "serving.cache.hit_ratio": stats["cache_served"] / served,
            "serving.cache.promoted_ratio": (
                stats["entries_promoted"] / reconciled if reconciled else 0.0
            ),
            "serving.shed": stats["shed"],
            "serving.deadline_misses": stats["deadline_misses"],
            "serving.block_retries": stats["block_retries"],
            "serving.worker_restarts": stats["worker_restarts"],
            "serving.ledger_gap": workloads.ledger(traced)["ledger_gap"],
            "serving.worker_rss_mb": (
                worker_rss if self.workload == "mixed" else 0.0
            ),
            "error_rate": error_rate(untraced),
            "obs.spans_written": spans_written,
        })
        untraced_qps = untraced.answered / untraced.elapsed
        traced_qps = traced.answered / traced.elapsed
        metrics["obs.tracing_overhead_pct"] = (
            100.0 * (untraced_qps - traced_qps) / untraced_qps
        )
        metrics["serving.footprint_ms.p50"] = 0.0
        if self.workload != "burst":  # one request per block: engine = one query
            metrics["serving.footprint_ms.p50"] = (
                metrics["serving.engine_ms.p50"] - metrics["core.scores_ms.p50"]
                - metrics["core.topk_ms.p50"]
            )
        metrics["update_p50_ms"] = metrics["serving.update_other_ms.p50"] = 0.0
        if self.workload == "mixed":
            update = percentile(
                untraced.update_latencies + traced.update_latencies, 50
            ) * 1000.0
            metrics["update_p50_ms"] = update
            metrics["serving.update_other_ms.p50"] = update - sum(
                metrics[name] for name in (
                    "graphs.wal_append_ms.p50", "graphs.store_apply_ms.p50",
                    "core.refresh_ms.p50", "graphs.shm_publish_ms.p50",
                )
            )
        return metrics

    # ------------------------------------------------------------------
    def report(self, load_at_start: float, trace: int) -> dict:
        """Everything beside the metrics a reader needs to trust them."""
        phases = {}
        for name, phase in self.phases.items():
            stats = phase.stats
            phases[name] = {
                "elapsed_s": round(phase.elapsed, 6),
                "latency_samples": len(phase.latencies),
                "distinct_seeds": len({seed for seed, _, _ in phase.answers}),
                "update_samples": len(phase.update_latencies),
                "ledger": workloads.ledger(phase),
                "error_rate": error_rate(phase),
                "cache": {
                    "cache_served": stats["cache_served"],
                    "queries": stats["engine_served"] + stats["cache_served"],
                    "entries_promoted": stats["entries_promoted"],
                    "entries_invalidated": stats["entries_invalidated"],
                },
                "mean_batch_occupancy": stats["mean_batch_occupancy"],
                "errors": phase.errors[:5],
            }
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "host": measure.host_block(load_at_start),
            "graph": self.identity,
            "setup": {
                "setup_s": round(self.setup_s, 6),
                "load_dataset_s": round(self.load_s, 6),
                "fit_s": round(self.model.preprocessing_seconds, 6),
                "service_start_s": round(self.serving.start_s, 6),
            },
            "phases": phases,
            "checks": {
                "answers_compared": self.compared,
                "mismatches": self.mismatches[:10],
            },
            "not_applicable": not_applicable(self.workload) if trace else [],
        }

    def totals(self) -> tuple[int, int]:
        attempted = failed = 0
        for phase in self.phases.values():
            attempted += phase.query_attempted + phase.update_attempted
            failed += phase.query_failed + phase.update_failed
        return attempted, failed


def error_rate(phase: workloads.Phase) -> float:
    attempted = phase.query_attempted + phase.update_attempted
    failed = phase.query_failed + phase.update_failed
    return failed / attempted if attempted else 0.0


def not_applicable(workload: str) -> list[str]:
    """Per-layer metrics that do not apply to ``workload`` (they print 0),
    as ``metric_map.json`` records them."""
    spec = json.loads((Path(__file__).parent / "metric_map.json").read_text())
    return [
        name for name, entry in spec["per_layer"].items()
        if workload not in entry.get("applies_to", WORKLOADS)
    ]


def load_units(root: Path) -> dict:
    """Metric units by kind, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def main(argv, root: Path, process_started: float) -> int:
    args = parse_args(argv)
    units = load_units(root)
    load_at_start = measure.load_average()
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        bench = Bench(args, workdir, process_started)
        values = bench.traced() if args.trace else bench.end_to_end()
    finally:
        stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    units = units["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with "
            "BENCHMARK.json"
        )
    attempted, failed = bench.totals()
    result = {
        "correct": not bench.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in sorted(values.items())
        },
    }
    print(json.dumps(bench.report(load_at_start, args.trace), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
