"""Self-tests of the benchmark's own parts.

Run from the repository root::

    python3 perfbench/selftest.py

They cover the input generators (determinism, and that every ``mixed``
delta applies cleanly without isolating a node), the percentile helper's
ten-samples-beyond rule, and that each correctness check fails when one
served cluster is perturbed.  A small ``arxiv`` graph keeps them fast;
the generators and checks do not depend on the scale.
"""

from __future__ import annotations

import sys
import traceback

from run import require_program

require_program()

import numpy as np  # noqa: E402
from repro import LACA, GraphDelta, GraphStore, LacaConfig, load_dataset  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from measure import TooFewSamples, percentile  # noqa: E402

SMALL_SCALE = 1.0


def _graph():
    return load_dataset("arxiv", scale=SMALL_SCALE)


def _model(graph):
    return LACA(LacaConfig(diffusion="greedy")).fit(graph)


def _perturbed(cluster: np.ndarray, n: int) -> np.ndarray:
    """``cluster`` with its last node swapped for one outside it."""
    outside = np.setdiff1d(np.arange(n), cluster)[0]
    changed = cluster.copy()
    changed[-1] = outside
    return np.sort(changed)


def selftest_same_seed_same_inputs(graph):
    n = graph.n
    for seed in (0, 7):
        assert np.array_equal(inputs.serial_seeds(seed, n, 300),
                              inputs.serial_seeds(seed, n, 300))
        assert all(np.array_equal(a, b) for a, b in zip(
            inputs.burst_waves(seed, n, 3), inputs.burst_waves(seed, n, 3)))
        assert np.array_equal(inputs.mixed_seeds(seed, n, 500),
                              inputs.mixed_seeds(seed, n, 500))
        first = inputs.DeltaStream(seed, graph).take(12)
        again = inputs.DeltaStream(seed, graph).take(12)
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(first, again))


def selftest_other_seed_other_inputs(graph):
    n = graph.n
    assert not np.array_equal(inputs.serial_seeds(0, n, 300),
                              inputs.serial_seeds(1, n, 300))
    assert not np.array_equal(inputs.burst_waves(0, n, 1)[0],
                              inputs.burst_waves(1, n, 1)[0])
    assert not np.array_equal(inputs.mixed_seeds(0, n, 500),
                              inputs.mixed_seeds(1, n, 500))
    a = inputs.DeltaStream(0, graph).take(4)
    b = inputs.DeltaStream(1, graph).take(4)
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a, b))


def selftest_query_shapes(graph):
    n = graph.n
    serial = inputs.serial_seeds(3, n, 500)
    assert np.unique(serial).size == serial.size, "serial seeds repeat"
    for wave in inputs.burst_waves(3, n, 4):
        assert wave.size == inputs.WAVE_SIZE and np.unique(wave).size == wave.size
    mixed = inputs.mixed_seeds(3, n, 2000)
    assert mixed.min() >= 0 and mixed.max() < n
    assert np.unique(mixed).size < 0.9 * mixed.size, "Zipf seeds should repeat"


def selftest_deltas_apply_and_isolate_nothing(graph):
    store = GraphStore(graph)
    stream = inputs.DeltaStream(5, graph)
    added: set[tuple[int, int]] = set()
    for index in range(40):
        add, remove = stream.next()
        assert add.shape == (inputs.EDGES_PER_DELTA, 2)
        expected = 0 if index == 0 else inputs.EDGES_PER_DELTA
        assert remove.shape == (expected, 2)
        removed = {tuple(edge) for edge in remove.tolist()}
        assert removed <= added, "a delta removes an edge it did not add"
        # apply() validates against the previous epoch and refuses a
        # delta that would isolate a node.
        head = store.apply(GraphDelta(add_edges=add, remove_edges=remove))
        assert head.epoch == index + 1
        assert head.degrees.min() >= 1.0
        added = (added - removed) | {tuple(edge) for edge in add.tolist()}


def selftest_percentile_needs_ten_beyond(_graph):
    values = np.arange(1000, dtype=float)
    for q, smallest in ((95, 200), (50, 20), (99, 1000)):
        percentile(values[:smallest], q)
        try:
            percentile(values[: smallest - 1], q)
        except TooFewSamples:
            pass
        else:
            raise AssertionError(f"p{q} of {smallest - 1} samples was reported")
    assert percentile(np.arange(1, 21, dtype=float), 50) == 10.5


def selftest_static_check_fails_on_perturbed_answer(graph):
    model = _model(graph)
    seeds = inputs.serial_seeds(11, graph.n, 100)
    answers = [(int(s), 0, model.cluster(int(s), inputs.CLUSTER_SIZE))
               for s in seeds]
    assert checks.check_static(answers, model, 11) == []
    victim = checks.sample_answers(answers, 11)[3]
    index = answers.index(victim)
    seed, epoch, cluster = victim
    answers[index] = (seed, epoch, _perturbed(cluster, graph.n))
    assert len(checks.check_static(answers, model, 11)) == 1


def selftest_epoch_check_fails_on_perturbed_answer(graph):
    model = _model(graph)
    stream = inputs.DeltaStream(2, graph)
    deltas = stream.take(3)
    store = GraphStore(graph)
    served = LACA.from_fit_state(model.fit_state(), graph)
    answers = []
    seeds = inputs.mixed_seeds(2, graph.n, 40)
    for epoch in range(len(deltas) + 1):
        if epoch:
            store.apply(GraphDelta(add_edges=deltas[epoch - 1][0],
                                   remove_edges=deltas[epoch - 1][1]))
            served.refresh(store)
        for s in seeds[epoch * 10:(epoch + 1) * 10]:
            answers.append((int(s), epoch, served.cluster(int(s), inputs.CLUSTER_SIZE)))

    def run_check():
        return checks.check_epochs(
            answers, LACA.from_fit_state(model.fit_state(), graph),
            GraphStore(graph), deltas,
            lambda a, r: GraphDelta(add_edges=a, remove_edges=r), 2,
        )

    assert run_check() == []
    seed, epoch, cluster = answers[25]
    answers[25] = (seed, epoch, _perturbed(cluster, graph.n))
    assert len(run_check()) == 1
    # An answer keyed at an epoch no applied delta produced is caught too.
    answers[25] = (seed, len(deltas) + 1, cluster)
    assert len(run_check()) == 1


def selftest_compare_fails_on_perturbed_answer(graph):
    model = _model(graph)
    answers = [(s, 0, model.cluster(s, inputs.CLUSTER_SIZE)) for s in (1, 2, 3)]
    reference = lambda s: model.cluster(s, inputs.CLUSTER_SIZE)  # noqa: E731
    assert checks.compare(answers, reference, "x") == []
    answers[1] = (2, 0, _perturbed(answers[1][2], graph.n))
    assert len(checks.compare(answers, reference, "x")) == 1


def main() -> int:
    graph = _graph()
    failed = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("selftest_"):
            continue
        try:
            test(graph)
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{failed} failed" if failed else "all passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
