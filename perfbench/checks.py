"""Correctness checks on served answers.

Every check returns a list of human-readable mismatches; an empty list
means the check passed.  The benchmark reports ``correct: false`` and
exits non-zero on any mismatch, so a check here must be able to fail —
``selftest.py`` proves that by perturbing one answer.
"""

from __future__ import annotations

import numpy as np

from inputs import CLUSTER_SIZE, stream

#: Served answers compared bitwise with a reference per run.
CHECK_SAMPLE = 48


def sample_answers(answers, seed: int, count: int = CHECK_SAMPLE):
    """A seeded sample of ``answers``, kept in serving order."""
    if len(answers) <= count:
        return list(answers)
    picks = stream(seed, "sample").choice(len(answers), size=count, replace=False)
    return [answers[i] for i in sorted(picks)]


def compare(answers, reference, label: str) -> list[str]:
    """Bitwise-compare ``(seed, epoch, cluster)`` answers with
    ``reference(seed)``, which must return the expected cluster array."""
    mismatches = []
    for seed, epoch, cluster in answers:
        expected = np.asarray(reference(seed))
        got = np.asarray(cluster)
        if got.dtype != expected.dtype or not np.array_equal(got, expected):
            mismatches.append(
                f"{label}: seed {seed} at epoch {epoch} served "
                f"{got[:6].tolist()}... but the reference gives "
                f"{expected[:6].tolist()}..."
            )
    return mismatches


def check_static(answers, model, seed: int) -> list[str]:
    """``serial``/``burst``: served answers equal ``LACA.cluster`` of the
    same fitted model."""
    return compare(
        sample_answers(answers, seed),
        lambda s: model.cluster(s, CLUSTER_SIZE),
        "served vs LACA.cluster",
    )


def check_epochs(answers, mirror_model, mirror_store, deltas, make_delta,
                 seed: int) -> list[str]:
    """``mixed``: each sampled answer equals a mirror model's answer at the
    epoch it was keyed at.  The mirror replays the same deltas through
    ``GraphStore.apply`` and ``LACA.refresh``."""
    sample = sample_answers(answers, seed)
    base_epoch = mirror_store.epoch
    by_epoch: dict[int, list] = {}
    for answer in sample:
        by_epoch.setdefault(answer[1], []).append(answer)
    mismatches = []
    for offset in range(len(deltas) + 1):
        epoch = base_epoch + offset
        if offset:
            mirror_store.apply(make_delta(*deltas[offset - 1]))
            mirror_model.refresh(mirror_store)
        mismatches += compare(
            by_epoch.pop(epoch, []),
            lambda s: mirror_model.cluster(s, CLUSTER_SIZE),
            "served vs mirror model",
        )
    for epoch, stray in by_epoch.items():
        mismatches.append(
            f"{len(stray)} answer(s) keyed at epoch {epoch}, which no "
            "applied delta produced"
        )
    return mismatches


def same_structure(a, b) -> bool:
    """Two snapshots have bitwise-identical CSR adjacency and degrees."""
    return (
        a.n == b.n
        and np.array_equal(a.adjacency.indptr, b.adjacency.indptr)
        and np.array_equal(a.adjacency.indices, b.adjacency.indices)
        and np.array_equal(a.adjacency.data, b.adjacency.data)
        and np.array_equal(a.degrees, b.degrees)
    )


def precision(answers, graph) -> float:
    """Mean over the distinct seeds answered of the share of the cluster
    inside the seed's ground-truth community (the paper's Table V measure).

    Each seed counts once, at its first answer: on ``mixed`` a handful of
    Zipf-popular seeds would otherwise carry most of the weight.
    """
    first = {}
    for seed, _, cluster in answers:
        first.setdefault(seed, cluster)
    shares = [
        np.isin(cluster, graph.ground_truth_cluster(seed)).mean()
        for seed, cluster in first.items()
    ]
    return float(np.mean(shares))
