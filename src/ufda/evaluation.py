"""Inference-time rejection and all metrics: known/unknown accuracy, H-score,
closed-set accuracy, and novel-category-discovery accuracy via Hungarian
cluster-to-label matching."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .clustering import kmeans
from .model import AdaptModel, forward_batch
from .numerics import Rng, l2_normalize_rows, normalized_entropy_rows

UNKNOWN = -1


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost row-to-column assignment; lexicographically smallest
    permutation among optima (tolerance 1e-9 for cost ties)."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]

    def best(sub: np.ndarray) -> float:
        if sub.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(sub)
        return float(sub[rows, cols].sum())

    optimum = best(cost)
    perm = np.empty(n, dtype=np.int64)
    free = list(range(n))
    fixed_cost = 0.0
    for i in range(n):
        for j in free:
            rest_rows = np.arange(i + 1, n)
            rest_cols = [c for c in free if c != j]
            tail = best(cost[np.ix_(rest_rows, rest_cols)])
            if fixed_cost + cost[i, j] + tail <= optimum + 1e-9:
                perm[i] = j
                fixed_cost += cost[i, j]
                free.remove(j)
                break
    return perm


def match_accuracy(cluster_ids: np.ndarray, true_labels: np.ndarray) -> float:
    """Accuracy after optimally matching cluster ids to label ids.

    Builds the co-occurrence count matrix (zero-padded to square when the two
    id counts differ), converts it to the minimization form
    max_count - count, and matches with the Hungarian algorithm.
    """
    cluster_ids = np.asarray(cluster_ids)
    true_labels = np.asarray(true_labels)
    if cluster_ids.shape != true_labels.shape:
        raise ValueError(
            f"cluster ids of shape {cluster_ids.shape} and labels of shape "
            f"{true_labels.shape} do not align"
        )
    clusters, cluster_index = np.unique(cluster_ids, return_inverse=True)
    labels, label_index = np.unique(true_labels, return_inverse=True)
    n = max(clusters.shape[0], labels.shape[0])
    counts = np.zeros((n, n))
    np.add.at(counts, (cluster_index, label_index), 1.0)
    perm = hungarian(counts.max() - counts)
    return float(counts[np.arange(n), perm].sum() / cluster_ids.shape[0])


def ncd_accuracy(
    unknown_features: np.ndarray,
    true_private_labels: np.ndarray,
    n_private: int,
    rng: Rng,
) -> float:
    """Cluster the ground-truth-unknown features into the actual private-class
    count and report the Hungarian-matched clustering accuracy."""
    unknown_features = np.asarray(unknown_features, dtype=np.float64)
    if n_private < 2:
        raise ValueError("need at least 2 private classes")
    if unknown_features.shape[0] < n_private:
        raise ValueError("fewer unknown samples than private classes")
    normed = l2_normalize_rows(unknown_features)
    result = kmeans(normed, n_private, rng)
    return match_accuracy(result.assignment, true_private_labels)


def novel_class_count(labels: np.ndarray, n_classes: int) -> int | None:
    """Distinct labels >= n_classes (the novel classes NCD clusters into), or None below 2."""
    count = np.unique(labels[labels >= n_classes]).size
    return count if count >= 2 else None


@dataclass
class EvalReport:
    """All metrics plus confusion counts; undefined metrics are NaN."""

    n_samples: int
    n_known: int
    n_unknown: int
    known_acc: float
    unknown_acc: float
    h_score: float
    closed_acc: float
    ncd_acc: float
    known_correct: int
    known_wrong_class: int
    known_rejected: int
    unknown_rejected: int
    unknown_accepted: int

    def machine_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            out.append(f"{f.name}\t{value!r}" if isinstance(value, float) else f"{f.name}\t{value}")
        return out

    def human_table(self) -> str:
        names = [f.name for f in fields(self)]
        width = max(len(name) for name in names)
        rows = ["metric".ljust(width) + "  value", "-" * (width + 8)]
        for name in names:
            value = getattr(self, name)
            text = f"{value:.6f}" if isinstance(value, float) else str(value)
            rows.append(name.ljust(width) + "  " + text)
        return "\n".join(rows)


def evaluate(
    model: AdaptModel,
    features: np.ndarray,
    labels: np.ndarray,
    omega: float,
    *,
    n_private: int | None,
    rng: Rng,
) -> EvalReport:
    """Full report for a labeled target set, from one forward pass.

    A sample is ground-truth unknown when its label is >= the model's class
    count, and known otherwise. It is predicted UNKNOWN when its normalized
    prediction entropy is >= omega, otherwise it gets the argmax class
    (smallest index on ties). The counts:

        known_correct      known samples predicted as their label
        known_rejected     known samples predicted UNKNOWN
        known_wrong_class  the other known samples
        unknown_rejected   unknown samples predicted UNKNOWN
        unknown_accepted   the other unknown samples

    and the rates: known_acc = known_correct / n_known, unknown_acc =
    unknown_rejected / n_unknown, h_score their harmonic mean (0 when both
    are 0), closed_acc = (known_correct + unknown_rejected) / n_samples. A
    rate over no samples is NaN, and h_score is NaN unless both sides exist.
    NCD accuracy clusters the unknown samples' features from the same pass
    into n_private clusters, with rng; it is computed only when n_private is
    not None and some sample is unknown.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must be in (0, 1]")
    fwd = forward_batch(model, features)
    labels = np.asarray(labels)
    if labels.shape != (fwd.x.shape[0],):
        raise ValueError(
            f"labels of shape {labels.shape} do not align with {fwd.x.shape[0]} feature rows"
        )
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative")
    n_classes = fwd.probs.shape[1]
    pred = np.argmax(fwd.probs, axis=1)
    pred[normalized_entropy_rows(fwd.probs, n_classes) >= omega] = UNKNOWN
    rejected = pred == UNKNOWN
    unknown_mask = labels >= n_classes

    n_samples = labels.shape[0]
    n_unknown = int(unknown_mask.sum())
    n_known = n_samples - n_unknown
    known_correct = int(np.sum((pred == labels) & ~unknown_mask))
    known_rejected = int(np.sum(rejected & ~unknown_mask))
    unknown_rejected = int(np.sum(rejected & unknown_mask))

    def rate(count: int, total: int) -> float:
        return count / total if total else math.nan

    known_acc = rate(known_correct, n_known)
    unknown_acc = rate(unknown_rejected, n_unknown)
    h = math.nan
    if n_known and n_unknown:
        both = known_acc + unknown_acc
        h = 2.0 * known_acc * unknown_acc / both if both else 0.0

    ncd = math.nan
    if n_private is not None and n_unknown > 0:
        ncd = ncd_accuracy(fwd.features[unknown_mask], labels[unknown_mask], n_private, rng)

    return EvalReport(
        n_samples=n_samples,
        n_known=n_known,
        n_unknown=n_unknown,
        known_acc=known_acc,
        unknown_acc=unknown_acc,
        h_score=h,
        closed_acc=rate(known_correct + unknown_rejected, n_samples),
        ncd_acc=ncd,
        known_correct=known_correct,
        known_wrong_class=n_known - known_correct - known_rejected,
        known_rejected=known_rejected,
        unknown_rejected=unknown_rejected,
        unknown_accepted=n_unknown - unknown_rejected,
    )
