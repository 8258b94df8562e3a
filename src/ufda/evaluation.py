"""Inference-time rejection and all metrics: known/unknown accuracy, H-score,
closed-set accuracy, and novel-category-discovery accuracy via Hungarian
cluster-to-label matching."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .clustering import kmeans
from .model import AdaptModel, forward_batch
from .numerics import Rng, l2_normalize_rows, normalized_entropy_rows

UNKNOWN = -1


@dataclass
class Predictions:
    labels: np.ndarray     # (N,) class index or UNKNOWN (-1)
    entropies: np.ndarray  # (N,) normalized entropy scores

    def __len__(self) -> int:
        return self.labels.shape[0]


def predict(model: AdaptModel, inputs: np.ndarray, omega: float) -> Predictions:
    """Entropy-threshold open-set prediction.

    A sample is UNKNOWN when its normalized prediction entropy is >= omega,
    otherwise it gets the argmax class (smallest index on ties).
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must be in (0, 1]")
    fwd = forward_batch(model, np.asarray(inputs, dtype=np.float64))
    entropies = normalized_entropy_rows(fwd.probs, fwd.probs.shape[1])
    labels = np.argmax(fwd.probs, axis=1).astype(np.int64)
    labels[entropies >= omega] = UNKNOWN
    return Predictions(labels=labels, entropies=entropies)


def h_score(
    pred_labels: np.ndarray,
    true_labels: np.ndarray,
    unknown_mask: np.ndarray,
) -> tuple[float, float, float]:
    """(acc_known, acc_unknown, H) where H is their harmonic mean.

    Known samples count as correct when predicted as their true class;
    unknown samples when predicted UNKNOWN. Errors out if either ground-truth
    side is empty.
    """
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    unknown_mask = np.asarray(unknown_mask, dtype=bool)
    n_known = int((~unknown_mask).sum())
    n_unknown = int(unknown_mask.sum())
    if n_known == 0 or n_unknown == 0:
        raise ValueError("H-score undefined")
    acc_known = float(np.mean(pred_labels[~unknown_mask] == true_labels[~unknown_mask]))
    acc_unknown = float(np.mean(pred_labels[unknown_mask] == UNKNOWN))
    if acc_known + acc_unknown == 0.0:
        return acc_known, acc_unknown, 0.0
    return acc_known, acc_unknown, 2.0 * acc_known * acc_unknown / (acc_known + acc_unknown)


def closed_accuracy(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Plain accuracy over all samples; UNKNOWN predictions count as errors."""
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    return float(np.mean(pred_labels == true_labels))


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
    clusters = np.unique(cluster_ids)
    labels = np.unique(true_labels)
    n = max(clusters.shape[0], labels.shape[0])
    counts = np.zeros((n, n))
    for ci, c in enumerate(clusters):
        for li, lab in enumerate(labels):
            counts[ci, li] = np.sum((cluster_ids == c) & (true_labels == lab))
    perm = hungarian(counts.max() - counts)
    matched = sum(counts[i, perm[i]] for i in range(n))
    return float(matched / cluster_ids.shape[0])


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
    n_private: int | None = None,
    rng: Rng | None = None,
) -> EvalReport:
    """Full report for a labeled target set.

    Samples with label >= the model's class count are ground-truth unknown.
    NCD accuracy is computed only when n_private (and an rng) is given and
    both sides of the ground truth exist; H-score is NaN for one-sided sets.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n_classes = model.wc.shape[1]
    unknown_mask = labels >= n_classes
    preds = predict(model, features, omega)

    n_known = int((~unknown_mask).sum())
    n_unknown = int(unknown_mask.sum())
    known_correct = int(np.sum(preds.labels[~unknown_mask] == labels[~unknown_mask]))
    known_rejected = int(np.sum(preds.labels[~unknown_mask] == UNKNOWN))
    unknown_rejected = int(np.sum(preds.labels[unknown_mask] == UNKNOWN))

    if n_known > 0 and n_unknown > 0:
        known_acc, unknown_acc, h = h_score(preds.labels, labels, unknown_mask)
    else:
        known_acc = float(known_correct / n_known) if n_known else float("nan")
        unknown_acc = float(unknown_rejected / n_unknown) if n_unknown else float("nan")
        h = float("nan")

    # Over all target samples; on PDA/CLDA sets (no unknown truth) this is the
    # plain accuracy with UNKNOWN predictions counted as errors.
    closed = closed_accuracy(preds.labels, np.where(unknown_mask, UNKNOWN, labels))

    ncd = float("nan")
    if n_private is not None and n_unknown > 0:
        if rng is None:
            raise ValueError("ncd accuracy needs an rng")
        fwd = forward_batch(model, features[unknown_mask])
        ncd = ncd_accuracy(fwd.features, labels[unknown_mask], n_private, rng)

    return EvalReport(
        n_samples=int(labels.shape[0]),
        n_known=n_known,
        n_unknown=n_unknown,
        known_acc=known_acc,
        unknown_acc=unknown_acc,
        h_score=h,
        closed_acc=closed,
        ncd_acc=ncd,
        known_correct=known_correct,
        known_wrong_class=n_known - known_correct - known_rejected,
        known_rejected=known_rejected,
        unknown_rejected=unknown_rejected,
        unknown_accepted=n_unknown - unknown_rejected,
    )
