"""Spans and counts around the calls into each ufda module, for the traced run.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
names that ``ufda.adaptation``, ``ufda.clustering``, ``ufda.pseudolabel``,
``ufda.consensus``, ``ufda.contrastive``, ``ufda.evaluation`` and
``ufda.datagen`` look up with wrappers that record one span per call and
update exact counts from the call's arguments and result.  Nothing in the
library is edited; leaving the block restores every name.

A span is named after the function that ran, ``<module>.<function>``, so
``clustering.kmeans`` is one name whether adaptation's ct estimate, the
prototype builder or the NCD metric called it; the per-layer metrics tell the
callers apart by the span's ancestors.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass

from ufda import (
    adaptation,
    clustering,
    consensus,
    contrastive,
    datagen,
    evaluation,
    pseudolabel,
)

LAYERS = ("datagen", "model", "clustering", "pseudolabel", "consensus",
          "contrastive", "adaptation", "evaluation")
# Layers whose self time inside adapt() is reported; adaptation's own is
# adaptation.self_s.
ADAPT_CHILD_LAYERS = ("model", "clustering", "pseudolabel", "consensus", "contrastive")


@dataclass
class Span:
    id: int
    parent: int | None
    rep: int
    name: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.rep = 0
        self._open: list[int] = []
        self._errors: list[BaseException] = []

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(len(self.spans), parent, self.rep, name, 0.0)
            self.spans.append(span)
            self._open.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, in the innermost layer it passed through.
                if not any(exc is seen for seen in self._errors):
                    self._errors.append(exc)
                    self.counts[f"errors.{span.layer}"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced


def _count_kmeans(caller: str):
    def count(counts, a, result):
        counts[f"clustering.kmeans.calls.{caller}"] += 1
        counts["clustering.kmeans.point_centroid_pairs"] += len(a["points"]) * a["k"] * a["n_init"]
    return count


def _count_ranking(counts, a, result):
    counts["consensus.rankings"] += 1
    counts["consensus.knn_scored"] += len(a["query_features"]) * len(a["bank"])


def _count_forward(counts, a, result):
    counts["model.forward_rows"] += len(a["x"])


def _count_batch(counts, a, result):
    counts["consensus.batches"] += 1


def _count_anchors(counts, a, result):
    counts["contrastive.anchors"] += len(result)


def _count_pseudo(counts, a, result):
    counts["pseudolabel.rows"] += len(result.labels)
    counts["pseudolabel.labeled_rows"] += int((result.labels >= 0).sum())


# (namespace, name looked up there, span name, counter)
WRAPS = (
    (datagen, "generate", "datagen.generate", None),
    (adaptation, "pretrain_source", "adaptation.pretrain_source", None),
    (adaptation, "adapt", "adaptation.adapt", None),
    (adaptation, "estimate_ct", "clustering.estimate_ct", None),
    (adaptation, "bank_init", "consensus.bank_init", None),
    (adaptation, "bank_update", "consensus.bank_update", None),
    (adaptation, "local_targets", "consensus.local_targets", _count_batch),
    (adaptation, "mine_pairs", "contrastive.mine_pairs", _count_anchors),
    (adaptation, "loss_contrastive", "contrastive.loss_contrastive", None),
    (adaptation, "build_all_prototypes", "pseudolabel.build_all_prototypes", None),
    (adaptation, "assign_pseudo_labels", "pseudolabel.assign_pseudo_labels", _count_pseudo),
    (adaptation, "forward_batch", "model.forward_batch", _count_forward),
    (adaptation, "backward", "model.backward", None),
    (adaptation, "sgd_step", "model.sgd_step", None),
    (clustering, "kmeans", "clustering.kmeans", _count_kmeans("ct")),
    (clustering, "silhouette", "clustering.silhouette", None),
    (pseudolabel, "kmeans", "clustering.kmeans", _count_kmeans("proto")),
    (consensus, "nearest_bank_indices", "consensus.nearest_bank_indices", _count_ranking),
    (consensus, "forward_batch", "model.forward_batch", _count_forward),
    (contrastive, "nearest_bank_indices", "consensus.nearest_bank_indices", _count_ranking),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "ncd_accuracy", "evaluation.ncd_accuracy", None),
    (evaluation, "kmeans", "clustering.kmeans", _count_kmeans("ncd")),
    (evaluation, "forward_batch", "model.forward_batch", _count_forward),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every name in WRAPS for the duration of the block."""
    saved = []
    try:
        for namespace, name, span_name, count in WRAPS:
            original = getattr(namespace, name)
            saved.append((namespace, name, original))
            setattr(namespace, name, tracer.wrap(span_name, original, count))
        yield tracer
    finally:
        for namespace, name, original in reversed(saved):
            setattr(namespace, name, original)


# metric -> (span name, required ancestor span name or None); seconds summed
SPAN_TIMES = {
    "datagen.generate_s": ("datagen.generate", None),
    "adaptation.pretrain_s": ("adaptation.pretrain_source", None),
    "adaptation.adapt_s": ("adaptation.adapt", None),
    "clustering.estimate_ct_s": ("clustering.estimate_ct", None),
    "clustering.estimate_ct.kmeans_s": ("clustering.kmeans", "clustering.estimate_ct"),
    "clustering.estimate_ct.silhouette_s": ("clustering.silhouette", "clustering.estimate_ct"),
    "pseudolabel.build_all_prototypes_s": ("pseudolabel.build_all_prototypes", None),
    "pseudolabel.kmeans_s": ("clustering.kmeans", "pseudolabel.build_all_prototypes"),
    "pseudolabel.assign_pseudo_labels_s": ("pseudolabel.assign_pseudo_labels", None),
    "consensus.local_targets_s": ("consensus.local_targets", None),
    "consensus.bank_init_s": ("consensus.bank_init", None),
    "consensus.bank_update_s": ("consensus.bank_update", None),
    "contrastive.mine_pairs_s": ("contrastive.mine_pairs", None),
    "contrastive.knn_s": ("consensus.nearest_bank_indices", "contrastive.mine_pairs"),
    "contrastive.loss_s": ("contrastive.loss_contrastive", None),
    "model.forward_batch_s": ("model.forward_batch", "adaptation.adapt"),
    "model.backward_s": ("model.backward", "adaptation.adapt"),
    "model.sgd_step_s": ("model.sgd_step", "adaptation.adapt"),
    "evaluation.evaluate_s": ("evaluation.evaluate", None),
    "evaluation.ncd_s": ("evaluation.ncd_accuracy", None),
}
COUNTS = (
    "clustering.kmeans.calls.ct",
    "clustering.kmeans.calls.proto",
    "clustering.kmeans.calls.ncd",
    "clustering.kmeans.point_centroid_pairs",
    "consensus.knn_scored",
    "contrastive.anchors",
    "model.forward_rows",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced spans and counts: name -> (value, unit)."""
    spans = tracer.spans
    ancestors = _ancestor_names(spans)
    out: dict[str, tuple[float, str]] = {}
    for metric, (name, under) in SPAN_TIMES.items():
        out[metric] = (sum(s.duration for s in spans if s.name == name
                           and (under is None or under in ancestors[s.id])), "s")

    self_in_adapt = _adapt_self_times(spans, ancestors)
    out["adaptation.self_s"] = (self_in_adapt["adaptation"], "s")
    for layer in ADAPT_CHILD_LAYERS:
        out[f"{layer}.adapt_self_s"] = (self_in_adapt[layer], "s")

    counts = tracer.counts
    for name in COUNTS:
        out[name] = (counts[name], "count")
    batches = counts["consensus.batches"]
    out["consensus.rankings_per_batch"] = (
        counts["consensus.rankings"] / batches if batches else 0.0, "1")
    rows = counts["pseudolabel.rows"]
    out["pseudolabel.labeled_fraction"] = (
        counts["pseudolabel.labeled_rows"] / rows if rows else 0.0, "1")
    for layer in LAYERS:
        out[f"errors.{layer}"] = (counts[f"errors.{layer}"], "count")
    return out


def _ancestor_names(spans: list[Span]) -> list[frozenset]:
    out: list[frozenset] = []
    for s in spans:  # parents always precede their children
        out.append(frozenset() if s.parent is None else out[s.parent] | {spans[s.parent].name})
    return out


def _adapt_self_times(spans: list[Span], ancestors: list[frozenset]) -> Counter:
    """Self time inside adapt() per layer: each span's duration minus what
    its children cover; adapt's own self time goes to "adaptation"."""
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.duration
    out = Counter()
    for s in spans:
        if s.name == "adaptation.adapt" or "adaptation.adapt" in ancestors[s.id]:
            out[s.layer] += s.duration - child_seconds[s.id]
    return out


def adapt_self_seconds(tracer: Tracer) -> float:
    """All self time inside adapt(); equals adapt's wall time when every
    span nests properly."""
    return sum(_adapt_self_times(tracer.spans, _ancestor_names(tracer.spans)).values())
