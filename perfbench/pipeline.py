"""One gen -> pretrain -> adapt -> eval pass through the ufda library, timed
phase by phase, and the checks that its outputs are right.

The library entry points are looked up on their modules at call time
(``datagen.generate``, ``adaptation.adapt``, ...), so a traced run can wrap
them without this file knowing.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from ufda import adaptation, datagen, evaluation
from ufda.clustering import candidate_counts
from ufda.model import AdaptModel, ModelDims
from ufda.numerics import Rng

from workloads import D_FEAT, D_HIDDEN, OMEGA, PRETRAIN_EPOCHS, Workload

WEIGHTS = ("w1", "b1", "w2", "b2", "wc", "bc")


class CheckFailed(Exception):
    """A pipeline output is wrong; ``module`` names the layer that made it."""

    def __init__(self, module: str, message: str):
        super().__init__(f"{module}: {message}")
        self.module = module


@dataclass
class Setup:
    spec: datagen.ScenarioSpec
    source: datagen.FeatureSet
    target: datagen.FeatureSet
    model: AdaptModel           # pretrained, classifier frozen
    seconds: dict[str, float]   # generate, pretrain

    def digest(self) -> str:
        h = hashlib.sha256()
        for fs in (self.source, self.target):
            h.update(fs.features.tobytes())
            h.update(fs.labels.tobytes())
        _hash_weights(h, self.model)
        return h.hexdigest()


@dataclass
class PipelineRun:
    seed: int
    seconds: dict[str, float]  # generate, pretrain, adapt, evaluate, pipeline
    epoch_seconds: list[float]
    digest: dict[str, str]     # setup, adaptation (weights, losses), evaluation
    report: evaluation.EvalReport


def _hash_weights(h, model) -> None:
    for name in WEIGHTS:
        h.update(getattr(model, name).tobytes())


def scenario_spec(workload: Workload, seed: int) -> datagen.ScenarioSpec:
    return datagen.preset(workload.preset, seed=seed, **workload.overrides)


def _n_private(spec: datagen.ScenarioSpec) -> int | None:
    return spec.n_target_private if spec.n_target_private >= 2 else None


def setup(workload: Workload, seed: int) -> Setup:
    """Generate the scenario and pretrain the source model: everything before
    the target reaches ``adapt``."""
    spec = scenario_spec(workload, seed)
    t0 = time.perf_counter()
    source, target = datagen.generate(spec)
    t1 = time.perf_counter()
    dims = ModelDims(spec.d_in, D_HIDDEN, D_FEAT, spec.n_source_classes)
    config = adaptation.AdaptConfig(seed=seed, epochs=PRETRAIN_EPOCHS)
    model = adaptation.pretrain_source(source, dims, config)
    t2 = time.perf_counter()
    return Setup(spec, source, target, model, {"generate": t1 - t0, "pretrain": t2 - t1})


def run(workload: Workload, seed: int) -> PipelineRun:
    """One full pipeline on one scenario, checked."""
    t0 = time.perf_counter()
    prepared = setup(workload, seed)
    t1 = time.perf_counter()
    config = adaptation.AdaptConfig(
        seed=seed, variant=workload.variant, epochs=workload.epochs, omega=OMEGA
    )
    adapted, trace = adaptation.adapt(prepared.model, prepared.target, config)
    t2 = time.perf_counter()
    spec, target = prepared.spec, prepared.target
    report = evaluation.evaluate(
        adapted, target.features, target.labels, OMEGA,
        n_private=_n_private(spec), rng=Rng(seed),
    )
    t3 = time.perf_counter()

    check(workload, prepared, adapted, trace, report)
    adapted_hash = hashlib.sha256()
    _hash_weights(adapted_hash, adapted)
    for r in trace.epochs:
        adapted_hash.update(repr((r.epoch, r.total, r.glb, r.loc, r.con, r.ct)).encode())
    report_hash = hashlib.sha256("\n".join(report.machine_lines()).encode())
    return PipelineRun(
        seed=seed,
        seconds={
            **prepared.seconds, "adapt": t2 - t1, "evaluate": t3 - t2, "pipeline": t3 - t0,
        },
        epoch_seconds=[r.seconds for r in trace.epochs],
        digest={
            "setup": prepared.digest(),
            "adaptation": adapted_hash.hexdigest(),
            "evaluation": report_hash.hexdigest(),
        },
        report=report,
    )


def check(workload: Workload, prepared: Setup, adapted, trace, report) -> None:
    """Raise CheckFailed unless every output of the pipeline is right."""
    spec, model, target = prepared.spec, prepared.model, prepared.target
    n_target_classes = spec.n_shared + spec.n_target_private
    if len(target) != n_target_classes * spec.target_per_class:
        raise CheckFailed("datagen", f"target holds {len(target)} samples")
    if len(prepared.source) != spec.n_source_classes * spec.source_per_class:
        raise CheckFailed("datagen", f"source holds {len(prepared.source)} samples")

    if not all(np.all(np.isfinite(getattr(adapted, w))) for w in WEIGHTS):
        raise CheckFailed("adaptation", "adapted weights are not finite")
    if not (np.array_equal(adapted.wc, model.wc) and np.array_equal(adapted.bc, model.bc)):
        raise CheckFailed("adaptation", "the frozen classifier changed during adaptation")
    if len(trace.epochs) != workload.epochs:
        raise CheckFailed("adaptation", f"trace holds {len(trace.epochs)} epochs")
    cands = candidate_counts(spec.n_source_classes, len(target))
    for r in trace.epochs:
        if not all(math.isfinite(v) for v in (r.total, r.glb, r.loc, r.con)):
            raise CheckFailed("adaptation", f"epoch {r.epoch} loss is not finite")
        if r.ct not in cands:
            raise CheckFailed("clustering", f"ct={r.ct} is not a candidate of {cands}")
        if workload.variant == "glc" and r.con != 0.0:
            raise CheckFailed("contrastive", f"glc epoch {r.epoch} has a contrastive loss")

    expected = oracle_report(adapted, target.features, target.labels, OMEGA)
    for name, value in expected.items():
        got = getattr(report, name)
        if not (got == value or (math.isnan(got) and math.isnan(value))):
            raise CheckFailed("evaluation", f"{name} is {got!r}, the oracle gives {value!r}")
    has_ncd = _n_private(spec) is not None
    for name in ("h_score", "closed_acc", "ncd_acc"):
        value = getattr(report, name)
        defined = {"h_score": spec.n_target_private > 0, "ncd_acc": has_ncd}.get(name, True)
        if defined != (not math.isnan(value)):
            raise CheckFailed("evaluation", f"{name}={value!r} where defined={defined}")
        if defined and not 0.0 <= value <= 1.0:
            raise CheckFailed("evaluation", f"{name}={value!r} is outside [0, 1]")


def oracle_report(model, features: np.ndarray, labels: np.ndarray, omega: float) -> dict:
    """Recompute the entropy-rejection metrics of an EvalReport directly from
    the weights: ReLU MLP, softmax, normalized entropy, threshold at omega."""
    hidden = np.maximum(features @ model.w1 + model.b1, 0.0)
    logits = (hidden @ model.w2 + model.b2) @ model.wc + model.bc
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    n_classes = probs.shape[1]
    logp = np.log(np.where(probs > 0.0, probs, 1.0))
    entropy = -np.sum(probs * logp, axis=1) / math.log(n_classes)
    entropy[np.all(probs == probs[:, :1], axis=1)] = 1.0
    pred = np.where(entropy >= omega, -1, np.argmax(probs, axis=1))

    unknown = labels >= n_classes
    n_known, n_unknown = int((~unknown).sum()), int(unknown.sum())
    known_correct = int(np.sum(pred[~unknown] == labels[~unknown]))
    known_rejected = int(np.sum(pred[~unknown] == -1))
    unknown_rejected = int(np.sum(pred[unknown] == -1))
    known_acc = known_correct / n_known if n_known else math.nan
    unknown_acc = unknown_rejected / n_unknown if n_unknown else math.nan
    if n_known and n_unknown:
        total = known_acc + unknown_acc
        h = 0.0 if total == 0.0 else 2.0 * known_acc * unknown_acc / total
    else:
        h = math.nan
    return {
        "n_samples": int(labels.shape[0]),
        "n_known": n_known,
        "n_unknown": n_unknown,
        "known_correct": known_correct,
        "known_rejected": known_rejected,
        "known_wrong_class": n_known - known_correct - known_rejected,
        "unknown_rejected": unknown_rejected,
        "unknown_accepted": n_unknown - unknown_rejected,
        "known_acc": known_acc,
        "unknown_acc": unknown_acc,
        "h_score": h,
        "closed_acc": float(np.mean(pred == np.where(unknown, -1, labels))),
    }
