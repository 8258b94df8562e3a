"""Source pretraining and the target adaptation loop.

Each adaptation run estimates the target cluster count once, builds the memory
bank, then per epoch rebuilds prototypes and the pseudo-label matrix from the
epoch-start model state and iterates shuffled mini-batches minimizing

    eta * L_global + L_local (+ L_contrastive for the glcpp variant),

with the classifier frozen throughout. Bank rows for a batch are refreshed
right after its optimizer step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .clustering import estimate_ct
from .consensus import bank_init, bank_update, local_targets
from .contrastive import loss_contrastive, mine_pairs
from .datagen import FeatureSet
from .model import (
    AdaptModel,
    ModelDims,
    Optimizer,
    backward,
    cross_entropy_rows,
    forward_batch,
    init_model,
    loss_source_batch,
    sgd_step,
)
from .numerics import Rng, l2_normalize_rows
from .pseudolabel import assign_pseudo_labels, build_all_prototypes, topk_count

VARIANTS = ("glc", "glcpp")


@dataclass
class AdaptConfig:
    eta: float = 0.3
    rho: float = 0.75
    k_neighbors: int = 4
    n_pairs: int = 4
    batch_size: int = 64
    epochs: int = 20
    lr: float = 0.001
    momentum: float = 0.9
    seed: int = 0
    variant: str = "glcpp"
    omega: float = 0.55
    alpha: float = 0.1
    con_weight: float = 1.0

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must be in (0, 1]")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if min(self.k_neighbors, self.n_pairs, self.batch_size) < 1:
            raise ValueError("k_neighbors, n_pairs, batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.con_weight < 0.0:
            raise ValueError("con_weight must be non-negative")

    @property
    def effective_con_weight(self) -> float:
        return 0.0 if self.variant == "glc" else self.con_weight


@dataclass
class EpochRecord:
    epoch: int
    total: float
    glb: float
    loc: float
    con: float
    ct: int
    seconds: float


@dataclass
class AdaptTrace:
    epochs: list[EpochRecord] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = ["epoch\ttotal\tglb\tloc\tcon\tct\tseconds"]
        for r in self.epochs:
            out.append(
                f"{r.epoch}\t{r.total!r}\t{r.glb!r}\t{r.loc!r}\t{r.con!r}\t{r.ct}\t{r.seconds:.3f}"
            )
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.lines()) + "\n")


def _batches(perm: np.ndarray, batch_size: int):
    for start in range(0, perm.shape[0], batch_size):
        yield perm[start : start + batch_size]


def _located(stage: str, epoch, batch_no, phase: str, err: ValueError) -> ValueError:
    where = "".join(f"{name} {at}, " for name, at in (("epoch", epoch), ("batch", batch_no)) if at is not None)
    return ValueError(f"{stage} failed at {where}{phase}: {err}")


def pretrain_source(
    source: FeatureSet,
    dims: ModelDims,
    config: AdaptConfig,
    log_fn=None,
) -> AdaptModel:
    """Mini-batch SGD on the label-smoothed source loss; the classifier is
    frozen afterwards. Deterministic given the config seed. A failure is
    raised naming the epoch, the batch and the phase."""
    if len(source) == 0:
        raise ValueError("source set is empty")
    labels = np.asarray(source.labels)
    if labels.min() < 0 or labels.max() >= dims.n_classes:
        raise ValueError("source label out of range for the classifier")
    if source.features.shape[1] != dims.d_in:
        raise ValueError("source feature dimension does not match d_in")

    rng = Rng(config.seed)
    model = init_model(dims, rng)
    opt = Optimizer.for_model(model, config.lr, config.momentum)
    n = len(source)
    epoch = batch_no = phase = None
    try:
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for batch_no, batch in enumerate(_batches(perm, config.batch_size)):
                phase = "forward"
                fwd = forward_batch(model, source.features[batch])
                loss, d_logits = loss_source_batch(fwd.probs, labels[batch], config.alpha)
                phase = "backward+SGD"
                grads = backward(model, fwd, d_logits=d_logits)
                sgd_step(opt, model, grads)
                epoch_loss += loss * batch.shape[0]
            if log_fn is not None:
                log_fn(f"epoch {epoch} loss {epoch_loss / n:.6f}")
        # No forward pass follows the last step to catch a weight it overflowed.
        if not all(np.isfinite(getattr(model, name)).all() for name in model.trainable_names()):
            raise ValueError("weights are not finite")
    except ValueError as err:
        raise _located("pretraining", epoch, batch_no, phase, err) from err
    model.classifier_frozen = True
    return model


def adapt(model: AdaptModel, target: FeatureSet, config: AdaptConfig) -> tuple[AdaptModel, AdaptTrace]:
    """Run the adaptation loop on an unlabeled view of the target set.

    The input model is left untouched; the returned model is an adapted copy.
    Tail batches smaller than n_pairs+1 shrink both contrastive pair counts
    to fit (a 1-sample tail contributes no contrastive term). A ValueError
    raised once adaptation has started is re-raised naming the epoch, the
    batch and the phase it came from.
    """
    inputs = target.features
    if inputs.shape[0] == 0:
        raise ValueError("target set is empty")
    if not model.classifier_frozen:
        raise ValueError("adapt requires a pretrained model with a frozen classifier")

    model = model.copy()
    n = inputs.shape[0]
    n_classes = model.wc.shape[1]
    rng = Rng(config.seed)

    trace = AdaptTrace()
    epoch = batch_no = None
    phase = "ct estimation"
    try:
        first = forward_batch(model, inputs)
        ct = estimate_ct(first.features, n_classes, rng.split()).chosen
        phase = "bank init"
        bank = bank_init(model, inputs)
        opt = Optimizer.for_model(model, config.lr, config.momentum)
        k_top = topk_count(n, ct)
        con_weight = config.effective_con_weight

        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            batch_no, phase = None, "prototypes"
            epoch_fwd = forward_batch(model, inputs)
            epoch_unit = l2_normalize_rows(epoch_fwd.features)
            protos = build_all_prototypes(epoch_unit, epoch_fwd.probs, k_top, ct, config.rho, rng.split())
            phase = "pseudo-labels"
            pseudo = assign_pseudo_labels(epoch_unit, protos)

            sums = np.zeros(4)  # total, glb, loc, con (sample-weighted)
            perm = rng.permutation(n)
            for batch_no, batch in enumerate(_batches(perm, config.batch_size)):
                phase = "forward"
                fwd = forward_batch(model, inputs[batch])
                glb, d_glb = cross_entropy_rows(fwd.probs, pseudo.rows[batch])
                phase = "local consensus"
                loc_rows = local_targets(bank, fwd.features, config.k_neighbors, batch)
                loc, d_loc = cross_entropy_rows(fwd.probs, loc_rows)
                d_logits = config.eta * d_glb + d_loc

                con = 0.0
                d_feat = None
                # Undersized tail batches shrink both pair counts to B-1 so the
                # mining rule stays applicable; a 1-sample tail has no pairs.
                n_pairs = min(config.n_pairs, batch.shape[0] - 1)
                if con_weight != 0.0 and n_pairs >= 1:
                    phase = "contrastive"
                    pairs = mine_pairs(bank, fwd.features, batch, n_pairs, ct)
                    raw_con, d_anchor = loss_contrastive(fwd.features, pairs, bank)
                    con = con_weight * raw_con
                    d_feat = con_weight * d_anchor

                phase = "backward+SGD"
                grads = backward(model, fwd, d_logits=d_logits, d_feature=d_feat)
                sgd_step(opt, model, grads)
                phase = "bank refresh"
                bank_update(bank, batch, forward_batch(model, inputs[batch]))

                total = config.eta * glb + loc + con
                sums += batch.shape[0] * np.array([total, glb, loc, con])

            totals = sums / n
            trace.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    total=float(totals[0]),
                    glb=float(totals[1]),
                    loc=float(totals[2]),
                    con=float(totals[3]),
                    ct=ct,
                    seconds=time.perf_counter() - t0,
                )
            )
    except ValueError as err:
        raise _located("adaptation", epoch, batch_no, phase, err) from err
    return model, trace
