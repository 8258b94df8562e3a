"""Adaptable network f = h∘g: a trainable 2-layer ReLU encoder g and a linear
classifier h that is frozen after source pretraining. Backprop is hand-derived;
the optimizer is plain momentum SGD."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng, softmax_rows

CHECKPOINT_MAGIC = "UFDMODEL v1"
LOG_CLAMP = 1e-12
# The model's tensors in field, init-draw and checkpoint order; the first four
# form the encoder, the last two the classifier.
TENSORS = ("w1", "b1", "w2", "b2", "wc", "bc")


@dataclass
class ModelDims:
    d_in: int
    d_hidden: int
    d_feat: int
    n_classes: int

    def __post_init__(self):
        for name in ("d_in", "d_hidden", "d_feat", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class AdaptModel:
    w1: np.ndarray  # (d_in, d_hidden)
    b1: np.ndarray  # (d_hidden,)
    w2: np.ndarray  # (d_hidden, d_feat)
    b2: np.ndarray  # (d_feat,)
    wc: np.ndarray  # (d_feat, n_classes)
    bc: np.ndarray  # (n_classes,)
    classifier_frozen: bool = False

    @property
    def dims(self) -> ModelDims:
        return ModelDims(self.w1.shape[0], self.w1.shape[1], self.w2.shape[1], self.wc.shape[1])

    def trainable_names(self) -> tuple[str, ...]:
        return TENSORS[:4] if self.classifier_frozen else TENSORS

    def copy(self) -> "AdaptModel":
        return AdaptModel(*(getattr(self, name).copy() for name in TENSORS), self.classifier_frozen)


def init_model(dims: ModelDims, rng: Rng) -> AdaptModel:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], drawn in a fixed
    tensor order (w1, b1, w2, b2, wc, bc) so a seed pins every weight."""

    def unif(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform_array(shape, -bound, bound)

    return AdaptModel(
        w1=unif((dims.d_in, dims.d_hidden), dims.d_in),
        b1=unif(dims.d_hidden, dims.d_in),
        w2=unif((dims.d_hidden, dims.d_feat), dims.d_hidden),
        b2=unif(dims.d_feat, dims.d_hidden),
        wc=unif((dims.d_feat, dims.n_classes), dims.d_feat),
        bc=unif(dims.n_classes, dims.d_feat),
    )


@dataclass
class BatchForward:
    """Batched forward pass with the caches backprop needs."""

    x: np.ndarray        # (B, d_in)
    z1: np.ndarray       # (B, d_hidden) pre-activation
    a1: np.ndarray       # (B, d_hidden) post-ReLU
    features: np.ndarray  # (B, d_feat)
    logits: np.ndarray   # (B, n_classes)
    probs: np.ndarray    # (B, n_classes)


def forward_batch(model: AdaptModel, x: np.ndarray) -> BatchForward:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.w1.shape[0]:
        raise ValueError(f"input dimension mismatch: expected (*, {model.w1.shape[0]})")
    # A diverging model overflows here; softmax_rows rejects the result.
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = x @ model.w1 + model.b1
        a1 = np.maximum(z1, 0.0)
        features = a1 @ model.w2 + model.b2
        logits = features @ model.wc + model.bc
    probs = softmax_rows(logits)
    return BatchForward(x, z1, a1, features, logits, probs)


def cross_entropy_rows(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean cross entropy -sum(t*log p) and per-sample d/d(logits).

    The returned gradient rows are not divided by the batch size; backward()
    applies the 1/B averaging. Log is clamped at 1e-12 (guard only; the
    analytic gradient assumes the unclamped region).
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    loss = float(np.mean(-np.sum(targets * np.log(np.maximum(probs, LOG_CLAMP)), axis=1)))
    return loss, probs - targets


def loss_source_batch(probs: np.ndarray, labels: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """Cross entropy against label-smoothed one-hot targets: each row puts
    alpha/C on every class plus 1 - alpha on its label."""
    n_classes = probs.shape[1]
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label out of range")
    targets = np.full(probs.shape, alpha / n_classes)
    targets[np.arange(len(labels)), labels] += 1.0 - alpha
    return cross_entropy_rows(probs, targets)


def backward(
    model: AdaptModel,
    fwd: BatchForward,
    d_logits: np.ndarray,
    d_feature: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Reverse-mode pass. d_logits holds the per-sample loss gradients at the
    logits and d_feature, when given, those at the features. Returns the
    batch-averaged gradient of each trainable parameter, keyed by name; a
    frozen classifier has none."""
    b = fwd.x.shape[0]
    grads: dict[str, np.ndarray] = {}

    d_logits = np.asarray(d_logits, dtype=np.float64)
    d_feat = d_logits @ model.wc.T
    if not model.classifier_frozen:
        grads["wc"] = fwd.features.T @ d_logits / b
        grads["bc"] = d_logits.mean(axis=0)
    if d_feature is not None:
        d_feat = d_feat + np.asarray(d_feature, dtype=np.float64)

    d_a1 = d_feat @ model.w2.T
    d_z1 = d_a1 * (fwd.z1 > 0.0)
    grads["w1"] = fwd.x.T @ d_z1 / b
    grads["b1"] = d_z1.mean(axis=0)
    grads["w2"] = fwd.a1.T @ d_feat / b
    grads["b2"] = d_feat.mean(axis=0)
    return grads


@dataclass
class Optimizer:
    """Momentum SGD: v <- momentum*v + g; w <- w - lr*v (trainable params only)."""

    lr: float
    momentum: float
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")

    @classmethod
    def for_model(cls, model: AdaptModel, lr: float, momentum: float) -> "Optimizer":
        opt = cls(lr=lr, momentum=momentum)
        for name in model.trainable_names():
            opt.velocity[name] = np.zeros_like(getattr(model, name))
        return opt


def sgd_step(opt: Optimizer, model: AdaptModel, grads: dict[str, np.ndarray]) -> None:
    # Overflowed weights are rejected by the next forward or by pretrain_source.
    with np.errstate(over="ignore", invalid="ignore"):
        for name, v in opt.velocity.items():
            v *= opt.momentum
            v += grads[name]
            getattr(model, name).__isub__(opt.lr * v)


def _write_tensor(lines: list[str], tensor: np.ndarray) -> None:
    rows = tensor if tensor.ndim == 2 else tensor[None, :]
    for row in rows:
        lines.append(" ".join(repr(float(x)) for x in row))


def save_model(model: AdaptModel, path) -> None:
    """Text checkpoint: magic line, dims line, then tensors w1,b1,w2,b2,wc,bc
    as row-major shortest-round-trip decimals (value-exact round trip)."""
    d = model.dims
    lines = [CHECKPOINT_MAGIC, f"{d.d_in} {d.d_hidden} {d.d_feat} {d.n_classes}"]
    for name in TENSORS:
        _write_tensor(lines, getattr(model, name))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


class CheckpointError(ValueError):
    pass


def load_model(path) -> AdaptModel:
    """Load a checkpoint written by save_model. Checkpoints are produced after
    pretraining, so the classifier is frozen."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise CheckpointError("empty checkpoint file")
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"line 1: expected header '{CHECKPOINT_MAGIC}'")
    if len(lines) < 2:
        raise CheckpointError("line 2: missing dims line")
    try:
        d_in, d_hidden, d_feat, n_classes = (int(tok) for tok in lines[1].split())
        dims = ModelDims(d_in, d_hidden, d_feat, n_classes)
    except ValueError as exc:
        raise CheckpointError(f"line 2: bad dims line ({exc})") from None

    shapes = (
        (dims.d_in, dims.d_hidden), (dims.d_hidden,),
        (dims.d_hidden, dims.d_feat), (dims.d_feat,),
        (dims.d_feat, dims.n_classes), (dims.n_classes,),
    )
    tensors: dict[str, np.ndarray] = {}
    lineno = 2
    for name, shape in zip(TENSORS, shapes):
        n_rows, n_cols = shape if len(shape) == 2 else (1, shape[0])
        rows = []
        for _ in range(n_rows):
            if lineno >= len(lines):
                raise CheckpointError(f"line {lineno + 1}: unexpected end of file in tensor {name}")
            toks = lines[lineno].split()
            if len(toks) != n_cols:
                raise CheckpointError(
                    f"line {lineno + 1}: expected {n_cols} values in tensor {name}, got {len(toks)}"
                )
            try:
                rows.append([float(t) for t in toks])
            except ValueError:
                raise CheckpointError(f"line {lineno + 1}: non-numeric value in tensor {name}") from None
            if not np.isfinite(rows[-1]).all():
                raise CheckpointError(f"line {lineno + 1}: non-finite value in tensor {name}")
            lineno += 1
        tensors[name] = np.array(rows, dtype=np.float64).reshape(shape)
    if any(lines[lineno:]):
        raise CheckpointError(f"line {lineno + 1}: trailing content after parameters")
    return AdaptModel(**tensors, classifier_frozen=True)
