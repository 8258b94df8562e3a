"""Synthetic universal-DA benchmark generator and feature-file I/O.

Classes are Gaussian clusters whose means sit on random orthonormal directions
scaled by `separation`. The target domain sees every class mean through a
fixed covariate shift (Givens rotations plus a translation) and carries its
own private classes; which classes exist on which side follows the scenario
regime. Global class ids: shared classes first, then source-private, then
target-private, so source labels are exactly 0..C_s-1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import Rng

FILE_MAGIC = "UFD v1"

REGIMES = ("OPDA", "OSDA", "PDA", "CLDA")


class ScenarioError(ValueError):
    """Raised when a scenario violates its regime's split rule."""


@dataclass
class ScenarioSpec:
    regime: str
    n_shared: int
    n_source_private: int
    n_target_private: int
    d_in: int = 16
    source_per_class: int = 100
    target_per_class: int = 100
    separation: float = 8.0
    shift_rotation: float = 0.8
    shift_translation: float = 2.0
    noise_sigma: float = 1.0
    seed: int = 0

    @property
    def n_classes(self) -> int:
        return self.n_shared + self.n_source_private + self.n_target_private

    @property
    def n_source_classes(self) -> int:
        return self.n_shared + self.n_source_private

    def validate(self) -> None:
        if self.regime not in REGIMES:
            raise ScenarioError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.n_shared < 1:
            raise ScenarioError("every regime needs at least one shared class")
        if min(self.n_source_private, self.n_target_private) < 0:
            raise ScenarioError("private class counts must be non-negative")
        src, tgt = self.n_source_private, self.n_target_private
        holds, requirement = {
            "OPDA": (src > 0 and tgt > 0, "private classes on both sides"),
            "OSDA": (src == 0 and tgt > 0, "no source-private and some target-private classes"),
            "PDA": (src > 0 and tgt == 0, "some source-private and no target-private classes"),
            "CLDA": (src == 0 and tgt == 0, "no private classes on either side"),
        }[self.regime]
        if not holds:
            raise ScenarioError(f"regime {self.regime} requires {requirement}")
        if self.d_in < self.n_classes:
            raise ScenarioError(
                f"d_in={self.d_in} too small for {self.n_classes} orthonormal class directions"
            )
        if min(self.source_per_class, self.target_per_class) < 1:
            raise ScenarioError("samples per class must be positive")
        if self.noise_sigma < 0 or self.separation < 0:
            raise ScenarioError("separation and noise_sigma must be non-negative")


@dataclass
class FeatureSet:
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray    # (N,) int global class ids
    role: str             # "source" | "target"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must align")
        if self.role not in ("source", "target"):
            raise ValueError("role must be 'source' or 'target'")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

    def __len__(self) -> int:
        return self.features.shape[0]


def _orthonormal_frame(d: int, n: int, rng: Rng) -> np.ndarray:
    """n orthonormal direction vectors in R^d (columns of a seeded QR)."""
    a = rng.normal_array((d, n))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T  # (n, d)


def _rotation_matrix(d: int, angle: float, rng: Rng) -> np.ndarray:
    """Product of Givens rotations by `angle` on seeded disjoint axis pairs."""
    rot = np.eye(d)
    perm = rng.permutation(d)
    c, s = np.cos(angle), np.sin(angle)
    for p in range(d // 2):
        i, j = int(perm[2 * p]), int(perm[2 * p + 1])
        rot[i, i] = c
        rot[j, j] = c
        rot[i, j] = -s
        rot[j, i] = s
    return rot


def generate(spec: ScenarioSpec) -> tuple[FeatureSet, FeatureSet]:
    """Deterministic (source, target) pair for the scenario."""
    spec.validate()
    rng = Rng(spec.seed)
    n_total = spec.n_classes
    means = _orthonormal_frame(spec.d_in, n_total, rng) * spec.separation

    rot = _rotation_matrix(spec.d_in, spec.shift_rotation, rng)
    t_dir = rng.normal_array(spec.d_in)
    t_norm = np.linalg.norm(t_dir)
    translation = spec.shift_translation * (t_dir / t_norm if t_norm > 0 else t_dir)
    target_means = means @ rot.T + translation

    source_classes = list(range(spec.n_source_classes))
    target_classes = list(range(spec.n_shared)) + list(range(spec.n_source_classes, n_total))

    def sample(class_ids, class_means, per_class, role):
        labels = np.repeat(class_ids, per_class)
        noise = rng.normal_array((len(labels), spec.d_in), sigma=spec.noise_sigma)
        return FeatureSet(class_means[labels] + noise, labels, role=role)

    source = sample(source_classes, means, spec.source_per_class, "source")
    target = sample(target_classes, target_means, spec.target_per_class, "target")
    return source, target


class FeatureFileError(ValueError):
    pass


def save_featureset(fs: FeatureSet, path) -> None:
    """Text format: magic line, `n=<N> d=<D> role=<role>`, then one
    `<label> <f1> ... <fD>` line per sample (shortest-round-trip decimals)."""
    lines = [FILE_MAGIC, f"n={len(fs)} d={fs.features.shape[1]} role={fs.role}"]
    for label, row in zip(fs.labels, fs.features):
        lines.append(str(int(label)) + " " + " ".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_featureset(path) -> FeatureSet:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise FeatureFileError("empty feature file")
    if lines[0] != FILE_MAGIC:
        raise FeatureFileError(f"line 1: expected header '{FILE_MAGIC}'")
    if len(lines) < 2:
        raise FeatureFileError("line 2: missing size header")
    fields = lines[1].split()
    try:
        header = dict(item.split("=", 1) for item in fields)
        n = int(header["n"])
        d = int(header["d"])
        role = header["role"]
    except (ValueError, KeyError):
        raise FeatureFileError("line 2: expected 'n=<N> d=<D> role=<source|target>'") from None
    if role not in ("source", "target"):
        raise FeatureFileError(f"line 2: role must be 'source' or 'target', got {role!r}")

    body = lines[2:]
    n_body = len([ln for ln in body if ln.strip()])
    if n_body != n or any(ln.strip() for ln in body[n:]):
        raise FeatureFileError(f"line 2: header declares n={n} rows but body has {n_body}")
    feats = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        lineno = i + 3
        toks = body[i].split()
        if len(toks) != d + 1:
            raise FeatureFileError(f"line {lineno}: expected 1 label + {d} values, got {len(toks)} fields")
        try:
            labels[i] = int(toks[0])
            feats[i] = [float(t) for t in toks[1:]]
        except ValueError:
            raise FeatureFileError(f"line {lineno}: non-numeric field") from None
        if not np.isfinite(feats[i]).all():
            raise FeatureFileError(f"line {lineno}: features must be finite")
        if labels[i] < 0:
            raise FeatureFileError(f"line {lineno}: label must be non-negative")
    return FeatureSet(feats, labels, role=role)


PRESETS: dict[str, ScenarioSpec] = {
    "opda-toy": ScenarioSpec(regime="OPDA", n_shared=3, n_source_private=3, n_target_private=3),
    "osda-toy": ScenarioSpec(regime="OSDA", n_shared=4, n_source_private=0, n_target_private=4),
    "pda-toy": ScenarioSpec(regime="PDA", n_shared=4, n_source_private=4, n_target_private=0),
    "clda-toy": ScenarioSpec(regime="CLDA", n_shared=6, n_source_private=0, n_target_private=0),
}


def preset(name: str, **overrides) -> ScenarioSpec:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides)
