"""Row-wise normalization, softmax and entropy, and the seeded PRNG.

Everything here is float64 and deterministic: the PRNG is a pure-Python
xoshiro256** whose output stream depends only on the seed, so runs are
bit-reproducible across machines.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x, z ^ (z >> 31)


def bounded_draw(draw: int, n: int) -> int | None:
    """randint(n)'s value from one raw 64-bit draw, or None where it rejects
    the draw: draws at or above the largest multiple of n up to 2^64 are
    rejected, so every value in [0, n) is equally likely."""
    return draw % n if draw < (1 << 64) - (1 << 64) % n else None


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """Deterministic xoshiro256** stream, seeded by splitmix64 expansion.

    Sub-streams: ``split()`` derives an independent child generator from the
    parent stream (one parent draw per child). Instances are single-owner
    mutable state and must not be shared across threads.
    """

    __slots__ = ("_s", "_spare_normal")

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = s
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def split(self) -> "Rng":
        """Derive an independent child stream; consumes one parent draw."""
        return Rng(self.next_u64())

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        while True:
            value = bounded_draw(self.next_u64(), n)
            if value is not None:
                return value

    def normal(self) -> float:
        """Standard normal Box-Muller draw (with cached spare)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = 0.0
            while u1 == 0.0:
                u1 = self.random()
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            z = r * math.cos(theta)
            self._spare_normal = r * math.sin(theta)
        return z

    def normal_array(self, shape: int | tuple[int, ...], sigma: float = 1.0) -> np.ndarray:
        """Zero-mean normal draws with standard deviation sigma, in row-major order."""
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.shape[0]):
            flat[i] = self.normal()
        return sigma * out + 0.0  # sigma = 0 makes a negative draw -0.0; adding 0.0 makes it +0.0

    def uniform_array(self, shape: int | tuple[int, ...], lo: float, hi: float) -> np.ndarray:
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.shape[0]):
            flat[i] = self.uniform(lo, hi)
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in ascending order."""
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        # Partial Fisher-Yates on an index pool; cheap for desk-scale n.
        pool = np.arange(n)
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        picked = pool[:k].copy()
        picked.sort()
        return picked


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization of an (n, d) matrix."""
    arr = np.asarray(m, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        norms = np.linalg.norm(arr, axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("feature norm is not finite (overflow, inf or NaN)")
    if np.any(norms == 0.0):
        raise ValueError("degenerate feature")
    return arr / norms[:, None]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable row-wise softmax (max-subtracted); rows sum to 1 within 1e-12."""
    arr = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def normalized_entropy_rows(p: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-wise Shannon entropy of an (n, C) probability matrix divided by
    log(n_classes); 0*log(0) is 0, and an exactly uniform row gives 1.0
    (avoiding 1-ulp drift from a rounded 1/C)."""
    if n_classes < 2:
        raise ValueError("entropy normalizer undefined for fewer than 2 classes")
    arr = np.asarray(p, dtype=np.float64)
    safe = np.where(arr > 0.0, arr, 1.0)
    h = -np.sum(arr * np.log(safe), axis=1)
    out = h / math.log(n_classes)
    out[np.all(arr == arr[:, :1], axis=1)] = 1.0
    return out
