"""Row-wise normalization, softmax and entropy, the seeded PRNG, and a
per-thread scratch buffer.

Everything here is float64 and deterministic: the PRNG is a pure-Python
xoshiro256** whose raw output stream depends only on the seed, on any machine.
Values made from it are bit-reproducible per platform: the normals go through
libm, and features, weights and losses through BLAS and NumPy's SIMD kernels,
whose bits can differ between machines (see README).

Rng.draws reads the stream in blocks of at most _BLOCK raw outputs; every
array draw takes its raw draws from it as one array and does its arithmetic
in NumPy where it is correctly rounded (integer ops, +, *, sqrt), so each
element has the bits of drawing it on its own, one raw draw at a time (the
scalar rule, kept in tests/helpers.py as their oracle). log, cos and sin stay
per-element libm calls, as NumPy's may differ in the last bit; normal_array
makes them on at most _BLOCK pairs at a time, so it holds few Python floats
however many values it draws. A draw that the scalar rule rejects (a bounded
integer draw past the largest multiple of its bound, a zero Box-Muller u1) is
rare; Rng.accepted drops it and reads one more draw, as the scalar rule does.
Raw draws become values by two rules stated once: bounded_draws for integers
and units for floats.

scratch keeps one float64 buffer per thread for a temporary that is
rebuilt on every call of a hot routine (k-means' Gram matrix, once per
Lloyd step). A fresh one per call is grown on the heap and handed back to
the kernel between calls; its pages are then faulted in again on every
call, at a cost that varies with the machine's load.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK = 2048  # raw draws or Box-Muller pairs per block, so a block never holds more Python numbers
_SCRATCH = threading.local()
# float64s (2 MiB) that scratch keeps between calls. A larger buffer is not kept:
# it would hold its memory past its use (kept 14-32 MB Gram matrices raised
# scaled-opda-glcpp's peak RSS by a quarter).
_SCRATCH_MAX = 1 << 18


def _splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x, z ^ (z >> 31)


def bounded_draws(draws: np.ndarray, bounds) -> tuple[np.ndarray, int | None]:
    """randint's values from raw 64-bit draws, for one bound per draw or one
    bound for all, and the index of the first draw it rejects (None if none):
    a draw at or above the largest multiple of its bound up to 2^64 is
    rejected, so every value in [0, bound) is equally likely."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    top = np.uint64(_MASK64)
    # accept draw <= 2^64 - 1 - 2^64 % b, with 2^64 % b = ((2^64 - 1) % b + 1) % b
    accepted = draws <= top - (top % bounds + np.uint64(1)) % bounds
    return draws % bounds, None if accepted.all() else int(np.argmin(accepted))


def units(draws: np.ndarray) -> np.ndarray:
    """Uniform float64s in [0, 1) with 53 random bits, one per raw draw."""
    return (draws >> 11).astype(np.float64) * 2.0**-53


def _box_muller_units(draws: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The units of Box-Muller draws (u1, u2 pairs), and the index of the
    first u1 that is 0 (None if none), which the scalar rule draws again."""
    u = units(draws)
    zeros = np.flatnonzero(u[0::2] == 0.0)
    return u, 2 * int(zeros[0]) if zeros.size else None


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

    def draws(self, m: int) -> np.ndarray:
        """The next m raw 64-bit outputs of the stream, as uint64."""
        mask = _MASK64
        s0, s1, s2, s3 = self._s
        x = np.empty(m, dtype=np.uint64)
        for start in range(0, m, _BLOCK):
            size = min(_BLOCK, m - start)
            s1_words = []  # s1 before each step; an output depends on it alone
            append = s1_words.append
            for _ in range(size):
                append(s1)
                t = (s1 << 17) & mask
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & mask
            x[start : start + size] = np.fromiter(s1_words, dtype=np.uint64, count=size)
        self._s = [s0, s1, s2, s3]
        x *= np.uint64(5)  # uint64 arithmetic wraps mod 2^64; in place, so one temporary at most
        high = x >> 57
        x <<= 7
        x |= high
        x *= np.uint64(9)
        return x

    def next_u64(self) -> int:
        return int(self.draws(1)[0])

    def split(self) -> "Rng":
        """Derive an independent child stream; consumes one parent draw."""
        return Rng(self.next_u64())

    def accepted(self, m: int, check):
        """check's result on m raw draws, where check(d) returns (result, index
        of the first draw it rejects or None). A rejected draw is dropped and
        one more read at the end, as a sampler reading one draw at a time
        reads them, until check rejects none."""
        d = self.draws(m)
        while True:
            result, rejected = check(d)
            if rejected is None:
                return result
            d = np.concatenate([np.delete(d, rejected), self.draws(1)])

    def _randints(self, top: int, count: int) -> list[int]:
        """A uniform integer in [0, top - i) for each i in range(count), each
        from the first raw draw that bounded_draws accepts for its bound."""
        bounds = np.arange(top, top - count, -1).astype(np.uint64)  # empty for count <= 0
        return self.accepted(bounds.shape[0], lambda d: bounded_draws(d, bounds)).tolist()

    def normal_array(self, shape: int | tuple[int, ...], sigma: float = 1.0) -> np.ndarray:
        """Zero-mean normal draws with standard deviation sigma, in row-major
        order: Box-Muller pairs r cos(t) then r sin(t), with r = sqrt(-2 log u1)
        from a u1 above 0 and t = 2 pi u2. A pair's second value is kept for
        the next draw where a call ends between the two."""
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        if flat.size and self._spare_normal is not None:
            flat[0], self._spare_normal = self._spare_normal, None
            flat = flat[1:]
        z = self.accepted(flat.shape[0] + flat.shape[0] % 2, _box_muller_units)
        for start in range(0, z.shape[0], 2 * _BLOCK):
            u = z[start : start + 2 * _BLOCK]  # a view: each pair's normals overwrite its units
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), dtype=np.float64))
            theta = ((2.0 * math.pi) * u[1::2]).tolist()
            u[0::2] = r * np.fromiter(map(math.cos, theta), dtype=np.float64)
            u[1::2] = r * np.fromiter(map(math.sin, theta), dtype=np.float64)
        flat[:] = z[: flat.shape[0]]
        if z.shape[0] > flat.shape[0]:
            self._spare_normal = float(z[-1])
        return sigma * out + 0.0  # sigma = 0 makes a negative draw -0.0; adding 0.0 makes it +0.0

    def uniform_array(self, shape: int | tuple[int, ...], lo: float, hi: float) -> np.ndarray:
        """lo + (hi - lo) * u for uniform u in [0, 1), in row-major order."""
        out = np.empty(shape, dtype=np.float64)
        out.reshape(-1)[:] = units(self.draws(out.size))
        return lo + (hi - lo) * out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): i from n - 1 down to 1 swaps
        with a uniform j in [0, i]."""
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._randints(n, n - 1)):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int_)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in ascending order."""
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        # Partial Fisher-Yates on an index pool: i swaps with a uniform j in [i, n).
        pool = list(range(n))
        for i, j in enumerate(self._randints(n, k)):
            pool[i], pool[i + j] = pool[i + j], pool[i]
        return np.array(sorted(pool[:k]), dtype=np.int_)


def scratch(size: int) -> np.ndarray:
    """This thread's float64 work buffer as a (size,) view, grown when too
    small and kept from call to call at the largest size asked for, up to
    _SCRATCH_MAX; a larger size gets a fresh buffer, not kept. Its contents
    are whatever the last user left; a caller must be done with it before
    anything else in the thread asks for it again."""
    if size > _SCRATCH_MAX:
        return np.empty(size)
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _SCRATCH.buffer = np.empty(size)
    return buffer[:size]


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
