"""Maximal-length shift-register sequences and sync-word construction.

A sync word of length N is built from an m-sequence prefix of length
floor(N/K) = 2^m - 1 (mapping sequence bit 1 to the idle symbol x(0) and bit 0
to the active symbol x(1)) followed by an all-x(1) tail. Symbols are stored as
indices: 0 = x(0), 1 = x(1). A word exists exactly when PRIMITIVE_POLYS holds a
register of that degree m (2 to 16); `_degree` is the one test of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _integer

# One canonical primitive polynomial per degree, exponent tuples for
# x^m + ... + 1. Standard PRBS feedback taps (Golomb, "Shift Register
# Sequences"; also the common PRBS tap tables).
PRIMITIVE_POLYS: dict[int, tuple[int, ...]] = {
    2: (2, 1, 0),
    3: (3, 1, 0),
    4: (4, 1, 0),
    5: (5, 2, 0),
    6: (6, 1, 0),
    7: (7, 1, 0),
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 3, 0),
    11: (11, 2, 0),
    12: (12, 6, 4, 1, 0),
    13: (13, 4, 3, 1, 0),
    14: (14, 10, 6, 1, 0),
    15: (15, 1, 0),
    16: (16, 12, 3, 1, 0),
}

_DEGREES = f"[{min(PRIMITIVE_POLYS)}, {max(PRIMITIVE_POLYS)}]"  # for messages only

# The longest word. The trial engine's first_typical passes a screen sum k < lo only when
# hi - k >= 2^bits; since hi - k <= 2N, its unsigned range check is exact while 2N < 2^bits, and
# bits = 32 from N = 2^15 (16 below, where 2N < 2^16 holds too). The int32 screen sums hold +-N
# over the same range.
MAX_N = 2**31 - 1


class SequenceError(ValueError):
    pass


class UnsupportedDegree(SequenceError):
    pass


class ZeroSeed(SequenceError):
    pass


class IncompatibleLength(SequenceError):
    """floor(N/K) is not 2^m - 1 for a degree m that PRIMITIVE_POLYS holds."""


class NoValidLength(SequenceError):
    pass


class Lfsr:
    """Fibonacci LFSR over GF(2) with a primitive feedback polynomial."""

    def __init__(self, degree: int, seed: int = 1):
        degree, seed = _integer("degree", degree), _integer("seed", seed)
        if degree not in PRIMITIVE_POLYS:
            raise UnsupportedDegree(f"degree must be in {_DEGREES}, got {degree}")
        if not 0 < seed < (1 << degree):
            if seed == 0:
                raise ZeroSeed("the all-zero state is a fixed point")
            raise SequenceError(f"seed must be a nonzero {degree}-bit value, got {seed}")
        self.degree = degree
        self.mask = sum(1 << e for e in PRIMITIVE_POLYS[degree] if e < degree)
        self.state = seed

    def step(self) -> int:
        out = self.state & 1
        fb = (self.state & self.mask).bit_count() & 1
        self.state = (self.state >> 1) | (fb << (self.degree - 1))
        return out

    @property
    def period(self) -> int:
        return (1 << self.degree) - 1


def generate_mlsr(m: int, seed: int = 1) -> np.ndarray:
    """One full period (2^m - 1 bits) of the degree-m maximal-length sequence."""
    reg = Lfsr(m, seed)
    return np.array([reg.step() for _ in range(reg.period)], dtype=np.int8)


@dataclass(frozen=True, eq=False)
class SyncWord:
    """Binary sync word: symbols over {0 = x(0), 1 = x(1)}.

    Two words are equal, and hash alike, when their symbols, prefix length and K are.
    """

    symbols: np.ndarray
    prefix_len: int
    k: int

    def __post_init__(self):
        sym = np.asarray(self.symbols)
        if sym.ndim != 1 or sym.size == 0:
            raise SequenceError("word must be a non-empty 1-D symbol sequence")
        # each symbol exactly 0 or 1 as given, before the cast; an integer array is checked by its
        # range, which makes no temporary of the word's size
        exact = sym.min() >= 0 and sym.max() <= 1 if sym.dtype.kind in "biu" else np.array_equal(sym, sym != 0)
        if not exact:
            raise SequenceError("word symbols must be 0 or 1")
        if not 0 <= self.prefix_len <= sym.size:
            raise SequenceError("prefix length out of range")
        sym = sym.astype(np.int8)
        sym.flags.writeable = False
        object.__setattr__(self, "symbols", sym)

    def __eq__(self, other):
        if not isinstance(other, SyncWord):
            return NotImplemented
        return (self.prefix_len, self.k) == (other.prefix_len, other.k) and np.array_equal(
            self.symbols, other.symbols
        )

    def __hash__(self):
        return hash((self.symbols.tobytes(), self.prefix_len, self.k))

    def __repr__(self):
        return f"SyncWord.from_line({self.to_line()!r}, prefix_len={self.prefix_len}, k={self.k})"

    def __len__(self) -> int:
        return int(self.symbols.size)

    def to_line(self) -> str:
        return "".join(str(int(b)) for b in self.symbols)

    @staticmethod
    def from_line(line: str, prefix_len: int = 0, k: int = 0) -> "SyncWord":
        sym = np.array([int(c) for c in line.strip()], dtype=np.int8)
        return SyncWord(sym, prefix_len, k)


def _degree(prefix: int) -> int | None:
    """m when prefix = 2^m - 1 and PRIMITIVE_POLYS holds degree m, else None."""
    m = prefix.bit_length()
    return m if prefix == (1 << m) - 1 and m in PRIMITIVE_POLYS else None


def build_sync_word(n: int, k: int, seed: int = 1) -> SyncWord:
    """Construct the word: mapped m-sequence prefix of length floor(n/k), all-x(1) tail."""
    n, k, seed = _integer("n", n), _integer("k", k), _integer("seed", seed)
    if n < 1 or k < 1:
        raise SequenceError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if n > MAX_N:
        raise SequenceError(f"n={n} is past MAX_N = {MAX_N}, the longest word the trial engine screens exactly")
    prefix = n // k
    m = _degree(prefix)
    if m is None:
        raise IncompatibleLength(f"floor({n}/{k}) = {prefix} is not 2^m - 1 for any m in {_DEGREES}")
    bits = generate_mlsr(m, seed)
    symbols = np.ones(n, dtype=np.int8)
    symbols[:prefix] = bits == 0
    return SyncWord(symbols, prefix_len=prefix, k=k)


def nearest_valid_length(n_target: int, k: int) -> int:
    """Largest N <= n_target whose floor(N/k) passes `_degree`."""
    n_target, k = _integer("n_target", n_target), _integer("k", k)
    if k < 1:
        raise SequenceError(f"k must be >= 1, got {k}")
    # floor(N/k) = 2^m - 1 on N in [k(2^m - 1), k 2^m - 1]; m starts at the largest run beginning by n_target
    for m in range(max(n_target // k + 1, 1).bit_length() - 1, 0, -1):
        if _degree((1 << m) - 1):
            return min(n_target, (k << m) - 1)
    raise NoValidLength(f"no N <= {n_target} for k={k}: floor(N/k) must be 2^m - 1 for m in {_DEGREES}")


def smallest_valid_k(n: int) -> int:
    """Smallest K >= 2 whose floor(n/K) passes `_degree`."""
    n = _integer("n", n)
    # K <= n / 2^16 gives floor(n/K) >= 2^16, past every table degree; past n, floor(n/K) = 0
    for k in range(max(2, n >> max(PRIMITIVE_POLYS)), n + 1):
        if _degree(n // k):
            return k
    raise NoValidLength(f"no K >= 2 for n={n}: floor(n/K) must be 2^m - 1 for m in {_DEGREES}")


def _cyclic_autocorrelation(symbols: np.ndarray) -> np.ndarray:
    """sum_i s_i s_(i + tau mod N) of the word's +-1 form s, every tau in 0..N-1, from one
    real FFT: floats that are integers up to the transform's rounding."""
    spectrum = np.fft.rfft(1.0 - 2.0 * symbols)
    return np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=len(symbols))


def min_shift_hamming_distance(word: SyncWord) -> tuple[int, int]:
    """Minimum Hamming distance to any nonzero cyclic shift, in O(N log N).

    Shift tau differs from the word in (N - c_tau) / 2 slots, c_tau the cyclic
    autocorrelation of its +-1 form, so one rounded FFT correlation gives every
    shift's distance. Returns (distance, smallest argmin shift). A
    shift-invariant word (all one symbol) has distance 0.
    """
    n = len(word)
    if n < 2:
        raise SequenceError("word length must be >= 2")
    corr = np.rint(_cyclic_autocorrelation(word.symbols)[1:]).astype(np.int64)
    dist = (n - corr) // 2
    shift = int(np.argmin(dist))  # argmin takes the first, so the smallest shift on a tie
    return int(dist[shift]), shift + 1
