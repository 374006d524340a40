"""Finite-alphabet channels: stochastic tables, fading composition, inverse-CDF draws, files.

A channel is its row-stochastic table Q(y|x): one row per input, one column
per output, indexed from 0. Row 0 is the idle symbol x(0) and row 1 the sync
symbol x(1); the binary sync word's 0/1 symbols index these rows directly.
Inputs from 2 on enter only the thresholds (the best input against x(0)).
The ON-OFF fading table drops every input to x(0). Draws map uniforms to
outputs by an exact inverse CDF over whole arrays, in the narrowest unsigned
symbol type: up to 64 outputs a count of the cumulative values at or below
each uniform, one comparison per value; beyond, a binary search in
O(log |Y|) passes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
NORMALIZE_TOL = 1e-9


def _integer(name: str, value) -> int:
    """value as a Python int, through operator.index; a bool, a float or any other non-integer
    is a ValueError naming the parameter. The package's one rule for an integer argument (a count,
    a length, a degree or a seed), here in the module every other imports first."""
    if not isinstance(value, (bool, np.bool_)):  # a bool indexes as 0 or 1, but is never a count or a seed
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class ChannelError(ValueError):
    """Base class for channel construction and usage errors."""


class NonStochasticRow(ChannelError):
    """A transition-table row does not sum to 1 within tolerance."""


class NegativeEntry(ChannelError):
    """A transition-table entry is negative."""


class DimensionMismatch(ChannelError):
    """Table shape is not 2-D, or two tables' sizes do not chain."""


class IndexOutOfRange(ChannelError):
    """Symbol index outside the table."""


def _table(rows) -> np.ndarray:
    """rows as a 2-D float64 table with at least one input and one output."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D table, got ndim={rows.ndim}")
    if 0 in rows.shape:
        raise ChannelError(f"table needs at least one input and one output, got shape {rows.shape}")
    return rows


@dataclass(frozen=True, eq=False)
class Dmc:
    """Discrete memoryless channel: one row per input, one column per output.

    Rows are validated (finite, non-negative, stochastic to 1e-12: the one row check,
    which dmc_new, compose and kl_divergence reach) and frozen read-only, so instances
    are safely shareable across concurrent workers. Two channels are equal when their tables are.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = _table(self.rows)
        if not np.all(np.isfinite(rows)):
            raise ChannelError("transition probabilities must be finite")
        if np.any(rows < 0.0):
            raise NegativeEntry("transition probabilities must be non-negative")
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise NonStochasticRow(
                f"row {bad[0]} sums to {float(sums[bad[0]])!r}, not 1 within {ROW_SUM_TOL}"
            )
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if not isinstance(other, Dmc):
            return NotImplemented
        return self.rows.shape == other.rows.shape and bool(np.all(self.rows == other.rows))

    def __hash__(self):
        return hash((self.rows.shape, (self.rows + 0.0).tobytes()))  # + 0.0: -0.0 hashes as 0.0

    def __repr__(self):
        return f"Dmc({self.rows.tolist()})"

    @property
    def n_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.rows.shape[1]


def dmc_new(rows, normalize: bool = False) -> Dmc:
    """Validate a probability table into a Dmc.

    With ``normalize=True`` rows whose sum deviates from 1 by less than 1e-9
    are rescaled (for tables produced by quantization); larger deviations are
    rejected here, and every other fault by Dmc after the rescale.
    """
    rows = _table(rows)
    if normalize:
        with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN; Dmc names the entry
            sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > NORMALIZE_TOL)[0]
        if bad.size:
            raise NonStochasticRow(
                f"row {bad[0]} sums to {float(sums[bad[0]])!r}; deviation too large to normalize"
            )
        rows = rows / sums[:, None]
    return Dmc(rows)


def bsc(eps: float) -> Dmc:
    """Binary symmetric channel with crossover probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ChannelError(f"crossover probability must be in [0,1], got {eps}")
    return Dmc(np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))


def on_off_fading_matrix(p: float, n_inputs: int = 2) -> Dmc:
    """ON-OFF fading table over n_inputs symbols: x passes with probability p, else drops to x(0)."""
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"ON probability must be in [0,1], got {p}")
    rows = p * np.eye(n_inputs)
    rows[:, :1] += 1.0 - p  # column x(0); a slice, so Dmc reports an empty table
    return Dmc(rows)


def compose(fading: Dmc, noise: Dmc) -> Dmc:
    """Cascade two channels: Q(y|x) = sum_h H(h|x) Qn(y|h).

    The fading table's output count must equal the noise table's input count.
    """
    if fading.n_outputs != noise.n_inputs:
        raise DimensionMismatch(
            f"fading has {fading.n_outputs} outputs but noise has {noise.n_inputs} inputs"
        )
    return dmc_new(fading.rows @ noise.rows, normalize=True)  # its rows are off 1 by rounding dust


# largest alphabet drawn by counting: a single-mode pass over quantized AWGN took x1.69 as long with
# the tree search as with the count at 8 outputs, x1.13 at 64, x1.02 at 72, x0.78 at 128, x0.11 at 1024
_COUNT_MAX_OUTPUTS = 64


class InverseCdf:
    """Exact inverse-CDF draws from one cumulative row: a count for small alphabets,
    a branchless binary search for larger ones.

    A uniform u in [0, 1) maps to the first column whose cumulative value
    exceeds u, the last column if none does: min(searchsorted_right(cdf, u), n - 1),
    since a cumulative sum of non-negative floats never decreases. That is the
    number of the row's first n - 1 values that are <= u. Up to
    _COUNT_MAX_OUTPUTS outputs it is counted so: one comparison per value over
    the whole array, and no gather. Beyond, the first n - 1 values, padded with
    inf to 2^k - 1 for k = bit_length(n - 1), form a complete search tree,
    stored level by level so that each step is one gather and one comparison
    over the whole array: k passes, O(log n).
    Symbols come in the narrowest unsigned type that holds n - 1.
    """

    def __init__(self, cdf_row: np.ndarray):
        n = len(cdf_row)
        self.dtype = np.min_scalar_type(n - 1)
        self.counted = list(cdf_row[: n - 1]) if n <= _COUNT_MAX_OUTPUTS else None  # the values counted
        if self.counted is None:
            k = (n - 1).bit_length()
            padded = np.full(2**k - 1, np.inf)
            padded[: n - 1] = cdf_row[: n - 1]
            # level j holds the 2^j values the (j+1)-th step compares with, left to right
            self.levels = [padded[2**s - 1 :: 2 ** (s + 1)].copy() for s in reversed(range(k))]

    def __call__(self, uniforms: np.ndarray) -> np.ndarray:
        if self.counted is not None:
            pos = np.zeros(np.shape(uniforms), self.dtype)  # uint8: n - 1 < 256
            for value in self.counted:
                pos += (uniforms >= value).view(np.uint8)
            return pos
        pos = (uniforms >= self.levels[0][0]).astype(self.dtype)  # the root: no gather
        for level in self.levels[1:]:
            mid = level.take(pos)
            pos <<= 1
            pos |= uniforms >= mid
        return pos


def save_channel(path, channel: Dmc) -> None:
    """Write the plain-text matrix format: 'I O' header then I rows of O probabilities."""
    lines = [f"{channel.n_inputs} {channel.n_outputs}"]
    for row in channel.rows:
        lines.append(" ".join(f"{p:.17g}" for p in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_channel(path) -> Dmc:
    """Read the plain-text matrix format written by :func:`save_channel`."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ChannelError("matrix file too short")
    n_in, n_out = int(tokens[0]), int(tokens[1])
    values = [float(t) for t in tokens[2:]]
    if len(values) != n_in * n_out:
        raise DimensionMismatch(
            f"expected {n_in * n_out} probabilities, found {len(values)}"
        )
    rows = np.array(values).reshape(n_in, n_out)
    return dmc_new(rows, normalize=True)
