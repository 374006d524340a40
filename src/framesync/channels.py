"""Finite-alphabet channels: stochastic transition tables, fading composition, sampling.

A channel is a row-stochastic table Q(y|x) over finite input/output alphabets.
The idle symbol x(0) sits at a designated index (index 0 by convention
throughout this package); the composite fading-plus-noise construction and the
ON-OFF fading table both key off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12
NORMALIZE_TOL = 1e-9


class ChannelError(ValueError):
    """Base class for channel construction and usage errors."""


class NonStochasticRow(ChannelError):
    """A transition-table row does not sum to 1 within tolerance."""


class NegativeEntry(ChannelError):
    """A transition-table entry is negative."""


class DimensionMismatch(ChannelError):
    """Table shape inconsistent with the declared alphabets."""


class IndexOutOfRange(ChannelError):
    """Symbol index outside the alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol labels with a designated idle symbol x(0).

    By package convention the idle symbol is at index 0; the field is kept
    explicit so tables loaded from elsewhere can declare a different slot.
    """

    symbols: tuple[str, ...]
    zero_index: int = 0

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ChannelError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ChannelError("alphabet labels must be unique")
        if not 0 <= self.zero_index < len(self.symbols):
            raise ChannelError(f"zero_index {self.zero_index} out of range")

    def __len__(self) -> int:
        return len(self.symbols)


def default_alphabet(n: int) -> Alphabet:
    """Alphabet with labels '0'..'n-1' and x(0) at index 0."""
    return Alphabet(tuple(str(i) for i in range(n)))


BINARY = default_alphabet(2)


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel: one row per input, one column per output.

    Rows are validated (non-negative, stochastic to 1e-12) and frozen; the
    array is marked read-only so instances are safely shareable across
    concurrent workers.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape != (len(self.input_alphabet), len(self.output_alphabet)):
            raise DimensionMismatch(
                f"table shape {rows.shape} does not match alphabets "
                f"({len(self.input_alphabet)}, {len(self.output_alphabet)})"
            )
        if not np.all(np.isfinite(rows)):
            raise ChannelError("transition probabilities must be finite")
        if np.any(rows < 0.0):
            raise NegativeEntry("transition probabilities must be non-negative")
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise NonStochasticRow(
                f"row {bad[0]} sums to {sums[bad[0]]!r}, not 1 within {ROW_SUM_TOL}"
            )
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_inputs(self) -> int:
        return len(self.input_alphabet)

    @property
    def n_outputs(self) -> int:
        return len(self.output_alphabet)

    @property
    def zero_input(self) -> int:
        return self.input_alphabet.zero_index


def dmc_new(
    rows,
    input_alphabet: Alphabet | None = None,
    output_alphabet: Alphabet | None = None,
    normalize: bool = False,
) -> Dmc:
    """Validate a probability table into a Dmc.

    With ``normalize=True`` rows whose sum deviates from 1 by less than 1e-9
    are rescaled (for tables produced by quantization); larger deviations are
    still rejected.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D table, got ndim={rows.ndim}")
    if input_alphabet is None:
        input_alphabet = default_alphabet(rows.shape[0])
    if output_alphabet is None:
        output_alphabet = default_alphabet(rows.shape[1])
    if normalize:
        if np.any(rows < 0.0):
            raise NegativeEntry("transition probabilities must be non-negative")
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > NORMALIZE_TOL)[0]
        if bad.size:
            raise NonStochasticRow(
                f"row {bad[0]} sums to {sums[bad[0]]!r}; deviation too large to normalize"
            )
        rows = rows / sums[:, None]
    return Dmc(input_alphabet, output_alphabet, rows)


def bsc(eps: float) -> Dmc:
    """Binary symmetric channel with crossover probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ChannelError(f"crossover probability must be in [0,1], got {eps}")
    return Dmc(BINARY, BINARY, np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))


def on_off_fading_matrix(p: float, alphabet: Alphabet = BINARY) -> Dmc:
    """ON-OFF fading table: x passes with probability p, else drops to x(0) (a degenerate row)."""
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"ON probability must be in [0,1], got {p}")
    n = len(alphabet)
    z = alphabet.zero_index
    rows = p * np.eye(n)
    rows[:, z] += 1.0 - p
    return Dmc(alphabet, alphabet, rows)


def compose(fading: Dmc, noise: Dmc) -> Dmc:
    """Cascade two channels: Q(y|x) = sum_h H(h|x) Qn(y|h).

    The fading output alphabet must equal the noise input alphabet.
    """
    if fading.output_alphabet != noise.input_alphabet:
        raise DimensionMismatch(
            "fading output alphabet does not match noise input alphabet"
        )
    rows = fading.rows @ noise.rows
    # matrix product of stochastic tables is stochastic up to rounding dust
    rows = rows / rows.sum(axis=1, keepdims=True)
    return Dmc(fading.input_alphabet, noise.output_alphabet, rows)


def sample_outputs(channel: Dmc, input_symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized channel pass: one output draw per input symbol."""
    x = np.asarray(input_symbols)
    return inverse_cdf_outputs(channel, x, rng.random(x.shape))


def inverse_cdf_outputs(channel: Dmc, input_symbols: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Channel outputs for given uniforms in [0, 1), one per input symbol (same shape)."""
    x = np.asarray(input_symbols)
    if x.size and (x.min() < 0 or x.max() >= channel.n_inputs):
        raise IndexOutOfRange("input symbol out of range")
    cdf = np.cumsum(channel.rows, axis=1)
    # per-symbol inverse CDF; tiny alphabets, so a loop over inputs is fine
    out = np.empty(x.shape, dtype=np.int64)
    for s in range(channel.n_inputs):
        mask = x == s
        if np.any(mask):
            out[mask] = np.searchsorted(cdf[s], uniforms[mask], side="right")
    return np.clip(out, 0, channel.n_outputs - 1)


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
