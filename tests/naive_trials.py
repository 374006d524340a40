"""Naive per-trial reference for the trial engine.

Each trial draws from trial_rng, samples its segment of the stream with its
own inverse-CDF sampler and tests its windows one at a time: the empirical
joint of (word symbol, output) against the expected joint P_hat(x) Q(y|x).
Nothing is batched and v stays a Python int, so the reference is exact at any
asynchronism window A. It takes only TrialConfig, trial_rng and CLASSES from
framesync; the channel, word, mu and norm it reads off the config.

The word's symbols 0/1 are the channel rows x(0)/x(1) and every other slot
carries x(0); the stream runs to slot A + 2N - 2, so windows 1..A + N - 1.
Segments: the whole stream in full mode; otherwise the slots
max(1, v - N + 1) .. v + 2N - 2 around the word.
"""

from __future__ import annotations

import numpy as np

from framesync.decoder import CLASSES, TrialConfig, trial_rng


class LengthMismatch(ValueError):
    pass


def joint_counts(word_symbols: np.ndarray, window: np.ndarray, n_inputs: int, n_outputs: int) -> np.ndarray:
    """Integer joint occurrence counts of (word symbol, output symbol)."""
    word_symbols = np.asarray(word_symbols)
    window = np.asarray(window)
    if word_symbols.shape != window.shape:
        raise LengthMismatch(
            f"window length {window.shape} does not match word length {word_symbols.shape}"
        )
    counts = np.zeros((n_inputs, n_outputs), dtype=np.int64)
    np.add.at(counts, (word_symbols, window), 1)
    return counts


def empirical_joint(word_symbols: np.ndarray, window: np.ndarray, n_inputs: int, n_outputs: int) -> np.ndarray:
    """Empirical joint distribution; entries are counts over the word length."""
    counts = joint_counts(word_symbols, window, n_inputs, n_outputs)
    return counts / counts.sum()


def typicality_distance(empirical: np.ndarray, reference: np.ndarray, norm: str = "linf") -> float:
    """Distance between joint tables: per-cell max (linf) or summed (l1) deviation."""
    empirical = np.asarray(empirical, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if empirical.shape != reference.shape:
        raise LengthMismatch(
            f"table shapes differ: {empirical.shape} vs {reference.shape}"
        )
    dev = np.abs(empirical - reference)
    if norm == "linf":
        return float(dev.max())
    if norm == "l1":
        # cell by cell in row order, as the decoder adds them (numpy's sum pairs them)
        return float(np.cumsum(dev)[-1])
    raise ValueError(f"unknown norm {norm!r} (expected 'linf' or 'l1')")


def reference_joint(word_symbols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The expected joint P_hat(x) Q(y|x) of the word's symbols and the outputs."""
    word_symbols = np.asarray(word_symbols)
    ref = np.zeros(rows.shape)
    for x in (0, 1):
        ref[x] = np.count_nonzero(word_symbols == x) / len(word_symbols) * rows[x]
    return ref


def window_distances(word_symbols: np.ndarray, rows: np.ndarray, norm: str, outputs: np.ndarray) -> np.ndarray:
    """Distance of every length-N window of each row of an output block, one window at a time."""
    n, (n_in, n_out) = len(word_symbols), rows.shape
    ref = reference_joint(word_symbols, rows)
    dists = np.empty((len(outputs), outputs.shape[1] - n + 1))
    for row, t in np.ndindex(dists.shape):
        emp = empirical_joint(word_symbols, outputs[row, t : t + n], n_in, n_out)
        dists[row, t] = typicality_distance(emp, ref, norm)
    return dists


def inverse_cdf_outputs(rows: np.ndarray, input_symbols: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Channel outputs for uniforms in [0, 1), one per input symbol: per input, the
    first output whose cumulative row exceeds u (the last output if none does)."""
    x = np.asarray(input_symbols)
    out = np.empty(x.shape, dtype=np.int64)
    for s, row in enumerate(rows):
        mask = x == s
        out[mask] = np.searchsorted(np.cumsum(row), uniforms[mask], side="right")
    return np.minimum(out, rows.shape[1] - 1)


def naive_trial(config: TrialConfig, rng: np.random.Generator, full_mode: bool) -> tuple[int, int | None]:
    """(v, v_hat) of one trial on rng; v_hat is None when no window is typical."""
    word, rows = config.word.symbols, config.channel.rows
    n, a = len(word), config.a
    mu = 0.1 / rows.shape[1] if config.mu is None else config.mu
    v = min(int(rng.random() * float(a)) + 1, a)
    if full_mode:
        seg_lo, seg_hi = 1, a + 2 * n - 2
    else:
        seg_lo, seg_hi = max(1, v - n + 1), v + 2 * n - 2
    x = np.zeros(seg_hi - seg_lo + 1, dtype=np.int64)
    x[v - seg_lo : v - seg_lo + n] = word
    y = inverse_cdf_outputs(rows, x, rng.random(x.shape))
    # the segment ends with the last window (A + N - 1 in full mode, v + N - 1 in skip mode)
    fired = np.flatnonzero(window_distances(word, rows, config.norm, y[None, :])[0] <= mu)
    return v, (seg_lo + int(fired[0]) if fired.size else None)


def naive_class(v: int, v_hat: int | None, n: int) -> str:
    if v_hat is None:
        return "E3"
    if v_hat == v:
        return "Correct"
    return "E2" if v - n < v_hat < v else "E1"


def naive_counts(config: TrialConfig, master_seed: int, lo: int, hi: int, full_mode: bool) -> dict[str, int]:
    """Class counts of trials [lo, hi), trial i on trial_rng(master_seed, i)."""
    counts = dict.fromkeys(CLASSES, 0)
    for i in range(lo, hi):
        v, v_hat = naive_trial(config, trial_rng(master_seed, i), full_mode)
        counts[naive_class(v, v_hat, len(config.word))] += 1
    return counts
