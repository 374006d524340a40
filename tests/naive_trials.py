"""Naive per-trial reference for the trial engine.

Each trial draws from trial_rng, samples its segment of the stream with
sample_outputs and tests its windows one at a time with empirical_joint and
typicality_distance. Nothing is batched and v stays a Python int, so the
reference is exact at any asynchronism window A.

The word's symbols 0/1 are the channel rows x(0)/x(1) and every other slot
carries x(0); the stream runs to slot A + 2N - 2, so windows 1..A + N - 1.
Segments: the whole stream in full mode; otherwise the slots
max(1, v - N + 1) .. v + 2N - 2 around the word.
"""

from __future__ import annotations

import numpy as np

from framesync.channels import sample_outputs
from framesync.decoder import CLASSES, TrialConfig, empirical_joint, trial_rng, typicality_distance


def naive_trial(config: TrialConfig, rng: np.random.Generator, full_mode: bool) -> tuple[int, int | None]:
    """(v, v_hat) of one trial on rng; v_hat is None when no window is typical."""
    decoder = config.decoder()
    word = config.word.symbols
    n, a = len(word), config.a
    v = min(int(rng.random() * float(a)) + 1, a)
    if full_mode:
        seg_lo, seg_hi, t_hi = 1, a + 2 * n - 2, a + n - 1
    else:
        seg_lo, seg_hi, t_hi = max(1, v - n + 1), v + 2 * n - 2, v + n - 1
    x = np.zeros(seg_hi - seg_lo + 1, dtype=np.int64)
    x[v - seg_lo : v - seg_lo + n] = word
    y = sample_outputs(config.channel, x, rng)
    for t in range(seg_lo, t_hi + 1):
        window = y[t - seg_lo : t - seg_lo + n]
        emp = empirical_joint(word, window, config.channel.n_inputs, config.channel.n_outputs)
        if typicality_distance(emp, decoder.reference, decoder.norm) <= decoder.mu:
            return v, t
    return v, None


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
