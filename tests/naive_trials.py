"""Naive per-trial reference for the trial engine.

Each trial draws from trial_rng, samples its segment of the stream with
sample_outputs and tests its windows one at a time with empirical_joint and
typicality_distance. Nothing is batched and v stays a Python int, so the
reference is exact at any asynchronism window A.

Segments: the whole stream (scan limit + N - 1 slots) in full mode; otherwise
the slots max(1, v - N + 1) .. min(stream end, v + 2N - 2) around the word.
Word symbols that fall past the end of the stream are not sent.
"""

from __future__ import annotations

import numpy as np

from framesync.channels import sample_outputs
from framesync.decoder import CLASSES, TrialConfig, empirical_joint, trial_rng, typicality_distance


def naive_trial(config: TrialConfig, rng: np.random.Generator, full_mode: bool) -> tuple[int, int | None]:
    """(v, v_hat) of one trial on rng; v_hat is None when no window is typical."""
    decoder = config.decoder()
    word = decoder.word_inputs
    n, a = len(word), config.a
    scan = config.effective_scan_limit
    stream_end = scan + n - 1
    v = min(int(rng.random() * float(a)) + 1, a)
    if full_mode:
        seg_lo, seg_hi, t_hi = 1, stream_end, scan
    else:
        seg_lo, seg_hi, t_hi = max(1, v - n + 1), min(stream_end, v + 2 * n - 2), min(scan, v + n - 1)
    x = [config.channel.zero_input] * max(seg_hi - seg_lo + 1, 0)
    for j, symbol in enumerate(word.tolist()):
        if 0 <= v - seg_lo + j < len(x):
            x[v - seg_lo + j] = symbol
    y = sample_outputs(config.channel, np.array(x, dtype=np.int64), rng)
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
