"""Independent exact computations for small decoder instances.

Two routes to P(v_hat != v) that share no code with the package internals
beyond the channel table itself. The word's symbols 0/1 are the channel rows
x(0)/x(1), every other slot carries x(0), and slots 1..A + N - 1 are scanned:

  * exact_error_probability_enum: enumerate every output sequence, classify
    each with the production run_decoder, and weight by its probability.
  * exact_error_probability_dp: a forward dynamic program over output
    prefixes whose typicality test is re-implemented here from scratch.

Feasible for A <= ~8, N <= ~5, small alphabets.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product

import numpy as np

from framesync.decoder import TrialConfig, run_decoder


def _reference(config: TrialConfig) -> dict[tuple[int, int], float]:
    w = config.word.symbols.tolist()
    n = len(w)
    rows = config.channel.rows
    ref = {}
    for x in range(config.channel.n_inputs):
        px = w.count(x) / n
        for y in range(config.channel.n_outputs):
            ref[(x, y)] = px * rows[x, y]
    return ref


def _mu(config: TrialConfig) -> float:
    return config.decoder.mu


def _fires(window: tuple[int, ...], w: list[int], ref, mu: float, norm: str) -> bool:
    n = len(w)
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for x, y in zip(w, window):
        counts[(x, y)] += 1
    devs = [abs(counts.get(cell, 0) / n - r) for cell, r in ref.items()]
    dist = max(devs) if norm == "linf" else sum(devs)
    return dist <= mu


def _input_at(slot: int, v: int, w: list[int]) -> int:
    if v <= slot < v + len(w):
        return w[slot - v]
    return 0


def exact_error_probability_dp(config: TrialConfig) -> float:
    """P(v_hat != v) by a forward DP over output prefixes."""
    w = config.word.symbols.tolist()
    n = len(w)
    t_max = config.a + n - 1
    length = t_max + n - 1
    rows = config.channel.rows
    n_out = config.channel.n_outputs
    ref = _reference(config)
    mu = _mu(config)
    err_total = 0.0
    for v in range(1, config.a + 1):
        states: dict[tuple[int, ...], float] = {(): 1.0}
        declared: dict[int, float] = defaultdict(float)
        for slot in range(1, length + 1):
            x = _input_at(slot, v, w)
            nxt: dict[tuple[int, ...], float] = defaultdict(float)
            for state, prob in states.items():
                for y in range(n_out):
                    p = prob * rows[x, y]
                    if p == 0.0:
                        continue
                    seq = state + (y,)
                    if slot >= n:
                        t = slot - n + 1
                        if t <= t_max and _fires(seq, w, ref, mu, config.norm):
                            declared[t] += p
                            continue
                    nxt[seq if len(seq) < n else seq[1:]] += p
            states = nxt
        err_total += 1.0 - declared[v]
    return err_total / config.a


def exact_no_declare_probability_dp(config: TrialConfig) -> float:
    """P(no declaration by the scan limit), the exact E3 rate."""
    w = config.word.symbols.tolist()
    n = len(w)
    t_max = config.a + n - 1
    length = t_max + n - 1
    rows = config.channel.rows
    n_out = config.channel.n_outputs
    ref = _reference(config)
    mu = _mu(config)
    total = 0.0
    for v in range(1, config.a + 1):
        states: dict[tuple[int, ...], float] = {(): 1.0}
        for slot in range(1, length + 1):
            x = _input_at(slot, v, w)
            nxt: dict[tuple[int, ...], float] = defaultdict(float)
            for state, prob in states.items():
                for y in range(n_out):
                    p = prob * rows[x, y]
                    if p == 0.0:
                        continue
                    seq = state + (y,)
                    if slot >= n and slot - n + 1 <= t_max and _fires(seq, w, ref, mu, config.norm):
                        continue
                    nxt[seq if len(seq) < n else seq[1:]] += p
            states = nxt
        total += sum(states.values())
    return total / config.a


def exact_error_probability_enum(config: TrialConfig) -> float:
    """P(v_hat != v) by enumerating output sequences and running the decoder."""
    w = config.word.symbols.tolist()
    n = len(w)
    t_max = config.a + n - 1
    length = t_max + n - 1
    rows = config.channel.rows
    n_out = config.channel.n_outputs
    decoder = config.decoder
    err_total = 0.0
    for y_seq in product(range(n_out), repeat=length):
        v_hat = run_decoder(decoder, np.array(y_seq), scan_limit=t_max)
        for v in range(1, config.a + 1):
            if v_hat == v:
                continue
            prob = 1.0
            for slot, y in enumerate(y_seq, start=1):
                prob *= rows[_input_at(slot, v, w), y]
                if prob == 0.0:
                    break
            err_total += prob
    return err_total / config.a
