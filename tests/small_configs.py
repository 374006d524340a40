"""Random small decoder instances, within the reach of the exact oracles (A <= 6, N <= 4)."""

import numpy as np

from framesync import SyncWord, TrialConfig, bsc


def random_small_config(rng, a_max=6, n_max=4):
    """A config over a BSC with A, N, the word, eps, mu and the norm drawn from rng in that order."""
    a = int(rng.integers(1, a_max + 1))
    n = int(rng.integers(2, n_max + 1))
    sym = rng.integers(0, 2, size=n)
    if sym.sum() == 0:
        sym[int(rng.integers(0, n))] = 1
    eps = float(rng.uniform(0.02, 0.45))
    mu = float(rng.uniform(0.08, 0.7))
    norm = "linf" if rng.random() < 0.5 else "l1"
    return TrialConfig(a=a, word=SyncWord(sym.astype(np.int8), prefix_len=0, k=0), channel=bsc(eps), mu=mu, norm=norm)
