"""The BSC preset rows against the exact law of the word's own window.

If the window at the word's slot v is not typical, the decoder cannot declare
v; and a miss (E3) means no window, that one included, was typical. So on
every row, p_e3 <= P(the word's own window is atypical) <= p_err, at any A
and in either engine mode. On a BSC that probability is a double sum over two
binomials, the flips among the x(0) slots and among the x(1) slots, computed
here without the package's decoder: each distance is evaluated in the fold's
order, the x(0) cells and then the x(1) cells, added left to right for l1 and
as their max for linf. The committed outputs in out/ must bracket it within
their 95% Wilson intervals.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from framesync import build_sync_word, wilson_interval

OUT = Path(__file__).parent.parent / "out"


def binomial_pmf(m: int, q: float) -> list[float]:
    return [math.comb(m, k) * q**k * (1.0 - q) ** (m - k) for k in range(m + 1)]


def window_atypical_probability(word: list[int], sent: list[int], eps: float, mu: float, norm: str) -> float:
    """P(a window whose slots carry the inputs `sent` fails the typicality test against `word`) on BSC(eps).

    Per input x of the word, the number of output-1 symbols among x's slots is a
    sum of binomials, one per input sent there; the word's own window sends the
    word, so each is a single binomial.
    """
    n = len(word)
    rows = ((1.0 - eps, eps), (eps, 1.0 - eps))
    sizes = [word.count(x) for x in (0, 1)]
    laws = []
    for x in (0, 1):
        law = [1.0]
        for s in (0, 1):
            slots = sum(1 for w, t in zip(word, sent) if (w, t) == (x, s))
            law = np.convolve(law, binomial_pmf(slots, rows[s][1])).tolist()
        laws.append(law)
    reference = [sizes[x] / n * rows[x][y] for x in (0, 1) for y in (0, 1)]
    total = 0.0
    for ones0, p0 in enumerate(laws[0]):
        for ones1, p1 in enumerate(laws[1]):
            counts = (sizes[0] - ones0, ones0, sizes[1] - ones1, ones1)
            terms = [abs(c / n - r) for c, r in zip(counts, reference)]
            if norm == "l1":
                dist = 0.0
                for term in terms:
                    dist += term
            else:
                dist = max(terms)
            if dist > mu:
                total += p0 * p1
    return total


def committed_rows():
    """(name, n, eps, k, mu, norm, trials, counts of E1/E2/E3, p_err's 95% interval) of every BSC preset row."""
    single = json.loads((OUT / "single_bsc.json").read_text())
    cfg, report = single["config"], single["report"]
    counts = [report["counts"][c] for c in ("e1", "e2", "e3")]
    yield ("single_bsc", int(cfg["n"]), float(cfg["channel"].removeprefix("bsc:")), int(cfg["k"]),
           float(cfg["mu"]), cfg["norm"], report["trials"], counts, report["wilson_ci_95"]["p_err"])
    lines = (OUT / "bsc_scaling.csv").read_text().splitlines()
    echo = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    trials = int(echo["trials"])
    for row in csv.DictReader(line for line in lines if not line.startswith("#")):
        counts = [round(float(row[f"p_{c}"]) * trials) for c in ("e1", "e2", "e3")]
        yield (f"bsc_scaling N = {row['n']}", int(row["n"]), float(echo["eps"]), int(echo["k"]),
               float(echo["mu"]), echo["norm"], trials, counts, [float(row["ci_lo"]), float(row["ci_hi"])])


ROWS = list(committed_rows())
# P(the word's own window is atypical) of each row, to five decimals
EXPECTED = {"single_bsc": 0.05636, "bsc_scaling N = 63": 0.55441, "bsc_scaling N = 127": 0.32258,
            "bsc_scaling N = 255": 0.11490}


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_true_window_law_brackets_the_committed_row(row):
    name, n, eps, k, mu, norm, trials, (e1, e2, e3), (err_lo, err_hi) = row
    word = build_sync_word(n, k).symbols.tolist()
    p = window_atypical_probability(word, word, eps, mu, norm)
    assert round(p, 5) == EXPECTED[name]
    e3_lo, _ = wilson_interval(e3, trials)
    assert e3_lo <= p <= err_hi
    if name.startswith("bsc_scaling"):  # every error there is a miss, so the interval itself holds P
        assert e1 == e2 == 0
        assert err_lo <= p <= err_hi


def test_every_bsc_preset_row_is_checked():
    assert sorted(EXPECTED) == sorted(row[0] for row in ROWS)
