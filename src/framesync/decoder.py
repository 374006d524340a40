"""Sequential joint-typicality decoding and Monte Carlo trial simulation.

The word's symbols 0 and 1 are the channel's rows x(0) and x(1), so the
channel needs at least two inputs. The decoder slides a length-N window over
the output stream; at each slot t it forms the empirical joint distribution of
(sync word symbol, output symbol) and declares v_hat = t the first time that
distribution is within mu of the expected joint P_hat_s(x) Q(y|x). A trial
transmits the word at a uniform slot v in {1..A}, every other slot carrying
x(0), scans slots 1..A + N - 1 and classifies the outcome:

  Correct  v_hat == v
  E1       v_hat in {1..v-N} or v_hat > v  (false alarm away from the word)
  E2       v_hat in {v-N+1..v-1}           (false alarm on a partial overlap)
  E3       no declaration by slot A + N - 1 (miss)

One engine runs every trial, a block of trials at a time. Trial i draws from
the Philox stream keyed by (master seed, i): one uniform places the word at
slot v, the rest drive an inverse-CDF channel pass over the trial's segment
(every slot through x(0)'s CDF, then the word's x(1) slots through x(1)'s):
an exact binary search over the block, O(log |Y|) passes, whose symbols are
the narrowest unsigned type that holds every output.
Windows are decided in two stages. A screen, one cumulative sum of integer
output weights per block taken over the word's runs of x(1), bounds each
window's distance from below; a window whose bound exceeds mu by more than a
float margin cannot be typical. Only the survivors are folded exactly: their
joint counts, then |count / N - reference| added input by input, then output
by output. One decide step maps each trial's uniforms to v and v_hat - v, and
one classifier maps v_hat - v to its class: run_batch counts the classes of a
block with one bincount, and run is the same two calls on a single trial.
run_decoder applies the same window decision to one given stream.

In full mode (A <= FULL_SIM_MAX_A) the segment is the whole stream of
A + 2N - 2 slots. Beyond, it is the 3N - 2 slots around the word (word at
offset N - 1 and 2N - 1 windows; offset v - 1 and v + N - 1 windows for
v < N), and the far windows that see pure idle noise are skipped only when an
exact binomial bound certifies that the chance any of them fires is below
CERT_SLIP; otherwise the engine refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Dmc, IndexOutOfRange, InverseCdf
from .sequences import SyncWord

FULL_SIM_MAX_A = 50_000
CERT_SLIP = 1e-9
Z_95 = 1.959963984540054
# stream slots per block of trials; bounds the engine's working arrays near 1 MB
_BLOCK_SLOTS = 2**14
# a window is pruned when its screen bound exceeds mu by more than this float margin
_SCREEN_SLACK = 1e-9


class StreamExhausted(RuntimeError):
    """The stream ended before the decoder could evaluate a required window."""


class SimulationInfeasible(RuntimeError):
    """A is too large for a full scan and the far-window skip cannot be certified."""


def default_mu(channel: Dmc) -> float:
    return 0.1 / channel.n_outputs


@dataclass(frozen=True)
class TypicalityDecoder:
    """Frozen decoder state: word, channel, tolerance, and the expected joint."""

    word: SyncWord
    channel: Dmc
    mu: float | None = None
    norm: str = "linf"
    reference: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = default_mu(self.channel) if self.mu is None else self.mu
        if not 0.0 < mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {mu}")
        object.__setattr__(self, "mu", float(mu))
        if self.norm not in ("linf", "l1"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.channel.n_inputs < 2:
            raise IndexOutOfRange(
                f"the sync word needs inputs x(0) and x(1); the channel has {self.channel.n_inputs}"
            )
        wi = self.word.symbols
        n = len(wi)
        rows = self.channel.rows
        ref = np.zeros((self.channel.n_inputs, self.channel.n_outputs))
        for x in np.unique(wi):
            ref[x] = np.count_nonzero(wi == x) / n * rows[x]
        assert abs(ref.sum() - 1.0) < 1e-12
        ref.flags.writeable = False
        object.__setattr__(self, "reference", ref)
        # screen weights over outputs: x(1) against what idle noise puts in the x(1) cells
        gap = ref[1] - np.count_nonzero(wi) / n * rows[0]
        if self.norm == "l1":
            weights = np.sign(gap).astype(np.int8)
        else:
            weights = (np.arange(len(gap)) == np.argmax(np.abs(gap))).astype(np.int8)
        edges = np.diff(wi.astype(np.int8), prepend=0, append=0)
        ones = (np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))  # [start, end) of each run of 1
        object.__setattr__(self, "_screen", (weights, float(weights @ ref[1]), ones))

    def screen_bound(self, outputs: np.ndarray, width: int) -> np.ndarray:
        """Lower bound on the distances of windows 0..width-1 of each row of an output block.

        |sum_y w_y (c_1y / N - reference[1, y])| over the x(1) cells' counts c_1y,
        with weights w_y in {-1, 0, 1} (l1) or one-hot (linf): it bounds those
        cells' part of the distance, hence the whole. One cumulative sum of
        w[output] per block, summed over the word's runs of x(1).
        """
        weights, weighted_ref, (starts, ends) = self._screen
        # integer sums are exact in any type; int32 moves half the bytes of float64
        cum = np.zeros((len(outputs), outputs.shape[1] + 1), dtype=np.int32)
        np.cumsum(weights[outputs], axis=1, dtype=np.int32, out=cum[:, 1:])
        acc = np.zeros((len(outputs), width), dtype=np.int32)
        for a, b in zip(starts, ends):
            acc += cum[:, b : b + width]
            acc -= cum[:, a : a + width]
        return np.abs(acc / len(self.word) - weighted_ref)

    def _fold(self, outputs: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Distances of the windows of outputs[rows] at starts, from their joint counts.

        Cells accumulate input by input, then output by output, each as
        |count / N - reference| (a cumulative sum, so the l1 order is fixed to
        the last bit); inputs past x(1) have no count and no reference.
        """
        wi, n_out = self.word.symbols, self.channel.n_outputs
        n = len(wi)
        cells = outputs[rows[:, None], starts[:, None] + np.arange(n)] + n_out * wi.astype(np.intp)
        cells += 2 * n_out * np.arange(len(rows))[:, None]
        counts = np.bincount(cells.ravel(), minlength=2 * n_out * len(rows)).reshape(len(rows), 2 * n_out)
        dev = np.abs((np.arange(n + 1) / n)[counts] - self.reference[:2].ravel())
        if self.norm == "linf":
            return dev.max(axis=1, initial=0.0)  # initial: defined for zero windows
        return np.cumsum(dev, axis=1)[:, -1]

    def first_typical(self, outputs: np.ndarray, n_windows) -> np.ndarray:
        """Per row, the index of the first typical window among its first n_windows; -1 if none.

        Only windows whose screen bound is within mu (plus a float margin) are
        folded exactly; the rest cannot be typical.
        """
        first = np.full(len(outputs), -1)
        width = outputs.shape[1] - len(self.word) + 1
        if width < 1:
            return first
        live = self.screen_bound(outputs, width) <= self.mu + _SCREEN_SLACK
        live &= np.arange(width) < np.reshape(n_windows, (-1, 1))
        rows, starts = np.nonzero(live)
        typical = self._fold(outputs, rows, starts) <= self.mu
        rows, lead = np.unique(rows[typical], return_index=True)  # each row's first typical window
        first[rows] = starts[typical][lead]
        return first


def run_decoder(decoder: TypicalityDecoder, output_stream, scan_limit: int) -> int | None:
    """First slot t <= scan_limit whose window is typical, else None.

    Sequential contract: the returned decision depends only on symbols up to
    t + N - 1. A stream shorter than needed raises StreamExhausted, unless the
    decoder fires before the missing symbols would have been read.
    """
    stream = np.asarray(output_stream, dtype=np.int64)
    n = len(decoder.word)
    if scan_limit < 1:
        raise ValueError(f"scan limit must be >= 1, got {scan_limit}")
    if stream.size and (stream.min() < 0 or stream.max() >= decoder.channel.n_outputs):
        raise IndexOutOfRange("output symbol out of range")
    available = len(stream) - n + 1
    n_windows = min(scan_limit, max(available, 0))
    if n_windows > 0:
        first = int(decoder.first_typical(stream[None, : n_windows + n - 1], n_windows)[0])
        if first >= 0:
            return first + 1
    if available < scan_limit:
        raise StreamExhausted(
            f"stream of {len(stream)} symbols supports {max(available, 0)} windows; "
            f"scan limit is {scan_limit}"
        )
    return None


@dataclass(frozen=True)
class TrialConfig:
    """One simulated transmission setup over the asynchronism window {1..A}."""

    a: int
    word: SyncWord
    channel: Dmc
    mu: float | None = None
    norm: str = "linf"

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"asynchronism window must be >= 1, got {self.a}")
        if self.a >= 2**1023:  # A must convert to a float
            raise ValueError("asynchronism window too large (2^1023 or more)")

    def decoder(self) -> TypicalityDecoder:
        return TypicalityDecoder(word=self.word, channel=self.channel, mu=self.mu, norm=self.norm)


CLASSES = ("Correct", "E1", "E2", "E3")
_MISS = np.iinfo(np.int64).min  # v_hat - v of a trial in which no window is typical


@dataclass(frozen=True)
class TrialOutcome:
    v_true: int
    v_hat: int | None
    klass: str
    stop_time: int | None  # slot the decision consumed symbols up to


def _class_index(shift: np.ndarray, n: int) -> np.ndarray:
    """Index into CLASSES of each trial's v_hat - v (_MISS: nothing declared)."""
    klass = np.where((-n < shift) & (shift < 0), 2, 1)  # E2 when v - N < v_hat < v, else E1
    klass[shift == 0] = 0
    klass[shift == _MISS] = 3
    return klass


def _log_binom_mass(n: int, q: float, lo: int, hi: int) -> float:
    """ln P(lo <= X <= hi) for X ~ Binomial(n, q); -inf for an empty range.

    Sums the terms C(n, k) q^k (1 - q)^(n - k) in the log domain, shifted by the
    largest: C(n, k) is an exact integer and fsum rounds the sum once, so a tail
    far below the smallest double keeps its digits.
    """
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return -math.inf
    if q == 0.0 or q == 1.0:  # all mass at X = 0 or at X = n
        return 0.0 if lo <= n * q <= hi else -math.inf
    log_q, log_p = math.log(q), math.log1p(-q)
    terms, comb = [], math.comb(n, lo)
    for k in range(lo, hi + 1):
        terms.append(math.log(comb) + k * log_q + (n - k) * log_p)
        comb = comb * (n - k) // (k + 1)
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _noise_window_log_bound(decoder: TypicalityDecoder) -> float:
    """ln of an upper bound on P(a pure-idle window is typical).

    Uses the single most discriminating cell: under either norm, a typical
    window must have every cell count inside its mu band, so the binomial
    probability of the hardest cell bounds the whole event.
    """
    wi = decoder.word.symbols
    n = len(wi)
    noise_row = decoder.channel.rows[0]
    best = 0.0
    for x in np.unique(wi):
        nx = int(np.count_nonzero(wi == x))
        for y in range(decoder.channel.n_outputs):
            ref = decoder.reference[x, y]
            q = noise_row[y]
            lo_c = math.ceil(n * (ref - decoder.mu))
            hi_c = math.floor(n * (ref + decoder.mu))
            if nx * q < lo_c:
                lb = _log_binom_mass(nx, q, lo_c, nx)
            elif nx * q > hi_c:
                lb = _log_binom_mass(nx, q, 0, hi_c)
            else:
                continue
            best = min(best, lb)
    return best


class TrialEngine:
    """Per-config trial runner; immutable after construction and picklable.

    A trial draws v, then one uniform per slot of its segment (windows + N - 1);
    the scan limit is A + N - 1.
    """

    def __init__(self, config: TrialConfig, full_sim_max_a: int = FULL_SIM_MAX_A):
        self.config = config
        self.decoder = config.decoder()
        self.n = len(config.word)
        self.scan_limit = config.a + self.n - 1
        self.full_mode = config.a <= full_sim_max_a
        self._draw = [InverseCdf(np.cumsum(row)) for row in config.channel.rows[:2]]  # x(0), x(1)
        self._ones = np.flatnonzero(config.word.symbols == 1)
        stream_len = self.scan_limit + self.n - 1
        self.segment = stream_len if self.full_mode else min(stream_len, 3 * self.n - 2)
        if not self.full_mode:
            log_bound = _noise_window_log_bound(self.decoder)
            n_far = math.log(2.0 * float(config.a) + 2.0 * self.n)
            if n_far + log_bound > math.log(CERT_SLIP):
                raise SimulationInfeasible(
                    f"A = {float(config.a):.3g} requires skipping pure-noise windows, "
                    f"but their total firing bound exp({n_far + log_bound:.1f}) "
                    f"exceeds {CERT_SLIP}"
                )

    def _geometry(self, u0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per trial: v, the word's offset in its segment and its window count.

        v = min(floor(u A) + 1, A) is exact at any A (Python ints past int64).
        Skip mode puts the word at offset min(v, N) - 1 and scans offset + N windows.
        """
        a, n = self.config.a, self.n
        w = u0 * float(a)
        v = w.astype(np.int64) if a < 2**62 else np.array([int(t) for t in w.tolist()], dtype=object)
        v = np.minimum(v + 1, a)
        if self.full_mode:
            return v, v - 1, np.full(len(v), self.scan_limit)
        offset = (np.minimum(v, n) - 1).astype(np.int64)
        return v, offset, offset + n

    def _outputs(self, uniforms: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Each trial's segment through the channel: x(0) in every slot, then x(1) at the word's ones."""
        out = self._draw[0](uniforms)
        rows, cols = np.arange(len(uniforms))[:, None], offset[:, None] + self._ones
        out[rows, cols] = self._draw[1](uniforms[rows, cols])
        return out

    def _decide(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of uniforms (v's draw, then the segment's): v and v_hat - v, or _MISS."""
        v, offset, windows = self._geometry(u[:, 0])
        first = self.decoder.first_typical(self._outputs(u[:, 1:], offset), windows)
        return v, np.where(first < 0, _MISS, first - offset)

    def run(self, rng: np.random.Generator) -> TrialOutcome:
        """One trial on rng: the same draws, decision and class as that trial in run_batch."""
        u = np.array([[rng.random()]])
        windows = int(self._geometry(u[:, 0])[2][0])
        u = np.append(u, rng.random((1, windows + self.n - 1)), axis=1)
        v, shift = self._decide(u)
        klass = CLASSES[_class_index(shift, self.n)[0]]
        v, shift = int(v[0]), int(shift[0])  # v is a Python int past int64
        v_hat = None if shift == _MISS else v + shift
        stop = None if v_hat is None else v_hat + self.n - 1
        return TrialOutcome(v, v_hat, klass, stop)

    def run_batch(self, master_seed: int, lo: int, hi: int) -> dict[str, int]:
        """Class counts of trials [lo, hi); trial i is run(trial_rng(master_seed, i))."""
        counts = np.zeros(len(CLASSES), dtype=np.int64)
        block = max(1, _BLOCK_SLOTS // self.segment)
        # one Philox re-keyed per trial is stream-identical to trial_rng(master_seed, i)
        # and far cheaper; a trial's draws are a prefix of its row of the longest segment
        bit_gen = np.random.Philox(key=np.array([master_seed % 2**64, 0], dtype=np.uint64))
        gen = np.random.Generator(bit_gen)
        state = bit_gen.state  # counter 0 and an empty buffer, as for a new generator
        # plain lists, not the uint64 arrays bit_gen.state returns: the setter reads them twice as fast
        state = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
                 "buffer": state["buffer"].tolist()}
        key = state["state"]["key"]
        for start in range(lo, hi, block):
            u = np.empty((min(block, hi - start), 1 + self.segment))
            for i, row in enumerate(u):
                key[1] = (start + i) % 2**64
                bit_gen.state = state
                gen.random(out=row)
            counts += np.bincount(_class_index(self._decide(u)[1], self.n), minlength=len(CLASSES))
        return dict(zip(CLASSES, counts.tolist()))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based per-trial stream keyed by (master_seed, trial_index)."""
    key = np.array([master_seed % 2**64, trial_index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_trial(config: TrialConfig, rng: np.random.Generator) -> TrialOutcome:
    """Run one trial: draw v, synthesize outputs, decode, classify."""
    return TrialEngine(config).run(rng)


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class ErrorReport:
    """Monte Carlo error-rate estimates with 95% Wilson intervals."""

    trials: int
    n_correct: int
    n_e1: int
    n_e2: int
    n_e3: int

    @property
    def p_e1(self) -> float:
        return self.n_e1 / self.trials

    @property
    def p_e2(self) -> float:
        return self.n_e2 / self.trials

    @property
    def p_e3(self) -> float:
        return self.n_e3 / self.trials

    @property
    def p_err(self) -> float:
        # defined as the sum so the partition identity holds exactly in floats
        return self.p_e1 + self.p_e2 + self.p_e3

    @property
    def n_err(self) -> int:
        return self.n_e1 + self.n_e2 + self.n_e3

    def wilson_ci_95(self) -> dict[str, tuple[float, float]]:
        return {
            "p_err": wilson_interval(self.n_err, self.trials),
            "p_e1": wilson_interval(self.n_e1, self.trials),
            "p_e2": wilson_interval(self.n_e2, self.trials),
            "p_e3": wilson_interval(self.n_e3, self.trials),
        }

    def to_json_dict(self) -> dict:
        ci = self.wilson_ci_95()
        return {
            "trials": self.trials,
            "counts": {
                "correct": self.n_correct,
                "e1": self.n_e1,
                "e2": self.n_e2,
                "e3": self.n_e3,
            },
            "p_err": self.p_err,
            "p_e1": self.p_e1,
            "p_e2": self.p_e2,
            "p_e3": self.p_e3,
            "wilson_ci_95": {k: list(v) for k, v in ci.items()},
        }


def monte_carlo(
    config: TrialConfig,
    trials: int,
    master_seed: int,
    workers: int = 1,
    full_sim_max_a: int = FULL_SIM_MAX_A,
) -> ErrorReport:
    """Estimate error rates over independent trials.

    Trial i draws from a Philox stream keyed by (master_seed, i), so the
    report is bit-identical for any worker count or chunking.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    engine = TrialEngine(config, full_sim_max_a)
    if workers == 1:
        parts = [engine.run_batch(master_seed, 0, trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # 11 ms of import a single worker never needs

        bounds = np.linspace(0, trials, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(engine.run_batch, master_seed, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            parts = [fut.result() for fut in futures]
    # ErrorReport's count fields follow CLASSES: Correct, E1, E2, E3
    return ErrorReport(trials, *(sum(part[k] for part in parts) for k in CLASSES))


@dataclass(frozen=True)
class ScalingRow:
    """One sweep row: sync length, window size, channel, and decoder settings."""

    n: int
    a: int
    alpha: float
    config: TrialConfig
    extra: dict = field(default_factory=dict)


def _check_n_list(n_list: list[int]) -> None:
    if not n_list:
        raise ValueError("n_list must name at least one word length")


def _window_from_exponent(ln_a: float) -> int:
    if ln_a > 700.0:
        raise ValueError(f"exp({ln_a:.6g}) overflows; asynchronism window too large")
    return max(1, int(round(math.exp(ln_a))))


def single_rows(
    channel: Dmc,
    n: int,
    k: int,
    mu: float | None = None,
    norm: str = "linf",
    a: int | None = None,
    beta: float | None = None,
) -> list[ScalingRow]:
    """One row over a given channel: A as given, else round(exp(beta * alpha * N))."""
    from .sequences import build_sync_word
    from .thresholds import sync_threshold

    word = build_sync_word(n, k)
    alpha = sync_threshold(channel).alpha
    if a is None:
        if beta is None:
            raise ValueError("single mode needs either 'a' or 'beta'")
        a = _window_from_exponent(beta * alpha * n)
    config = TrialConfig(a=a, word=word, channel=channel, mu=mu, norm=norm)
    return [ScalingRow(n=n, a=a, alpha=alpha, config=config)]


def bsc_scaling_rows(
    eps: float,
    k: int,
    n_list: list[int],
    beta: float,
    mu: float,
    norm: str = "linf",
) -> list[ScalingRow]:
    """Achievability sweep rows: fixed BSC, A = round(exp(beta * alpha * N))."""
    from .channels import bsc as make_bsc
    from .sequences import build_sync_word
    from .thresholds import bsc_threshold_closed_form

    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    _check_n_list(n_list)
    alpha = bsc_threshold_closed_form(eps)
    channel = make_bsc(eps)
    rows = []
    for n in n_list:
        word = build_sync_word(n, k)
        a = _window_from_exponent(beta * alpha * n)
        config = TrialConfig(a=a, word=word, channel=channel, mu=mu, norm=norm)
        rows.append(ScalingRow(n=n, a=a, alpha=alpha, config=config))
    return rows


def smallest_valid_k(n: int, k_min: int = 2) -> int:
    """Smallest K >= k_min making floor(n/K) a valid prefix length 2^m - 1."""
    from .sequences import MIN_DEGREE, NoValidLength

    for k in range(k_min, n + 1):
        prefix = n // k
        if prefix < (1 << MIN_DEGREE) - 1:
            break
        if (prefix + 1) & prefix == 0:
            return k
    raise NoValidLength(f"no valid construction constant for n={n}")


def energy_scaling_rows(
    energy: float,
    sigma2: float,
    n_list: list[int],
    bins: int = 8,
    mu_coeff: float = 1.2,
    norm: str = "l1",
) -> list[ScalingRow]:
    """Fixed-energy sweep rows: P = E/N, A = round(exp(E / (4 sigma^2))).

    The feasibility threshold exp(E / (2 sigma^2)) is carried per row so
    reports can print it against A.
    """
    from .continuous import AwgnSpec, quantized_awgn
    from .sequences import build_sync_word
    from .thresholds import sync_threshold

    AwgnSpec(power=energy, noise_var=sigma2)  # checks E and sigma^2 before they divide
    _check_n_list(n_list)
    a = _window_from_exponent(energy / (4.0 * sigma2))
    feas = math.exp(energy / (2.0 * sigma2)) if energy / (2.0 * sigma2) < 700 else math.inf
    rows = []
    for n in n_list:
        word = build_sync_word(n, smallest_valid_k(n))  # rejects n < 1 before P = E/N
        power = energy / n
        channel = quantized_awgn(AwgnSpec(power=power, noise_var=sigma2), bins)
        mu = mu_coeff / math.sqrt(n)
        config = TrialConfig(a=a, word=word, channel=channel, mu=mu, norm=norm)
        rows.append(
            ScalingRow(
                n=n,
                a=a,
                alpha=sync_threshold(channel).alpha,
                config=config,
                extra={"feasibility_threshold": feas, "energy": energy, "power": power},
            )
        )
    return rows


def scaling_experiment(
    rows: list[ScalingRow],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[tuple[ScalingRow, ErrorReport]]:
    """One Monte Carlo run per row, deterministic under the master seed.

    A RuntimeError in a row propagates with the (row, report) pairs finished
    before it attached as its ``completed`` attribute, so they can be written.
    """
    results = []
    for row in rows:
        try:
            report = monte_carlo(row.config, trials, master_seed, workers=workers)
        except RuntimeError as exc:
            exc.completed = results
            raise
        results.append((row, report))
    return results


def scaling_to_csv(results: list[tuple[ScalingRow, ErrorReport]]) -> str:
    extra_keys = sorted({k for row, _ in results for k in row.extra})
    header = "n,a,alpha,p_err,ci_lo,ci_hi,p_e1,p_e2,p_e3"
    if extra_keys:
        header += "," + ",".join(extra_keys)
    lines = [header]
    for row, rep in results:
        lo, hi = rep.wilson_ci_95()["p_err"]
        cells = [
            f"{row.n}",
            f"{float(row.a):.15g}",
            f"{row.alpha:.15g}",
            f"{rep.p_err:.15g}",
            f"{lo:.15g}",
            f"{hi:.15g}",
            f"{rep.p_e1:.15g}",
            f"{rep.p_e2:.15g}",
            f"{rep.p_e3:.15g}",
        ]
        cells += [f"{float(row.extra[k]):.15g}" for k in extra_keys]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
