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
the Philox stream keyed by (master seed, i), which run_batch gets by re-keying
one Philox (two integer stores into its state per trial where numpy's layout of
it is confirmed, else its state setter; each row of draws is a whole number of
Philox blocks, so no trial leaves a draw behind for the next): one uniform
places the word at slot v, the rest drive an inverse-CDF channel pass over the
trial's segment (every slot through x(0)'s CDF, then the word's x(1) slots
through x(1)'s; channels.InverseCdf, exact, in the narrowest unsigned type of
the outputs). A block is one flat stream: trial i's segment starts at slot
i * stride, the slots after it pad it, and every stage indexes it by flat
positions.
Windows are decided in two stages, with no float arithmetic per window or
per cell: the decoder evaluates its float expressions once, over every
integer they can be given. A screen gives each window an integer screen sum
k in [-N, N], a sum of integer output weights over the word's x(1) slots,
whose bound |k / N - c| is at most the window's distance: sums of 2^j
consecutive weights, each level one vector add from the last, added by the
binary digits of the length of each run of x(1). The sums whose bound is
within mu plus a float margin form one interval, so a window is screened by
one unsigned range check on its sum. Only the survivors that start inside
their trial's scan are folded exactly: their joint counts, then each cell's
|count / N - reference| from a table, added input by input, then output by
output. One decide step maps each trial's uniforms to v_hat - v, and one
classifier maps v_hat - v to its class: run_batch counts the classes of a
block with one bincount, and run is the same two calls on a single trial,
the one place v itself is formed (a Python int, exact at any A).
run_decoder applies the same window decision to one given stream.

In full mode (A <= FULL_SIM_MAX_A) the segment is the whole stream of
A + 2N - 2 slots. Beyond, it is the 3N - 2 slots around the word (word at
offset N - 1 and 2N - 1 windows; offset v - 1 and v + N - 1 windows for
v < N), and the far windows that see pure idle noise are skipped only when an
exact binomial bound certifies that the chance any of them fires is below
CERT_SLIP; otherwise the engine refuses.

Every sweep row comes from single_rows: the word, the channel's threshold
alpha, A and one TrialConfig, for a caller to run through monte_carlo row by
row. bsc_scaling_rows and energy_scaling_rows only pick each row's channel
and parameters.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
from dataclasses import dataclass, field, replace
from functools import cache, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

# the row builders call their helpers through these modules, on which perfbench/tracing.py wraps them
from . import sequences, thresholds
from .channels import Dmc, IndexOutOfRange, InverseCdf, bsc
from .continuous import AwgnSpec, quantized_awgn
from .sequences import SyncWord

FULL_SIM_MAX_A = 50_000
CERT_SLIP = 1e-9
Z_95 = 1.959963984540054
# stream slots per block of trials; a float64 uniform per slot, the rest narrow integers
# (int16 screen sums), keeps the engine's working arrays near 1 MB
_BLOCK_SLOTS = 2**15
# cells per chunk of the fold, at most 1 MB of intp indices at any N. At 2^15 cells the freed
# chunks were too small to stop glibc from returning the heap after every block: 4500 page
# faults per energy_scaling pass
_FOLD_CELLS = 2**17
# a window is pruned when its screen bound exceeds mu by more than this float margin
_SCREEN_SLACK = 1e-9


def _integer(name: str, value) -> int:
    """value as a Python int, through operator.index; a bool, a float or any other non-integer
    is a ValueError naming the parameter."""
    if not isinstance(value, (bool, np.bool_)):  # a bool indexes as 0 or 1, but is never a count or a seed
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    reference: np.ndarray = field(init=False, repr=False, compare=False)  # a function of the rest

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
        # the word's x(0) and x(1) slots, counted once (a unique() call would load numpy.ma)
        sizes = tuple(np.bincount(wi, minlength=2).tolist())
        object.__setattr__(self, "_sizes", sizes)
        ref = np.zeros((self.channel.n_inputs, self.channel.n_outputs))
        for x, nx in enumerate(sizes):
            ref[x] = nx / n * rows[x]
        assert abs(ref.sum() - 1.0) < 1e-12
        ref.flags.writeable = False
        object.__setattr__(self, "reference", ref)
        # screen weights over outputs: x(1) against what idle noise puts in the x(1) cells
        gap = ref[1] - sizes[1] / n * rows[0]
        weights = np.sign(gap) if self.norm == "l1" else np.arange(len(gap)) == np.argmax(np.abs(gap))
        # the screen's integer type: every screen sum, and every partial sum it is built from, is a
        # sum of at most N weights, so int16 holds it exactly while N < 2^15, however long the stream
        weights = weights.astype(np.int16 if n < 2**15 else np.int32)
        # each run [a, b) of x(1) as pieces of 2^j slots, one per binary digit of b - a, the lowest
        # digit's first: (j, first slot) pairs sorted by j
        runs = np.flatnonzero(np.diff(wi.astype(np.int8), prepend=0, append=0)).tolist()  # a, b, a, ...
        pieces = sorted((j, a + (b - a) % 2**j) for a, b in zip(runs[::2], runs[1::2])
                        for j in range((b - a).bit_length()) if (b - a) >> j & 1)
        object.__setattr__(self, "_screen", (weights, pieces))
        # the screen bound of every screen sum k in [-N, N], index k + N, and the sums it keeps:
        # k / N - c rounds monotonically in k, so its absolute value falls, then rises, and the
        # kept sums are one interval [lo, hi] (None when it is empty)
        bounds = np.abs(np.arange(-n, n + 1) / n - float(weights @ ref[1]))
        kept = np.flatnonzero(bounds <= self.mu + _SCREEN_SLACK) - n
        assert kept.size == 0 or kept[-1] - kept[0] + 1 == kept.size
        object.__setattr__(self, "_screen_bounds", bounds)
        object.__setattr__(self, "_kept", (int(kept[0]), int(kept[-1])) if kept.size else None)
        # each cell's |count / N - reference| for counts 0..N: row x * |Y| + y for x(0) and x(1)
        object.__setattr__(self, "_terms", np.abs(np.arange(n + 1) / n - ref[:2].reshape(-1, 1)))
        # the fold's cell x * |Y| + y of each word slot before its output y, and each cell's row of _terms
        n_out = self.channel.n_outputs
        object.__setattr__(self, "_cells", (n_out * wi.astype(np.intp), (n + 1) * np.arange(2 * n_out)))

    def _screen_sums(self, stream: np.ndarray) -> np.ndarray:
        """Screen sums of every window of a flat output stream, window p covering slots
        p..p+N-1: sum_y w_y c_1y over the x(1) cells' counts c_1y, an integer in [-N, N].

        Level j holds the sums of 2^j consecutive weights w[output], level j + 1 is one
        vector add of level j to itself shifted by 2^j, and each of the word's pieces of
        2^j slots adds its slice of level j. No partial sum exceeds N in magnitude, so
        nothing wraps. A stream shorter than N has no window.
        """
        weights, pieces = self._screen
        width = len(stream) - len(self.word) + 1
        acc = np.zeros(max(width, 0), dtype=weights.dtype)
        if width <= 0:  # no window; a negative width would slice from the stream's end
            return acc
        level, at = np.take(weights, stream), 0
        for j, a in pieces:
            for h in range(at, j):
                level = level[: -(2**h)] + level[2**h :]
            at = j
            acc += level[a : a + width]
        return acc

    def screen_bound(self, stream: np.ndarray) -> np.ndarray:
        """Lower bound on the distance of every window of a flat output stream.

        |k / N - sum_y w_y reference[1, y]| of each window's screen sum k, with
        weights w_y in {-1, 0, 1} (l1) or one-hot (linf): it bounds the x(1)
        cells' part of the distance, hence the whole. first_typical keeps the
        windows whose bound is within mu + _SCREEN_SLACK by their sums alone.
        """
        return self._screen_bounds[self._screen_sums(stream).astype(np.intp) + len(self.word)]

    def _fold(self, stream: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Distances of the windows of a flat output stream at starts, from their joint counts.

        Cells accumulate input by input, then output by output (a cumulative
        sum, so the l1 order is fixed to the last bit), each as
        |count / N - reference| read from the decoder's table; inputs past x(1)
        have no count and no reference. Windows are gathered ceil(_FOLD_CELLS / N)
        at a time, so the working arrays stay near _FOLD_CELLS cells at any N.
        """
        n, n_cells = len(self.word), 2 * self.channel.n_outputs
        # sliding_window_view(stream, N), without its argument checks
        windows = as_strided(stream, (len(stream) - n + 1, n), stream.strides * 2, writeable=False)
        codes, term_rows = self._cells
        chunk = -(-_FOLD_CELLS // n)
        dist = np.empty(len(starts))
        for i in range(0, len(starts), chunk):
            cells = np.add(windows[starts[i : i + chunk]], codes)
            cells += n_cells * np.arange(len(cells))[:, None]
            counts = np.bincount(cells.ravel(), minlength=n_cells * len(cells)).reshape(len(cells), n_cells)
            dev = self._terms.ravel()[counts + term_rows]
            dist[i : i + chunk] = dev.max(axis=1) if self.norm == "linf" else np.cumsum(dev, axis=1)[:, -1]
        return dist

    def first_typical(self, stream: np.ndarray, stride: int, n_windows: np.ndarray) -> np.ndarray:
        """Per row of a flat output stream, the index of the row's first typical window
        among its first n_windows; -1 if none.

        Row r starts at slot r * stride and its window s covers slots r * stride + s
        onward, so n_windows[r] + N - 1 <= stride keeps every window in its row. Only
        windows whose screen sum lies in the kept interval, one unsigned range check
        over the whole stream, are folded exactly; the rest cannot be typical.
        """
        first = np.full(len(n_windows), -1)
        if len(stream) < len(self.word) or self._kept is None:
            return first
        lo, hi = self._kept
        sums = self._screen_sums(stream)
        # (k - lo) mod 2^bits <= hi - lo exactly when lo <= k <= hi, since hi - k <= 2N < 2^bits (see sequences.MAX_N)
        live = np.flatnonzero((sums - lo).view(f"u{sums.itemsize}") <= hi - lo)
        rows, starts = np.divmod(live, stride)
        scanned = starts < n_windows[rows]  # also drops windows that cross into the next row
        rows, starts = rows[scanned], starts[scanned]
        typical = self._fold(stream, live[scanned]) <= self.mu
        rows, starts = rows[typical], starts[typical]
        # the survivors ascend, so a row's first typical window is the first with its row
        lead = np.ones(len(rows), dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=lead[1:])
        first[rows[lead]] = starts[lead]
        return first


def run_decoder(decoder: TypicalityDecoder, output_stream, scan_limit: int) -> int | None:
    """First slot t <= scan_limit whose window is typical, else None.

    Sequential contract: the returned decision depends only on symbols up to
    t + N - 1. A stream shorter than needed raises StreamExhausted, unless the
    decoder fires before the missing symbols would have been read. Symbols must
    be integers (or booleans) in 0..|Y| - 1.
    """
    stream = np.asarray(output_stream)
    n = len(decoder.word)
    if scan_limit < 1:
        raise ValueError(f"scan limit must be >= 1, got {scan_limit}")
    if stream.ndim != 1:
        raise ValueError(f"the output stream must be one-dimensional, got shape {stream.shape}")
    if stream.size and (
        stream.dtype.kind not in "biu" or stream.min() < 0 or stream.max() >= decoder.channel.n_outputs
    ):
        raise IndexOutOfRange(f"output symbols must be integers in 0..{decoder.channel.n_outputs - 1}")
    available = len(stream) - n + 1
    n_windows = min(scan_limit, max(available, 0))
    if n_windows > 0:
        row = stream[: n_windows + n - 1].astype(np.int64)
        first = int(decoder.first_typical(row, len(row), np.array([n_windows]))[0])
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
        object.__setattr__(self, "a", _integer("a", self.a))
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

    A typical window passes the fold's test in every cell (linf: each term is
    at most their max; l1: each non-negative term at most their sum), so its
    count lies in the cell's mu band, the counts whose term in the decoder's
    table is within mu: one interval, as for the screen's kept sums. The exact
    binomial mass of the hardest cell's band bounds the whole event.
    """
    n_out = decoder.channel.n_outputs
    masses = [0.0]
    for x, nx in enumerate(decoder._sizes):  # a symbol the word lacks adds ln 1 = 0
        for y, q in enumerate(decoder.channel.rows[0].tolist()):
            band = np.flatnonzero(decoder._terms[x * n_out + y] <= decoder.mu).tolist()
            masses.append(_log_binom_mass(nx, q, band[0], band[-1]) if band else -math.inf)
    return min(masses)


class TrialEngine:
    """Per-config trial runner; immutable after construction and picklable.

    A trial draws v, then one uniform per slot of its segment (windows + N - 1);
    the scan limit is A + N - 1.
    """

    def __init__(self, config: TrialConfig):
        self.config = config
        self.decoder = config.decoder()
        self.n = len(config.word)
        self.scan_limit = config.a + self.n - 1
        self.full_mode = config.a <= FULL_SIM_MAX_A
        self._draw = [InverseCdf(np.cumsum(row)) for row in config.channel.rows[:2]]  # x(0), x(1)
        self._ones = np.flatnonzero(config.word.symbols == 1)
        stream_len = self.scan_limit + self.n - 1
        self.segment = stream_len if self.full_mode else min(stream_len, 3 * self.n - 2)
        if not self.full_mode:
            log_bound = _noise_window_log_bound(self.decoder)
            n_far = math.log(2 * config.a + 2 * self.n)  # exact: 2A + 2N may pass the largest double
            if n_far + log_bound > math.log(CERT_SLIP):
                # the reach, the A where ln(2A + 2N) + log_bound = ln CERT_SLIP: under config.a, so exp is finite
                reach = math.exp(math.log(CERT_SLIP / 2) - log_bound) - self.n
                raise SimulationInfeasible(
                    f"A = {float(config.a):.3g} requires skipping pure-noise windows, "
                    f"but their total firing bound exp({n_far + log_bound:.1f}) exceeds {CERT_SLIP}; "
                    + (f"skip mode certifies A up to {reach:.6g}" if reach >= 1 else "skip mode certifies no A")
                )

    def _geometry(self, u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per trial: the word's offset v - 1 in its segment and its window count.

        v = min(floor(u A) + 1, A); skip mode caps the offset at N - 1 and scans
        offset + N windows. The cap comes before the cast, so the offset is exact
        at any A.
        """
        a = self.config.a
        cap = a if self.full_mode else min(a, self.n)
        offset = np.minimum(u0 * float(a), cap - 1).astype(np.int64)
        return offset, (np.full(len(offset), self.scan_limit) if self.full_mode else offset + self.n)

    def _outputs(self, uniforms: np.ndarray, stride: int, offset: np.ndarray) -> np.ndarray:
        """Flat uniforms through the channel, trial i's segment from slot i * stride:
        x(0) in every slot, then x(1) at the word's ones, one flat index for both."""
        out = self._draw[0](uniforms)
        ones = ((np.arange(len(offset)) * stride + offset)[:, None] + self._ones).ravel()
        out[ones] = self._draw[1](uniforms.take(ones))
        return out

    def _decide(self, u: np.ndarray) -> np.ndarray:
        """Per row of uniforms (v's draw, then the segment's): v_hat - v, or _MISS.

        The block is one flat stream: row i's segment starts at slot i * stride, and
        the slots after it, draws that round the row up to whole Philox blocks and then
        the next row's draw for v, pad it; no window reaches them.
        """
        offset, windows = self._geometry(u[:, 0])
        stride = u.shape[1]
        outputs = self._outputs(u.ravel()[1:], stride, offset)
        first = self.decoder.first_typical(outputs, stride, windows)
        return np.where(first < 0, _MISS, first - offset)

    def run(self, rng: np.random.Generator) -> TrialOutcome:
        """One trial on rng: the same draws, decision and class as that trial in run_batch."""
        u = np.array([[rng.random()]])
        windows = int(self._geometry(u[:, 0])[1][0])
        u = np.append(u, rng.random((1, windows + self.n - 1)), axis=1)
        shift = self._decide(u)
        klass = CLASSES[_class_index(shift, self.n)[0]]
        v = min(int(u[0, 0] * float(self.config.a)) + 1, self.config.a)  # a Python int, exact past int64
        v_hat = None if shift[0] == _MISS else v + int(shift[0])
        stop = None if v_hat is None else v_hat + self.n - 1
        return TrialOutcome(v, v_hat, klass, stop)

    def run_batch(self, master_seed: int, lo: int, hi: int) -> dict[str, int]:
        """Class counts of trials [lo, hi); trial i is run(trial_rng(master_seed, i))."""
        counts = np.zeros(len(CLASSES), dtype=np.int64)
        block = max(1, _BLOCK_SLOTS // self.segment)
        # a trial's draws are a prefix of its row of the longest segment, rounded up to whole
        # Philox blocks: the extra doubles are the same stream's next draws, past every window
        width = -(-(1 + self.segment) // _PHILOX_BLOCK) * _PHILOX_BLOCK
        fill = _trial_draws(master_seed)
        blocks = np.empty((min(block, hi - lo), width))  # one buffer for every block
        rows = list(blocks)  # its row views, made once
        for start in range(lo, hi, block):
            size = min(block, hi - start)
            fill(rows[:size], start)
            counts += np.bincount(_class_index(self._decide(blocks[:size]), self.n), minlength=len(CLASSES))
        return dict(zip(CLASSES, counts.tolist()))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based per-trial stream keyed by (master_seed, trial_index)."""
    key = np.array([master_seed % 2**64, trial_index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# numpy's philox_state as 64-bit words: pointers to the counter and to the key, buffer_pos (an int
# padded to a word), the 4-word buffer, has_uint32 and uinteger, then the Philox object's own key
# (2 words) and counter (4 words), at which the two pointers point
_PHILOX_WORDS = 14
_BUFFER_POS, _KEY, _CTR = 2, 8, 10
_PHILOX_BLOCK = 4  # doubles per Philox block, the buffer's size


def _philox_words(bit_gen: np.random.Philox) -> np.ndarray:
    """A uint64 view of bit_gen's philox_state, read as laid out above."""
    struct = (ctypes.c_uint64 * _PHILOX_WORDS).from_address(bit_gen.ctypes.state_address)
    struct.owner = bit_gen  # the view's base holds the struct, and the struct the memory it reads
    return np.frombuffer(struct, dtype=np.uint64)


@cache
def _philox_layout_known() -> bool:
    """Whether this numpy's philox_state is laid out as _philox_words reads it: its counter
    and key pointers hold the addresses of words _CTR and _KEY (read first, since only then
    does the struct reach to its last word), and a state set through the public setter reads
    back word for word."""
    bit_gen = np.random.Philox(0)
    address = bit_gen.ctypes.state_address
    words = _philox_words(bit_gen)
    pointers = [address + 8 * _CTR, address + 8 * _KEY]
    if words[:2].tolist() != pointers:
        return False
    key, counter, buffer = [5, 2**63 + 6], [2**40 + 1, 2, 3, 4], [7, 8, 9, 10]
    bit_gen.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                     "buffer": buffer, "buffer_pos": 3, "has_uint32": 1, "uinteger": 11}
    return words.tolist() == [*pointers, 3, *buffer, 1 | 11 << 32, *key, *counter]


def _trial_draws(master_seed: int):
    """fill(rows, first), which fills rows[r] with the first doubles of trial_rng(master_seed,
    first + r) from trial_rng(master_seed, 0), its Philox re-keyed per trial and far cheaper than
    a new generator: key word 1 to the trial and counter word 0 to 0. Every row must be a whole
    number of Philox blocks, so that each draw leaves the buffer used up, as a new generator
    has it, and the next trial's first draw runs a new block. Two stores per trial into its
    philox_state where the layout is known, else through the public state setter."""
    generator = trial_rng(master_seed, 0)
    bit_gen, random = generator.bit_generator, generator.random
    if _philox_layout_known():
        # a format-Q memoryview stores a Python int in about half the time the uint64 array takes
        words = memoryview(_philox_words(bit_gen)).cast("B").cast("Q")
        words[_BUFFER_POS] = _PHILOX_BLOCK  # the buffer used up, once per batch: whole-block rows keep it so
        key, ctr = _KEY + 1, _CTR

        def fill(rows: list[np.ndarray], first: int) -> None:
            for i, row in enumerate(rows, first):
                words[key] = i % 2**64
                words[ctr] = 0  # counter words 1-3 stay 0: word 0 carries into them only past 2^64 blocks
                random(out=row)

        return fill
    state = bit_gen.state  # counter 0 and an empty buffer, as for a new generator
    # plain lists, not the uint64 arrays bit_gen.state returns: the setter reads them twice as fast
    state = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
             "buffer": state["buffer"].tolist()}
    key = state["state"]["key"]

    def fill(rows: list[np.ndarray], first: int) -> None:
        for i, row in enumerate(rows, first):
            key[1] = i % 2**64
            bit_gen.state = state
            random(out=row)

    return fill


def simulate_trial(config: TrialConfig, rng: np.random.Generator) -> TrialOutcome:
    """Run one trial: draw v, synthesize outputs, decode, classify."""
    return TrialEngine(config).run(rng)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials] = [0, {trials}], got {successes}")
    z = Z_95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# the error classes' rate names: p_e1, p_e2, p_e3
_RATES = tuple(f"p_{k.lower()}" for k in CLASSES[1:])


@dataclass(frozen=True)
class ErrorReport:
    """Monte Carlo outcome counts, one per class in CLASSES order, with their rates
    and 95% Wilson intervals."""

    trials: int
    counts: tuple[int, ...]

    def rates(self) -> dict[str, float]:
        """p_err, then each error class's rate; p_err is their sum, added left to right
        (not sum(), which compensates from Python 3.12), so the partition holds exactly in floats."""
        per_class = {k: c / self.trials for k, c in zip(_RATES, self.counts[1:])}
        return {"p_err": reduce(operator.add, per_class.values()), **per_class}

    @property
    def p_err(self) -> float:
        return self.rates()["p_err"]

    def wilson_ci_95(self) -> dict[str, tuple[float, float]]:
        errors = self.counts[1:]
        return {k: wilson_interval(c, self.trials) for k, c in zip(("p_err", *_RATES), (sum(errors), *errors))}

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "counts": dict(zip(map(str.lower, CLASSES), self.counts)),
            **self.rates(),
            "wilson_ci_95": {k: list(v) for k, v in self.wilson_ci_95().items()},
        }


def monte_carlo(config: TrialConfig, trials: int, master_seed: int, workers: int = 1) -> ErrorReport:
    """Estimate error rates over independent trials.

    Trial i draws from a Philox stream keyed by (master_seed, i), so the
    report is bit-identical for any worker count or chunking.
    """
    trials, master_seed, workers = (_integer(name, value) for name, value in
                                    (("trials", trials), ("master_seed", master_seed), ("workers", workers)))
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    engine = TrialEngine(config)
    if workers == 1:
        parts = [engine.run_batch(master_seed, 0, trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # 11 ms of import a single worker never needs

        bounds = np.linspace(0, trials, workers + 1).astype(int).tolist()
        chunks = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        # a forked pool starts all its processes at the first submit: no more than there are chunks or CPUs
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            futures = [pool.submit(engine.run_batch, master_seed, lo, hi) for lo, hi in chunks]
            parts = [fut.result() for fut in futures]
    return ErrorReport(trials, tuple(sum(part[k] for part in parts) for k in CLASSES))


@dataclass(frozen=True)
class ScalingRow:
    """One sweep row: the channel's threshold alpha, the trial config, and extra CSV columns."""

    alpha: float
    config: TrialConfig
    extra: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.config.word)

    @property
    def a(self) -> int:
        return self.config.a


def _check_n_list(n_list: list[int]) -> None:
    if not n_list:
        raise ValueError("n_list must name at least one word length")


def _window_from_exponent(ln_a: float) -> int:
    """round(e^ln_a), at least 1; TrialConfig alone bounds it above."""
    if math.isnan(ln_a):  # beta = nan, or beta = 0 with alpha = inf
        raise ValueError("the exponent beta * alpha * N of A is undefined (NaN)")
    try:
        return max(1, round(math.exp(ln_a)))
    except OverflowError:  # from exp past the largest double, or from round(inf)
        raise ValueError(f"exp({ln_a:.6g}) overflows; asynchronism window too large") from None


def single_rows(
    channel: Dmc,
    n: int,
    k: int,
    mu: float | None = None,
    norm: str = "linf",
    a: int | None = None,
    beta: float | None = None,
) -> list[ScalingRow]:
    """The one row builder: a row over a given channel, A as given, else round(exp(beta * alpha * N))
    for beta in (0, 1)."""
    word = sequences.build_sync_word(n, k)
    alpha = thresholds.sync_threshold(channel).alpha
    if a is None:
        if beta is None:
            raise ValueError("single mode needs either 'a' or 'beta'")
        ln_a = beta * alpha * n
        if not math.isnan(ln_a):  # beta = NaN, or 0 against an infinite alpha: named as such below
            if not 0.0 < beta < 1.0:
                raise ValueError(f"beta must be in (0,1), got {beta}")
            if alpha == math.inf:
                raise ValueError("the channel's threshold alpha is infinite, so exp(beta * alpha * N) is "
                                 "undefined; give 'a' instead")
        a = _window_from_exponent(ln_a)
    config = TrialConfig(a=a, word=word, channel=channel, mu=mu, norm=norm)
    return [ScalingRow(alpha, config)]


def bsc_scaling_rows(
    eps: float,
    k: int,
    n_list: list[int],
    beta: float,
    mu: float,
    norm: str = "linf",
) -> list[ScalingRow]:
    """Achievability sweep rows: single_rows over a fixed BSC, A = round(exp(beta * alpha * N))."""
    _check_n_list(n_list)
    if not 0.0 < eps < 1.0:  # bsc() takes 0 and 1, whose threshold is infinite
        raise ValueError(f"eps must be strictly inside (0,1), got {eps}")
    channel = bsc(eps)
    return [row for n in n_list for row in single_rows(channel, n, k, mu, norm, beta=beta)]


def energy_scaling_rows(
    energy: float,
    sigma2: float = 1.0,
    *,
    n_list: list[int],
    bins: int = 8,
    mu_coeff: float = 1.2,
    norm: str = "l1",
) -> list[ScalingRow]:
    """Fixed-energy sweep rows: single_rows over the AWGN channel of P = E/N quantized on bins
    cells, A = round(exp(E / (4 sigma^2))), mu = mu_coeff / sqrt(N).

    The feasibility threshold exp(E / (2 sigma^2)) is carried per row so
    reports can print it against A.
    """
    AwgnSpec(power=energy, noise_var=sigma2)  # checks E and sigma^2 before they divide
    _check_n_list(n_list)
    a = _window_from_exponent(energy / (4.0 * sigma2))
    try:
        feas = math.exp(energy / (2.0 * sigma2))
    except OverflowError:
        feas = math.inf
    rows = []
    for n in n_list:
        k = sequences.smallest_valid_k(n)  # rejects n < 1 before P = E/N
        power = energy / n
        channel = quantized_awgn(AwgnSpec(power=power, noise_var=sigma2), bins)
        (row,) = single_rows(channel, n, k, mu_coeff / math.sqrt(n), norm, a=a)
        rows.append(replace(row, extra={"feasibility_threshold": feas, "energy": energy, "power": power}))
    return rows


def scaling_to_csv(results: list[tuple[ScalingRow, ErrorReport]]) -> str:
    extra_keys = sorted({k for row, _ in results for k in row.extra})
    lines = [",".join(["n", "a", "alpha", "p_err", "ci_lo", "ci_hi", *_RATES, *extra_keys])]
    for row, rep in results:
        p_err, *per_class = rep.rates().values()
        cells = [row.n, row.a, row.alpha, p_err, *rep.wilson_ci_95()["p_err"], *per_class]
        lines.append(",".join(f"{float(c):.15g}" for c in [*cells, *(row.extra[k] for k in extra_keys)]))
    return "\n".join(lines) + "\n"
