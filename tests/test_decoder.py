import itertools
import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import binom

from framesync import (
    AwgnSpec,
    Dmc,
    QuantizationGrid,
    SimulationInfeasible,
    StreamExhausted,
    SyncWord,
    TrialConfig,
    TypicalityDecoder,
    bsc,
    bsc_scaling_rows,
    build_sync_word,
    dmc_new,
    energy_scaling_rows,
    monte_carlo,
    quantize_to_dmc,
    quantized_awgn,
    run_decoder,
    scaling_to_csv,
    simulate_trial,
    single_rows,
    sync_threshold,
    trial_rng,
    wilson_interval,
)
from framesync.channels import IndexOutOfRange
from framesync.cli import _config_rows, _load_preset, main
from framesync.decoder import (
    _SCREEN_SLACK,
    CERT_SLIP,
    CLASSES,
    TrialEngine,
    _log_binom_mass,
    _noise_window_log_bound,
    _philox_layout_known,
    _window_from_exponent,
)

from exact_oracle import (
    exact_error_probability_dp,
    exact_error_probability_enum,
    exact_no_declare_probability_dp,
)
from naive_trials import (
    LengthMismatch,
    empirical_joint,
    inverse_cdf_outputs,
    joint_counts,
    naive_class,
    naive_counts,
    naive_trial,
    typicality_distance,
    window_distances,
)
from closed_forms import bsc_threshold_closed_form
from small_configs import random_small_config


def word_from_bits(bits):
    return SyncWord(np.array(bits, dtype=np.int8), prefix_len=0, k=0)


def screen_bound(dec, stream):
    """|k / N - sum_y w_y reference[1, y]| of each window's screen sum k, the lower bound on its
    distance by which first_typical keeps the sums in dec._kept."""
    weights = dec._screen[0]
    return np.abs(dec._screen_sums(stream) / len(dec.word) - float(weights @ dec.reference[1]))


def exact_distances(dec, outputs):
    """The reference's distances of every window of each row of outputs."""
    return window_distances(dec.word.symbols, dec.channel.rows, dec.norm, np.atleast_2d(outputs))


class TestEmpiricalJoint:
    def test_single_cell(self):
        table = empirical_joint(np.array([1, 1, 1]), np.array([0, 0, 0]), 2, 2)
        assert table[1, 0] == 1.0
        assert table.sum() == 1.0

    def test_two_cells(self):
        table = empirical_joint(np.array([0, 1]), np.array([0, 1]), 2, 2)
        assert table[0, 0] == 0.5
        assert table[1, 1] == 0.5

    def test_counts_sum_to_word_length(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            w = rng.integers(0, 2, size=n)
            y = rng.integers(0, 3, size=n)
            counts = joint_counts(w, y, 2, 3)
            assert counts.sum() == n
            # marginal over outputs equals the word's symbol frequencies
            freq = counts.sum(axis=1) / n
            assert freq[1] == pytest.approx(w.mean(), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            joint_counts(np.array([0, 1]), np.array([0]), 2, 2)


class TestTypicalityDistance:
    def test_identical_tables(self):
        t = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert typicality_distance(t, t) == 0.0

    def test_single_cell_pair_deviation(self):
        a = np.array([[0.5, 0.0], [0.0, 0.5]])
        b = np.array([[0.3, 0.2], [0.0, 0.5]])
        assert typicality_distance(a, b, "linf") == pytest.approx(0.2, abs=1e-15)
        assert typicality_distance(a, b, "l1") == pytest.approx(0.4, abs=1e-15)

    def test_aligned_noiseless_window_is_exact(self):
        word = build_sync_word(21, 3)
        dec = TypicalityDecoder(word=word, channel=bsc(0.0), mu=0.01)
        emp = empirical_joint(word.symbols, word.symbols, 2, 2)
        assert typicality_distance(emp, dec.reference) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            typicality_distance(np.zeros((2, 2)), np.zeros((2, 3)))


class TestDecoderState:
    def test_reference_is_product_form(self):
        word = build_sync_word(21, 3)
        channel = bsc(0.1)
        dec = TypicalityDecoder(word=word, channel=channel, mu=0.05)
        n1 = word.symbols.sum()
        expected = np.array(
            [(21 - n1) / 21 * channel.rows[0], n1 / 21 * channel.rows[1]]
        )
        assert np.allclose(dec.reference, expected, atol=1e-15)
        assert dec.reference.sum() == pytest.approx(1.0, abs=1e-12)

    def test_default_mu(self):
        dec = TypicalityDecoder(word=build_sync_word(21, 3), channel=bsc(0.1))
        assert dec.mu == pytest.approx(0.05, abs=1e-15)

    def test_mu_must_be_positive(self):
        for mu in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TypicalityDecoder(word=build_sync_word(21, 3), channel=bsc(0.1), mu=mu)

    def test_word_needs_two_inputs(self):
        # the word's symbols 0 and 1 index channel rows x(0) and x(1)
        with pytest.raises(IndexOutOfRange):
            TypicalityDecoder(word=build_sync_word(21, 3), channel=dmc_new([[0.5, 0.5]]))
        dec = TypicalityDecoder(word=build_sync_word(21, 3), channel=dmc_new(np.full((3, 2), 0.5)))
        assert dec.reference.shape == (3, 2) and not dec.reference[2].any()

    def test_configs_compare_and_hash_by_value(self):
        def config(a=30, n=15, eps=0.1):
            return TrialConfig(a=a, word=build_sync_word(n, 2), channel=bsc(eps), mu=0.1)

        assert config() == config() and hash(config()) == hash(config())
        assert config() != config(a=31) and config() != config(n=14) and config() != config(eps=0.2)
        assert len({config(), config(), config(eps=0.2)}) == 2

    def test_decoders_compare_and_hash_by_value(self):
        # the reference array is derived, so it takes no part: == on it raised ValueError
        def decoder(n=15, eps=0.1, mu=None, norm="linf"):
            return TypicalityDecoder(word=build_sync_word(n, 2), channel=bsc(eps), mu=mu, norm=norm)

        assert decoder() == decoder() and hash(decoder()) == hash(decoder())
        assert decoder(mu=0.05) == decoder()  # the default mu is 0.1 / |Y|
        for other in (decoder(n=14), decoder(eps=0.2), decoder(mu=0.2), decoder(norm="l1")):
            assert decoder() != other
        assert len({decoder(), decoder(), decoder(norm="l1")}) == 2
        assert TrialConfig(a=30, word=build_sync_word(15, 2), channel=bsc(0.1)).decoder == decoder()

    def test_window_must_fit_a_float(self):
        word = build_sync_word(21, 3)
        for a in (0, 2**1023):
            with pytest.raises(ValueError):
                TrialConfig(a=a, word=word, channel=bsc(0.1))

    # each of these constructed, and failed only inside monte_carlo
    @pytest.mark.parametrize("bad, message", [
        ({"mu": -1.0}, "mu must be finite and > 0, got -1.0"),
        ({"mu": math.nan}, "mu must be finite and > 0, got nan"),
        ({"mu": math.inf}, "mu must be finite and > 0, got inf"),
        ({"norm": "l2"}, "unknown norm 'l2'"),
        ({"channel": dmc_new([[0.5, 0.5]])}, "the sync word needs inputs x(0) and x(1); the channel has 1"),
    ], ids=repr)
    def test_config_is_checked_when_it_is_built(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrialConfig(**{"a": 30, "word": build_sync_word(21, 3), "channel": bsc(0.1), **bad})

    def test_config_holds_its_decoder(self):
        cfg = TrialConfig(a=30, word=build_sync_word(21, 3), channel=bsc(0.1), mu=0.15, norm="l1")
        assert TrialEngine(cfg).config.decoder is cfg.decoder
        assert cfg.decoder == TypicalityDecoder(cfg.word, cfg.channel, 0.15, "l1")
        assert "decoder" not in repr(cfg)


class TestRunDecoder:
    def test_noiseless_alignment_detected(self):
        word = build_sync_word(7, 2)  # 0011111
        dec = TypicalityDecoder(word=word, channel=bsc(0.0), mu=0.01)
        v = 5
        stream = np.concatenate(
            [np.zeros(v - 1, dtype=np.int64), word.symbols, np.zeros(6, dtype=np.int64)]
        )
        assert run_decoder(dec, stream, scan_limit=6) == v
        # brute-force check that no earlier window is typical
        assert np.all(exact_distances(dec, stream[: v - 1 + 6])[0] > dec.mu)

    def test_huge_mu_fires_immediately(self):
        word = build_sync_word(7, 2)
        dec = TypicalityDecoder(word=word, channel=bsc(0.3), mu=1.0, norm="linf")
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 2, size=20)
        assert run_decoder(dec, stream, scan_limit=10) == 1

    def test_idle_only_stream_never_fires(self):
        word = build_sync_word(7, 2)
        dec = TypicalityDecoder(word=word, channel=bsc(0.0), mu=0.05)
        stream = np.zeros(30, dtype=np.int64)
        assert run_decoder(dec, stream, scan_limit=20) is None

    def test_stream_exhausted(self):
        word = build_sync_word(7, 2)
        dec = TypicalityDecoder(word=word, channel=bsc(0.0), mu=0.05)
        with pytest.raises(StreamExhausted):
            run_decoder(dec, np.zeros(10, dtype=np.int64), scan_limit=20)

    @pytest.mark.parametrize("norm", ["linf", "l1"])
    def test_stream_shorter_than_the_word(self, norm):
        # 0..N - 1 slots have no window: no screen sum, and run_decoder runs out of stream
        word = build_sync_word(21, 3)  # runs of x(1) up to its 14-slot tail, so pieces of 2, 4 and 8
        dec = TypicalityDecoder(word=word, channel=bsc(0.1), mu=0.1, norm=norm)
        for m in range(len(word)):
            stream = np.random.default_rng(m).integers(0, 2, size=m)
            assert screen_bound(dec, stream).shape == (0,) and dec._screen_sums(stream).dtype == np.int16
            with pytest.raises(StreamExhausted):
                run_decoder(dec, stream, scan_limit=1)

    def test_sequentiality_truncation(self):
        # rerunning on the prefix up to stop + N - 1 yields the same decision
        rng = np.random.default_rng(5)
        word = build_sync_word(21, 3)
        channel = bsc(0.05)
        dec = TypicalityDecoder(word=word, channel=channel, mu=0.08)
        for trial in range(20):
            v = int(rng.integers(1, 30))
            scan = 29 + 20
            x = np.zeros(scan + 20, dtype=np.int64)
            x[v - 1 : v - 1 + 21] = word.symbols
            stream = np.where(rng.random(len(x)) < 0.05, 1 - x, x)
            v_hat = run_decoder(dec, stream, scan_limit=scan)
            if v_hat is not None:
                truncated = stream[: v_hat + 21 - 1]
                assert run_decoder(dec, truncated, scan_limit=v_hat) == v_hat

    def test_scan_limit_below_one_rejected(self):
        dec = TypicalityDecoder(word=build_sync_word(7, 2), channel=bsc(0.0), mu=0.01)
        with pytest.raises(ValueError, match="scan limit must be >= 1, got 0"):
            run_decoder(dec, np.zeros(20, dtype=np.int64), scan_limit=0)

    def test_non_integer_outputs_rejected(self):
        # symbols are never rounded or truncated: a float stream is refused, even one of whole numbers
        word = build_sync_word(7, 2)
        dec = TypicalityDecoder(word=word, channel=bsc(0.0), mu=0.01)
        floats = [0.9, 1.5, 0.2, 1.99, 0.0, 1.0, 1.0, 1.0]
        for stream in (floats, np.array(floats), np.array(floats).round()):
            with pytest.raises(IndexOutOfRange):
                run_decoder(dec, stream, scan_limit=2)
        bools = np.concatenate([[0, 0], word.symbols, [0] * 5]).astype(bool)
        assert run_decoder(dec, bools, scan_limit=5) == 3
        with pytest.raises(ValueError):
            run_decoder(dec, bools.reshape(2, 7), scan_limit=2)


class TestSimulateTrial:
    def test_a1_noiseless_is_correct(self):
        word = build_sync_word(7, 2)
        cfg = TrialConfig(a=1, word=word, channel=bsc(0.0), mu=0.01)
        out = simulate_trial(cfg, trial_rng(0, 0))
        assert out.v_true == 1 and out.v_hat == 1 and out.klass == "Correct"
        assert out.stop_time == 7

    def test_degenerate_idle_word_fires_at_one(self):
        # an all-x(0) word is indistinguishable from idle slots
        word = word_from_bits([0, 0, 0])
        cfg = TrialConfig(a=8, word=word, channel=bsc(0.0), mu=0.01)
        for i in range(20):
            out = simulate_trial(cfg, trial_rng(3, i))
            assert out.v_hat == 1
            assert out.klass == naive_class(out.v_true, 1, 3)
            if out.v_true > 3:
                assert out.klass == "E1"

    def test_partition_is_total_and_consistent(self):
        rng = np.random.default_rng(17)
        for i in range(60):
            cfg = random_small_config(rng)
            out = simulate_trial(cfg, trial_rng(11, i))
            n = len(cfg.word)
            if out.v_hat is None:
                assert out.klass == "E3" and out.stop_time is None
            elif out.v_hat == out.v_true:
                assert out.klass == "Correct"
            elif out.v_true - n + 1 <= out.v_hat <= out.v_true - 1:
                assert out.klass == "E2"
            else:
                assert out.klass == "E1"
            assert 1 <= out.v_true <= cfg.a


class TestMonteCarlo:
    def test_noiseless_zero_error(self):
        word = build_sync_word(21, 3)
        cfg = TrialConfig(a=10, word=word, channel=bsc(0.0), mu=0.01)
        rep = monte_carlo(cfg, 500, master_seed=1)
        assert rep.p_err == 0.0
        assert rep.counts == (500, 0, 0, 0)

    def test_rates_partition_exactly(self):
        rng = np.random.default_rng(23)
        cfg = random_small_config(rng)
        rep = monte_carlo(cfg, 4000, master_seed=9)
        rates = rep.rates()
        assert list(rates) == ["p_err", "p_e1", "p_e2", "p_e3"]
        assert rep.p_err == rates["p_e1"] + rates["p_e2"] + rates["p_e3"]
        assert sum(rep.counts) == rep.trials and len(rep.counts) == len(CLASSES)

    def test_deterministic_across_workers(self):
        word = build_sync_word(14, 2)
        cfg = TrialConfig(a=30, word=word, channel=bsc(0.1), mu=0.15)
        rep1 = monte_carlo(cfg, 3000, master_seed=77, workers=1)
        rep2 = monte_carlo(cfg, 3000, master_seed=77, workers=2)
        rep3 = monte_carlo(cfg, 3000, master_seed=77, workers=3)
        assert rep1 == rep2 == rep3
        # skip mode, with the huge-A geometry kept in Python ints
        cfg = TrialConfig(a=int(round(math.exp(83.0))), word=build_sync_word(63, 4), channel=bsc(0.05), mu=0.05)
        reps = [monte_carlo(cfg, 1000, master_seed=77, workers=w) for w in (1, 2, 3)]
        assert reps[0] == reps[1] == reps[2]

    @pytest.mark.parametrize("workers, trials, pool", [(5000, 10, 4), (3, 2, 2), (2, 3000, 2), (7, 1, 1)])
    def test_pool_is_sized_to_the_work(self, monkeypatch, workers, trials, pool):
        # a forked pool of max_workers processes starts them all at the first submit: workers = 5000
        # forked 5000 processes for 10 trials. The fake runs each chunk inline and starts none.
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        cfg = TrialConfig(a=30, word=build_sync_word(14, 2), channel=bsc(0.1), mu=0.15)
        assert monte_carlo(cfg, trials, master_seed=77, workers=workers) == monte_carlo(cfg, trials, master_seed=77)
        assert sizes == [pool]

    # each of these ran or failed late: master_seed 1.5 ran as seed 1 and True as 1, while 2.5 and
    # 1.5 as a count reached a TypeError deep in numpy or range
    @pytest.mark.parametrize("name, value", [
        ("a", True), ("a", 1.5), ("a", np.float64(3.0)), ("trials", True), ("trials", 2.5),
        ("master_seed", 1.5), ("master_seed", True), ("master_seed", np.True_), ("master_seed", "1"),
        ("workers", True), ("workers", 1.5),
    ], ids=repr)
    def test_integer_inputs_refuse_other_values(self, name, value):
        word = build_sync_word(14, 2)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            if name == "a":
                TrialConfig(a=value, word=word, channel=bsc(0.1), mu=0.15)
            else:
                cfg = TrialConfig(a=30, word=word, channel=bsc(0.1), mu=0.15)
                monte_carlo(cfg, **{"trials": 20, "master_seed": 1, "workers": 1, name: value})

    def test_numpy_integers_run_as_ints(self):
        word = build_sync_word(14, 2)
        cfg = TrialConfig(a=np.int64(30), word=word, channel=bsc(0.1), mu=0.15)
        assert type(cfg.a) is int and cfg == TrialConfig(a=30, word=word, channel=bsc(0.1), mu=0.15)
        five, one = np.int64(5), np.int64(1)
        assert monte_carlo(cfg, 200 * five, five, one) == monte_carlo(cfg, 1000, 5, 1)

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.95 and hi == 1.0

    def test_wilson_interval_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            wilson_interval(0, 0)

    def test_wilson_interval_rejects_successes_outside_the_trials(self):
        # these died inside math.sqrt with "math domain error"
        for successes in (5, -1):
            with pytest.raises(ValueError, match=r"successes must be in \[0, trials\]"):
                wilson_interval(successes, 3)


class TestOperatingPoint:
    def test_pilot_point_mostly_correct(self):
        # BSC(0.05), N = 63, K = 4, mu = 0.05, A = round(exp(0.5 alpha N)):
        # the max-norm decoder synchronizes at least 90% of the time
        # (pilot value 0.914 at this seed).
        rows = bsc_scaling_rows(0.05, 4, [63], beta=0.5, mu=0.05, norm="linf")
        rep = monte_carlo(rows[0].config, 10_000, master_seed=20250807)
        assert rep.counts[0] / rep.trials >= 0.9


class TestSkipMode:
    def test_skip_certified_and_consistent_with_full(self):
        # moderate A simulated both ways; the estimates must agree statistically
        word = build_sync_word(21, 3)
        channel = bsc(0.05)
        cfg = TrialConfig(a=2000, word=word, channel=channel, mu=0.08, norm="l1")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("framesync.decoder.FULL_SIM_MAX_A", 10**6)
            full = monte_carlo(cfg, 1500, master_seed=3)
            patch.setattr("framesync.decoder.FULL_SIM_MAX_A", 1)
            skip = monte_carlo(cfg, 1500, master_seed=3)
        assert abs(full.p_err - skip.p_err) < 0.05

    def test_full_sim_max_a_is_read_when_the_engine_is_built(self):
        # the switch is the module constant as it stands when TrialEngine or monte_carlo runs
        cfg = TrialConfig(a=2000, word=build_sync_word(21, 3), channel=bsc(0.05), mu=0.08, norm="l1")
        for full_max_a, full in ((1999, False), (2000, True)):
            engine = engine_at(cfg, full_max_a)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("framesync.decoder.FULL_SIM_MAX_A", full_max_a)
                report = monte_carlo(cfg, 300, master_seed=5)
            assert engine.full_mode is full
            assert report.counts == tuple(engine.run_batch(5, 0, 300).values())

    def test_huge_a_runs_via_skip(self):
        word = build_sync_word(63, 4)
        cfg = TrialConfig(
            a=int(round(math.exp(83.0))), word=word, channel=bsc(0.05), mu=0.05
        )
        rep = monte_carlo(cfg, 200, master_seed=4)
        assert rep.trials == 200
        assert rep.p_err < 0.5

    def test_uncertifiable_raises(self):
        # a huge mu makes pure-noise windows typical, so skipping is unsound
        word = build_sync_word(7, 2)
        cfg = TrialConfig(a=10**9, word=word, channel=bsc(0.4), mu=0.9)
        with pytest.raises(SimulationInfeasible):
            simulate_trial(cfg, trial_rng(0, 0))

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_refusal_states_the_decoders_reach(self, norm):
        # the bsc_scaling word and channel: an A just below the stated reach certifies, 1% above refuses
        def engine(a):
            return TrialEngine(TrialConfig(a=a, word=build_sync_word(63, 4), channel=bsc(0.05), mu=0.05, norm=norm))

        with pytest.raises(SimulationInfeasible) as refusal:
            engine(10**80)
        reach = float(re.fullmatch(r".*; skip mode certifies A up to (\S+)", str(refusal.value)).group(1))
        assert 1e40 < reach < 1e60
        assert not engine(int(reach * (1 - 1e-6))).full_mode
        with pytest.raises(SimulationInfeasible):
            engine(int(reach * 1.01))

    def test_refusal_with_no_reach(self):
        # ln P(idle window typical) near 0: no A, however small, certifies the skip
        cfg = TrialConfig(a=1, word=build_sync_word(7, 2), channel=bsc(0.4), mu=0.9)
        with pytest.raises(SimulationInfeasible, match="; skip mode certifies no A$"):
            engine_at(cfg, 0)

    def test_refusal_at_the_largest_window_states_a_finite_bound(self):
        # ln(2A + 2N) of the exact integer: 2.0 * float(A) overflowed to inf, and the bound read exp(inf)
        cfg = TrialConfig(a=2**1023 - 1, word=build_sync_word(7, 2), channel=bsc(0.4), mu=0.9)
        with pytest.raises(SimulationInfeasible) as refusal:
            TrialEngine(cfg)
        bound = float(re.search(r"firing bound exp\((\S+)\)", str(refusal.value)).group(1))
        assert bound == pytest.approx(math.log(2) * 1024, abs=0.1)


def mp_log_binom_mass(n, q, lo, hi):
    """ln P(lo <= X <= hi) for X ~ Binomial(n, q), summed at 50 digits."""
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return -math.inf
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        term = mpmath.binomial(n, lo) * q**lo * (1 - q) ** (n - lo)
        total = term
        for k in range(lo, hi):
            term = term * (n - k) / (k + 1) * q / (1 - q)
            total += term
        return float(mpmath.log(total)) if total > 0 else -math.inf


def scipy_noise_window_log_bound(decoder):
    """The certificate's bound from its definition: each cell's band is the counts c with
    |c / N - reference| <= mu, taken here, and its mass comes from scipy.stats.binom."""
    wi, n = decoder.word.symbols, len(decoder.word)
    best = 0.0
    for x in (0, 1):
        nx = int(np.count_nonzero(wi == x))
        for y, q in enumerate(decoder.channel.rows[0]):
            band = [c for c in range(nx + 1) if abs(c / n - decoder.reference[x, y]) <= decoder.mu]
            if not band:
                return -math.inf
            # the band's mass as the difference of two tails on its side of the mean, in logs
            if band[0] > nx * q:
                head, rest = binom.logsf(band[0] - 1, nx, q), binom.logsf(band[-1], nx, q)
            else:
                head, rest = binom.logcdf(band[-1], nx, q), binom.logcdf(band[0] - 1, nx, q)
            best = min(best, float(head + np.log1p(-np.exp(rest - head))))
    return best


class TestCertificateTail:
    """The skip certificate's binomial tail against mpmath (50 digits) and scipy.stats.binom."""

    @pytest.mark.parametrize("n", [1, 2, 7, 63, 256, 1000])
    def test_tails_match_mpmath_and_scipy(self, n):
        for q in (1e-300, 1e-12, 1e-3, 0.034, 0.5, 0.97, 1 - 1e-12):
            for k in sorted({0, 1, int(n * q), n // 2, n - 1, n}):
                for lo, hi, theirs in (
                    (k, n, binom.logsf(k - 1, n, q)),
                    (0, k, binom.logcdf(k, n, q)),
                ):
                    got, exact = _log_binom_mass(n, q, lo, hi), mp_log_binom_mass(n, q, lo, hi)
                    if exact > -700.0:
                        assert got == pytest.approx(exact, rel=0, abs=1e-12), (n, q, lo, hi)
                        assert got == pytest.approx(float(theirs), rel=0, abs=1e-12), (n, q, lo, hi)
                    else:  # beyond the doubles scipy's tail is held in; the log sum keeps its digits
                        assert got == pytest.approx(exact, rel=1e-14, abs=0), (n, q, lo, hi)

    def test_far_tail_where_scipy_drifts(self):
        # binom.logsf reads -643.1167 here, 0.7 above the 50-digit value
        got = _log_binom_mass(256, 0.034, 220, 256)
        assert got == pytest.approx(mp_log_binom_mass(256, 0.034, 220, 256), rel=0, abs=1e-12)
        assert got < float(binom.logsf(219, 256, 0.034)) - 0.5

    @pytest.mark.parametrize("n", [1, 5, 256])
    def test_degenerate_q_and_ranges_are_exact(self, n):
        assert _log_binom_mass(n, 0.0, 0, 0) == 0.0
        assert _log_binom_mass(n, 0.0, 0, n) == 0.0
        assert _log_binom_mass(n, 0.0, 1, n) == -math.inf
        assert _log_binom_mass(n, 1.0, n, n) == 0.0
        assert _log_binom_mass(n, 1.0, -3, n + 3) == 0.0
        assert _log_binom_mass(n, 1.0, 0, n - 1) == -math.inf
        for q in (0.0, 0.3, 1.0):
            assert _log_binom_mass(n, q, n + 1, n + 5) == -math.inf
            assert _log_binom_mass(n, q, -5, -1) == -math.inf
            assert _log_binom_mass(n, q, 3, 2) == -math.inf
        assert _log_binom_mass(n, 0.3, 0, n) == pytest.approx(0.0, abs=1e-12)

    def test_band_is_the_folds_at_a_float_edge(self):
        # N = 45, mu = 0.1: the fold accepts count 2 in cell (x(0), y = 0), |2 / 45 - reference| = 0.1,
        # where ceil(N (reference - mu)) = ceil(2.0000000000000004) = 3 would leave it out
        dec = TypicalityDecoder(build_sync_word(45, 3), dmc_new([[0.8125, 0.1875], [0.5, 0.5]]), mu=0.1)
        assert dec._terms[0, 2] <= dec.mu and math.ceil(45 * (dec.reference[0, 0] - dec.mu)) == 3
        bands = []

        def spy(n, q, lo, hi):
            bands.append((n, q, lo, hi))
            return _log_binom_mass(n, q, lo, hi)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("framesync.decoder._log_binom_mass", spy)
            _noise_window_log_bound(dec)
        # the x(0) cells are the ones with 8 slots; output 0 has idle probability 0.8125
        ((lo, hi),) = [(lo, hi) for n, q, lo, hi in bands if (n, q) == (8, 0.8125)]
        assert np.count_nonzero(dec.word.symbols == 0) == 8 and lo == 2 <= hi

    @pytest.mark.parametrize("preset", ["single_bsc", "bsc_scaling", "energy_scaling"])
    def test_preset_rows_keep_their_decisions(self, preset):
        _, rows, _ = _config_rows(_load_preset(preset))
        for row in rows:
            dec = row.config.decoder
            ours, theirs = _noise_window_log_bound(dec), scipy_noise_window_log_bound(dec)
            assert ours == pytest.approx(theirs, rel=1e-14, abs=0)
            n_far = math.log(2.0 * float(row.a) + 2.0 * row.n)
            assert (n_far + ours > math.log(CERT_SLIP)) == (n_far + theirs > math.log(CERT_SLIP))


def count_vectors(m: int, q: np.ndarray):
    """Every count vector of m draws over len(q) outputs, with its multinomial probability under q."""
    for c in itertools.product(range(m + 1), repeat=len(q)):
        if sum(c) == m:
            ways = math.factorial(m) // math.prod(math.factorial(k) for k in c)
            yield c, ways * math.prod(float(p) ** k for p, k in zip(q, c))


def idle_typical_probability(decoder) -> float:
    """Exact P(a pure-idle window is typical).

    The counts of the x(0) cells and of the x(1) cells are independent multinomials over
    Q(.|x(0)). Each count pair is laid out as one window and decided by the decoder's own
    exact distance.
    """
    wi, q = decoder.word.symbols, decoder.channel.rows[0]
    spots = [np.flatnonzero(wi == x) for x in (0, 1)]
    pairs = list(itertools.product(*(count_vectors(len(s), q) for s in spots)))
    windows = np.zeros((len(pairs), len(wi)), dtype=np.uint8)
    for row, pair in zip(windows, pairs):
        for s, (c, _) in zip(spots, pair):
            row[s] = np.repeat(np.arange(len(q)), c)
    typical = decoder._fold(windows.ravel(), len(wi) * np.arange(len(pairs))) <= decoder.mu
    return math.fsum(p0 * p1 for ((_, p0), (_, p1)), hit in zip(pairs, typical) if hit)


class TestCertificateSoundness:
    """The skip certificate's bound is at least the exact chance that a pure-idle window fires."""

    @pytest.mark.parametrize("norm", ["linf", "l1"])
    @pytest.mark.parametrize("n_out", [2, 3, 4])
    def test_bound_covers_exact_idle_probability(self, n_out, norm):
        rng = np.random.default_rng(1000 * n_out + len(norm))
        for n in range(2, 11):
            for _ in range(6):
                weights = rng.integers(0, 5, size=(2, n_out)) + np.eye(2, n_out, dtype=int)
                channel = dmc_new(weights / weights.sum(axis=1, keepdims=True), normalize=True)
                word = word_from_bits(rng.integers(0, 2, n))
                ref = TypicalityDecoder(word, channel, mu=1.0, norm=norm).reference
                # mu at a cell's band edge |k / N - reference|, one float step either side, or drawn
                x, y, k = rng.integers(0, 2), rng.integers(0, n_out), rng.integers(0, n + 1)
                edge = abs(k / n - ref[x, y])
                for mu in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), rng.uniform(0.01, 0.5)):
                    if mu <= 0.0:
                        continue
                    dec = TypicalityDecoder(word, channel, mu=float(mu), norm=norm)
                    exact = idle_typical_probability(dec)
                    if exact > 0.0:
                        assert _noise_window_log_bound(dec) >= math.log(exact) - 1e-12, (n, channel, word, mu)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 300),
        a=st.one_of(st.integers(1, 10**6), st.integers(2**62, 2**1000)),
        u0=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    def test_certificate_counts_every_window_skip_mode_leaves_out(self, n, a, u0):
        # of the A + N - 1 windows, skip mode scans min(v, N) - 1 + N; the certificate charges 2A + 2N
        cfg = TrialConfig(a=a, word=word_from_bits([1] * n), channel=bsc(0.0), mu=0.05)
        engine = engine_at(cfg, 0)  # idle noise never fires on BSC(0): certified at any A
        u0 = np.array([*u0, 0.0, np.nextafter(1.0, 0.0)])
        for u, windows in zip(u0, engine._geometry(u0)[1].tolist()):
            v = min(int(u * float(a)) + 1, a)
            left_out = a + n - 1 - windows
            assert left_out == a - min(v, n)
            assert 0 <= left_out <= 2 * a + 2 * n
            assert math.log(max(left_out, 1)) <= math.log(2 * a + 2 * n)


class TestExactOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_dp_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng, a_max=5, n_max=3)
        p_dp = exact_error_probability_dp(cfg)
        p_enum = exact_error_probability_enum(cfg)
        assert p_dp == pytest.approx(p_enum, abs=1e-12)

    def test_monte_carlo_near_exact(self):
        rng = np.random.default_rng(100)
        for i in range(5):
            cfg = random_small_config(rng)
            exact = exact_error_probability_dp(cfg)
            rep = monte_carlo(cfg, 20_000, master_seed=1000 + i)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / 20_000)
            assert abs(rep.p_err - exact) <= 5 * sigma + 1e-9

    def test_miss_rate_monotone_in_mu(self):
        word = word_from_bits([1, 0, 1])
        base = dict(a=4, word=word, channel=bsc(0.2))
        prev = None
        for mu in (0.05, 0.15, 0.3, 0.5, 0.8):
            cfg = TrialConfig(mu=mu, **base)
            p3 = exact_no_declare_probability_dp(cfg)
            if prev is not None:
                assert p3 <= prev + 1e-12
            prev = p3


class TestScaling:
    def test_a_equals_one_when_exponent_tiny(self):
        rows = bsc_scaling_rows(0.05, 3, [21], beta=1e-9, mu=0.1)
        assert rows[0].a == 1

    def test_bsc_rows_window_formula(self):
        rows = bsc_scaling_rows(0.05, 4, [63, 127], beta=0.5, mu=0.05)
        alpha = bsc_threshold_closed_form(0.05)
        for row in rows:
            assert row.a == int(round(math.exp(0.5 * alpha * row.n)))

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("n, k", [(15, 2), (63, 4)])
    def test_bsc_rows_are_single_rows_over_the_bsc(self, capsys, eps, n, k):
        # bsc_scaling took alpha from bsc_threshold_closed_form, a last bit off sync_threshold at
        # eps = 0.1: A = 1114066814722353584406528 where single mode gave 1114066814722337880932352
        (row,) = bsc_scaling_rows(eps, k, [n], beta=0.5, mu=0.05)
        (twin,) = single_rows(bsc(eps), n, k, 0.05, beta=0.5)
        assert row.alpha == twin.alpha and row.a == twin.a
        assert (row.config.a, row.config.mu, row.config.norm) == (twin.config.a, twin.config.mu, twin.config.norm)
        assert np.array_equal(row.config.word.symbols, twin.config.word.symbols)
        assert np.array_equal(row.config.channel.rows, twin.config.channel.rows)
        assert main(["threshold", "--bsc", repr(eps)]) == 0
        assert json.loads(capsys.readouterr().out)["alpha_nats"] == row.alpha

    def test_energy_rows_carry_feasibility(self):
        rows = energy_scaling_rows(24.0, 1.0, n_list=[32, 64], bins=6)
        for row in rows:
            assert row.a == int(round(math.exp(6.0)))
            assert row.extra["feasibility_threshold"] == pytest.approx(
                math.exp(12.0)
            )
            assert row.extra["power"] == pytest.approx(24.0 / row.n)

    def test_feasibility_threshold_is_infinite_only_past_the_largest_double(self):
        # E / (2 sigma^2) = 702 read as inf under the old cut at 700
        (row,) = energy_scaling_rows(1404.0, n_list=[255])
        assert row.extra["feasibility_threshold"] == math.exp(702.0)
        (row,) = energy_scaling_rows(1424.0, n_list=[255])
        assert row.extra["feasibility_threshold"] == math.inf

    @pytest.mark.parametrize("ln_a", [-math.inf, 0.0, 699.9, 700.0, 703.08, 709.08, 709.1, 709.79, 1355.0,
                                      math.inf, math.nan])
    def test_window_from_exponent_is_bounded_by_the_config_alone(self, ln_a):
        # A is round(e^x) for TrialConfig to accept, or a ValueError that names NaN, the overflow of
        # e^x or TrialConfig's 2^1023 ceiling; never an OverflowError
        try:
            a = _window_from_exponent(ln_a)
            TrialConfig(a=a, word=build_sync_word(7, 2), channel=bsc(0.1))
        except ValueError as exc:  # an OverflowError is no ValueError: it fails the test
            assert re.search(r"\(NaN\)|overflows|2\^1023", str(exc)), ln_a
            assert math.isnan(ln_a) or ln_a > math.log(2.0**1023), ln_a
        else:
            assert a == max(1, round(math.exp(ln_a))) and ln_a < math.log(2.0**1023)

    def test_single_row_window(self):
        channel = quantized_awgn(AwgnSpec(power=4.0, noise_var=1.0), 8)
        alpha = sync_threshold(channel).alpha
        (row,) = single_rows(channel, 21, 3, beta=0.5)
        assert row.a == int(round(math.exp(0.5 * alpha * 21))) and row.alpha == alpha
        assert single_rows(channel, 21, 3, a=7, beta=0.5)[0].a == 7
        with pytest.raises(ValueError):
            single_rows(channel, 21, 3)

    def test_energy_rows_validate_before_dividing(self):
        for sigma2 in (0.0, math.nan):
            with pytest.raises(ValueError):
                energy_scaling_rows(32.0, sigma2, n_list=[32])
        with pytest.raises(ValueError):
            energy_scaling_rows(32.0, 1.0, n_list=[0])

    def test_row_builders_call_their_helpers_through_the_home_modules(self, monkeypatch):
        # perfbench/tracing.py times build_sync_word and sync_threshold by wrapping these two names
        import framesync.sequences
        import framesync.thresholds

        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(framesync.sequences, "build_sync_word")
        counting(framesync.thresholds, "sync_threshold")
        for build, args, kwargs, wants in (
            (single_rows, (bsc(0.1), 21, 3), dict(a=7), {"build_sync_word", "sync_threshold"}),
            (bsc_scaling_rows, (0.1, 3, [21]), dict(beta=0.5, mu=0.1), {"build_sync_word", "sync_threshold"}),
            (energy_scaling_rows, (24.0, 1.0), dict(n_list=[32]), {"build_sync_word", "sync_threshold"}),
        ):
            calls.clear()
            build(*args, **kwargs)
            assert wants <= set(calls), build.__name__

    def test_csv_shape_and_determinism(self):
        rows = bsc_scaling_rows(0.1, 2, [14, 30], beta=0.2, mu=0.2, norm="l1")
        res1 = [(row, monte_carlo(row.config, 400, master_seed=8)) for row in rows]
        res2 = [(row, monte_carlo(row.config, 400, master_seed=8, workers=2)) for row in rows]
        csv1, csv2 = scaling_to_csv(res1), scaling_to_csv(res2)
        assert csv1 == csv2
        lines = csv1.strip().splitlines()
        assert lines[0] == "n,a,alpha,p_err,ci_lo,ci_hi,p_e1,p_e2,p_e3"
        assert len(lines) == 3


PROPERTY = settings(
    max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much]
)


@st.composite
def channels(draw, noisy=True):
    """BSC, quantized AWGN with 3-8 outputs, or a channel past 256 outputs (uint16 symbols);
    near noiseless unless noisy."""
    kind = draw(st.sampled_from(["bsc", "awgn", "wide"]))
    if kind == "bsc":
        return bsc(draw(st.floats(0.0, 0.45 if noisy else 0.01)))
    if kind == "wide":
        # x(0) on the first output and x(1) on the last, the crossover mass spread over all
        n_out, eps = draw(st.integers(257, 400)), draw(st.floats(0.0, 0.45 if noisy else 0.01))
        rows = np.full((2, n_out), eps / n_out)
        rows[0, 0] += 1.0 - eps
        rows[1, -1] += 1.0 - eps
        return dmc_new(rows, normalize=True)
    power = draw(st.floats(0.5, 9.0) if noisy else st.floats(36.0, 64.0))
    return quantized_awgn(AwgnSpec(power=power, noise_var=1.0), draw(st.integers(3, 8)))


@st.composite
def trial_configs(draw, n_range=(2, 8), a_max=40, noisy=True):
    n = draw(st.integers(*n_range))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return TrialConfig(
        a=draw(st.integers(1, a_max)),
        word=word_from_bits(bits),
        channel=draw(channels(noisy)),
        mu=draw(st.floats(0.02, 0.8)),
        norm=draw(st.sampled_from(["linf", "l1"])),
    )


def engine_at(cfg, full_max_a):
    """TrialEngine(cfg) built while FULL_SIM_MAX_A is full_max_a."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("framesync.decoder.FULL_SIM_MAX_A", full_max_a)
        return TrialEngine(cfg)


def engine_or_skip(cfg, full_max_a):
    try:
        return engine_at(cfg, full_max_a)
    except SimulationInfeasible:
        assume(False)


@st.composite
def output_blocks(draw):
    """A decoder over a random 2-input table with 2-8 outputs, words of one symbol included,
    and a block of its outputs: rows of random outputs around the word sent through the channel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n_out = draw(st.integers(2, 8))
    rows = rng.dirichlet(np.full(n_out, draw(st.sampled_from([0.3, 1.0, 5.0]))), size=2)
    n = draw(st.integers(1, 12))
    bits = draw(st.one_of(st.just([0] * n), st.just([1] * n), st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    dec = TypicalityDecoder(
        word=word_from_bits(bits), channel=Dmc(rows), mu=0.5, norm=draw(st.sampled_from(["linf", "l1"]))
    )
    m, slots = draw(st.integers(1, 4)), n + draw(st.integers(0, 30))
    outputs = rng.integers(0, n_out, size=(m, slots))
    for row, at in zip(outputs, rng.integers(0, slots - n + 1, size=m)):
        row[at : at + n] = inverse_cdf_outputs(rows, dec.word.symbols, rng.random(n))
    return dec, outputs


@st.composite
def run_words(draw):
    """Bits whose runs of x(1) have 2^j - 1, 2^j and 2^j + 1 slots, or one slot, between runs of
    x(0); the word may end in an all-x(1) tail, like build_sync_word's."""
    lengths = st.sampled_from([1, *(2**j + d for j in range(1, 7) for d in (-1, 0, 1))])
    bits = [0] * draw(st.integers(0, 2))
    for ones in draw(st.lists(lengths, min_size=1, max_size=5)):
        bits += [1] * ones + [0] * draw(st.integers(1, 3))
    return bits + [1] * draw(st.sampled_from([0, 1, 7, 8, 31, 64, 65]))


class TestWindowScreen:
    """The screen bound against the exact distance, and the screened decision against the unscreened one."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bits=run_words(), n_out=st.sampled_from([2, 8]), norm=st.sampled_from(["linf", "l1"]),
           extra=st.integers(0, 300), seed=st.integers(0, 2**32))
    def test_screen_sums_are_window_dot_products(self, bits, n_out, norm, extra, seed):
        # the doubling screen against each window's int64 dot product of its weights with the word
        rng = np.random.default_rng(seed)
        dec = TypicalityDecoder(word=word_from_bits(bits), channel=Dmc(rng.dirichlet(np.ones(n_out), size=2)),
                                mu=0.1, norm=norm)
        weights, n = dec._screen[0], len(bits)
        stream = rng.integers(0, n_out, size=n + extra)
        sums = dec._screen_sums(stream)
        assert sums.dtype == weights.dtype
        assert np.array_equal(sums, np.take(weights, sliding_window_view(stream, n)).astype(np.int64) @ bits)

    @PROPERTY
    @given(block=output_blocks())
    def test_bound_never_exceeds_distance(self, block):
        dec, outputs = block
        dists = exact_distances(dec, outputs)
        starts = (outputs.shape[1] * np.arange(len(outputs))[:, None] + np.arange(dists.shape[1])).ravel()
        dists = dists.ravel()
        # the bound is tight for some windows (binary outputs), so allow rounding; the engine
        # prunes only past 1e-9
        assert np.all(screen_bound(dec, outputs.ravel())[starts] <= dists + 1e-12)
        assert np.array_equal(dec._fold(outputs.ravel(), starts), dists)

    @PROPERTY
    @given(block=output_blocks(), pick=st.integers(0, 10**6), limit=st.integers(0, 40))
    def test_first_typical_is_first_window_within_mu(self, block, pick, limit):
        dec, outputs = block
        dists = exact_distances(dec, outputs)
        width = dists.shape[1]
        # mu at one window's exact distance puts that window on the boundary
        mu = float(dists.flat[pick % dists.size])
        assume(mu > 0.0)
        dec = TypicalityDecoder(word=dec.word, channel=dec.channel, mu=mu, norm=dec.norm)
        n_windows = np.minimum(np.arange(len(outputs)) + limit, width)
        typical = (dists <= mu) & (np.arange(width) < n_windows[:, None])
        expected = np.where(typical.any(axis=1), typical.argmax(axis=1), -1)
        assert np.array_equal(dec.first_typical(outputs.ravel(), outputs.shape[1], n_windows), expected)

    @PROPERTY
    @given(block=output_blocks(), pick=st.integers(0, 10**6), step=st.sampled_from([-1, 0, 1]))
    def test_tables_match_the_float_expressions(self, block, pick, step):
        # mu + _SCREEN_SLACK on one screen sum's bound |k / N - c|, or one float step either side
        dec, _ = block
        n = len(dec.word)
        weighted_ref = float(dec._screen[0] @ dec.reference[1])
        bounds = [abs(k / n - weighted_ref) for k in range(-n, n + 1)]
        mu = bounds[pick % len(bounds)] - _SCREEN_SLACK
        mu = float(np.nextafter(mu, step * math.inf)) if step else mu
        assume(mu > 0.0)
        dec = TypicalityDecoder(word=dec.word, channel=dec.channel, mu=mu, norm=dec.norm)
        lo, hi = dec._kept or (1, 0)
        assert [lo <= k <= hi for k in range(-n, n + 1)] == [b <= mu + _SCREEN_SLACK for b in bounds]
        cells = dec.reference[:2].ravel()
        assert np.array_equal(dec._terms, [[abs(c / n - r) for c in range(n + 1)] for r in cells])

    @PROPERTY
    @given(block=output_blocks())
    def test_empty_screen_interval_folds_nothing(self, block):
        # mu below every screen bound: no sum is kept, and indeed no window is typical
        dec, outputs = block
        n = len(dec.word)
        least = min(abs(k / n - float(dec._screen[0] @ dec.reference[1])) for k in range(-n, n + 1))
        assume(least > 2 * _SCREEN_SLACK)
        dec = TypicalityDecoder(word=dec.word, channel=dec.channel, mu=(least - _SCREEN_SLACK) / 2, norm=dec.norm)
        assert dec._kept is None
        dists = exact_distances(dec, outputs)
        assert np.all(dists > dec.mu)
        n_windows = np.full(len(outputs), dists.shape[1])
        assert np.array_equal(dec.first_typical(outputs.ravel(), outputs.shape[1], n_windows), np.full(len(outputs), -1))

    @PROPERTY
    @given(block=output_blocks(), pad=st.integers(0, 2), into=st.integers(1, 11), seed=st.integers(0, 2**32))
    def test_word_across_two_rows_is_no_window(self, block, pad, into, seed):
        # the word sent through the channel from the end of a row into the padding slots after it,
        # or on into the next row, with mu at that window's distance: a window no row may see
        dec, outputs = block
        (m, slots), n = outputs.shape, len(dec.word)
        assume(m >= 2 and n >= 2)
        rng = np.random.default_rng(seed)
        stride, row = slots + pad, int(rng.integers(0, m - 1))
        flat = np.concatenate([outputs, rng.integers(0, dec.channel.n_outputs, (m, pad))], axis=1).ravel()
        at = row * stride + slots - n + 1 + (into - 1) % (n - 1)
        flat[at : at + n] = inverse_cdf_outputs(dec.channel.rows, dec.word.symbols, rng.random(n))
        mu = float(exact_distances(dec, flat[at : at + n])[0, 0])
        dec = TypicalityDecoder(word=dec.word, channel=dec.channel, mu=mu, norm=dec.norm)
        typical = exact_distances(dec, flat.reshape(m, stride)[:, :slots]) <= mu
        # only a row with no typical window of its own would report the planted one
        assume(mu > 0.0 and not typical[row].any())
        expected = np.where(typical.any(axis=1), typical.argmax(axis=1), -1)
        assert np.array_equal(dec.first_typical(flat, stride, np.full(m, slots - n + 1)), expected)

    @PROPERTY
    @given(block=output_blocks(), pad=st.integers(0, 2), limit=st.integers(0, 40), mu=st.floats(0.01, 0.5))
    def test_fold_sees_exactly_the_screened_windows(self, block, pad, limit, mu):
        # the survivors are the scanned windows in their rows whose screen sum lies in [lo, hi],
        # screen sums taken here window by window in int64
        dec, outputs = block
        (m, slots), n = outputs.shape, len(dec.word)
        dec = TypicalityDecoder(word=dec.word, channel=dec.channel, mu=mu, norm=dec.norm)
        assume(dec._kept is not None)
        lo, hi = dec._kept
        stride = slots + pad
        flat = np.concatenate([outputs, outputs[:, :pad]], axis=1).ravel()
        n_windows = np.minimum(np.arange(m) + limit, slots - n + 1)
        sums = np.take(dec._screen[0], sliding_window_view(flat, n)).astype(np.int64) @ dec.word.symbols
        expected = [r * stride + s for r in range(m) for s in range(n_windows[r]) if lo <= sums[r * stride + s] <= hi]
        folded, fold = [], TypicalityDecoder._fold

        def spy(self, stream, starts):
            folded.append(starts)
            return fold(self, stream, starts)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TypicalityDecoder, "_fold", spy)
            dec.first_typical(flat, stride, n_windows)
        assert np.array_equal(np.concatenate(folded), expected)

    @PROPERTY
    @given(cfg=trial_configs(), seed=st.integers(0, 2**32), m=st.integers(1, 6))
    def test_engine_sampler_matches_inverse_cdf_outputs(self, cfg, seed, m):
        # rows of a flat block one slot apart, the slot after each segment sent through x(0)
        engine, n = TrialEngine(cfg), len(cfg.word)
        rng = np.random.default_rng(seed)
        uniforms = rng.random((m, engine.segment + 1))
        offset = rng.integers(0, engine.segment - n + 1, size=m)
        x = np.zeros((m, engine.segment + 1), dtype=np.int64)
        for row, at in zip(x, offset):
            row[at : at + n] = cfg.word.symbols
        expected = inverse_cdf_outputs(cfg.channel.rows, x, uniforms)
        assert np.array_equal(engine._outputs(uniforms.ravel(), engine.segment + 1, offset), expected.ravel())


class TestEngineProperties:
    """The batched engine against the naive per-trial reference in naive_trials.py."""

    @PROPERTY
    @given(cfg=trial_configs(), seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 10**6))
    def test_full_mode_counts_match_naive(self, cfg, seed, lo):
        engine = TrialEngine(cfg)
        assert engine.full_mode
        assert engine.run_batch(seed, lo, lo + 150) == naive_counts(cfg, seed, lo, lo + 150, True)

    @PROPERTY
    @given(cfg=trial_configs(n_range=(8, 20), a_max=60, noisy=False), seed=st.integers(0, 2**32))
    def test_forced_skip_mode_counts_match_naive(self, cfg, seed):
        engine = engine_or_skip(cfg, 0)
        assert not engine.full_mode
        assert engine.run_batch(seed, 0, 150) == naive_counts(cfg, seed, 0, 150, False)

    @PROPERTY
    @given(cfg=trial_configs(), skip=st.booleans(), seed=st.integers(0, 2**32))
    def test_batched_equals_scalar(self, cfg, skip, seed):
        # run() on trial_rng(seed, i) is trial i of run_batch, and draws and decides as the reference
        engine = engine_or_skip(cfg, 0 if skip else cfg.a)
        scalar = dict.fromkeys(("Correct", "E1", "E2", "E3"), 0)
        for i in range(20):
            rng, ref_rng = trial_rng(seed, i), trial_rng(seed, i)
            out = engine.run(rng)
            scalar[out.klass] += 1
            assert (out.v_true, out.v_hat) == naive_trial(cfg, ref_rng, not skip)
            assert out.stop_time == (None if out.v_hat is None else out.v_hat + len(cfg.word) - 1)
            assert rng.random() == ref_rng.random()  # same number of draws
        assert engine.run_batch(seed, 0, 20) == scalar

    @pytest.mark.parametrize("block_slots", [1, 7, 2**15])
    @PROPERTY
    @given(
        cfg=trial_configs(),
        skip=st.booleans(),
        m=st.integers(1, 2500),
        cut=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_counts_split_invariant(self, block_slots, cfg, skip, m, cut, seed):
        # the counts of a split run at any block size are those of the whole run at the default one
        engine = engine_or_skip(cfg, 0 if skip else cfg.a)
        k = int(cut * m)
        whole = engine.run_batch(seed, 0, m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("framesync.decoder._BLOCK_SLOTS", block_slots)
            left, right = engine.run_batch(seed, 0, k), engine.run_batch(seed, k, m)
        assert whole == {c: left[c] + right[c] for c in whole}
        assert sum(whole.values()) == m

    @pytest.mark.parametrize("a, dtype", [(2**15 - 29, np.int16), (2**15 - 28, np.int32)])
    def test_screen_sums_switch_type_at_2_to_15_slots(self, a, dtype):
        # full-mode segments of 2^15 - 1 and 2^15 slots, all of the idle output (u = 0 draws output
        # 0 from either row); linf weighs it 1, so the stream's total weight is the segment length
        # and dtype is the narrowest type that holds it, int16 only below 2^15 slots. The int16
        # screen sums, each within [-N, N], must equal the window sums taken in dtype on both sides
        # of that edge, and the engine must count as the naive trials do
        cfg = TrialConfig(a=a, word=build_sync_word(15, 2), channel=bsc(0.02), mu=0.2)
        engine = engine_at(cfg, cfg.a)
        weights = engine.config.decoder._screen[0]
        outputs = engine._outputs(np.zeros(engine.segment), engine.segment, np.zeros(1, int))
        assert engine.full_mode and len(outputs) == a + 28 and not outputs.any()
        w = np.take(weights, outputs)
        assert weights.tolist() == [1, 0] and np.cumsum(w, dtype=dtype)[-1] == len(outputs)
        assert (np.cumsum(w, dtype=np.int16)[-1] < 0) == (dtype is np.int32)
        sums = engine.config.decoder._screen_sums(outputs)
        assert sums.dtype == np.int16
        assert np.array_equal(sums, sliding_window_view(w.astype(dtype), 15) @ cfg.word.symbols.astype(dtype))
        assert engine.run_batch(3, 0, 3) == naive_counts(cfg, 3, 0, 3, True)

    def test_screen_sums_wrap_past_2_to_16_slots(self):
        # a full-mode segment of 70 028 slots, more than 2^16 of them the idle output that linf
        # weighs 1, so the stream's total weight passes 2^15 and 2^16; the int16 screen sums, each
        # within [-N, N], must come out exact over a stream that long
        cfg = TrialConfig(a=70_000, word=build_sync_word(15, 2), channel=bsc(0.02), mu=0.2)
        engine = engine_at(cfg, cfg.a)
        assert engine.full_mode and engine.config.decoder._screen[0].tolist() == [1, 0]
        outputs = engine._outputs(np.random.default_rng(3).random(engine.segment), engine.segment, np.zeros(1, int))
        assert np.count_nonzero(outputs == 0) > 2**16
        sums = engine.config.decoder._screen_sums(outputs)
        assert sums.dtype == np.int16
        assert np.array_equal(sums, sliding_window_view(outputs == 0, 15) @ cfg.word.symbols)
        assert engine.run_batch(3, 0, 2) == naive_counts(cfg, 3, 0, 2, True)

    def test_screen_sums_int32_from_2_to_15_slots_per_word(self):
        # N = 131 070, 98 302 of its slots x(1): linf weighs the idle output 0, so an idle-heavy
        # window's screen sum passes 2^15 and only the int32 screen holds it
        word = build_sync_word(131_070, 2)
        dec = TypicalityDecoder(word=word, channel=bsc(0.02), mu=0.05)
        n, rng = len(word), np.random.default_rng(8)
        idle = inverse_cdf_outputs(dec.channel.rows, np.zeros(n + 80, dtype=np.int8), rng.random(n + 80))
        planted = idle.copy()
        planted[37 : 37 + n] = inverse_cdf_outputs(dec.channel.rows, word.symbols, rng.random(n))
        for stream in (idle, planted):
            sums = dec._screen_sums(stream)
            assert dec._screen[0].tolist() == [1, 0] and sums.dtype == np.int32
            w = np.take(dec._screen[0], stream).astype(np.int64)
            assert sums.tolist() == [int(w[p : p + n] @ word.symbols) for p in range(81)]
        assert dec._screen_sums(idle).min() >= 2**15
        assert run_decoder(dec, planted, scan_limit=81) == 38

    @pytest.mark.parametrize("a, skip", [(30, False), (3, True), (400, True)])
    def test_run_draws_v_then_its_segment(self, a, skip):
        # run() leaves the generator 1 + windows + N - 1 doubles in: windows = A + N - 1 in
        # full mode, min(v, N) - 1 + N in skip mode (every v < N at A = 3)
        n = 15
        cfg = TrialConfig(a=a, word=build_sync_word(n, 2), channel=bsc(0.02), mu=0.1)
        engine = engine_at(cfg, 0 if skip else a)
        for i in range(20):
            rng, fresh = trial_rng(5, i), trial_rng(5, i)
            v = engine.run(rng).v_true
            fresh.random(1 + (min(v, n) - 1 + n if skip else a + n - 1) + n - 1)
            assert np.array_equal(rng.random(8), fresh.random(8))

    def test_huge_window_matches_naive(self):
        # A ~ e^83 is far past int64: v and the segment geometry must stay exact
        cfg = TrialConfig(
            a=int(round(math.exp(83.0))), word=build_sync_word(63, 4), channel=bsc(0.05), mu=0.05
        )
        engine = TrialEngine(cfg)
        assert engine.run_batch(6, 0, 60) == naive_counts(cfg, 6, 0, 60, False)
        for i in range(10):
            out = engine.run(trial_rng(6, i))
            assert (out.v_true, out.v_hat) == naive_trial(cfg, trial_rng(6, i), False)

    def test_window_views_agree(self):
        # run_decoder and the fold against the reference's window-by-window distances
        rng = np.random.default_rng(12)
        channel = quantize_to_dmc(AwgnSpec(power=2.0, noise_var=1.0), QuantizationGrid(-5.0, 6.5, 8))
        word = build_sync_word(21, 3)
        dec = TypicalityDecoder(word=word, channel=channel, mu=0.3, norm="l1")
        stream = rng.integers(0, 8, size=60)
        dists = exact_distances(dec, stream)[0, :40]
        fired = np.nonzero(dists <= dec.mu)[0]
        assert run_decoder(dec, stream, scan_limit=40) == (fired[0] + 1 if fired.size else None)
        # windows anywhere in a long stream
        long_stream = rng.integers(0, 8, size=(1, 40_000))
        starts = np.array(rng.integers(0, 40_000 - 20, size=50).tolist() + [0, 40_000 - 21])
        expected = [exact_distances(dec, long_stream[:, t : t + 21])[0, 0] for t in starts]
        assert np.array_equal(dec._fold(long_stream[0], starts), expected)
        # run_decoder over the whole long stream, with mu at the least distance so that the first
        # typical window lies deep in it
        dists = exact_distances(dec, long_stream)[0]
        assert np.all(screen_bound(dec, long_stream[0]) <= dists + 1e-12)
        dec = TypicalityDecoder(word=word, channel=channel, mu=float(dists.min()), norm="l1")
        assert run_decoder(dec, long_stream[0], scan_limit=dists.size) == int(dists.argmin()) + 1

    def test_out_of_range_outputs_rejected(self):
        dec = TypicalityDecoder(word=build_sync_word(7, 2), channel=bsc(0.1), mu=0.1)
        with pytest.raises(IndexOutOfRange):
            run_decoder(dec, np.array([0, 1, 2, 0, 1, 0, 1, 1]), scan_limit=2)

    def test_fold_memory_bounded_at_large_n(self):
        # mu = 0.9 keeps nearly every window past the screen; the fold takes them a chunk at a time
        # (one (survivors x N) index array took 156 MB here), and the counts stay as they were
        cfg = TrialConfig(a=100, word=build_sync_word(1023, 4), channel=bsc(0.3), mu=0.9)
        engine = TrialEngine(cfg)
        tracemalloc.start()
        try:
            counts = engine.run_batch(0, 0, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == {"Correct": 1, "E1": 0, "E2": 59, "E3": 0}
        assert peak < 6e6


class TestPhiloxRekey:
    """run_batch re-keys one Philox per trial; each row of uniforms it decides must be the
    first doubles of trial_rng(master_seed, i), on the three-store path and on the setter's."""

    @staticmethod
    def counts_of_checked_rows(monkeypatch, cfg, seed, lo, hi):
        """run_batch's counts of trials [lo, hi), once every row it decided is checked
        against trial_rng."""
        engine = TrialEngine(cfg)
        decide, rows = engine._decide, []

        def capture(u):
            rows.extend(u.copy())
            return decide(u)

        monkeypatch.setattr(engine, "_decide", capture)
        counts = engine.run_batch(seed, lo, hi)
        assert len(rows) == hi - lo
        for i, row in enumerate(rows, lo):
            assert np.array_equal(row, trial_rng(seed, i).random(len(row))), (seed, i, len(row))
        return counts

    def test_layout_is_known_here(self):
        # numpy's philox_state as _philox_words reads it: else run_batch runs the slower setter loop
        assert _philox_layout_known()

    # rows of 2 to 9 doubles (1 + A for a one-slot word), every residue of the row length mod 4, so
    # the buffer position ends at each of its four places before the next trial's re-key; the
    # setter path is the fallback for a layout the check does not know, forced here
    @pytest.mark.parametrize("length", range(2, 10))
    @pytest.mark.parametrize(
        "seed, lo",
        [(0, 0), (20250807, 17), (2**64 + 5, 2**32 - 3), (-7, 2**63 - 3), (2**64 - 1, 2**64 - 4)],
    )
    @pytest.mark.parametrize("path", ["stores", "setter"])
    def test_rows_are_trial_streams(self, monkeypatch, length, seed, lo, path):
        if path == "setter":
            monkeypatch.setattr("framesync.decoder._philox_layout_known", lambda: False)
        cfg = TrialConfig(a=length - 1, word=word_from_bits([1]), channel=bsc(0.1), mu=0.3)
        assert TrialEngine(cfg).segment + 1 == length
        self.counts_of_checked_rows(monkeypatch, cfg, seed, lo, lo + 6)

    def test_setter_path_counts_match(self, monkeypatch):
        # the two paths count a block of a short stream alike
        cfg = TrialConfig(a=30, word=build_sync_word(15, 2), channel=bsc(0.15), mu=0.25)
        stores = self.counts_of_checked_rows(monkeypatch, cfg, -3, 2**32 - 500, 2**32 + 1500)
        monkeypatch.setattr("framesync.decoder._philox_layout_known", lambda: False)
        setter = self.counts_of_checked_rows(monkeypatch, cfg, -3, 2**32 - 500, 2**32 + 1500)
        assert setter == stores and sum(stores.values()) == 2000

    # a counter or key word that the struct's pointer does not point at fails the check, and so
    # does a view one word short of the struct, whose sentinel state cannot read back
    @pytest.mark.parametrize("name, move", [("_CTR", 1), ("_KEY", 1), ("_PHILOX_WORDS", -1)])
    def test_layout_check_fails_on_another_layout(self, monkeypatch, name, move):
        import framesync.decoder as decoder

        monkeypatch.setattr(decoder, name, getattr(decoder, name) + move)
        _philox_layout_known.cache_clear()
        try:
            assert not _philox_layout_known()
        finally:
            monkeypatch.undo()
            _philox_layout_known.cache_clear()
        assert _philox_layout_known()
