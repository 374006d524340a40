import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framesync import (
    AwgnSpec,
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
    empirical_joint,
    energy_scaling_rows,
    joint_counts,
    monte_carlo,
    quantize_to_dmc,
    quantized_awgn,
    run_decoder,
    scaling_experiment,
    scaling_to_csv,
    simulate_trial,
    single_rows,
    sync_threshold,
    trial_rng,
    typicality_distance,
    wilson_interval,
)
from framesync.channels import IndexOutOfRange
from framesync.decoder import LengthMismatch, TrialEngine, classify

from exact_oracle import (
    exact_error_probability_dp,
    exact_error_probability_enum,
    exact_no_declare_probability_dp,
)
from naive_trials import naive_counts, naive_trial


def word_from_bits(bits):
    return SyncWord(np.array(bits, dtype=np.int8), prefix_len=0, k=0)


def random_small_config(rng, a_max=6, n_max=4):
    a = int(rng.integers(1, a_max + 1))
    n = int(rng.integers(2, n_max + 1))
    sym = rng.integers(0, 2, size=n)
    if sym.sum() == 0:
        sym[int(rng.integers(0, n))] = 1
    eps = float(rng.uniform(0.02, 0.45))
    mu = float(rng.uniform(0.08, 0.7))
    norm = "linf" if rng.random() < 0.5 else "l1"
    return TrialConfig(
        a=a, word=word_from_bits(sym), channel=bsc(eps), mu=mu, norm=norm
    )


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
        assert dec.window_distance(word.symbols.astype(np.int64)) == 0.0

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

    def test_window_must_fit_a_float(self):
        word = build_sync_word(21, 3)
        for a in (0, 2**1023):
            with pytest.raises(ValueError):
                TrialConfig(a=a, word=word, channel=bsc(0.1))


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
        for t in range(1, v):
            assert dec.window_distance(stream[t - 1 : t - 1 + 7]) > dec.mu

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
            assert out.klass == classify(out.v_true, 1, 3)
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
        assert rep.n_correct == 500

    def test_rates_partition_exactly(self):
        rng = np.random.default_rng(23)
        cfg = random_small_config(rng)
        rep = monte_carlo(cfg, 4000, master_seed=9)
        assert rep.p_err == rep.p_e1 + rep.p_e2 + rep.p_e3
        assert rep.n_correct + rep.n_err == rep.trials

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

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.95 and hi == 1.0


class TestOperatingPoint:
    def test_pilot_point_mostly_correct(self):
        # BSC(0.05), N = 63, K = 4, mu = 0.05, A = round(exp(0.5 alpha N)):
        # the max-norm decoder synchronizes at least 90% of the time
        # (pilot value 0.914 at this seed).
        rows = bsc_scaling_rows(0.05, 4, [63], beta=0.5, mu=0.05, norm="linf")
        rep = monte_carlo(rows[0].config, 10_000, master_seed=20250807)
        assert rep.n_correct / rep.trials >= 0.9


class TestSkipMode:
    def test_skip_certified_and_consistent_with_full(self):
        # moderate A simulated both ways; the estimates must agree statistically
        word = build_sync_word(21, 3)
        channel = bsc(0.05)
        cfg = TrialConfig(a=2000, word=word, channel=channel, mu=0.08, norm="l1")
        full = monte_carlo(cfg, 1500, master_seed=3, full_sim_max_a=10**6)
        skip = monte_carlo(cfg, 1500, master_seed=3, full_sim_max_a=1)
        assert abs(full.p_err - skip.p_err) < 0.05

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
        from framesync import bsc_threshold_closed_form

        alpha = bsc_threshold_closed_form(0.05)
        for row in rows:
            assert row.a == int(round(math.exp(0.5 * alpha * row.n)))

    def test_energy_rows_carry_feasibility(self):
        rows = energy_scaling_rows(24.0, 1.0, [32, 64], bins=6)
        for row in rows:
            assert row.a == int(round(math.exp(6.0)))
            assert row.extra["feasibility_threshold"] == pytest.approx(
                math.exp(12.0)
            )
            assert row.extra["power"] == pytest.approx(24.0 / row.n)

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
                energy_scaling_rows(32.0, sigma2, [32])
        with pytest.raises(ValueError):
            energy_scaling_rows(32.0, 1.0, [0])

    def test_failed_row_carries_completed_rows(self):
        # the second row needs an uncertifiable far-window skip
        rows = bsc_scaling_rows(0.4, 2, [6, 254], beta=0.99, mu=0.4)
        with pytest.raises(SimulationInfeasible) as info:
            scaling_experiment(rows, trials=50, master_seed=1)
        assert [row.n for row, _ in info.value.completed] == [6]

    def test_csv_shape_and_determinism(self):
        rows = bsc_scaling_rows(0.1, 2, [14, 30], beta=0.2, mu=0.2, norm="l1")
        res1 = scaling_experiment(rows, trials=400, master_seed=8)
        res2 = scaling_experiment(rows, trials=400, master_seed=8, workers=2)
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
    """BSC, or quantized AWGN with 3-8 outputs; near noiseless unless noisy."""
    if draw(st.booleans()):
        return bsc(draw(st.floats(0.0, 0.45 if noisy else 0.01)))
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


def engine_or_skip(cfg, full_sim_max_a):
    try:
        return TrialEngine(cfg, full_sim_max_a)
    except SimulationInfeasible:
        assume(False)


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

    @PROPERTY
    @given(
        cfg=trial_configs(),
        skip=st.booleans(),
        m=st.integers(1, 2500),
        cut=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_counts_split_invariant(self, cfg, skip, m, cut, seed):
        engine = engine_or_skip(cfg, 0 if skip else cfg.a)
        k = int(cut * m)
        whole = engine.run_batch(seed, 0, m)
        left, right = engine.run_batch(seed, 0, k), engine.run_batch(seed, k, m)
        assert whole == {c: left[c] + right[c] for c in whole}
        assert sum(whole.values()) == m

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
        rng = np.random.default_rng(12)
        channel = quantize_to_dmc(AwgnSpec(power=2.0, noise_var=1.0), QuantizationGrid(-5.0, 6.5, 8))
        word = build_sync_word(21, 3)
        dec = TypicalityDecoder(word=word, channel=channel, mu=0.3, norm="l1")
        stream = rng.integers(0, 8, size=60)
        dists = dec.distances(stream[None, :], 40)[0]
        for t in range(40):
            emp = empirical_joint(word.symbols, stream[t : t + 21], 2, 8)
            assert dec.window_distance(stream[t : t + 21]) == dists[t]
            assert typicality_distance(emp, dec.reference, "l1") == dists[t]
        fired = np.nonzero(dists <= dec.mu)[0]
        assert run_decoder(dec, stream, scan_limit=40) == (fired[0] + 1 if fired.size else None)
        # a stream past 2**15 slots takes the wider count type
        long_stream = rng.integers(0, 8, size=40_000)
        long_dists = dec.distances(long_stream[None, :], 40_000 - 20)[0]
        for t in rng.integers(0, 40_000 - 20, size=50).tolist() + [0, 40_000 - 21]:
            assert dec.window_distance(long_stream[t : t + 21]) == long_dists[t]

    def test_out_of_range_outputs_rejected(self):
        dec = TypicalityDecoder(word=build_sync_word(7, 2), channel=bsc(0.1), mu=0.1)
        with pytest.raises(IndexOutOfRange):
            run_decoder(dec, np.array([0, 1, 2, 0, 1, 0, 1, 1]), scan_limit=2)
