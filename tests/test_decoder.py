import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
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
    scaling_experiment,
    scaling_to_csv,
    simulate_trial,
    single_rows,
    sync_threshold,
    trial_rng,
    wilson_interval,
)
from framesync.channels import IndexOutOfRange
from framesync.cli import _config_rows, _load_preset
from framesync.decoder import CERT_SLIP, TrialEngine, _log_binom_mass, _noise_window_log_bound

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


def word_from_bits(bits):
    return SyncWord(np.array(bits, dtype=np.int8), prefix_len=0, k=0)


def exact_distances(dec, outputs):
    """The reference's distances of every window of each row of outputs."""
    return window_distances(dec.word.symbols, dec.channel.rows, dec.norm, np.atleast_2d(outputs))


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
    """The certificate's bound with scipy's binomial tails in place of the exact sum."""
    wi, n, best = decoder.word.symbols, len(decoder.word), 0.0
    for x in np.unique(wi):
        nx = int(np.count_nonzero(wi == x))
        for y, q in enumerate(decoder.channel.rows[0]):
            lo_c = math.ceil(n * (decoder.reference[x, y] - decoder.mu))
            hi_c = math.floor(n * (decoder.reference[x, y] + decoder.mu))
            if nx * q < lo_c:
                best = min(best, float(binom.logsf(lo_c - 1, nx, q)))
            elif nx * q > hi_c:
                best = min(best, float(binom.logcdf(hi_c, nx, q)))
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

    @pytest.mark.parametrize("preset", ["single_bsc", "bsc_scaling", "energy_scaling"])
    def test_preset_rows_keep_their_decisions(self, preset):
        _, rows, _ = _config_rows(_load_preset(preset))
        for row in rows:
            dec = row.config.decoder()
            ours, theirs = _noise_window_log_bound(dec), scipy_noise_window_log_bound(dec)
            assert ours == pytest.approx(theirs, rel=1e-14, abs=0)
            n_far = math.log(2.0 * float(row.a) + 2.0 * row.n)
            assert (n_far + ours > math.log(CERT_SLIP)) == (n_far + theirs > math.log(CERT_SLIP))


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


def engine_or_skip(cfg, full_sim_max_a):
    try:
        return TrialEngine(cfg, full_sim_max_a)
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


class TestWindowScreen:
    """The screen bound against the exact distance, and the screened decision against the unscreened one."""

    @PROPERTY
    @given(block=output_blocks())
    def test_bound_never_exceeds_distance(self, block):
        dec, outputs = block
        dists = exact_distances(dec, outputs)
        # the bound is tight for some windows (binary outputs), so allow rounding; the engine
        # prunes only past 1e-9
        assert np.all(dec.screen_bound(outputs, dists.shape[1]) <= dists + 1e-12)
        rows, starts = np.divmod(np.arange(dists.size), dists.shape[1])
        assert np.array_equal(dec._fold(outputs, rows, starts), dists.ravel())

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
        assert np.array_equal(dec.first_typical(outputs, n_windows), expected)

    @PROPERTY
    @given(cfg=trial_configs(), seed=st.integers(0, 2**32), m=st.integers(1, 6))
    def test_engine_sampler_matches_inverse_cdf_outputs(self, cfg, seed, m):
        engine, n = TrialEngine(cfg), len(cfg.word)
        rng = np.random.default_rng(seed)
        uniforms = rng.random((m, engine.segment))
        offset = rng.integers(0, engine.segment - n + 1, size=m)
        x = np.zeros((m, engine.segment), dtype=np.int64)
        for row, at in zip(x, offset):
            row[at : at + n] = cfg.word.symbols
        assert np.array_equal(engine._outputs(uniforms, offset), inverse_cdf_outputs(cfg.channel.rows, x, uniforms))


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

    @pytest.mark.parametrize("a, skip", [(30, False), (3, True), (400, True)])
    def test_run_draws_v_then_its_segment(self, a, skip):
        # run() leaves the generator 1 + windows + N - 1 doubles in: windows = A + N - 1 in
        # full mode, min(v, N) - 1 + N in skip mode (every v < N at A = 3)
        n = 15
        cfg = TrialConfig(a=a, word=build_sync_word(n, 2), channel=bsc(0.02), mu=0.1)
        engine = TrialEngine(cfg, 0 if skip else a)
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
        assert np.array_equal(dec._fold(long_stream, np.zeros_like(starts), starts), expected)

    def test_out_of_range_outputs_rejected(self):
        dec = TypicalityDecoder(word=build_sync_word(7, 2), channel=bsc(0.1), mu=0.1)
        with pytest.raises(IndexOutOfRange):
            run_decoder(dec, np.array([0, 1, 2, 0, 1, 0, 1, 1]), scan_limit=2)
