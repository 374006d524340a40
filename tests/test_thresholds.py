import dataclasses
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesync import (
    AwgnSpec,
    FadingBoundReport,
    RayleighAwgnSpec,
    awgn_threshold,
    bsc,
    compose,
    composite_binary_threshold_closed_form,
    dmc_new,
    kl_divergence,
    fading_bound_check,
    on_off_fading_matrix,
    quantize_to_dmc,
    rayleigh_ratio_sweep,
    rayleigh_threshold_numeric,
    sweep_to_csv,
    sync_threshold,
)
from framesync.channels import ChannelError, Dmc, NegativeEntry, NonStochasticRow
from framesync.thresholds import FADING_BOUND_TOL

from closed_forms import bsc_threshold_closed_form, default_grid


def random_full_support_channel(rng, n_in=None, n_out=None):
    n_in = n_in or int(rng.integers(2, 5))
    n_out = n_out or int(rng.integers(2, 6))
    rows = rng.random((n_in, n_out)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return Dmc(rows)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_bsc_rows(self):
        # 0.8 ln 9
        assert kl_divergence([0.9, 0.1], [0.1, 0.9]) == pytest.approx(
            1.7577796618689757, abs=1e-14
        )

    def test_infinite_on_support_violation(self):
        assert math.isinf(kl_divergence([0.5, 0.5], [1.0, 0.0]))

    def test_zero_in_p_where_q_zero_is_fine(self):
        assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_rejects_non_distributions(self):
        for bad, error in (([0.5, 0.4], NonStochasticRow), ([1.5, -0.5], NegativeEntry),
                           ([-0.5, -0.5], NonStochasticRow)):
            with pytest.raises(error):
                kl_divergence(bad, [0.5, 0.5])
            with pytest.raises(error):
                kl_divergence([0.5, 0.5], bad)
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.5, 0.5, 0.0])

    def test_rejects_non_finite_entries(self):
        # [nan, 1] against [0.5, 0.5] returned ln 2, and [0.5, 0.5] against [nan, 1] returned nan;
        # inf + -inf sums to NaN without a RuntimeWarning
        for bad in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    kl_divergence(bad, [0.5, 0.5])
                with pytest.raises(ValueError):
                    kl_divergence([0.5, 0.5], bad)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            p = rng.random(k) + 1e-3
            q = rng.random(k) + 1e-3
            p /= p.sum()
            q /= q.sum()
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) == 0.0

    def test_logs_come_from_libm(self, monkeypatch):
        # numpy's log loop is picked by CPU dispatch at run time and may move a last bit of alpha
        def numpy_log(*args, **kwargs):
            raise AssertionError("_kl called a numpy log")

        for name in ("log", "log1p", "log2", "log10"):
            monkeypatch.setattr(np, name, numpy_log)
        p, q = [0.9, 0.05, 0.05, 0.0], [0.1, 0.3, 0.2, 0.4]
        want = math.fsum(a * (math.log(a) - math.log(b)) for a, b in zip(p, q) if a > 0)
        assert kl_divergence(p, q) == pytest.approx(want, rel=1e-15)
        assert sync_threshold(bsc(0.1)).alpha == pytest.approx(bsc_threshold_closed_form(0.1), rel=1e-15)


class TestSyncThreshold:
    def test_identity_channel_infinite(self):
        rep = sync_threshold(dmc_new(np.eye(2)))
        assert rep.is_infinite
        assert rep.argmax_symbol == 1
        assert rep.per_symbol_divergences[0] == 0.0

    def test_bsc_matches_closed_form_on_grid(self):
        for i in range(1, 50):
            eps = i / 100.0
            rep = sync_threshold(bsc(eps))
            assert rep.argmax_symbol == 1
            assert abs(rep.alpha - bsc_threshold_closed_form(eps)) <= 1e-12

    def test_fully_faded_composite_is_zero(self):
        channel = compose(on_off_fading_matrix(0.0), bsc(0.1))
        assert sync_threshold(channel).alpha == 0.0

    def test_idle_divergence_exactly_zero(self):
        rep = sync_threshold(bsc(0.23))
        assert rep.per_symbol_divergences[0] == 0.0

    def test_divergences_equal_kl_divergence_bit_for_bit(self):
        # sync_threshold skips kl_divergence's checks, not its arithmetic; zeros give inf and 0 log 0
        rng = np.random.default_rng(11)
        for _ in range(100):
            rows = rng.dirichlet(np.full(int(rng.integers(2, 9)), 0.3), size=int(rng.integers(2, 5)))
            rows[rng.random(rows.shape) < 0.15] = 0.0
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            channel = dmc_new(rows / rows.sum(axis=1, keepdims=True))
            expected = tuple(kl_divergence(row, channel.rows[0]) for row in channel.rows)
            assert sync_threshold(channel).per_symbol_divergences == expected


class TestClosedForms:
    def test_bsc_half_is_zero(self):
        assert bsc_threshold_closed_form(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_tenth(self):
        assert bsc_threshold_closed_form(0.1) == pytest.approx(
            0.8 * math.log(9.0), abs=1e-15
        )

    def test_bsc_domain(self):
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                bsc_threshold_closed_form(eps)

    def test_composite_reduces_at_p_one(self):
        for eps in (0.05, 0.2, 0.4):
            assert composite_binary_threshold_closed_form(1.0, eps) == pytest.approx(
                bsc_threshold_closed_form(eps), abs=1e-14
            )

    def test_composite_domain(self):
        for p, eps in ((0.5, 0.0), (0.5, 1.0), (0.5, math.nan), (-0.1, 0.1), (1.5, 0.1), (math.nan, 0.1)):
            with pytest.raises(ValueError, match="must be"):
                composite_binary_threshold_closed_form(p, eps)

    def test_composite_zero_at_p_zero(self):
        assert composite_binary_threshold_closed_form(0.0, 0.3) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_composite_matches_matrix_on_grid(self):
        for pi in range(1, 21):
            for ei in range(1, 20):
                p, eps = pi / 20.0, ei / 40.0
                closed = composite_binary_threshold_closed_form(p, eps)
                channel = compose(on_off_fading_matrix(p), bsc(eps))
                assert abs(sync_threshold(channel).alpha - closed) <= 1e-12


class TestLemma1:
    def test_p_one_equality(self):
        rep = fading_bound_check(1.0, bsc(0.1))
        assert rep.holds
        assert rep.slack == pytest.approx(0.0, abs=1e-13)

    def test_p_half_strict_slack(self):
        rep = fading_bound_check(0.5, bsc(0.1))
        assert rep.holds
        assert rep.slack > 0.01

    def test_vacuous_for_noiseless_channel(self):
        rep = fading_bound_check(0.5, bsc(0.0))
        assert rep.holds
        assert math.isinf(rep.p_alpha_noise)

    def test_p_zero(self):
        rep = fading_bound_check(0.0, bsc(0.0))
        assert rep.holds
        assert rep.p_alpha_noise == 0.0
        assert rep.alpha_composite == 0.0

    def test_p_outside_the_unit_interval(self):
        for p in (math.nan, -0.1, 1.5):
            with pytest.raises(ChannelError):
                fading_bound_check(p, bsc(0.1))

    def test_bound_on_random_channels(self):
        rng = np.random.default_rng(11)
        for p in np.linspace(0.0, 1.0, 11):
            for _ in range(20):
                noise = random_full_support_channel(rng)
                rep = fading_bound_check(float(p), noise)
                assert rep.holds

    def test_argmax_invariance_binary(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            noise = random_full_support_channel(rng, n_in=2)
            p = float(rng.uniform(0.02, 1.0))
            rep = fading_bound_check(p, noise)
            assert rep.argmax_composite == rep.argmax_noise

    def test_argmax_invariance_fails_beyond_binary(self):
        # ON-OFF mixing toward the idle row can reorder divergences when the
        # alphabet has more than one non-idle input; the bound itself holds
        # per input, so the lemma is unaffected.
        rows = np.array(
            [
                [0.45381707, 0.06024426, 0.44993061, 0.03600806],
                [0.30245072, 0.17998442, 0.17756360, 0.34000125],
                [0.28551988, 0.20944571, 0.32485486, 0.18017954],
                [0.12257220, 0.31349978, 0.31976313, 0.24416489],
            ]
        )
        rows /= rows.sum(axis=1, keepdims=True)
        noise = Dmc(rows)
        rep = fading_bound_check(0.3103619724767689, noise)
        assert rep.holds
        assert rep.argmax_noise == 3
        assert rep.argmax_composite == 1

    @staticmethod
    def case_analysis(p, alpha_composite, alpha_noise):
        """The bound, slack and verdict as fading_bound_check once spelled them out, case by case."""
        if p == 0.0:
            p_alpha = 0.0
        elif math.isinf(alpha_noise):
            p_alpha = math.inf
        else:
            p_alpha = p * alpha_noise
        if math.isinf(p_alpha):
            holds, slack = True, math.inf  # bound vacuous
        elif math.isinf(alpha_composite):
            holds, slack = False, -math.inf
        else:
            slack = p_alpha - alpha_composite
            holds = alpha_composite <= p_alpha + FADING_BOUND_TOL
        return p_alpha, slack, holds

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32),
        n_in=st.integers(2, 4),
        n_out=st.integers(2, 5),
        p=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_derived_verdict_equals_the_case_analysis_bit_for_bit(self, seed, n_in, n_out, p):
        # zero entries put mass outside row 0's support, so alpha(Qn) is infinite in many draws
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(n_out, 0.5), size=n_in)
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        noise = dmc_new(rows / rows.sum(axis=1, keepdims=True))
        alpha_composite = sync_threshold(compose(on_off_fading_matrix(p, n_in), noise)).alpha
        rep = fading_bound_check(p, noise)
        bits = lambda *xs: [struct.pack("<d", x) for x in xs]
        assert bits(rep.alpha_composite, rep.alpha_noise) == bits(alpha_composite, sync_threshold(noise).alpha)
        p_alpha, slack, holds = self.case_analysis(p, rep.alpha_composite, rep.alpha_noise)
        assert bits(rep.p_alpha_noise, rep.slack) == bits(p_alpha, slack)
        assert type(rep.holds) is bool and rep.holds == holds

    def test_infinite_composite_threshold(self):
        # no composite fading_bound_check builds has it: its row leaves row 0's support only where the
        # noise row does, and then p * alpha(Qn) is infinite too
        report = FadingBoundReport(p=0.5, alpha_composite=math.inf, alpha_noise=1.0, argmax_composite=1,
                                   argmax_noise=1)
        assert (report.holds, report.slack) == (False, -math.inf)
        vacuous = dataclasses.replace(report, alpha_noise=math.inf)
        assert (vacuous.holds, vacuous.slack) == (True, math.inf)

    def test_limit_rate_toward_p(self):
        # ratio -> p as eps -> 0 at the entropy-over-log rate:
        # p - ratio = H(p) / alpha(Qn) + O(1/log^2)
        for p in (0.1, 0.5, 0.9):
            h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            prev_dev = None
            for eps in (1e-3, 1e-6, 1e-12):
                ratio = composite_binary_threshold_closed_form(
                    p, eps
                ) / bsc_threshold_closed_form(eps)
                dev = p - ratio
                assert dev == pytest.approx(
                    h / bsc_threshold_closed_form(eps), rel=0.02
                )
                if prev_dev is not None:
                    assert dev < prev_dev  # converging toward p
                prev_dev = dev


class TestContinuousThresholds:
    def test_awgn_closed_form(self):
        assert awgn_threshold(AwgnSpec(power=0.0, noise_var=1.0)) == 0.0
        assert awgn_threshold(AwgnSpec(power=4.0, noise_var=1.0)) == 2.0
        assert awgn_threshold(AwgnSpec(power=1e-320, noise_var=1.0)) == 5e-321

    def test_awgn_overflow_raises(self):
        # a support mismatch is what "infinite" means; Gaussian laws never have one
        for power, noise_var in ((1.0, 1e-320), (1e300, 1e-10)):
            with pytest.raises(ValueError, match="overflows"):
                awgn_threshold(AwgnSpec(power=power, noise_var=noise_var))

    def test_awgn_quantized_oracle(self):
        spec = AwgnSpec(power=4.0, noise_var=1.0)
        dmc = quantize_to_dmc(spec, default_grid(spec))
        alpha = sync_threshold(dmc).alpha
        assert abs(alpha - 2.0) / 2.0 <= 0.01

    def test_rayleigh_zero_power(self):
        assert rayleigh_threshold_numeric(
            RayleighAwgnSpec(power=0.0, noise_var=1.0, scale=1.0)
        ) == 0.0

    def test_rayleigh_monotone_in_power(self):
        vals = [
            rayleigh_threshold_numeric(
                RayleighAwgnSpec(power=p, noise_var=1.0, scale=1.0)
            )
            for p in (0.5, 1.0, 2.0, 5.0, 10.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_high_snr_ratio(self):
        spec = RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0)
        ratio = rayleigh_threshold_numeric(spec) / 50.0
        assert abs(ratio - 2.0) / 2.0 <= 0.10


class TestSweep:
    def test_sweep_csv_shape(self):
        cells = rayleigh_ratio_sweep([1.0, 10.0], [1.0], noise_var=1.0)
        csv = sweep_to_csv(cells)
        lines = csv.strip().splitlines()
        assert lines[0] == "snr,sigma_h,alpha_q,alpha_qn,ratio"
        assert len(lines) == 3
        assert all(c.ratio >= 0.0 for c in cells)

    def test_default_grid_reproduces_committed_csv(self):
        from framesync.cli import DEFAULT_SIGMA_H, DEFAULT_SNR_GRID

        committed = Path(__file__).parent.parent / "out" / "rayleigh_sweep.csv"
        cells = rayleigh_ratio_sweep(DEFAULT_SNR_GRID, DEFAULT_SIGMA_H, noise_var=1.0)
        assert sweep_to_csv(cells) == committed.read_text()

    def test_sweep_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            rayleigh_ratio_sweep([0.0], [1.0])
