import json
import math

import numpy as np
import pytest

from framesync import (
    AwgnSpec,
    MassLoss,
    QuantizationGrid,
    RayleighAwgnSpec,
    adaptive_quad,
    awgn_density,
    default_grid,
    export_quantized,
    load_channel,
    quantize_to_dmc,
    rayleigh_awgn_density,
    sample_continuous,
    sync_threshold,
)
from framesync.continuous import rayleigh_pdf


class TestQuadrature:
    def test_smooth_integral(self):
        assert adaptive_quad(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_budget_exhaustion_raises(self):
        from framesync import QuadratureNonConvergence

        # a needle the single allowed subinterval cannot resolve
        needle = lambda x: math.exp(-((x - 0.37) ** 2) * 1e12)
        with pytest.raises(QuadratureNonConvergence):
            adaptive_quad(needle, 0.0, 1.0, limit=1)


class TestSpecs:
    def test_awgn_validation(self):
        with pytest.raises(ValueError):
            AwgnSpec(power=-1.0, noise_var=1.0)
        with pytest.raises(ValueError):
            AwgnSpec(power=1.0, noise_var=0.0)

    def test_rayleigh_validation(self):
        with pytest.raises(ValueError):
            RayleighAwgnSpec(power=1.0, noise_var=1.0, scale=0.0)

    def test_nan_rejected(self):
        for bad in (math.nan, math.inf):  # infinite values too
            for power, noise_var in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError):
                    AwgnSpec(power=power, noise_var=noise_var)
            for power, noise_var, scale in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValueError):
                    RayleighAwgnSpec(power=power, noise_var=noise_var, scale=scale)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            QuantizationGrid(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            QuantizationGrid(0.0, 1.0, 1)
        for lo, hi in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                QuantizationGrid(lo, hi, 8)


class TestDensities:
    def test_standard_normal_mode(self):
        assert awgn_density(0.0, 0.0, 1.0) == pytest.approx(
            0.3989422804014327, abs=1e-15
        )

    def test_peak_at_mean(self):
        for mean in (-3.0, 0.0, 7.5):
            assert awgn_density(mean, mean, 2.0) == pytest.approx(
                1.0 / math.sqrt(4.0 * math.pi), abs=1e-15
            )

    def test_unit_offset_value(self):
        assert awgn_density(1.0, 0.0, 1.0) == pytest.approx(
            0.24197072451914337, abs=1e-15
        )

    def test_rayleigh_density_reduces_at_zero_power(self):
        spec = RayleighAwgnSpec(power=0.0, noise_var=1.5, scale=2.0)
        for y in (-2.0, 0.0, 1.3):
            assert rayleigh_awgn_density(y, spec) == pytest.approx(
                awgn_density(y, 0.0, 1.5), rel=1e-9
            )

    def test_rayleigh_density_normalizes(self):
        spec = RayleighAwgnSpec(power=10.0, noise_var=1.0, scale=1.0)
        total = adaptive_quad(
            lambda y: rayleigh_awgn_density(y, spec), -10.0, 40.0, rel_tol=1e-8
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rayleigh_density_mean_moment(self):
        # E[y] = sqrt(P) E[h] = sqrt(P) scale sqrt(pi/2)
        spec = RayleighAwgnSpec(power=10.0, noise_var=1.0, scale=1.0)
        mean = adaptive_quad(
            lambda y: y * rayleigh_awgn_density(y, spec), -10.0, 40.0, rel_tol=1e-8
        )
        assert mean == pytest.approx(math.sqrt(5.0 * math.pi), rel=1e-6)

    def test_rayleigh_pdf_squared_exponent(self):
        # E[h^2] = 2 scale^2 pins the quadratic exponent
        scale = 1.7
        second = adaptive_quad(
            lambda h: h * h * rayleigh_pdf(h, scale), 0.0, 40.0, rel_tol=1e-10
        )
        assert second == pytest.approx(2.0 * scale * scale, rel=1e-9)


class TestQuantization:
    def test_two_bin_split_at_zero(self):
        spec = AwgnSpec(power=0.0, noise_var=1.0)
        dmc = quantize_to_dmc(spec, QuantizationGrid(-8.0, 8.0, 2))
        assert np.allclose(dmc.rows[0], [0.5, 0.5], atol=1e-15)

    def test_rows_sum_to_one(self):
        spec = AwgnSpec(power=4.0, noise_var=1.0)
        dmc = quantize_to_dmc(spec, default_grid(spec))
        assert np.allclose(dmc.rows.sum(axis=1), 1.0, atol=1e-14)

    def test_awgn_alpha_within_one_percent(self):
        for power, s2 in ((1.0, 1.0), (4.0, 1.0), (10.0, 2.0)):
            spec = AwgnSpec(power=power, noise_var=s2)
            alpha = sync_threshold(quantize_to_dmc(spec, default_grid(spec))).alpha
            exact = power / (2.0 * s2)
            assert abs(alpha - exact) / exact <= 0.01

    def test_rayleigh_quantized_vs_continuous(self):
        # At this SNR the signal law outlives double-precision support of the
        # idle law, so the top cell must absorb ~2e-3 of clipped mass; the
        # budget is widened explicitly for this cross-check.
        from framesync import rayleigh_threshold_numeric

        spec = RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0)
        grid = QuantizationGrid(-8.0, 36.0, 4096)
        alpha_q = sync_threshold(
            quantize_to_dmc(spec, grid, mass_loss_tol=1e-2)
        ).alpha
        alpha_cont = rayleigh_threshold_numeric(spec)
        assert abs(alpha_q - alpha_cont) / alpha_cont <= 0.02

    def test_mass_loss_on_narrow_grid(self):
        spec = AwgnSpec(power=4.0, noise_var=1.0)
        with pytest.raises(MassLoss):
            quantize_to_dmc(spec, QuantizationGrid(-1.0, 1.0, 16))

    def test_quantization_cannot_increase_divergence(self):
        # data-processing direction on a few grids
        spec = AwgnSpec(power=4.0, noise_var=1.0)
        exact = 2.0
        for bins in (8, 64, 512):
            grid = QuantizationGrid(-8.0, 10.0, bins)
            alpha = sync_threshold(quantize_to_dmc(spec, grid)).alpha
            assert alpha <= exact + 1e-6

    def test_refinement_increments_shrink(self):
        spec = AwgnSpec(power=4.0, noise_var=1.0)
        alphas = [
            sync_threshold(
                quantize_to_dmc(spec, QuantizationGrid(-8.0, 10.0, b))
            ).alpha
            for b in (16, 32, 64, 128, 256)
        ]
        increments = [b - a for a, b in zip(alphas, alphas[1:])]
        assert all(i > 0 for i in increments)
        assert all(b < a for a, b in zip(increments, increments[1:]))

    def test_histogram_matches_quantized_row(self):
        spec = RayleighAwgnSpec(power=4.0, noise_var=1.0, scale=1.0)
        grid = QuantizationGrid(-8.0, 20.0, 64)
        dmc = quantize_to_dmc(spec, grid)
        rng = np.random.default_rng(42)
        n = 10**6
        draws = sample_continuous(spec, True, rng, size=n)
        hist = np.bincount(grid.bin_of(draws), minlength=64) / n
        assert np.abs(hist - dmc.rows[1]).sum() <= 0.01


class TestSampling:
    def test_zero_power_branches_match(self):
        spec = RayleighAwgnSpec(power=0.0, noise_var=1.0, scale=1.0)
        rng = np.random.default_rng(1)
        idle = sample_continuous(spec, False, rng, size=200_000)
        rng = np.random.default_rng(1)
        sync = sample_continuous(spec, True, rng, size=200_000)
        assert abs(idle.mean() - sync.mean()) < 0.01
        assert abs(idle.std() - sync.std()) < 0.01

    def test_sync_branch_mean(self):
        spec = RayleighAwgnSpec(power=4.0, noise_var=1.0, scale=1.0)
        rng = np.random.default_rng(7)
        draws = sample_continuous(spec, True, rng, size=10**6)
        assert abs(draws.mean() - 2.0 * math.sqrt(math.pi / 2.0)) <= 0.01

    def test_idle_branch_variance(self):
        spec = AwgnSpec(power=4.0, noise_var=2.5)
        rng = np.random.default_rng(9)
        draws = sample_continuous(spec, False, rng, size=10**6)
        assert abs(draws.var() - 2.5) / 2.5 <= 0.01


class TestExport:
    def test_sidecar_and_round_trip(self, tmp_path):
        spec = AwgnSpec(power=4.0, noise_var=1.0)
        path = tmp_path / "awgn.mat"
        dmc = export_quantized(path, spec, QuantizationGrid(-8.0, 10.0, 32))
        back = load_channel(path)
        assert np.allclose(back.rows, dmc.rows, atol=1e-15)
        meta = json.loads((tmp_path / "awgn.mat.json").read_text())
        assert meta["bins"] == 32
        assert meta["lo"] == -8.0
        assert max(meta["tail_mass"]) < 1e-6
