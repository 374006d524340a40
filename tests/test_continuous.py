import contextlib
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import framesync.continuous
import rayleigh_oracle
from framesync import (
    AwgnSpec,
    MassLoss,
    QuadratureNonConvergence,
    QuantizationGrid,
    RayleighAwgnSpec,
    adaptive_quad,
    quantize_to_dmc,
    quantized_awgn,
    rayleigh_density_of,
    rayleigh_threshold_numeric,
    sync_threshold,
)
from framesync.continuous import MAX_SCALE_WIDTHS, _rayleigh_kernel, phi

from closed_forms import awgn_density, default_grid


def rayleigh_pdf(h, scale: float):
    """The Rayleigh amplitude density on arrays, as the package computed it before its float kernels."""
    h = np.asarray(h, dtype=np.float64)
    out = np.where(h >= 0.0, h / scale**2 * np.exp(-(h**2) / (2.0 * scale**2)), 0.0)
    return float(out) if out.ndim == 0 else out


def bin_of(grid, y):
    """Cell index of real outputs on the grid; beyond-grid values land in the tail cells."""
    idx = np.searchsorted(grid.edges[1:-1], np.asarray(y, dtype=np.float64), side="right")
    return np.clip(idx, 0, grid.bins - 1)


def sample_continuous(spec, input_is_sync, rng, size=None):
    """Monte Carlo draws of the channel output: noise only for x(0), signal plus noise for x(1)."""
    n = rng.normal(0.0, spec.sigma, size=size)
    if not input_is_sync:
        return n
    root_p = math.sqrt(spec.power)
    if isinstance(spec, RayleighAwgnSpec):
        return rng.rayleigh(spec.scale, size=size) * root_p + n
    return root_p + n


class TestQuadrature:
    def test_smooth_integral(self):
        assert adaptive_quad(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_budget_exhaustion_raises(self, monkeypatch):
        import framesync.quadrature

        # a needle the single allowed subinterval cannot resolve
        monkeypatch.setattr(framesync.quadrature, "SUBDIVISION_LIMIT", 1)
        needle = lambda x: math.exp(-((x - 0.37) ** 2) * 1e12)
        with pytest.raises(QuadratureNonConvergence):
            adaptive_quad(needle, 0.0, 1.0)

    def test_error_estimate_beyond_tolerance_raises(self, monkeypatch):
        import scipy.integrate

        # QUADPACK reports no message, yet an error estimate far beyond abs_tol + 10 rel_tol |value|
        monkeypatch.setattr(scipy.integrate, "quad", lambda fn, lo, hi, **options: (1.0, 1e-3, {"last": 1}))
        with pytest.raises(QuadratureNonConvergence, match="reports error 0.001 beyond tolerance"):
            adaptive_quad(math.sin, 0.0, 1.0)

    # Gaussian needles and sin(kx)^2 on [0, 1]. At the Rayleigh tolerance pairs their
    # subinterval counts run from 1 past FIRST_LIMIT // 2 + 2 = 102: sin(442x)^2 and
    # sin(444x)^2 stop at 101 and 102 under (1e-12, 1e-9), sin(410x)^2 at 103 under
    # (1e-13, 1e-10), and sin(1000x)^2 fills the first run's 200 and converges at 243.
    EXACTNESS_TABLE = [
        *((f"needle w={w} c={c}", lambda x, w=w, c=c: math.exp(-0.5 * ((x - c) / w) ** 2))
          for w in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3) for c in (0.1234, 0.5, 0.77)),
        *((f"sin({k}x)^2", lambda x, k=k: math.sin(k * x) ** 2)
          for k in (1, 10, 30, 100, 300, 410, 442, 444, 500, 1000)),
    ]

    def test_first_run_is_the_full_workspace_run(self, monkeypatch):
        """adaptive_quad returns bit for bit what QUADPACK returns at SUBDIVISION_LIMIT (or raises
        where that run fails), and reruns exactly when its first run passes limit // 2 + 2."""
        import scipy.integrate

        from framesync.quadrature import FIRST_LIMIT, SUBDIVISION_LIMIT

        quad, limits = scipy.integrate.quad, []

        def recording_quad(*args, **kwargs):
            limits.append(kwargs["limit"])
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", recording_quad)
        lasts = set()
        for name, fn in self.EXACTNESS_TABLE:
            for abs_tol, rel_tol in ((1e-12, 1e-9), (1e-13, 1e-10)):
                value, abserr, info, *message = quad(
                    fn, 0.0, 1.0, epsabs=abs_tol, epsrel=rel_tol, limit=SUBDIVISION_LIMIT, full_output=True)
                lasts.add(info["last"])
                evals = []
                counted = lambda x: evals.append(x) or fn(x)
                limits.clear()
                if message or abserr > abs_tol + rel_tol * abs(value) * 10.0:
                    with pytest.raises(QuadratureNonConvergence):
                        adaptive_quad(counted, 0.0, 1.0, abs_tol=abs_tol, rel_tol=rel_tol)
                else:
                    got = adaptive_quad(counted, 0.0, 1.0, abs_tol=abs_tol, rel_tol=rel_tol)
                    assert same_bits(got, value), (name, abs_tol, got, value)
                rerun = info["last"] > FIRST_LIMIT // 2 + 2
                assert limits == [FIRST_LIMIT, SUBDIVISION_LIMIT][: 1 + rerun], (name, abs_tol, info["last"])
                if not rerun:
                    assert len(evals) == info["neval"], (name, abs_tol)
        assert min(lasts) == 1 and {101, 102, 103, 243} <= lasts

    def test_committed_rayleigh_work_stays_in_the_first_run(self, monkeypatch):
        """The sweep's default grid, the committed threshold and the benchmark's 256-bin quantization
        never rerun at SUBDIVISION_LIMIT (the largest subinterval count among them is 12)."""
        import scipy.integrate

        from framesync.cli import DEFAULT_SIGMA_H, DEFAULT_SNR_GRID
        from framesync.quadrature import FIRST_LIMIT
        from framesync.thresholds import rayleigh_ratio_sweep

        quad, runs = scipy.integrate.quad, []

        def recording_quad(*args, **kwargs):
            result = quad(*args, **kwargs)
            runs.append((kwargs["limit"], result[2]["last"]))
            return result

        monkeypatch.setattr(scipy.integrate, "quad", recording_quad)
        cells = rayleigh_ratio_sweep(DEFAULT_SNR_GRID, DEFAULT_SIGMA_H)
        assert len(cells) == 21 and not any(math.isnan(c.ratio) for c in cells)
        rayleigh_threshold_numeric(RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0))
        quantize_to_dmc(RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0),
                        QuantizationGrid(-8.0, 36.0, 256), mass_loss_tol=1e-2)
        assert runs and {limit for limit, _ in runs} == {FIRST_LIMIT}, max(last for _, last in runs)


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

    def test_bins_are_an_integer(self):
        # 2.5, 8.0 and "8" raised TypeError from numpy.linspace or a comparison
        spec = AwgnSpec(power=2.0, noise_var=1.0)
        for bins in (2.5, 8.0, True, "8"):
            with pytest.raises(ValueError, match="^bins must be an integer, got "):
                quantized_awgn(spec, bins)
        grid = QuantizationGrid(0.0, 1.0, np.int64(8))
        assert type(grid.bins) is int and grid == QuantizationGrid(0.0, 1.0, 8)
        assert quantized_awgn(spec, np.int32(8)) == quantized_awgn(spec, 8)


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

    def test_scalar_gives_the_bits_of_the_array(self):
        # a scalar y was squared by libm's pow, 68 of these draws an ulp off their array value
        ys = np.random.default_rng(0).normal(0.0, 10.0, 100_000)
        densities = awgn_density(ys, 0.0, 4.0)
        assert sum(awgn_density(y, 0.0, 4.0) != d for y, d in zip(ys, densities)) == 0
        assert np.array_equal(densities, np.exp(-(ys * ys) / 8.0) / math.sqrt(8.0 * math.pi))

    def test_non_finite_or_nonpositive_variance_rejected(self):
        # NaN returned nan and inf returned 0.0, where AwgnSpec rejects both
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                awgn_density(0.0, 0.0, bad)

    def test_rayleigh_density_reduces_at_zero_power(self):
        density = rayleigh_density_of(RayleighAwgnSpec(power=0.0, noise_var=1.5, scale=2.0))
        for y in (-2.0, 0.0, 1.3):
            assert density(y) == pytest.approx(
                awgn_density(y, 0.0, 1.5), rel=1e-9
            )

    def test_rayleigh_density_normalizes(self):
        density = rayleigh_density_of(RayleighAwgnSpec(power=10.0, noise_var=1.0, scale=1.0))
        total = adaptive_quad(density, -10.0, 40.0, rel_tol=1e-8)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rayleigh_density_mean_moment(self):
        # E[y] = sqrt(P) E[h] = sqrt(P) scale sqrt(pi/2)
        density = rayleigh_density_of(RayleighAwgnSpec(power=10.0, noise_var=1.0, scale=1.0))
        mean = adaptive_quad(lambda y: y * density(y), -10.0, 40.0, rel_tol=1e-8)
        assert mean == pytest.approx(math.sqrt(5.0 * math.pi), rel=1e-6)

    def test_rayleigh_pdf_squared_exponent(self):
        # E[h^2] = 2 scale^2 pins the quadratic exponent
        scale = 1.7
        second = adaptive_quad(
            lambda h: h * h * rayleigh_pdf(h, scale), 0.0, 40.0, rel_tol=1e-10
        )
        assert second == pytest.approx(2.0 * scale * scale, rel=1e-9)


def same_bits(a, b) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestPhi:
    """phi equals scipy.special.ndtr bit for bit, the sign of zero and nan included."""

    # |a| = 1, sqrt(2) and 8 sqrt(2) are where Cephes switches erf, erfc's rational fits and
    # its large-x fit; past a^2 / 2 = ln(DBL_MAX) it returns the underflowed tail
    EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * math.log(sys.float_info.max)))

    @staticmethod
    def assert_equal_to_scipy(a):
        a = np.asarray(a, dtype=np.float64)
        ours = np.array([phi(x) for x in a.tolist()])
        bad = ours.view(np.uint64) != ndtr(a).view(np.uint64)
        assert not bad.any(), a[bad][:10]

    def test_special_values(self):
        self.assert_equal_to_scipy([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])

    def test_branch_edges_and_their_neighbours(self):
        # each edge and its 64 nearest floats on either side, stepping through the bit patterns
        bits = [np.arange(-64, 65) + np.array([edge]).view(np.int64) for edge in self.EDGES]
        edges = np.concatenate(bits).view(np.float64)
        self.assert_equal_to_scipy(np.concatenate([edges, -edges, np.linspace(-38.6, -37.5, 20001),
                                                   np.linspace(37.5, 38.6, 2001)]))

    def test_log_uniform_magnitudes_and_normal_draws(self):
        rng = np.random.default_rng(20261018)
        magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 100_000)
        self.assert_equal_to_scipy(np.concatenate([
            rng.choice([-1.0, 1.0], magnitudes.size) * magnitudes,
            rng.normal(0.0, 1.0, 100_000),
            rng.normal(0.0, 16.0, 100_000),
        ]))


@contextlib.contextmanager
def counted_float_forms():
    """Counts, by kernel, of the float-form evaluations of the Rayleigh kernels built inside the block."""
    counts = {"density": 0, "cdf": 0}
    with pytest.MonkeyPatch.context() as mp:
        for kernel in counts:
            form = getattr(framesync.continuous, f"_{kernel}_node")

            def counted(*args, form=form, kernel=kernel):
                counts[kernel] += 1
                return form(*args)

            mp.setattr(framesync.continuous, f"_{kernel}_node", counted)
        yield counts


def kernel_of(spec, kernel: str):
    """The Rayleigh kernel of that name ("density" or "cdf") over a table of its own, with the
    constants rayleigh_density_of and quantize_to_dmc give it; its forms looked up at this call."""
    forms = (getattr(framesync.continuous, f"_{kernel}_{form}") for form in ("node", "row"))
    consts = ((2.0 * spec.noise_var, math.sqrt(2.0 * math.pi * spec.noise_var)) if kernel == "density"
              else (spec.sigma, ndtr))
    return _rayleigh_kernel(spec, *forms, *consts)


def recorded(kernel, calls: list):
    """kernel, appending (h, value) to calls at each node QUADPACK asks for."""

    def k(h):
        value = kernel(h)
        calls.append((h, value))
        return value

    return k


class TestRayleighKernels:
    """The kernels' table rows equal their float forms, and both the array composition they
    replace, bit for bit; the float form runs once per distinct node."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        log_var=st.floats(-6.0, 6.0),
        scale=st.floats(0.05, 20.0),
        frac=st.floats(0.0, 0.999),  # of the largest power the kernels accept
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integrands_equal_the_array_composition(self, log_var, scale, frac, seed):
        noise_var = 10.0**log_var
        sigma = math.sqrt(noise_var)
        power = (frac * MAX_SCALE_WIDTHS * sigma / scale) ** 2
        root_p = math.sqrt(power)
        # amplitudes h < 0 too, where the amplitude density is 0; outputs near the signal
        # h sqrt(P), so that every exponential is in play
        draws = np.random.default_rng(seed).uniform([-1.0, -12.0, -12.0], [9.0, 12.0, 12.0], (16, 3))
        draws[:2, 0] = 0.0, -0.0  # the two zeros of h, whose weights differ only in sign
        points = [(h * scale, h * scale * root_p + y * sigma, h * scale * root_p + e * sigma)
                  for h, y, e in draws.tolist()]
        spec = RayleighAwgnSpec(power, noise_var, scale)
        with counted_float_forms() as counts:
            density_at, cdf_at = kernel_of(spec, "density"), kernel_of(spec, "cdf")
            # the first pass meets each node by the float form, the second reads it from a row
            passes = [[(density_at(y)(h), cdf_at(e)(h)) for h, y, e in points] for _ in range(2)]
        # the zeros never join the table: both passes take them by the float form
        assert counts == {"density": len(points) + 2, "cdf": len(points) + 2}
        assert np.array(passes[1]).tobytes() == np.array(passes[0]).tobytes()
        # the composition on arrays, where numpy squares by d * d (on a numpy scalar, d**2 is
        # libm's pow, an ulp off on about one d in a thousand)
        h, y, e = np.array(points).T
        densities = awgn_density(y, h * root_p, noise_var) * rayleigh_pdf(h, scale)
        cdfs = rayleigh_pdf(h, scale) * ndtr((e - h * root_p) / sigma)
        assert np.array(passes[0]).tobytes() == np.column_stack([densities, cdfs]).tobytes()

    def test_nodes_met_at_one_outer_point_read_the_same_bits_at_the_next(self):
        spec = RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0)
        with counted_float_forms() as counts:
            for kernel in counts:
                kernel_at = kernel_of(spec, kernel)
                met, read = [], []
                first = adaptive_quad(recorded(kernel_at(10.0), met), 0.0, spec.h_max)
                assert counts[kernel] == len({h for h, _ in met}) == len(met)  # all misses
                second = adaptive_quad(recorded(kernel_at(10.0), read), 0.0, spec.h_max)
                assert counts[kernel] == len(met)  # all hits
                assert same_bits(first, second)
                assert np.array(read).tobytes() == np.array(met).tobytes()

    def test_a_row_lacks_the_nodes_that_joined_after_it(self):
        spec = RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0)
        density_at = kernel_of(spec, "density")
        first, second = density_at(0.5), density_at(10.0)  # two rows of the empty table
        adaptive_quad(first, 0.0, spec.h_max)  # its nodes join the table, not second's row
        alone = adaptive_quad(kernel_of(spec, "density")(10.0), 0.0, spec.h_max)
        assert same_bits(adaptive_quad(second, 0.0, spec.h_max), alone)

    def test_interleaved_specs_give_the_bits_of_each_alone(self):
        specs = [RayleighAwgnSpec(100.0, 1.0, 1.0), RayleighAwgnSpec(10.0, 4.0, 2.0)]
        xs = (-3.0, 0.5, 10.0, 30.0)

        def integral(spec, kernel_at, x):
            return adaptive_quad(kernel_at(x), 0.0, spec.h_max)

        # each spec alone: its density at every x, then its CDF at every x
        alone = [[integral(spec, kernel_of(spec, kernel), x) for kernel in ("density", "cdf") for x in xs]
                 for spec in specs]
        # interleaved: at each x, one spec's density and CDF, then the other's
        interleaved = [[], []]
        kernels = [(kernel_of(spec, "density"), kernel_of(spec, "cdf")) for spec in specs]
        for x in xs:
            for spec, ats, out in zip(specs, kernels, interleaved):
                out.extend(integral(spec, kernel_at, x) for kernel_at in ats)
        for out in interleaved:
            out[:] = out[0::2] + out[1::2]  # densities, then CDFs
        assert np.array(interleaved).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("run", ["threshold 1", "threshold 10", "threshold 100", "quantize 256"])
    def test_the_float_form_runs_once_per_distinct_node(self, monkeypatch, run):
        """The clockless guard that the table is used: QUADPACK asks for each node at many outer
        points, the float form evaluates it once."""
        calls = []
        quad = framesync.continuous.adaptive_quad
        monkeypatch.setattr(framesync.continuous, "adaptive_quad",
                            lambda fn, *args, **kwargs: quad(recorded(fn, calls), *args, **kwargs))
        what, value = run.split()
        with counted_float_forms() as counts:
            if what == "threshold":
                rayleigh_threshold_numeric(RayleighAwgnSpec(power=float(value), noise_var=1.0, scale=1.0))
            else:
                quantize_to_dmc(RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0),
                                QuantizationGrid(-8.0, 36.0, int(value)), mass_loss_tol=1e-2)
        kernel = "density" if what == "threshold" else "cdf"
        nodes = {h for h, _ in calls}
        assert counts == {"density": 0, "cdf": 0} | {kernel: len(nodes)}
        assert len(calls) > 20 * len(nodes)

    def test_rows_numpy_cannot_evaluate_are_left_to_the_float_form(self):
        """Where y - h sqrt(P) squares past the largest double, the float form raises OverflowError
        (Python's pow), and where N(y; h sqrt(P), sigma^2) w(h) overflows it returns inf silently;
        numpy would warn and return 0 and inf. Such rows take the float form, so neither the
        error nor the silence changes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density = rayleigh_density_of(RayleighAwgnSpec(1.0, 1.0, 1.0))
            density(0.5)  # the table fills
            with pytest.raises(QuadratureNonConvergence, match="OverflowError"):
                density(1e200)
            with pytest.raises(QuadratureNonConvergence, match="OverflowError"):
                rayleigh_threshold_numeric(RayleighAwgnSpec(1e-310, 1e307, 2.0))
            density = rayleigh_density_of(RayleighAwgnSpec(1e-8, 1e-320, 1e-155))
            assert density(0.5) == 0.0
            assert density(1e-300) == math.inf

    def test_quadratures_equal_those_of_the_array_composition(self, monkeypatch):
        spec = RayleighAwgnSpec(power=100.0, noise_var=1.0, scale=1.0)
        ys, grid = (-3.0, 0.5, 10.0, 30.0), QuantizationGrid(-8.0, 36.0, 32)

        def outputs():
            density = rayleigh_density_of(spec)  # the kernels, looked up at this call
            densities = np.array([density(y) for y in ys])
            return densities.tobytes(), quantize_to_dmc(spec, grid, mass_loss_tol=1e-2).rows.tobytes()

        kernels = outputs()
        root_p = math.sqrt(spec.power)
        # the composition on arrays, one h-kernel per outer point as the table's kernels give
        compositions = {
            framesync.continuous._density_node:
                lambda s: lambda y: lambda h: awgn_density(y, h * root_p, s.noise_var) * rayleigh_pdf(h, s.scale),
            framesync.continuous._cdf_node:
                lambda s: lambda e: lambda h: rayleigh_pdf(h, s.scale) * ndtr((e - h * root_p) / s.sigma),
        }
        monkeypatch.setattr(framesync.continuous, "_rayleigh_kernel",
                            lambda s, node_form, *_: compositions[node_form](s))
        assert outputs() == kernels


class TestRayleighOracle:
    """The quadratures against the closed forms of rayleigh_oracle.py, up to MAX_SCALE_WIDTHS and past it."""

    # noise variances far apart: the quadratures see only sigma_H sqrt(P) / sigma
    SCALES = [(1.0, 1.0), (1e-12, 2.0), (1e12, 0.5)]
    WIDTHS = (0.1, 1.0, 10.0, 20.0, 30.0, MAX_SCALE_WIDTHS * (1.0 - 1e-12))

    @staticmethod
    def power(widths, noise_var, scale):
        return (widths * math.sqrt(noise_var) / scale) ** 2

    @pytest.mark.parametrize("noise_var, scale", SCALES)
    def test_threshold_up_to_the_bound(self, noise_var, scale):
        for widths in self.WIDTHS:
            power = self.power(widths, noise_var, scale)
            alpha = rayleigh_threshold_numeric(RayleighAwgnSpec(power, noise_var, scale))
            # within the relative tolerance the threshold's quadrature asks for
            assert alpha == pytest.approx(rayleigh_oracle.threshold(power, noise_var, scale), rel=1e-6), widths

    @pytest.mark.parametrize("noise_var, scale", SCALES)
    def test_quantized_row_up_to_the_bound(self, noise_var, scale):
        for widths in self.WIDTHS:
            power = self.power(widths, noise_var, scale)
            spec = RayleighAwgnSpec(power, noise_var, scale)
            grid = default_grid(spec, 64)
            cdf = np.array([rayleigh_oracle.cdf(e, power, noise_var, scale) for e in grid.edges])
            cdf[0], cdf[-1] = 0.0, 1.0  # the tail cells absorb
            row = quantize_to_dmc(spec, grid).rows[1]
            # ten times the relative tolerance asked of each CDF value
            assert np.abs(row - np.diff(cdf)).max() <= 1e-9, widths

    @pytest.mark.parametrize(
        "power, noise_var, scale",
        [
            (1e4, 1.0, 1.0),  # 100 widths: the threshold came out 4465.35 for 9995.87
            (1e300, 1.0, 1.0),  # the threshold came out 0
            (1.0, 1e-300, 1.0),
            ((MAX_SCALE_WIDTHS * 1.001) ** 2, 1.0, 1.0),
        ],
    )
    def test_past_the_bound_raises(self, power, noise_var, scale):
        spec = RayleighAwgnSpec(power, noise_var, scale)
        with pytest.raises(QuadratureNonConvergence):
            rayleigh_threshold_numeric(spec)
        with pytest.raises(QuadratureNonConvergence):
            rayleigh_density_of(spec)
        with pytest.raises(QuadratureNonConvergence):
            quantize_to_dmc(spec, QuantizationGrid(-8.0, 8.0, 16))


class TestQuantization:
    def test_two_bin_split_at_zero(self):
        spec = AwgnSpec(power=0.0, noise_var=1.0)
        dmc = quantize_to_dmc(spec, QuantizationGrid(-8.0, 8.0, 2))
        assert np.allclose(dmc.rows[0], [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("bins", [2, 8, 64, 4096])
    def test_rows_equal_those_of_scipy_ndtr(self, monkeypatch, bins):
        import framesync.continuous

        def scipy_row(edges, mean, sigma):
            """_gaussian_row's cell masses on scipy.special.ndtr's arrays."""
            z = (edges - mean) / sigma
            lo_z, hi_z = z[:-1], z[1:]
            cells = np.where(lo_z > 0.0, ndtr(-lo_z) - ndtr(-hi_z), ndtr(hi_z) - ndtr(lo_z))
            tail = 1.0 - cells.sum()
            cells[0] += ndtr((edges[0] - mean) / sigma)
            cells[-1] += ndtr(-(edges[-1] - mean) / sigma)
            return cells, tail

        def rows():
            """Rows, or MassLoss messages, on the default grid, the simulation grid and [-1, 1]."""
            out = []
            for power in (0.0, 1e-6, 0.25, 1.0, 4.0, 32.0, 100.0, 1e4):
                for noise_var in (0.01, 1.0, 7.5):
                    spec = AwgnSpec(power, noise_var)
                    for quantize in (lambda: quantize_to_dmc(spec, default_grid(spec, bins)),
                                     lambda: quantized_awgn(spec, bins),
                                     lambda: quantize_to_dmc(spec, QuantizationGrid(-1.0, 1.0, bins))):
                        try:
                            out.append(quantize().rows.tobytes())
                        except MassLoss as exc:
                            out.append(str(exc))
            return out

        ours = rows()
        assert any(isinstance(row, str) for row in ours) and any(isinstance(row, bytes) for row in ours)
        monkeypatch.setattr(framesync.continuous, "_gaussian_row", scipy_row)
        assert rows() == ours

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
        hist = np.bincount(bin_of(grid, draws), minlength=64) / n
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
