"""The two rules for numeric arguments, channels._integer and channels._real, at every entry point
that reads a number: what each refuses, the float64 it returns, and the message that names the
parameter."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesync as fs
from framesync.channels import ChannelError, _integer, _real
from framesync.sequences import SequenceError

# bool, an integral float, NaN, the infinities, a negative, zero, integers past int64 and past a
# double, numpy's float32 and int64, None and a string
ODD = (True, 2.0, math.nan, math.inf, -math.inf, -1, 0, 2**70, 10**400, np.float32(0.25), np.int64(3),
       None, "1")


class TestRules:
    def test_real_returns_a_python_float(self):
        for value in (np.float32(0.1), np.float64(0.5), np.int64(3), 2, 0.25):
            x = _real("x", value)
            assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("value", [True, np.True_, None, "0.5", b"1", 1j, np.array(0.5)], ids=repr)
    def test_real_refuses_what_is_no_real_number(self, value):
        with pytest.raises(ValueError, match=f"^x must be a real number, got {re.escape(repr(value))}$"):
            _real("x", value)

    @pytest.mark.parametrize("lo, hi, ends, inside, outside, text", [
        (0, 1, "()", (0.5, 1e-300), (0, 1, math.nan, -math.inf), "in (0,1)"),
        (0, 1, "[]", (0, 1, 0.5), (-1e-300, 1.5, math.nan), "in [0,1]"),
        (0, math.inf, "(]", (1e-300, 1e308), (0, -1, math.inf, math.nan), "finite and > 0"),
        (0, math.inf, "[]", (0, 1e308), (-1, math.inf, math.nan), "finite and >= 0"),
        (-math.inf, math.inf, "[]", (-1e308, 0, 1e308), (math.inf, -math.inf, math.nan), "finite"),
    ])
    def test_real_range(self, lo, hi, ends, inside, outside, text):
        for value in inside:
            assert _real("x", value, lo, hi, ends) == value
        for value in outside:
            with pytest.raises(ValueError, match=f"^x must be {re.escape(text)}, got "):
                _real("x", value, lo, hi, ends)

    def test_an_integer_past_a_double_reads_as_an_infinity(self):
        for value, shown in ((10**400, "inf"), (-(10**400), "-inf")):
            with pytest.raises(ValueError, match=f"^x must be finite and >= 0, got {shown}$"):
                _real("x", value, 0)
        assert _real("x", 2**70) == 2.0**70

    def test_integer_range(self):
        assert _integer("n", np.int64(5), 1, 5) == 5 and type(_integer("n", np.int64(5), 1, 5)) is int
        for value, message in ((0, "n must be >= 1, got 0"), (-(2**70), f"n must be >= 1, got {-(2**70)}")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                _integer("n", value, 1)
        with pytest.raises(ValueError, match=r"^n must be in \[1,5\], got 6$"):
            _integer("n", 6, 1, 5)
        with pytest.raises(ValueError, match=r"^n must be in \[1,2\^63\), got 9223372036854775808$"):
            _integer("n", 2**63, 1, 2**63, "[)")
        assert _integer("n", 2**63 - 1, 1, 2**63, "[)") == 2**63 - 1

    def test_the_error_class_is_the_callers(self):
        for rule, value in ((_integer, 0), (_integer, 0.5), (_real, -1), (_real, "1")):
            with pytest.raises(SequenceError):
                rule("x", value, 1, error=SequenceError)


class TestSilentAnswersAreRefused:
    """Each of these returned an answer, or failed with an exception that is no ValueError."""

    @pytest.mark.parametrize("master_seed, trial_index, name", [
        (1.5, 0, "master_seed"), (True, 0, "master_seed"), (np.True_, 0, "master_seed"),
        ("1", 0, "master_seed"), (1, 0.0, "trial_index"), (1, False, "trial_index"),
    ], ids=repr)
    def test_trial_rng_reads_integers(self, master_seed, trial_index, name):
        # 1.5 and True drew what seed 1 draws
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            fs.trial_rng(master_seed, trial_index)
        draw = fs.trial_rng(np.int64(1), np.int32(0)).random(4)
        assert np.array_equal(draw, fs.trial_rng(1, 0).random(4))

    def test_a_nan_mass_loss_tolerance_is_refused(self):
        # the check compared every tail with NaN and passed them all
        spec, grid = fs.AwgnSpec(1.0, 1.0), fs.QuantizationGrid(-0.5, 0.5, 4)
        with pytest.raises(fs.MassLoss):
            fs.quantize_to_dmc(spec, grid)
        for tol in (math.nan, -1.0, math.inf, "1e-6"):
            with pytest.raises(ValueError, match="^mass_loss_tol must be "):
                fs.quantize_to_dmc(spec, grid, mass_loss_tol=tol)

    @pytest.mark.parametrize("call, message", [
        (lambda: fs.on_off_fading_matrix(0.5, 2.5), "n_inputs must be an integer, got 2.5"),  # TypeError
        (lambda: fs.rayleigh_ratio_sweep([1.0], [1.0], "1"), "noise variance must be a real number, got '1'"),
        (lambda: fs.AwgnSpec(10**400, 1.0), "power must be finite and >= 0, got inf"),  # OverflowError
        (lambda: fs.TrialConfig(30, fs.build_sync_word(15, 2), fs.bsc(0.1), mu=10**400),
         "mu must be finite and > 0, got inf"),  # OverflowError
        # these two were accepted
        (lambda: fs.RayleighAwgnSpec(1.0, 1.0, 10**400), "Rayleigh scale must be finite and > 0, got inf"),
        (lambda: fs.QuantizationGrid(0, 10**400, 4), "hi must be finite, got inf"),
    ])
    def test_each_names_its_parameter(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_channel_and_sequence_errors_keep_their_class(self):
        for call in (lambda: fs.bsc("0.1"), lambda: fs.on_off_fading_matrix(None),
                     lambda: fs.on_off_fading_matrix(0.5, 0)):
            with pytest.raises(ChannelError):
                call()
        for call in (lambda: fs.build_sync_word(0, 2), lambda: fs.build_sync_word(15, 0),
                     lambda: fs.nearest_valid_length(100, 0)):
            with pytest.raises(SequenceError):
                call()


class TestFloat32GivesWhatItsFloatGives:
    """A numpy float32 is read as float() of it, and everything after computes in float64."""

    def test_on_off_fading_matrix(self):
        # raised NonStochasticRow ("row 0 sums to 0.9999999776482582")
        p = np.float32(0.1)
        assert fs.on_off_fading_matrix(p) == fs.on_off_fading_matrix(float(p))

    def test_rayleigh_threshold_numeric(self):
        # raised QuadratureNonConvergence: the spec kept its float32 fields
        f = np.float32
        spec = fs.RayleighAwgnSpec(f(10), f(1), f(1))
        assert all(type(getattr(spec, name)) is float for name in ("power", "noise_var", "scale"))
        alpha = fs.rayleigh_threshold_numeric(fs.RayleighAwgnSpec(10.0, 1.0, 1.0))
        assert fs.rayleigh_threshold_numeric(spec) == alpha

    def test_fading_bound_report(self):
        p = np.float32(0.1)
        report = fs.fading_bound_check(p, fs.bsc(0.1))
        assert type(report.p) is float and report == fs.fading_bound_check(float(p), fs.bsc(0.1))


def _word():
    return fs.build_sync_word(15, 2)


def _config():
    return fs.TrialConfig(a=30, word=_word(), channel=fs.bsc(0.1), mu=0.15)


def _stream():
    return np.concatenate([np.zeros(4, np.int64), _word().symbols, np.zeros(6, np.int64)])


def _is_dmc(result):
    return isinstance(result, fs.Dmc) and result.rows.dtype == np.float64


def _fields_are_floats(*names):
    return lambda result: all(type(getattr(result, name)) is float for name in names)


def _rows(result):
    return all(isinstance(row, fs.ScalingRow) and type(row.a) is int and row.a >= 1 for row in result)


# entry point, its numeric arguments with a good value each, its other arguments, and what a result
# it returns must satisfy; a list argument's one element is the number drawn
ENTRIES = {
    "bsc": (fs.bsc, {"eps": 0.1}, {}, _is_dmc),
    "on_off_fading_matrix": (fs.on_off_fading_matrix, {"p": 0.5, "n_inputs": 2}, {}, _is_dmc),
    "AwgnSpec": (fs.AwgnSpec, {"power": 1.0, "noise_var": 1.0}, {}, _fields_are_floats("power", "noise_var")),
    "RayleighAwgnSpec": (fs.RayleighAwgnSpec, {"power": 1.0, "noise_var": 1.0, "scale": 1.0}, {},
                         _fields_are_floats("power", "noise_var", "scale")),
    "QuantizationGrid": (fs.QuantizationGrid, {"lo": -3.0, "hi": 4.0, "bins": 4}, {},
                         lambda grid: _fields_are_floats("lo", "hi")(grid) and type(grid.bins) is int),
    "quantize_to_dmc": (fs.quantize_to_dmc, {"mass_loss_tol": 1e-6},
                        {"spec": fs.AwgnSpec(1.0, 1.0), "grid": fs.QuantizationGrid(-8.0, 9.0, 8)}, _is_dmc),
    "composite_binary_threshold_closed_form": (
        fs.composite_binary_threshold_closed_form, {"p": 0.5, "eps": 0.1}, {},
        lambda alpha: type(alpha) is float and alpha >= 0.0),
    "fading_bound_check": (fs.fading_bound_check, {"p": 0.5}, {"noise": fs.bsc(0.1)},
                           _fields_are_floats("p", "alpha_composite", "alpha_noise")),
    # one cell: the only Rayleigh quadrature this test runs
    "rayleigh_ratio_sweep": (
        fs.rayleigh_ratio_sweep, {"snr_grid": [1.0], "sigma_h_list": [1.0], "noise_var": 1.0}, {},
        lambda cells: len(cells) == 1 and type(cells[0].snr) is float),
    "build_sync_word": (fs.build_sync_word, {"n": 15, "k": 2, "seed": 1}, {}, lambda word: len(word) == 15),
    "nearest_valid_length": (fs.nearest_valid_length, {"n_target": 100, "k": 4}, {},
                             lambda n: type(n) is int and n >= 1),
    "TrialConfig": (fs.TrialConfig, {"a": 30, "mu": 0.15}, {"word": _word(), "channel": fs.bsc(0.1)},
                    lambda cfg: type(cfg.a) is int and type(cfg.decoder.mu) is float),
    "run_decoder": (fs.run_decoder, {"scan_limit": 6}, {"decoder": _config().decoder, "output_stream": _stream()},
                    lambda t: t is None or type(t) is int),
    "monte_carlo": (fs.monte_carlo, {"trials": 20, "master_seed": 1, "workers": 1}, {"config": _config()},
                    lambda report: sum(report.counts) == report.trials),
    "trial_rng": (fs.trial_rng, {"master_seed": 1, "trial_index": 0}, {},
                  lambda rng: isinstance(rng, np.random.Generator)),
    "wilson_interval": (fs.wilson_interval, {"successes": 3, "trials": 10}, {},
                        lambda ci: all(type(x) is float for x in ci) and 0.0 <= ci[0] <= ci[1] <= 1.0),
    "single_rows": (fs.single_rows, {"n": 15, "k": 2, "mu": 0.15, "beta": 0.5}, {"channel": fs.bsc(0.1)},
                    _rows),
    "bsc_scaling_rows": (fs.bsc_scaling_rows, {"eps": 0.1, "k": 2, "n_list": [15], "beta": 0.5, "mu": 0.15}, {},
                         _rows),
    "energy_scaling_rows": (fs.energy_scaling_rows, {"energy": 32.0, "sigma2": 1.0, "n_list": [15], "bins": 8,
                                                     "mu_coeff": 1.2}, {}, _rows),
}


def _call(name, args):
    """Call entry point name on args with numpy warnings raised as errors. It returns a result that
    passes its check, or raises a ValueError (a refused input) or a RuntimeError (a computation that
    cannot finish: a sweep cell past the quadrature's reach, a stream too short); anything else, such
    as a TypeError, an OverflowError or a warning, fails the test."""
    function, _, _, check = ENTRIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(**args)
        except (ValueError, RuntimeError):
            return
    assert check(result), (name, args, result)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_each_numeric_argument_alone(name):
    """Every value of ODD in every numeric argument, the others good."""
    _, numeric, others, _ = ENTRIES[name]
    for key, good in numeric.items():
        for value in ODD:
            _call(name, {**others, **numeric, key: [value] if isinstance(good, list) else value})


@st.composite
def calls(draw):
    """An entry point and its arguments, each numeric one kept or replaced by a value of ODD."""
    name = draw(st.sampled_from(sorted(ENTRIES)))
    _, numeric, others, _ = ENTRIES[name]
    args = dict(others)
    for key, good in numeric.items():
        odd = draw(st.one_of(st.none(), st.sampled_from(ODD).map(lambda v: (v,))))
        value = good if odd is None else odd[0]
        args[key] = [value] if isinstance(good, list) else value
    return name, args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(calls())
def test_numeric_arguments_together(call):
    """Several numeric arguments odd at once."""
    _call(*call)
