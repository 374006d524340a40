import dataclasses
import json
import math
import os
import signal
import subprocess
import sys

import pytest

import framesync
import framesync.cli as cli
import framesync.thresholds
from framesync import (
    QuadratureNonConvergence,
    SimulationInfeasible,
    composite_binary_threshold_closed_form,
)
from framesync.cli import _config_from_replay, main

from closed_forms import bsc_threshold_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitPolicy:
    """main alone turns an exception into its error line, and picks the exit code by its class."""

    # each command, and a name in cli that it calls
    COMMANDS = [
        (["sequence", "--n", "63", "--k", "4"], "build_sync_word"),
        (["threshold", "--bsc", "0.1"], "sync_threshold"),
        (["lemma1-grid", "--p-list", "0.5", "--eps-list", "0.1"], "fading_bound_check"),
        (["rayleigh-sweep", "--snr-list", "1", "--sigma-h-list", "1"], "rayleigh_ratio_sweep"),
        (["simulate", "--preset", "single_bsc", "--set", "trials=5"], "monte_carlo"),  # a row's failure, re-raised
    ]

    @pytest.mark.parametrize("argv, name", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
    @pytest.mark.parametrize("exc, code", [
        (ValueError("bad value"), 2),
        (OSError("unreadable"), 2),
        (SimulationInfeasible("refused"), 3),
        (QuadratureNonConvergence("no convergence"), 3),
        (MemoryError("Unable to allocate 2.00 GiB"), 3),
        (RuntimeError("failed"), 3),
    ], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
    def test_exception_class_picks_the_exit_code(self, capsys, monkeypatch, argv, name, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, fail)
        assert run_cli(capsys, *argv) == (code, "", f"error: {exc}\n")

    @pytest.mark.parametrize("argv, name", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
    def test_interrupt_exits_130(self, capsys, monkeypatch, argv, name):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, name, interrupted)
        assert run_cli(capsys, *argv) == (130, "", "error: interrupted\n")

    # a value its parser refuses; these printed the bare Python message, naming no key or flag
    MALFORMED = [
        (["simulate", "--preset", "single_bsc", "--set", "seed=1e3"],
         "config key 'seed': invalid literal for int() with base 10: '1e3'"),
        (["simulate", "--preset", "single_bsc", "--set", "trials=x"],
         "config key 'trials': invalid literal for int() with base 10: 'x'"),
        (["simulate", "--preset", "single_bsc", "--set", "n=x"],
         "config key 'n': invalid literal for int() with base 10: 'x'"),
        (["simulate", "--preset", "single_bsc", "--set", "mu=abc"],
         "config key 'mu': could not convert string to float: 'abc'"),
        (["simulate", "--preset", "single_bsc", "--set", "channel=bsc:x"],
         "config key 'channel': could not convert string to float: 'x'"),
        (["simulate", "--preset", "bsc_scaling", "--set", "n_list=15,x"],
         "config key 'n_list': invalid literal for int() with base 10: 'x'"),
        (["simulate", "--preset", "energy_scaling", "--set", "bins=x"],
         "config key 'bins': invalid literal for int() with base 10: 'x'"),
        (["lemma1-grid", "--p-list", "x"], "--p-list: could not convert string to float: 'x'"),
        (["rayleigh-sweep", "--snr-list", "1,y"], "--snr-list: could not convert string to float: 'y'"),
        (["threshold", "--onoff-bsc", "x", "0.1"], "--onoff-bsc: could not convert string to float: 'x'"),
        (["threshold", "--onoff-bsc", "eps=0.1", "p=x"], "--onoff-bsc: could not convert string to float: 'x'"),
    ]

    @pytest.mark.parametrize("argv, message", MALFORMED, ids=[" ".join(argv[1:]) for argv, _ in MALFORMED])
    def test_malformed_value_names_its_key_or_flag(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_violated_bound_writes_the_grid_then_exits_3(self, capsys, monkeypatch, tmp_path):
        real = cli.fading_bound_check

        def violated_at_half(p, noise):
            rep = real(p, noise)
            return dataclasses.replace(rep, alpha_composite=math.inf) if p == 0.5 else rep

        monkeypatch.setattr(cli, "fading_bound_check", violated_at_half)
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, "lemma1-grid", "--p-list", "0.5,1", "--eps-list", "0.1", "--out", str(out))
        assert code == 3 and err == "error: fading bound violated on the grid\n"
        assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()] == ["holds", "false", "true"]

    def test_failed_replace_removes_the_temporary_and_exits_2(self, capsys, monkeypatch, tmp_path):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "word.json"
        code, _, err = run_cli(capsys, "sequence", "--n", "63", "--k", "4", "--out", str(out))
        assert code == 2 and err == f"error: cannot replace {out}\n"
        assert list(tmp_path.iterdir()) == []  # neither the target nor a .tmp-framesync-* file

    def test_memory_error_at_a_row_flushes_the_rows_before_it(self, capsys, monkeypatch, tmp_path):
        real, calls = cli.monte_carlo, []

        def second_row_fails(config, **run):
            calls.append(config)
            if len(calls) == 2:
                raise MemoryError("Unable to allocate 1.53 GiB")
            return real(config, **run)

        monkeypatch.setattr(cli, "monte_carlo", second_row_fails)
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "simulate", "--preset", "bsc_scaling", "--set", "trials=20", "--out", str(out))
        assert code == 3
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: Unable to allocate 1.53 GiB (partial results flushed)"
        ]
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 2 and rows[1].startswith("63,")  # the header and the N = 63 row


    def test_interrupt_at_a_row_flushes_the_rows_before_it_and_exits_130(self, capsys, monkeypatch, tmp_path):
        real, calls = cli.monte_carlo, []

        def second_row_interrupted(config, **run):
            calls.append(config)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(config, **run)

        monkeypatch.setattr(cli, "monte_carlo", second_row_interrupted)
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "simulate", "--preset", "bsc_scaling", "--set", "trials=20", "--out", str(out))
        assert code == 130
        assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: interrupted"]
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 2 and rows[1].startswith("63,")  # the header and the N = 63 row
        assert list(tmp_path.iterdir()) == [out]  # no .tmp-framesync-* file

    # SIGINT raised in a child at its second row, as Ctrl-C would deliver it, through Python's own handler
    INTERRUPTED_MAIN = """
import signal, sys
import framesync.cli as cli
real, calls = cli.monte_carlo, []
def second_row_interrupted(config, **run):
    calls.append(config)
    if len(calls) == 2:
        signal.raise_signal(signal.SIGINT)
    return real(config, **run)
cli.monte_carlo = second_row_interrupted
sys.exit(cli.main(sys.argv[1:]))
"""

    def test_sigint_at_a_row_flushes_the_rows_before_it_and_exits_130(self, tmp_path):
        out = tmp_path / "o.csv"
        src = os.path.dirname(os.path.dirname(framesync.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", self.INTERRUPTED_MAIN, "simulate", "--preset", "bsc_scaling",
             "--set", "trials=20", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 130, proc.stderr
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == ["error: interrupted"]
        assert "Traceback" not in proc.stderr
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 2 and rows[1].startswith("63,")
        assert list(tmp_path.iterdir()) == [out]

    # every forked pool child dies at its first batch, with no word, as a killed process would
    DYING_CHILD_MAIN = """
import os, sys
import framesync.cli as cli
from framesync.decoder import TrialEngine
parent = os.getpid()
def run_batch(*args):  # its own name: the pool sends engine.run_batch to a child by name
    assert os.getpid() != parent, "no batch runs in the parent at workers 2"
    os._exit(1)
TrialEngine.run_batch = run_batch
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.parametrize("preset", ["single_bsc", "bsc_scaling"])
    def test_a_dead_pool_child_exits_3(self, tmp_path, preset):
        # BrokenProcessPool is a RuntimeError: one error line, exit 3, and no traceback from the pool
        out = tmp_path / "o.out"
        src = os.path.dirname(os.path.dirname(framesync.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", self.DYING_CHILD_MAIN, "simulate", "--preset", preset,
             "--set", "trials=20", "--set", "workers=2", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "terminated abruptly" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr
        # a scaling run writes the rows it finished, none here: its header alone
        written = [] if preset == "single_bsc" else [out]
        assert list(tmp_path.iterdir()) == written  # no .tmp-framesync-* file
        if written:
            assert [line for line in out.read_text().splitlines() if not line.startswith("#")] == [
                "n,a,alpha,p_err,ci_lo,ci_hi,p_e1,p_e2,p_e3"]

    # SIGINT to the whole process group while one pool child runs a chunk and the other waits idle for a
    # next one, where Python's own handler printed "Process ForkProcess-2:" and a KeyboardInterrupt
    # traceback. Each chunk marks its start and waits for the other's, so they run in two children (a
    # child held there takes no second chunk) that both ran the pool's initializer; the other chunk then
    # returns. The first chunk's worker pauses, so that child reaches its wait (the test passes in either
    # state), sends SIGINT as Ctrl-C would, and holds its chunk: a child that only ignored SIGINT would
    # keep the pool's shutdown waiting past the timeout
    INTERRUPTING_CHILD_MAIN = """
import os, signal, sys, time
import framesync.cli as cli
from framesync.decoder import CLASSES, TrialEngine
marks = sys.argv.pop(1)
def run_batch(self, master_seed, lo, hi):  # its own name: the pool sends engine.run_batch to a child by name
    open(os.path.join(marks, str(lo)), "w").close()
    while len(os.listdir(marks)) < 2:
        time.sleep(0.01)
    if lo:
        return dict.fromkeys(CLASSES, 0)
    time.sleep(0.2)
    os.killpg(0, signal.SIGINT)
    time.sleep(600)
TrialEngine.run_batch = run_batch
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the pool runs both chunks in one child on one CPU")
    def test_sigint_to_the_pool_exits_130_without_a_child_traceback(self, tmp_path):
        src = os.path.dirname(os.path.dirname(framesync.__file__))
        for run in range(3):
            marks, out = tmp_path / f"marks{run}", tmp_path / f"o{run}.csv"
            marks.mkdir()
            proc = subprocess.Popen(
                [sys.executable, "-c", self.INTERRUPTING_CHILD_MAIN, str(marks), "simulate", "--preset",
                 "bsc_scaling", "--set", "trials=2000", "--set", "workers=2", "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True,  # its own process group, which the SIGINT reaches and no other
            )
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:  # a child that outlived SIGINT, its chunk holding the pool's shutdown
                os.killpg(proc.pid, signal.SIGKILL)
                raise
            assert proc.returncode == 130, (run, err)
            assert err.splitlines()[-1] == "error: interrupted", (run, err)
            assert "Traceback" not in err and "ForkProcess" not in err, (run, err)
            assert sorted(marks.iterdir()) == [marks / "0", marks / "1000"], run
            assert not list(tmp_path.glob(".tmp-framesync-*")), run
            assert [line for line in out.read_text().splitlines() if not line.startswith("#")] == [
                "n,a,alpha,p_err,ci_lo,ci_hi,p_e1,p_e2,p_e3"], run  # interrupted at the first row
            with pytest.raises(ProcessLookupError):  # no pool child outlived the run
                os.killpg(proc.pid, 0)


class TestThreshold:
    def test_bsc(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--bsc", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_nats"] == pytest.approx(
            bsc_threshold_closed_form(0.1), abs=1e-12
        )
        assert payload["argmax_symbol"] == 1

    def test_identity_file_reports_infinite(self, capsys, tmp_path):
        path = tmp_path / "identity.mat"
        path.write_text("2 2\n1 0\n0 1\n")
        code, out, _ = run_cli(capsys, "threshold", "--file", str(path))
        assert code == 0
        assert json.loads(out)["alpha_nats"] == "infinite"

    def test_onoff_bsc_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--onoff-bsc", "0.5", "0.1")
        assert code == 0
        assert json.loads(out)["alpha_nats"] == pytest.approx(
            composite_binary_threshold_closed_form(0.5, 0.1), abs=1e-12
        )

    def test_keyed_onoff_form_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--onoff-bsc", "p=0.5", "eps=0.1")
        assert code == 0
        # keys name their values in either order; this order ran as p = 0.1, eps = 0.5
        code, swapped, _ = run_cli(capsys, "threshold", "--onoff-bsc", "eps=0.1", "p=0.5")
        assert code == 0 and swapped == out
        assert json.loads(out)["config"]["channel"] == "onoff-bsc:0.5,0.1"
        for tokens in (("p=0.5", "x=0.1"), ("p=0.5", "p=0.1"), ("p=0.5", "0.1"), ("0.5", "eps=0.1")):
            code, printed, err = run_cli(capsys, "threshold", "--onoff-bsc", *tokens)
            assert code == 2 and printed == "" and err.startswith("error:"), tokens

    @pytest.mark.parametrize("flag, values", [
        ("--bsc", (0.123456789,)),
        ("--bsc", (0.1 + 0.2,)),
        ("--onoff-bsc", (0.123456789, 0.1 + 0.2)),
        ("--awgn", (1234567.0, 1.0)),
        ("--awgn", (0.1 + 0.2, 0.123456789)),
    ])
    def test_config_echo_reads_back_as_the_input(self, capsys, flag, values):
        # the echo was formatted with :g, six significant digits: bsc:0.123457, awgn:1.23457e+06,1
        code, out, _ = run_cli(capsys, "threshold", flag, *map(repr, values))
        assert code == 0
        echoed = json.loads(out)["config"]["channel"].partition(":")[2].split(",")
        assert [float(v) for v in echoed] == list(values)

    def test_bits_flag(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--bsc", "0.1", "--bits")
        payload = json.loads(out)
        assert payload["alpha_bits"] == pytest.approx(
            bsc_threshold_closed_form(0.1) / math.log(2.0), abs=1e-12
        )

    def test_validation_failure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--bsc", "1.5")
        assert code == 2
        assert "error" in err

    def test_nan_inputs_exit_2(self, capsys):
        for argv in (
            ("--awgn", "nan", "1"),
            ("--awgn", "1", "nan"),
            ("--inline", "nan,1;0.5,0.5"),
            ("--awgn", "1", "inf"),  # infinite parameters too
            ("--rayleigh", "inf", "1", "1"),
            ("--rayleigh", "1", "1", "inf"),
        ):
            code, out, err = run_cli(capsys, "threshold", *argv)
            assert code == 2 and err.startswith("error:") and out == "", argv

    def test_awgn_threshold_overflow_is_validation_error(self, capsys, tmp_path):
        # P / (2 sigma^2) past the largest double: an overflow, not the "infinite" of a support mismatch
        out = tmp_path / "never.json"
        for values in (("1", "1e-320"), ("1e300", "1e-10")):
            code, printed, err = run_cli(capsys, "threshold", "--awgn", *values, "--out", str(out))
            assert code == 2 and printed == "" and err.startswith("error:") and "overflows" in err, values
            assert not out.exists()
        code, printed, _ = run_cli(capsys, "threshold", "--awgn", "1e-320", "1")
        assert code == 0 and json.loads(printed)["alpha_nats"] == 5e-321

    def test_row_sum_error_prints_a_plain_float(self, capsys, tmp_path):
        # under numpy 2 both messages printed the sum as np.float64(0.9)
        path = tmp_path / "short.mat"
        path.write_text("2 2\n0.5 0.4\n0.5 0.5\n")
        for source in (("--inline", "0.5,0.4;0.5,0.5"), ("--file", str(path))):
            code, out, err = run_cli(capsys, "threshold", *source)
            assert code == 2 and out == "" and "sums to 0.9" in err and "np.float64" not in err, source

    @pytest.mark.parametrize("argv", [("10000", "1", "1"), ("1e300", "1", "1"), ("1", "1e-300", "1")])
    def test_rayleigh_past_the_quadrature_bound_exits_3(self, capsys, argv):
        # these printed a wrong alpha (4465.35 for 9995.87, or 0) with exit 0
        code, out, err = run_cli(capsys, "threshold", "--rayleigh", *argv)
        assert code == 3 and out == "" and err.startswith("error:")

    def test_empty_table_file_exits_2(self, capsys, tmp_path):
        for header in ("0 2", "2 0"):
            path = tmp_path / "empty.mat"
            path.write_text(header + "\n")
            code, out, err = run_cli(capsys, "threshold", "--file", str(path))
            assert code == 2 and err.startswith("error:") and out == "", header

    @pytest.mark.parametrize("sources", [
        ("--bsc", "0.1", "--awgn", "1", "1"),  # printed the BSC report with exit 0
        ("--inline", "0.9,0.1;0.2,0.8", "--file", "channel.mat"),
        (),
    ])
    def test_not_exactly_one_source_exits_2(self, capsys, sources):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", *sources])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert any("error:" in line for line in captured.err.splitlines()), captured.err

    def test_inline(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--inline", "0.9,0.1;0.2,0.8")
        assert code == 0
        assert json.loads(out)["argmax_symbol"] == 1

    def test_ragged_inline_rows_name_their_lengths(self, capsys):
        # these exited 2 with numpy's "inhomogeneous shape" message
        for rows, lengths in (("0.5,0.5;0.5", "2, 1"), ("1;0.5,0.5;0.2,0.3,0.5", "1, 2, 3")):
            code, out, err = run_cli(capsys, "threshold", "--inline", rows)
            assert code == 2 and out == "", rows
            assert err == f"error: --inline rows must be equally long, got lengths {lengths}\n"

    def test_empty_or_unreadable_inline_rows_are_named(self, capsys):
        # these exited 2 with "could not convert string to float: ''", naming neither flag nor row
        for rows, what in (
            ("0.5,0.5;", "row 2 of '0.5,0.5;' is empty"),
            (";", "row 1 of ';' is empty"),
            ("0.5,x;0.5,0.5", "row 1 of '0.5,x;0.5,0.5' holds an entry that is not a number: '0.5,x'"),
            ("1,0;0.5,,0.5", "row 2 of '1,0;0.5,,0.5' holds an entry that is not a number: '0.5,,0.5'"),
        ):
            code, out, err = run_cli(capsys, "threshold", "--inline", rows)
            assert (code, out, err) == (2, "", f"error: --inline {what}\n"), rows

    # P, sigma^2 and sigma_H from zero through subnormals to the largest doubles
    EXTREMES = (0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-160, 1e-155, 1e-100, 1e-30, 1e-16, 1e-10,
                1e-5, 0.5, 1.0, 3.0, 1e5, 1e10, 1e16, 1e30, 1e100, 1e155, 1e160, 1e200, 1e300, 1.7e308)

    def test_rayleigh_threshold_keeps_the_exit_contract(self, capsys):
        """Exit 0 only with a finite alpha >= 1e-6 nats (or 0.0 at P = 0), else 2 or 3 with an
        error line, never a traceback. Before this check, 151 of the 400 draws raised
        (ZeroDivisionError and OverflowError in the kernels) and 97 printed a negative, infinite
        or uncertified alpha with exit 0."""
        import random

        draws = random.Random(0)
        named = [("1", "1", "1e-300"), ("1", "1", "1e200"), ("1", "1.7e308", "1"), ("1e-30", "1", "1"),
                 ("1", "1", "1e-155"), ("1", "1e-310", "1e-160"), ("1e-16", "1", "1")]
        cases = named + [tuple(repr(draws.choice(self.EXTREMES)) for _ in range(3)) for _ in range(400)]
        exits = set()
        for argv in cases:
            code, out, err = run_cli(capsys, "threshold", "--rayleigh", *argv)
            exits.add(code)
            if code == 0:
                alpha = json.loads(out)["alpha_nats"]
                assert alpha == 0.0 if float(argv[0]) == 0.0 else 1e-6 <= alpha < math.inf, argv
            else:
                assert code in (2, 3) and out == "" and err.startswith("error:"), argv
        assert exits == {0, 2, 3}
        for argv, code in zip(named, (2, 2, 3, 3, 3, 3, 3)):
            assert run_cli(capsys, "threshold", "--rayleigh", *argv)[0] == code, argv


class TestLemma1Grid:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "lemma1-grid", "--p-list", "0.5,1.0", "--eps-list", "0.1,0.2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,eps,alpha_q,p_alpha_qn,slack,holds"
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_p_one_rows_have_zero_slack(self, capsys):
        code, out, _ = run_cli(
            capsys, "lemma1-grid", "--p-list", "1.0", "--eps-list", "0.1"
        )
        slack = float(out.strip().splitlines()[1].split(",")[4])
        assert abs(slack) < 1e-12

    @pytest.mark.parametrize("option", ["--p-list", "--eps-list"])
    @pytest.mark.parametrize("text", ["", ","], ids=["empty", "comma"])
    def test_empty_list_exits_2(self, capsys, option, text):
        # an explicitly empty list ran the whole default grid with exit 0
        code, out, err = run_cli(capsys, "lemma1-grid", option, text)
        assert code == 2 and out == "" and f"{option} must list at least one value" in err


class TestRayleighSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rayleigh-sweep",
            "--snr-list", "1,10",
            "--sigma-h-list", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr,sigma_h,alpha_q,alpha_qn,ratio"
        ratios = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(r > 0 for r in ratios)
        # alpha_q column is the absolute threshold, increasing with SNR
        alphas = [float(line.split(",")[2]) for line in lines[1:]]
        assert alphas[1] > alphas[0]


    def test_nan_snr_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "rayleigh-sweep", "--snr-list", "nan", "--sigma-h-list", "1")
        assert code == 2 and err.startswith("error:") and out == ""

    def test_failed_cell_exits_3_with_error_line(self, capsys, monkeypatch):
        def not_converging(spec):
            raise QuadratureNonConvergence("forced failure")

        monkeypatch.setattr(framesync.thresholds, "rayleigh_threshold_numeric", not_converging)
        code, out, err = run_cli(capsys, "rayleigh-sweep", "--snr-list", "1", "--sigma-h-list", "1")
        assert code == 3 and out.splitlines()[1] == "1,1,nan,0.5,nan"
        assert "error: 1 of 1 sweep cells failed" in err

    def test_uncertified_or_unrepresentable_cells(self, capsys):
        # sigma_H = 1e-300 raised ZeroDivisionError; P = 1e-30 printed alpha = -1.76e-16 with exit 0
        code, out, err = run_cli(capsys, "rayleigh-sweep", "--snr-list", "1", "--sigma-h-list", "1e-300")
        assert code == 2 and out == "" and err.startswith("error: Rayleigh scale")
        code, out, err = run_cli(capsys, "rayleigh-sweep", "--snr-list", "1e-30,1", "--sigma-h-list", "1")
        assert code == 3 and out.splitlines()[1] == "1e-30,1,nan,5e-31,nan"
        assert "error: 1 of 2 sweep cells failed" in err

    def test_cell_past_the_quadrature_bound_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "rayleigh-sweep", "--snr-list", "1e300", "--sigma-h-list", "1")
        assert code == 3 and out.splitlines()[1] == "1e+300,1,nan,5e+299,nan"
        assert "error: 1 of 1 sweep cells failed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--sigma-h-list", "inf"),
            ("--snr-list", "inf"),
            ("--sigma2", "inf"),
            ("--snr-list", ","),  # empty lists
            ("--sigma-h-list", ","),
            ("--snr-list", ""),  # explicitly empty: these ran the default grid with exit 0
            ("--sigma-h-list", ""),
        ],
    )
    def test_bad_grid_exits_2_writing_nothing(self, capsys, tmp_path, argv):
        out = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(capsys, "rayleigh-sweep", "--snr-list", "1", *argv, "--out", str(out))
        assert code == 2 and err.startswith("error:") and stdout == ""
        assert not out.exists()


class TestSequence:
    def test_nearest_length(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--n", "100", "--k", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 63
        assert payload["prefix_len"] == 15
        assert payload["min_shift_distance"] > 0

    def test_exact_layout(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--n", "21", "--k", "3")
        payload = json.loads(out)
        assert payload["prefix_len"] == 7
        assert payload["tail_len"] == 14
        assert len(payload["word"]) == 21

    def test_too_short_errors(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "--n", "5", "--k", "3")
        assert code == 2
        assert "error" in err


class TestSimulate:
    def test_single_config_runs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode = single\nchannel = bsc:0.0\nn = 21\nk = 3\nmu = 0.01\n"
            "a = 5\ntrials = 50\nseed = 3\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["p_err"] == 0.0
        assert payload["config"]["channel"] == "bsc:0.0"

    def test_zero_trials_is_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode = single\nchannel = bsc:0.1\nn = 21\nk = 3\na = 5\ntrials = 0\n"
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    def test_preset_with_overrides_and_replay(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--preset", "single_bsc",
            "--set", "trials=60", "--set", "a=200",
            "--set", "n=21", "--set", "k=3", "--set", "mu=0.08",
            "--out", str(out_path),
        )
        assert code == 0
        first = out_path.read_text()
        assert json.loads(first)["report"]["trials"] == 60
        # byte-identical replay through a second file
        out2 = tmp_path / "replay.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--replay", str(out_path), "--out", str(out2)
        )
        assert code == 0
        assert out2.read_text() == first

    def test_scaling_csv_replay(self, capsys, tmp_path):
        out_path = tmp_path / "scaling.csv"
        args = [
            "simulate", "--preset", "bsc_scaling",
            "--set", "trials=80", "--set", "n_list=21,45",
            "--set", "k=3", "--set", "beta=0.25",
            "--out", str(out_path),
        ]
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        first = out_path.read_text()
        assert "n,a,alpha,p_err" in first
        out2 = tmp_path / "scaling2.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--replay", str(out_path), "--out", str(out2)
        )
        assert code == 0
        assert out2.read_text() == first

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--preset", "nope")
        assert code == 2

    def test_single_window_overflow_is_validation_error(self, tmp_path):
        # beta * alpha * N = 1355 at N = 1023: exp overflows, so A cannot be formed
        out = tmp_path / "never.json"
        src = os.path.dirname(os.path.dirname(framesync.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "framesync.cli", "simulate", "--preset", "single_bsc",
             "--set", "n=1023", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "overflows" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_undefined_window_exponent_is_validation_error(self, capsys, tmp_path):
        # beta = nan, and beta = 0 against alpha = inf (a noiseless BSC), where beta * alpha * N is NaN:
        # these exited 2 naming that NaN exponent; beta's one range check now refuses both
        for settings, beta in ((("beta=nan",), "nan"), (("channel=bsc:0", "beta=0"), "0.0")):
            argv = [arg for setting in settings for arg in ("--set", setting)]
            code, out, err = run_cli(capsys, "simulate", "--preset", "single_bsc", *argv)
            assert code == 2 and out == "", settings
            assert err == f"error: beta must be in (0,1), got {beta}\n", settings
        # beta > 0 against alpha = inf: exp(beta * alpha * N) is undefined, not a window too large; these
        # exited 2 with "exp(inf) overflows; asynchronism window too large"
        path = tmp_path / "outside.mat"
        path.write_text("2 3\n0.5 0.5 0\n0.25 0.25 0.5\n")  # x(1) puts mass on output 2, x(0) none
        for channel in ("bsc:1", "bsc:0", f"file:{path}"):
            code, out, err = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", f"channel={channel}")
            assert code == 2 and out == "", channel
            assert err.startswith("error:") and "alpha is infinite" in err and "'a'" in err, channel
            assert "overflows" not in err, channel

    @pytest.mark.parametrize("beta", ["-1", "0", "1", "2", "-inf", "inf"])
    def test_beta_outside_0_1_is_validation_error(self, capsys, beta):
        # beta = -1 and beta = 0 over the preset's finite alpha ran with A = 1 and exit 0
        code, out, err = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", f"beta={beta}",
                                 "--set", "trials=10")
        assert code == 2 and out == "" and f"beta must be in (0,1), got {float(beta)}" in err
        # given, 'a' is the window and beta is not read
        code, out, _ = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", f"beta={beta}",
                               "--set", "a=5", "--set", "trials=10")
        assert code == 0 and json.loads(out)["a"] == 5

    @pytest.mark.parametrize("preset, beta, settings", [
        *(("single_bsc", beta, ()) for beta in ("nan", "-1", "0", "1", "2", "inf", "-inf")),
        ("single_bsc", "0", ("channel=bsc:0",)),
        ("bsc_scaling", "nan", ()),
    ])
    def test_beta_is_refused_before_the_word_is_built(self, capsys, monkeypatch, tmp_path, preset, beta, settings):
        # beta's range was checked after the word (up to 2^31 - 1 symbols) and alpha were computed
        def unbuilt(*args, **kwargs):
            raise AssertionError("computed for a beta outside (0, 1)")

        monkeypatch.setattr("framesync.sequences.build_sync_word", unbuilt)
        monkeypatch.setattr("framesync.thresholds.sync_threshold", unbuilt)
        argv = [arg for setting in (f"beta={beta}", *settings) for arg in ("--set", setting)]
        code, out, err = run_cli(capsys, "simulate", "--preset", preset, *argv, "--out", str(tmp_path / "o"))
        assert (code, out, err) == (2, "", f"error: beta must be in (0,1), got {float(beta)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting, message", [
        ("energy=-1", "energy must be finite and >= 0, got -1.0"),
        ("energy=nan", "energy must be finite and >= 0, got nan"),
        ("energy=inf", "energy must be finite and >= 0, got inf"),
        ("mu_coeff=-1", "mu_coeff must be finite and > 0, got -1.0"),
        ("mu_coeff=0", "mu_coeff must be finite and > 0, got 0.0"),
        ("mu_coeff=nan", "mu_coeff must be finite and > 0, got nan"),
    ])
    def test_energy_sweep_input_names_its_key(self, capsys, tmp_path, setting, message):
        # these named power, or mu with a value derived from mu_coeff (-0.17677669529663687 for -1)
        out = tmp_path / "never.csv"
        result = run_cli(capsys, "simulate", "--preset", "energy_scaling", "--set", setting, "--out", str(out))
        assert result == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_window_past_e_to_the_700_runs_as_its_a_twin(self, capsys):
        # beta * alpha * N = 703.08 gives A = 2.2e305, under the 2^1023 ceiling: this exited 2 with
        # "exp(703.08) overflows" while the same A given as a= ran
        base = ["simulate", "--preset", "single_bsc", "--set", "channel=bsc:0.001", "--set", "n=255",
                "--set", "trials=50"]
        code, out, _ = run_cli(capsys, *base, "--set", "beta=0.4")
        assert code == 0
        by_beta = json.loads(out)
        code, out, _ = run_cli(capsys, *base, "--set", f"a={int(by_beta['a'])}")
        assert code == 0
        by_a = json.loads(out)
        assert 1e305 < by_beta["a"] < 2.0**1023
        assert (by_a["a"], by_a["report"]) == (by_beta["a"], by_beta["report"])

    def test_bins_is_read_only_by_an_awgn_channel(self, capsys):
        # single_bsc took bins = 0 with exit 0 and echoed it, though no BSC is quantized
        for channel in ("bsc:0.05", "onoff:0.5,0.1"):
            code, out, err = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", f"channel={channel}",
                                     "--set", "bins=0", "--set", "trials=5")
            assert code == 2 and out == "", channel
            assert err.startswith("error: config key 'bins'") and channel in err
        code, out, _ = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", "channel=awgn:4,1",
                               "--set", "bins=6", "--set", "a=1000", "--set", "trials=5")
        assert code == 0 and json.loads(out)["config"]["bins"] == "6"

    def test_refusal_names_the_reach_on_stderr(self, capsys):
        # single_bsc at beta = 0.99, ln A = 165: past the reach, which goes to stderr with exit 3
        code, out, err = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", "beta=0.99")
        assert code == 3 and out == ""
        assert err.startswith("error: A = ") and "; skip mode certifies A up to " in err

    def test_midrun_failure_flushes_partial_rows(self, capsys, tmp_path):
        # second row needs an uncertifiable far-window skip and must fail,
        # but the first row's result still lands in the file with exit 3
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "mode = bsc-scaling\neps = 0.4\nk = 2\nbeta = 0.99\n"
            "n_list = 6,254\nmu = 0.4\nnorm = linf\ntrials = 50\nseed = 1\n"
        )
        out = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out)
        )
        assert code == 3
        assert "partial results flushed" in err
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2  # header plus the completed first row
        assert rows[1].startswith("6,")


    @pytest.mark.parametrize(
        "preset, override",
        [
            ("single_bsc", "channel=awgn:1"),  # one value where awgn takes P,SIGMA2
            ("energy_scaling", "sigma2=0"),  # A = exp(E / (4 sigma^2)) cannot be formed
            ("single_bsc", "tirals=5"),  # a key the mode does not read
            ("bsc_scaling", "channel=bsc:0.1"),  # a single-mode key in a scaling mode
            ("single_bsc", "a=" + "9" * 400),  # A beyond float range
            ("bsc_scaling", "n_list="),  # an empty list of word lengths
            ("energy_scaling", "n_list="),
            ("single_bsc", "workers=0"),
            ("bsc_scaling", "workers=-3"),
        ],
    )
    def test_bad_override_is_validation_error(self, capsys, preset, override):
        code, out, err = run_cli(capsys, "simulate", "--preset", preset, "--set", override)
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_one_input_channel_is_validation_error(self, capsys, tmp_path):
        # the word's symbol 1 is channel row x(1), which a 1-input table lacks
        path = tmp_path / "one.mat"
        path.write_text("1 2\n0.5 0.5\n")
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "single_bsc", "--set", f"channel=file:{path}", "--set", "trials=5"
        )
        assert code == 2 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("name", ["single_bsc.json", "bsc_scaling.csv", "energy_scaling.csv"])
    def test_committed_outputs_replay(self, capsys, tmp_path, name):
        # every key a committed output echoes is one its mode reads
        path = os.path.join(os.path.dirname(__file__), os.pardir, "out", name)
        out = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", "--replay", path, "--set", "trials=20", "--out", str(out))
        assert code == 0
        assert _config_from_replay(str(out)) == {**_config_from_replay(path), "trials": "20"}


class TestSimulateInputs:
    """One key = value grammar for config files, --set and a CSV's echo; exactly one source flag."""

    # pairs of a mode that writes JSON and of one that writes CSV; each run takes a fraction of a second
    PAIRS = {
        "single_bsc": {"mode": "single", "channel": "bsc:0.1", "n": "21", "k": "3", "beta": "0.1", "mu": "0.08",
                       "norm": "l1", "trials": "40", "seed": "5"},
        "bsc_scaling": {"mode": "bsc-scaling", "eps": "0.05", "k": "3", "beta": "0.25", "n_list": "21,45",
                        "mu": "0.05", "norm": "l1", "trials": "40", "seed": "5"},
    }

    @pytest.mark.parametrize("preset", sorted(PAIRS))
    def test_config_file_set_and_replay_give_one_echo(self, capsys, tmp_path, preset):
        pairs = self.PAIRS[preset]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line\n\n" + "".join(f"  {k} =  {v}  # {k}\n" for k, v in pairs.items()))
        by_file, by_set, by_replay = (tmp_path / name for name in ("file", "set", "replay"))
        assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(by_file))[0] == 0
        overrides = [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")]
        assert run_cli(capsys, "simulate", "--preset", preset, *overrides, "--out", str(by_set))[0] == 0
        assert run_cli(capsys, "simulate", "--replay", str(by_file), "--out", str(by_replay))[0] == 0
        assert by_file.read_bytes() == by_set.read_bytes() == by_replay.read_bytes()
        assert _config_from_replay(str(by_file)) == pairs

    def test_set_value_keeps_hash_and_equals_through_replay(self, capsys, tmp_path):
        # '#' starts a comment only in a file: a --set value and an echoed one keep it, and ' = '
        table = tmp_path / "bsc # 0.1 = q.mat"
        table.write_text("2 2\n0.9 0.1\n0.1 0.9\n")
        first, by_json, by_csv = (tmp_path / name for name in ("first.json", "json.json", "csv.json"))
        code, _, _ = run_cli(capsys, "simulate", "--preset", "single_bsc", "--set", f"channel=file:{table}",
                             "--set", "n=21", "--set", "k=3", "--set", "beta=0.1", "--set", "trials=40",
                             "--out", str(first))
        assert code == 0
        cfg = json.loads(first.read_text())["config"]
        assert cfg["channel"] == f"file:{table}"
        echo = tmp_path / "echo.csv"  # the config as a CSV output echoes it
        echo.write_text("".join(f"# {k} = {v}\n" for k, v in sorted(cfg.items())) + "n,a\n")
        for replayed, source in ((by_json, first), (by_csv, echo)):
            assert run_cli(capsys, "simulate", "--replay", str(source), "--out", str(replayed))[0] == 0
            assert replayed.read_bytes() == first.read_bytes(), source.name

    @pytest.mark.parametrize("name, text", [
        ("report.json", '{"report": {"trials": 10}}\n'),
        ("config-not-an-object.json", '{"config": "mode = single"}\n'),
        ("rows.csv", "# a comment without a key\nn,a,alpha,p_err\n21,5,1.0,0.5\n"),
    ])
    def test_replay_without_a_config_echo_exits_2(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--replay", str(path))
        assert (code, out, err) == (2, "", f"error: {path} carries no config echo\n")

    def test_line_without_equals_is_named_by_its_source(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = single\ntrials 40  # no '='\n")
        out = tmp_path / "o.json"
        for source, line in ((["--config", str(cfg)], "trials 40  # no '='"),
                             (["--preset", "single_bsc", "--set", "trials"], "trials")):
            code, stdout, err = run_cli(capsys, "simulate", *source, "--out", str(out))
            where = str(cfg) if source[0] == "--config" else "--set"
            assert (code, stdout, err) == (2, "", f"error: {where}: expected key = value, got {line!r}\n")
            assert not out.exists()

    @pytest.mark.parametrize("sources", [
        (),
        ("--preset", "single_bsc", "--config", "run.cfg"),
        ("--config", "run.cfg", "--replay", "out.json"),
    ])
    def test_not_exactly_one_source_exits_2(self, capsys, tmp_path, sources):
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *sources, "--out", str(out)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and not out.exists()
        assert any("error:" in line for line in captured.err.splitlines()), captured.err


class TestStartup:
    """A fresh process loads scipy only where its command computes with it.

    DMC and quantized-AWGN commands load no scipy (the AWGN cell masses use
    the package's own Gaussian CDF); only Rayleigh commands load it, for
    scipy.special and scipy.integrate; nothing loads scipy.stats. Nor do they
    load numpy.ma, which no computation uses: the decoder counts its word's
    symbols with bincount, as np.unique would import numpy.ma.
    """

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], set()),  # import framesync and framesync.cli, run nothing
            (["threshold", "--bsc", "0.1"], set()),
            (["threshold", "--onoff-bsc", "0.5", "0.1"], set()),
            (["lemma1-grid"], set()),
            (["sequence", "--n", "100", "--k", "4"], set()),
            (["simulate", "--preset", "single_bsc", "--set", "trials=20"], set()),  # skip mode
            (["simulate", "--preset", "single_bsc", "--set", "a=30", "--set", "trials=20"], set()),
            (["simulate", "--preset", "bsc_scaling", "--set", "trials=20"], set()),  # skip mode
            # quantized AWGN in full mode: at the preset's A the skip certificate refuses it (exit 3)
            (["simulate", "--preset", "single_bsc", "--set", "channel=awgn:4,1", "--set", "a=30", "--set", "trials=20"],
             set()),
            (["simulate", "--preset", "energy_scaling", "--set", "trials=5"], set()),
            (["threshold", "--rayleigh", "100", "1", "1"], {"scipy.special", "scipy.integrate"}),
        ],
        ids=["import", "threshold-bsc", "threshold-onoff", "lemma1-grid", "sequence", "single_bsc",
             "single_bsc-full", "bsc_scaling", "single_bsc-awgn", "energy_scaling",
             "threshold-rayleigh"],
    )
    def test_command_loads_only_the_scipy_it_computes_with(self, tmp_path, argv, loaded):
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(framesync.__file__))
        script = (
            "import json, sys\n"
            "import framesync, framesync.cli\n"
            f"argv = {argv!r}\n"
            f"code = framesync.cli.main(argv + ['--out', {str(out)!r}]) if argv else 0\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma')]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        assert out.exists() == bool(argv)
        if not loaded:
            assert modules == []  # no scipy, and no numpy.ma
        subpackages = {"scipy.special", "scipy.integrate", "scipy.stats"}
        assert subpackages & set(modules) == loaded


    def test_parser_built_once_on_first_use(self, tmp_path):
        # the import builds no parser (start-up does not pay for it); main builds it once per process
        src = os.path.dirname(os.path.dirname(framesync.__file__))
        script = (
            "import framesync.cli as cli\n"
            "built = [cli.build_parser.cache_info().misses]\n"
            "for _ in range(3):\n"
            f"    assert cli.main(['sequence', '--n', '7', '--k', '2', '--out', {str(tmp_path / 'w.json')!r}]) == 0\n"
            "    built.append(cli.build_parser.cache_info().misses)\n"
            "print(built)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[0,", "1,", "1,", "1]"]


class TestDeterminism:
    def test_byte_identical_reruns_any_workers(self, capsys, tmp_path):
        files = []
        for name, workers in (("a.csv", "1"), ("b.csv", "2"), ("c.csv", "1")):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "simulate", "--preset", "bsc_scaling",
                "--set", "trials=60", "--set", "n_list=21,45",
                "--set", "k=3", "--set", "beta=0.25",
                "--set", f"workers={workers}",
                "--out", str(path),
            )
            assert code == 0
            files.append(path.read_bytes())
        # worker count must not leak into the file
        assert files[0] == files[1] == files[2]
