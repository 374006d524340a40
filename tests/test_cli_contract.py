"""The CLI exit contract on mutated inputs: exit 0, 2 or 3, an error line, never a traceback.

Preset configs are mutated key by key: a new value, an unknown key, a deleted
key or another mode. Every single mutation of every preset runs once; random
combinations of up to three run under hypothesis. Each mutated config goes
through `simulate --set` or `simulate --config`. Transition tables are mutated
through `threshold --inline`, and word lengths through `sequence`. Every run
calls main() in-process with workers = 1 and at most 20 trials; sizes stay
small because every value comes from a short list of small or degenerate
strings, and a length past sequences.MAX_N is refused before anything is
built. Under an address-space cap, a child process checks that a word too
large for memory exits 3, not with a traceback.
"""

import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesync
import framesync.cli as cli
from framesync.cli import KEY_PARSERS, ROW_BUILDERS, RUN_KEYS, _load_preset, main
from framesync.decoder import single_rows
from framesync.sequences import MAX_N

PRESETS = {name: _load_preset(name) for name in ("single_bsc", "bsc_scaling", "energy_scaling")}
MAX_TRIALS = 20


def builder_params(mode: str):
    """The parameters of a mode's row builder: the keys the mode reads beside RUN_KEYS."""
    return inspect.signature(getattr(cli, ROW_BUILDERS[mode])).parameters.values()


REALS = ["0.05", "0.5", "1.5", "0", "nan", "inf", "1e-300"]
# values tried per key: one or two in range, the edges, and out of range or malformed ones
KEY_VALUES = {
    "mode": ["single", "bsc-scaling", "energy-scaling", "x"],
    "trials": ["1", "20", "0", "x"],
    "seed": ["0", "-1", str(2**70)],
    "workers": ["1"],
    "channel": ["bsc:0", "bsc:nan", "onoff:2,0.1", "awgn:4,1", "awgn:1", "awgn:1,inf", "file:/nonexistent", "x"],
    "n": ["7", "15", "0", "x", str(MAX_N + 1)],
    "k": ["2", "4", "0", "100"],
    "a": ["1", "300", "60000", str(10**40), "9" * 400, "0"],
    "n_list": ["15,21", "", "0,15", "15,nan", f"15,{MAX_N + 1}"],
    "bins": ["2", "40", "1", "x"],
    "norm": ["linf", "l1", "l2"],
    "energy": ["0", "8", "300", "-1", "nan"],
    "beta": REALS,
    "mu": REALS,
    "eps": REALS,
    "sigma2": REALS,
    "mu_coeff": REALS,
    "tirals": ["5"],
}


@st.composite
def mutation(draw, mode: str):
    """(key, value), value None to delete the key; keys mostly of the preset's mode,
    values mostly from the key's own list."""
    own = [*RUN_KEYS, *(p.name for p in builder_params(mode))]
    key = draw(st.sampled_from(own if draw(st.integers(0, 5)) else sorted(KEY_VALUES)))
    if draw(st.integers(0, 7)) == 0:
        return key, None
    values_of = key if draw(st.integers(0, 5)) else draw(st.sampled_from(own))
    return key, draw(st.sampled_from(KEY_VALUES[values_of]))


def run(argv: list[str]) -> tuple[int, str]:
    """main(argv) with stdout and stderr captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in (0, 2, 3), (code, err)
    if code:
        assert any(line.startswith("error:") for line in err.splitlines()), err


def capped(cfg: dict[str, str]) -> dict[str, str]:
    """The config with one worker and at most MAX_TRIALS trials."""
    cfg = {**cfg, "workers": "1"}
    trials = cfg.get("trials", "")
    if trials.isdigit() and int(trials) > MAX_TRIALS:
        cfg["trials"] = str(MAX_TRIALS)
    return cfg


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(PRESETS)))
    cfg = {**PRESETS[name], "trials": str(MAX_TRIALS)}
    for key, value in draw(st.lists(mutation(cfg["mode"]), min_size=1, max_size=3)):
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return name, capped(cfg)


def run_simulate(name: str, cfg: dict[str, str], via_file: bool) -> None:
    """The config as --set overrides of its preset, or as a --config file; checks the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        if via_file:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))
            source = ["--config", path]
        else:
            source = ["--preset", name, *(f"--set={k}={v}" for k, v in cfg.items() if PRESETS[name].get(k) != v)]
        code, err = run(["simulate", *source, "--out", os.path.join(tmp, "o")])
    assert_contract(code, err)


def test_every_single_mutation_keeps_exit_contract():
    for name, preset in PRESETS.items():
        base = {**preset, "trials": str(MAX_TRIALS)}
        for key, values in KEY_VALUES.items():
            if key in base:
                run_simulate(name, capped({k: v for k, v in base.items() if k != key}), via_file=True)
            for value in values:
                cfg = capped({**base, key: value})
                run_simulate(name, cfg, via_file=False)
                run_simulate(name, cfg, via_file=True)


@pytest.mark.parametrize("mode", sorted(ROW_BUILDERS))
def test_every_key_a_mode_reads_has_a_parser(mode):
    assert {*RUN_KEYS, *(p.name for p in builder_params(mode))} <= set(KEY_PARSERS)


def test_key_parsers_hold_no_other_key():
    read = {p.name for mode in ROW_BUILDERS for p in builder_params(mode)}
    assert set(KEY_PARSERS) == read | set(RUN_KEYS)


def test_single_mode_reads_single_rows_parameters_and_bins():
    # single mode's builder takes a channel spec where single_rows takes a channel, and adds bins
    own = {p.name: p.default for p in builder_params("single")}
    assert own.pop("bins") is None
    assert own == {p.name: p.default for p in inspect.signature(single_rows).parameters.values()}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_builder_parameters_without_default_are_required(name, tmp_path):
    mode = PRESETS[name]["mode"]
    required = [p.name for p in builder_params(mode) if p.default is p.empty]
    assert required
    for key in required:
        path = tmp_path / f"{key}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in PRESETS[name].items() if k != key))
        code, err = run(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2 and err == f"error: config key {key!r} is required for mode {mode!r}\n"
        assert not (tmp_path / "o").exists()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mutated_configs(), via_file=st.booleans())
def test_mutated_configs_keep_exit_contract(case, via_file):
    run_simulate(*case, via_file)


def _strict_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def is_channel_table(text: str) -> bool:
    """Rows of one width, every cell a finite non-negative number, every row summing to 1."""
    try:
        rows = [[float(cell) for cell in row.split(",")] for row in text.split(";")]
    except ValueError:
        return False
    return len({len(row) for row in rows}) == 1 and all(
        all(0.0 <= cell < math.inf for cell in row) and abs(sum(row) - 1.0) <= 1e-12 for row in rows
    )


ROWS = {2: ["0.5,0.5", "1,0", "0,1", "0.9,0.1"], 3: ["0.25,0.25,0.5", "0,0,1", "0.1,0.8,0.1"]}
CELLS = REALS + ["1", "-0.5", "", "x", "1e-13"]


@st.composite
def inline_tables(draw):
    """'a,b;c,d' of stochastic rows of one width, then a cell replaced or a row cut."""
    width = draw(st.sampled_from(sorted(ROWS)))
    rows = [draw(st.sampled_from(ROWS[width])).split(",") for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 1))
        if draw(st.integers(0, 4)):
            row[i] = draw(st.sampled_from(CELLS))
        elif len(row) > 1:
            del row[i]
    return ";".join(",".join(row) for row in rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=inline_tables())
def test_threshold_inline_keeps_exit_contract(table):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o.json")
        code, err = run(["threshold", "--inline=" + table, "--out", out])
        assert_contract(code, err)
        assert (code == 0) == is_channel_table(table), (table, err)
        if code == 0:
            with open(out) as fh:
                json.loads(fh.read(), parse_constant=_strict_constant)


# word lengths for `sequence`: valid, degenerate, and past MAX_N (2147516415 = 32769 (2^16 - 1));
# none builds a word longer than 2^18
SEQUENCE_N = ["63", "100", "0", "-5", str(MAX_N + 1), "2147516415"]
SEQUENCE_K = ["1", "4", "0", "32769"]


@pytest.mark.parametrize("exact", [False, True], ids=["nearest", "exact"])
def test_sequence_keeps_exit_contract(exact):
    for n in SEQUENCE_N:
        for k in SEQUENCE_K:
            code, err = run(["sequence", "--n", n, "--k", k, *(["--exact"] if exact else [])])
            assert_contract(code, err)
            if exact and int(n) > MAX_N and int(k) > 0:
                assert code == 2 and f"is past MAX_N = {MAX_N}" in err, (n, k)


# main() under RLIMIT_AS at the child's own size plus 512 MiB: room to run, none for a word of
# gigabytes, whose allocation then fails at once without touching memory
CAPPED_MAIN = """
import resource, sys
import framesync.cli
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + 2**29, size + 2**29))
sys.exit(framesync.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmSize from /proc")
@pytest.mark.parametrize("argv, code", [
    (["sequence", "--n", str(MAX_N), "--k", "32768"], 3),  # the longest word: 2 GiB of symbols
    (["simulate", "--preset", "single_bsc", "--set", f"n={MAX_N}", "--set", "k=32768", "--set", "a=2",
      "--set", "trials=1"], 3),
    (["sequence", "--n", "2147516415", "--k", "32769"], 2),  # past MAX_N, refused before any array
], ids=["sequence", "simulate", "past-ceiling"])
def test_exit_contract_under_an_address_space_cap(argv, code):
    src = os.path.dirname(os.path.dirname(framesync.__file__))
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1, proc.stderr
