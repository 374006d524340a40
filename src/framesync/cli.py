"""Command-line front end: thresholds, bound grids, sweeps, simulations, words.

Subcommands: threshold, lemma1-grid, rayleigh-sweep, simulate, sequence.
A command returns nothing or raises, and `main` alone picks the exit code: 0
when it returns, else an `error:` line and a code by the exception's class: 2
for ValueError and OSError (an invalid input; nothing is written), 3 for
RuntimeError and MemoryError (a run that failed after it started; what it
finished is written first), 130 for KeyboardInterrupt (Ctrl-C; a scaling
simulate writes its finished rows first). argparse exits 2 on a command line
it refuses.

Every run is deterministic given its full flag set; output files are written
atomically and contain a config echo so `simulate --replay <file>` reproduces
them byte for byte. Wall-clock time is reported on stderr only, keeping the
files reproducible.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
import tempfile
import time
from importlib import resources

import numpy as np

from .channels import bsc, compose, dmc_new, load_channel, on_off_fading_matrix
from .continuous import AwgnSpec, RayleighAwgnSpec, quantized_awgn
from .decoder import (
    bsc_scaling_rows,
    energy_scaling_rows,
    monte_carlo,
    scaling_to_csv,
    single_rows,
)
from .sequences import build_sync_word, min_shift_hamming_distance, nearest_valid_length
from .thresholds import (
    ThresholdReport,
    awgn_threshold,
    fading_bound_check,
    rayleigh_ratio_sweep,
    rayleigh_threshold_numeric,
    sweep_to_csv,
    sync_threshold,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process Ctrl-C ended


class CliError(ValueError):
    """An invalid command line or config."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-framesync-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _comma_list(text: str, item=float) -> list:
    """The items of a comma-separated list, each read by item; a blank item is skipped."""
    return [item(tok) for tok in text.split(",") if tok.strip()]


def _key_values(lines: list[str], source: str, comments: bool = False) -> dict[str, str]:
    """The pairs of 'key = value' lines, key and value stripped; the value keeps every '=' after the
    first. In a file (comments) '#' starts a comment and a blank line is skipped."""
    cfg = {}
    for raw in lines:
        line = raw.split("#", 1)[0] if comments else raw
        if comments and not line.strip():
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise CliError(f"{source}: expected key = value, got {raw!r}")
        cfg[key.strip()] = value.strip()
    return cfg


def _named(name: str, parse, text):
    """parse(text), a ValueError it raises prefixed by the flag or config key the text came from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def _grid_option(text: str | None, default: list[float], name: str) -> list[float]:
    """The values of a list option, or its default when absent; an empty list is an error."""
    values = default if text is None else _named(name, _comma_list, text)
    if not values:
        raise CliError(f"{name} must list at least one value")
    return values


def _onoff_bsc(p: float, eps: float):
    """ON-OFF fading with P(on) = p, then a BSC of crossover eps."""
    return compose(on_off_fading_matrix(p), bsc(eps))


def _parse_channel(spec: str, bins: int):
    """Channel of a spec 'bsc:EPS', 'onoff:P,EPS', 'awgn:P,SIGMA2' (quantized on bins cells) or 'file:PATH'."""
    kind, _, params = spec.partition(":")
    if kind == "file":
        return load_channel(params)
    # a kind takes as many values as its builder has parameters
    builders = {"bsc": bsc, "onoff": _onoff_bsc,
                "awgn": lambda power, noise_var: quantized_awgn(AwgnSpec(power, noise_var), bins)}
    if kind not in builders:
        raise CliError(f"unknown channel spec {spec!r}")
    vals = _named("config key 'channel'", _comma_list, params)
    if len(vals) != (arity := len(inspect.signature(builders[kind]).parameters)):
        raise CliError(f"channel {kind!r} takes {arity} comma-separated values, got {params!r}")
    return builders[kind](*vals)


# ---------------------------------------------------------------- threshold


def _echo_number(x: float) -> str:
    """x as a config echo writes it: its shortest repr, which reads back as x, less a trailing '.0'."""
    return repr(float(x)).removesuffix(".0")


def _onoff_values(tokens: list[str]) -> tuple[float, float]:
    """(P, EPS) of --onoff-bsc: two bare values in that order, or p=P and eps=EPS in either order."""
    keyed = _key_values([tok for tok in tokens if "=" in tok], "--onoff-bsc")
    if keyed and set(keyed) != {"p", "eps"}:  # an unknown or repeated key, or a bare value beside a keyed one
        raise CliError(f"--onoff-bsc takes P EPS or p=P eps=EPS, got {' '.join(tokens)!r}")
    return tuple(_named("--onoff-bsc", float, v) for v in ((keyed["p"], keyed["eps"]) if keyed else tokens))


def _inline_rows(text: str) -> list[list[float]]:
    """The rows of --inline, ';' between rows and ',' between entries; a row that is empty or
    holds an entry that is not a number is named by its position."""
    rows = []
    for i, row in enumerate(text.split(";"), 1):
        try:
            rows.append([float(v) for v in row.split(",")])
        except ValueError:
            what = "is empty" if not row.strip() else f"holds an entry that is not a number: {row!r}"
            raise CliError(f"--inline row {i} of {text!r} {what}") from None
    return rows


def _parse_channel_args(args) -> tuple:
    """Resolve the one channel source flag argparse admits into (description dict, ThresholdReport)."""
    if args.file is not None:
        return {"channel": f"file:{args.file}"}, sync_threshold(load_channel(args.file))
    if args.inline is not None:
        rows = _inline_rows(args.inline)
        if len({len(row) for row in rows}) > 1:
            raise CliError(f"--inline rows must be equally long, got lengths {', '.join(str(len(r)) for r in rows)}")
        return {"channel": "inline"}, sync_threshold(dmc_new(np.array(rows)))
    if args.bsc is not None:
        name, values, report = "bsc", [args.bsc], sync_threshold(bsc(args.bsc))
    elif args.onoff_bsc is not None:
        name, values = "onoff-bsc", _onoff_values(args.onoff_bsc)
        report = sync_threshold(_onoff_bsc(*values))
    else:
        name, values = ("awgn", args.awgn) if args.awgn is not None else ("rayleigh", args.rayleigh)
        if name == "awgn":
            alpha, method = awgn_threshold(AwgnSpec(*values)), "closed-form"
        else:
            alpha, method = rayleigh_threshold_numeric(RayleighAwgnSpec(*values)), "quadrature"
        report = ThresholdReport(argmax_symbol=1, method=method, per_symbol_divergences=(0.0, alpha))
    return {"channel": f"{name}:{','.join(map(_echo_number, values))}"}, report


def cmd_threshold(args) -> None:
    echo, report = _parse_channel_args(args)
    payload = {"config": echo, **report.to_json_dict()}
    if args.bits:
        payload["alpha_bits"] = "infinite" if report.is_infinite else report.alpha_bits()
    _emit(_json_dumps(payload), args.out)


# ------------------------------------------------------------- lemma1-grid


DEFAULT_P_GRID = [round(0.02 * i, 10) for i in range(1, 51)]
DEFAULT_EPS_GRID = [round(0.01 * i, 10) for i in range(1, 50)]


def cmd_lemma1_grid(args) -> None:
    p_list = _grid_option(args.p_list, DEFAULT_P_GRID, "--p-list")
    eps_list = _grid_option(args.eps_list, DEFAULT_EPS_GRID, "--eps-list")
    lines = ["p,eps,alpha_q,p_alpha_qn,slack,holds"]
    violated = False
    for p in p_list:
        for eps in eps_list:
            rep = fading_bound_check(p, bsc(eps))
            violated |= not rep.holds
            lines.append(
                f"{p:.15g},{eps:.15g},{rep.alpha_composite:.15g},"
                f"{rep.p_alpha_noise:.15g},{rep.slack:.15g},{str(rep.holds).lower()}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    if violated:
        # a violated bound means a bug, not a finding
        raise RuntimeError("fading bound violated on the grid")


# ----------------------------------------------------------- rayleigh-sweep


DEFAULT_SNR_GRID = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
DEFAULT_SIGMA_H = [1.0, 2.0, 3.0]


def cmd_rayleigh_sweep(args) -> None:
    snr_list = _grid_option(args.snr_list, DEFAULT_SNR_GRID, "--snr-list")
    sigma_h_list = _grid_option(args.sigma_h_list, DEFAULT_SIGMA_H, "--sigma-h-list")
    cells = rayleigh_ratio_sweep(snr_list, sigma_h_list, noise_var=args.sigma2)
    _emit(sweep_to_csv(cells), args.out)
    failed = sum(math.isnan(c.ratio) for c in cells)
    if failed:
        raise RuntimeError(f"{failed} of {len(cells)} sweep cells failed (written as nan)")


# ---------------------------------------------------------------- simulate


def _load_preset(name: str) -> dict[str, str]:
    fname = name.replace("-", "_")
    try:
        text = resources.files("framesync").joinpath(f"presets/{fname}.cfg").read_text()
    except FileNotFoundError:
        raise CliError(f"unknown preset {name!r}") from None
    return _key_values(text.splitlines(), f"preset {name!r}", comments=True)


def _config_from_replay(path: str) -> dict[str, str]:
    with open(path) as fh:
        head = fh.read()
    if head.lstrip().startswith("{"):
        payload = json.loads(head)
        cfg = payload.get("config")
        if not isinstance(cfg, dict):
            raise CliError(f"{path} carries no config echo")
        return {k: str(v) for k, v in cfg.items()}
    cfg = _key_values([line[2:] for line in head.splitlines() if line.startswith("# ") and " = " in line], path)
    if not cfg:
        raise CliError(f"{path} carries no config echo")
    return cfg


# how each simulate key is read, the same in every mode. A mode reads mode, trials, seed and
# workers and the parameters of its row builder; any other key is an error. A key the config
# leaves out takes its row builder's default, and is required where the builder has none.
KEY_PARSERS = dict(
    mode=str, trials=int, seed=int, workers=int, channel=str, n=int, k=int, a=int, beta=float, mu=float, norm=str,
    bins=int, eps=float, energy=float, sigma2=float, mu_coeff=float,
    n_list=functools.partial(_comma_list, item=int),
)
# looked up by name at each call, so a wrapper set on this module's attribute is the one called
ROW_BUILDERS = {
    "single": "_single_rows", "bsc-scaling": "bsc_scaling_rows", "energy-scaling": "energy_scaling_rows"
}
RUN_KEYS = ("mode", "trials", "seed", "workers")


def _single_rows(channel: str, n: int, k: int, mu: float | None = None, norm: str = "linf", a: int | None = None,
                 beta: float | None = None, bins: int | None = None) -> list:
    """single_rows over the channel of a spec; an awgn: spec is quantized on bins cells (8), and no other reads bins."""
    if bins is not None and not channel.startswith("awgn:"):
        raise CliError(f"config key 'bins' is read only by an awgn: channel, not by {channel!r}")
    return single_rows(_parse_channel(channel, 8 if bins is None else bins), n, k, mu, norm, a, beta)


def _config_rows(cfg: dict[str, str]) -> tuple[str, list, dict]:
    """(mode, rows, run settings for monte_carlo) of a simulate config."""
    mode = cfg.get("mode", "single")
    if mode not in ROW_BUILDERS:
        raise CliError(f"unknown simulate mode {mode!r}")
    builder = globals()[ROW_BUILDERS[mode]]
    params = inspect.signature(builder).parameters.values()
    unread = sorted(set(cfg) - set(RUN_KEYS) - {p.name for p in params})
    if unread:
        raise CliError(f"config keys not read by mode {mode!r}: {', '.join(unread)}")
    for key in ["trials", *(p.name for p in params if p.default is p.empty)]:
        if key not in cfg:
            raise CliError(f"config key {key!r} is required for mode {mode!r}")
    parsed = {key: _named(f"config key {key!r}", KEY_PARSERS[key], text) for key, text in cfg.items()}
    # monte_carlo rejects trials < 1 and workers < 1
    run = {"trials": parsed["trials"], "master_seed": parsed.get("seed", 0), "workers": parsed.get("workers", 1)}
    return mode, builder(**{key: v for key, v in parsed.items() if key not in RUN_KEYS}), run


def _echo_dict(cfg: dict[str, str]) -> dict[str, str]:
    # worker count is an execution detail; outputs must not depend on it
    return {k: v for k, v in cfg.items() if k != "workers"}


def _source_config(args) -> dict[str, str]:
    """The config of the one source flag argparse admits."""
    if args.preset is not None:
        return _load_preset(args.preset)
    if args.config is not None:
        with open(args.config) as fh:
            return _key_values(fh.read().splitlines(), args.config, comments=True)
    return _config_from_replay(args.replay)


def cmd_simulate(args) -> None:
    cfg = {**_source_config(args), **_key_values(args.set or [], "--set")}

    t0 = time.monotonic()
    mode, rows, run = _config_rows(cfg)
    results, failure = [], None
    try:
        for row in rows:
            results.append((row, monte_carlo(row.config, **run)))
    except (RuntimeError, MemoryError, KeyboardInterrupt) as exc:  # the rows finished before it are still written
        failure = exc
    if mode == "single":
        if failure is not None:
            raise failure
        row, report = results[0]
        text = _json_dumps({"config": _echo_dict(cfg), "a": float(row.a), "report": report.to_json_dict()})
    else:
        echo = "".join(f"# {k} = {v}\n" for k, v in sorted(_echo_dict(cfg).items()))
        text = echo + scaling_to_csv(results)
    _emit(text, args.out)
    print(f"wall_time_s {time.monotonic() - t0:.3f}", file=sys.stderr)
    if isinstance(failure, KeyboardInterrupt):
        raise failure
    if failure is not None:
        raise RuntimeError(f"{failure} (partial results flushed)") from failure


# ---------------------------------------------------------------- sequence


def cmd_sequence(args) -> None:
    n = nearest_valid_length(args.n, args.k) if not args.exact else args.n
    word = build_sync_word(n, args.k, seed=args.seed)
    dist, shift = min_shift_hamming_distance(word)
    payload = {
        "config": {"n_target": args.n, "k": args.k, "seed": args.seed},
        "n": n,
        "prefix_len": word.prefix_len,
        "tail_len": n - word.prefix_len,
        "word": word.to_line(),
        "min_shift_distance": dist,
        "argmin_shift": shift,
        "distance_over_n": dist / n,
    }
    _emit(_json_dumps(payload), args.out)


# -------------------------------------------------------------------- main


@functools.cache  # one parser per process, built on the first call to main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesync",
        description="Frame synchronization thresholds, sync words, and decoder simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="synchronization threshold of a channel")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--bsc", type=float, metavar="EPS")
    source.add_argument("--onoff-bsc", nargs=2, metavar=("P", "EPS"))
    source.add_argument("--awgn", nargs=2, type=float, metavar=("P", "SIGMA2"))
    source.add_argument("--rayleigh", nargs=3, type=float, metavar=("P", "SIGMA2", "SIGMA_H"))
    source.add_argument("--file", metavar="PATH")
    source.add_argument("--inline", metavar="ROWS", help="rows 'a,b;c,d'")
    p.add_argument("--bits", action="store_true", help="also report alpha in bits")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("lemma1-grid", help="fading bound alpha(Q) <= p alpha(Qn) on a grid")
    p.add_argument("--p-list", metavar="P1,P2,...")
    p.add_argument("--eps-list", metavar="E1,E2,...")
    p.set_defaults(fn=cmd_lemma1_grid)

    p = sub.add_parser("rayleigh-sweep", help="fading/AWGN threshold ratio vs SNR")
    p.add_argument("--snr-list", metavar="S1,S2,...")
    p.add_argument("--sigma-h-list", metavar="H1,H2,...")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.set_defaults(fn=cmd_rayleigh_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo decoder simulation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", metavar="NAME")
    source.add_argument("--config", metavar="PATH")
    source.add_argument("--replay", metavar="OUTPUT", help="reproduce a previous run from its echo")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sequence", help="build a sync word and analyze shift distances")
    p.add_argument("--n", type=int, required=True, metavar="N_TARGET")
    p.add_argument("--k", type=int, default=8, metavar="K")
    p.add_argument("--seed", type=int, default=1, help="nonzero register seed")
    p.add_argument("--exact", action="store_true", help="use N exactly instead of the nearest valid length")
    p.set_defaults(fn=cmd_sequence)

    for p in sub.choices.values():
        p.add_argument("--out", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, (RuntimeError, MemoryError)) else EXIT_VALIDATION
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
