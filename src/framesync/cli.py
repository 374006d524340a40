"""Command-line front end: thresholds, bound grids, sweeps, simulations, words.

Subcommands: threshold, lemma1-grid, rayleigh-sweep, simulate, sequence.
Exit codes: 0 success, 2 validation failure, 3 runtime failure (partial
results are flushed where possible).

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
from .quadrature import QuadratureNonConvergence
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


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


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


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _grid_option(text: str | None, default: list[float], name: str) -> list[float]:
    """The values of a list option, or its default when absent; an empty list is an error."""
    values = _float_list(text) if text else default
    if not values:
        raise CliError(f"{name} must list at least one value")
    return values


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_channel(spec: str, bins: int):
    """Channel of a spec 'bsc:EPS', 'onoff:P,EPS', 'awgn:P,SIGMA2' (quantized on bins cells) or 'file:PATH'."""
    kind, _, params = spec.partition(":")
    if kind == "file":
        return load_channel(params)
    arity = {"bsc": 1, "onoff": 2, "awgn": 2}
    if kind not in arity:
        raise CliError(f"unknown channel spec {spec!r}")
    vals = _float_list(params)
    if len(vals) != arity[kind]:
        raise CliError(f"channel {kind!r} takes {arity[kind]} comma-separated values, got {params!r}")
    if kind == "bsc":
        return bsc(vals[0])
    if kind == "onoff":
        return compose(on_off_fading_matrix(vals[0]), bsc(vals[1]))
    return quantized_awgn(AwgnSpec(*vals), bins)


# ---------------------------------------------------------------- threshold


def _echo_number(x: float) -> str:
    """x as a config echo writes it: its shortest repr, which reads back as x, less a trailing '.0'."""
    return repr(float(x)).removesuffix(".0")


def _onoff_values(tokens: list[str]) -> tuple[float, float]:
    """(P, EPS) of --onoff-bsc: two bare values in that order, or p=P and eps=EPS in either order."""
    keyed = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
    if keyed and set(keyed) != {"p", "eps"}:  # an unknown or repeated key, or a bare value beside a keyed one
        raise CliError(f"--onoff-bsc takes P EPS or p=P eps=EPS, got {' '.join(tokens)!r}")
    return (float(keyed["p"]), float(keyed["eps"])) if keyed else (float(tokens[0]), float(tokens[1]))


def _parse_channel_args(args) -> tuple:
    """Resolve the one channel source flag argparse admits into (description dict, ThresholdReport)."""
    if args.file is not None:
        return {"channel": f"file:{args.file}"}, sync_threshold(load_channel(args.file))
    if args.inline is not None:
        rows = [[float(v) for v in row.split(",")] for row in args.inline.split(";")]
        if len({len(row) for row in rows}) > 1:
            raise CliError(f"--inline rows must be equally long, got lengths {', '.join(str(len(r)) for r in rows)}")
        return {"channel": "inline"}, sync_threshold(dmc_new(np.array(rows)))
    if args.bsc is not None:
        name, values, report = "bsc", [args.bsc], sync_threshold(bsc(args.bsc))
    elif args.onoff_bsc is not None:
        name, values = "onoff-bsc", _onoff_values(args.onoff_bsc)
        report = sync_threshold(compose(on_off_fading_matrix(values[0]), bsc(values[1])))
    else:
        name, values = ("awgn", args.awgn) if args.awgn is not None else ("rayleigh", args.rayleigh)
        if name == "awgn":
            alpha, method = awgn_threshold(AwgnSpec(*values)), "closed-form"
        else:
            alpha, method = rayleigh_threshold_numeric(RayleighAwgnSpec(*values)), "quadrature"
        report = ThresholdReport(alpha=alpha, argmax_symbol=1, method=method, per_symbol_divergences=(0.0, alpha))
    return {"channel": f"{name}:{','.join(map(_echo_number, values))}"}, report


def cmd_threshold(args) -> int:
    echo, report = _parse_channel_args(args)
    payload = {"config": echo, **report.to_json_dict()}
    if args.bits:
        payload["alpha_bits"] = "infinite" if report.is_infinite else report.alpha_bits()
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


# ------------------------------------------------------------- lemma1-grid


DEFAULT_P_GRID = [round(0.02 * i, 10) for i in range(1, 51)]
DEFAULT_EPS_GRID = [round(0.01 * i, 10) for i in range(1, 50)]


def cmd_lemma1_grid(args) -> int:
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
        print("error: fading bound violated on the grid", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ----------------------------------------------------------- rayleigh-sweep


DEFAULT_SNR_GRID = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
DEFAULT_SIGMA_H = [1.0, 2.0, 3.0]


def cmd_rayleigh_sweep(args) -> int:
    snr_list = _grid_option(args.snr_list, DEFAULT_SNR_GRID, "--snr-list")
    sigma_h_list = _grid_option(args.sigma_h_list, DEFAULT_SIGMA_H, "--sigma-h-list")
    cells = rayleigh_ratio_sweep(snr_list, sigma_h_list, noise_var=args.sigma2)
    _emit(sweep_to_csv(cells), args.out)
    failed = sum(math.isnan(c.ratio) for c in cells)
    if failed:
        print(f"error: {failed} of {len(cells)} sweep cells failed (written as nan)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"bad config line (expected key = value): {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _load_preset(name: str) -> dict[str, str]:
    fname = name.replace("-", "_")
    try:
        text = resources.files("framesync").joinpath(f"presets/{fname}.cfg").read_text()
    except FileNotFoundError:
        raise CliError(f"unknown preset {name!r}") from None
    return _parse_config_text(text)


def _config_from_replay(path: str) -> dict[str, str]:
    with open(path) as fh:
        head = fh.read()
    if head.lstrip().startswith("{"):
        payload = json.loads(head)
        cfg = payload.get("config")
        if not isinstance(cfg, dict):
            raise CliError(f"{path} carries no config echo")
        return {k: str(v) for k, v in cfg.items()}
    cfg = {}
    for line in head.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            cfg[key.strip()] = value.strip()
    if not cfg:
        raise CliError(f"{path} carries no config echo")
    return cfg


# each simulate mode's keys beside mode, trials, seed and workers, with their parsers; any
# other key is an error. A key the config leaves out takes its row builder's default, and
# is required where the builder has none.
MODE_KEYS = {
    "single": dict(channel=str, n=int, k=int, a=int, beta=float, mu=float, norm=str, bins=int),
    "bsc-scaling": dict(eps=float, k=int, n_list=_int_list, beta=float, mu=float, norm=str),
    "energy-scaling": dict(energy=float, sigma2=float, n_list=_int_list, bins=int, mu_coeff=float, norm=str),
}
# looked up by name at each call, so a wrapper set on this module's attribute is the one called
ROW_BUILDERS = {
    "single": "_single_rows", "bsc-scaling": "bsc_scaling_rows", "energy-scaling": "energy_scaling_rows"
}
RUN_KEYS = ("mode", "trials", "seed", "workers")


def _single_rows(channel: str, n: int, k: int, bins: int | None = None, **row) -> list:
    """single_rows over the channel of a spec; an awgn: spec is quantized on bins cells (8), and no other reads bins."""
    if bins is not None and not channel.startswith("awgn:"):
        raise CliError(f"config key 'bins' is read only by an awgn: channel, not by {channel!r}")
    return single_rows(_parse_channel(channel, 8 if bins is None else bins), n, k, **row)


def _config_rows(cfg: dict[str, str]) -> tuple[str, list, dict]:
    """(mode, rows, run settings for monte_carlo) of a simulate config."""
    mode = cfg.get("mode", "single")
    if mode not in MODE_KEYS:
        raise CliError(f"unknown simulate mode {mode!r}")
    keys = MODE_KEYS[mode]
    unread = sorted(set(cfg) - set(RUN_KEYS) - set(keys))
    if unread:
        raise CliError(f"config keys not read by mode {mode!r}: {', '.join(unread)}")
    builder = globals()[ROW_BUILDERS[mode]]
    params = inspect.signature(builder).parameters.values()
    for key in ["trials", *(p.name for p in params if p.default is p.empty and p.kind != p.VAR_KEYWORD)]:
        if key not in cfg:
            raise CliError(f"config key {key!r} is required for mode {mode!r}")
    # monte_carlo rejects trials < 1 and workers < 1
    run = {"trials": int(cfg["trials"]), "master_seed": int(cfg.get("seed", "0")),
           "workers": int(cfg.get("workers", "1"))}
    return mode, builder(**{key: parse(cfg[key]) for key, parse in keys.items() if key in cfg}), run


def _echo_dict(cfg: dict[str, str]) -> dict[str, str]:
    # worker count is an execution detail; outputs must not depend on it
    return {k: v for k, v in cfg.items() if k != "workers"}


def cmd_simulate(args) -> int:
    sources = [s for s in (args.preset, args.config, args.replay) if s]
    if len(sources) != 1:
        raise CliError("simulate needs exactly one of --preset, --config, --replay")
    if args.preset:
        cfg = _load_preset(args.preset)
    elif args.config:
        with open(args.config) as fh:
            cfg = _parse_config_text(fh.read())
    else:
        cfg = _config_from_replay(args.replay)
    for override in args.set or []:
        if "=" not in override:
            raise CliError(f"--set expects key=value, got {override!r}")
        key, value = override.split("=", 1)
        cfg[key.strip()] = value.strip()

    t0 = time.monotonic()
    mode, rows, run = _config_rows(cfg)
    results, failure = [], None
    try:
        for row in rows:
            results.append((row, monte_carlo(row.config, **run)))
    except RuntimeError as exc:  # the rows finished before it are still written
        failure = exc
    if mode == "single":
        if failure is not None:
            raise CliError(str(failure), EXIT_RUNTIME)
        row, report = results[0]
        text = _json_dumps({"config": _echo_dict(cfg), "a": float(row.a), "report": report.to_json_dict()})
    else:
        echo = "".join(f"# {k} = {v}\n" for k, v in sorted(_echo_dict(cfg).items()))
        text = echo + scaling_to_csv(results)
    _emit(text, args.out)
    print(f"wall_time_s {time.monotonic() - t0:.3f}", file=sys.stderr)
    if failure is not None:
        print(f"error: {failure} (partial results flushed)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------- sequence


def cmd_sequence(args) -> int:
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
    return EXIT_OK


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
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("lemma1-grid", help="fading bound alpha(Q) <= p alpha(Qn) on a grid")
    p.add_argument("--p-list", metavar="P1,P2,...")
    p.add_argument("--eps-list", metavar="E1,E2,...")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_lemma1_grid)

    p = sub.add_parser("rayleigh-sweep", help="fading/AWGN threshold ratio vs SNR")
    p.add_argument("--snr-list", metavar="S1,S2,...")
    p.add_argument("--sigma-h-list", metavar="H1,H2,...")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_rayleigh_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo decoder simulation")
    p.add_argument("--preset", metavar="NAME")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--replay", metavar="OUTPUT", help="reproduce a previous run from its echo")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sequence", help="build a sync word and analyze shift distances")
    p.add_argument("--n", type=int, required=True, metavar="N_TARGET")
    p.add_argument("--k", type=int, default=8, metavar="K")
    p.add_argument("--seed", type=int, default=1, help="nonzero register seed")
    p.add_argument("--exact", action="store_true", help="use N exactly instead of the nearest valid length")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_sequence)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QuadratureNonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
