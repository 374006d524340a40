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
    scaling_experiment,
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


def _parse_channel(spec: str, bins: int = 8):
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


def _parse_channel_args(args) -> tuple:
    """Resolve the channel source flags into (description dict, ThresholdReport)."""
    if args.bsc is not None:
        return {"channel": f"bsc:{args.bsc:g}"}, sync_threshold(_parse_channel(f"bsc:{args.bsc!r}"))
    if args.onoff_bsc is not None:
        p, eps = (float(tok.split("=")[-1]) for tok in args.onoff_bsc)
        report = sync_threshold(_parse_channel(f"onoff:{p!r},{eps!r}"))
        return {"channel": f"onoff-bsc:{p:g},{eps:g}"}, report
    if args.awgn is not None:
        power, sigma2 = args.awgn
        alpha = awgn_threshold(AwgnSpec(power=power, noise_var=sigma2))
        report = ThresholdReport(
            alpha=alpha, argmax_symbol=1, method="closed-form", per_symbol_divergences=(0.0, alpha)
        )
        return {"channel": f"awgn:{power:g},{sigma2:g}"}, report
    if args.rayleigh is not None:
        power, sigma2, scale = args.rayleigh
        spec = RayleighAwgnSpec(power=power, noise_var=sigma2, scale=scale)
        alpha = rayleigh_threshold_numeric(spec)
        report = ThresholdReport(
            alpha=alpha, argmax_symbol=1, method="quadrature", per_symbol_divergences=(0.0, alpha)
        )
        return {"channel": f"rayleigh:{power:g},{sigma2:g},{scale:g}"}, report
    if args.file is not None:
        return {"channel": f"file:{args.file}"}, sync_threshold(_parse_channel(f"file:{args.file}"))
    if args.inline is not None:
        rows = [[float(v) for v in row.split(",")] for row in args.inline.split(";")]
        report = sync_threshold(dmc_new(np.array(rows)))
        return {"channel": "inline"}, report
    raise CliError("no channel source given (one of --bsc/--onoff-bsc/--awgn/--rayleigh/--file/--inline)")


def cmd_threshold(args) -> int:
    echo, report = _parse_channel_args(args)
    payload = {"config": echo, **report.to_json_dict()}
    if args.bits:
        payload["alpha_bits"] = (
            "infinite" if report.is_infinite else report.alpha_bits()
        )
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


# keys each simulate mode reads beside mode, trials, seed and workers; any other key is an error
MODE_KEYS = {
    "single": ("channel", "n", "k", "a", "beta", "mu", "norm", "bins"),
    "bsc-scaling": ("eps", "k", "n_list", "beta", "mu", "norm"),
    "energy-scaling": ("energy", "sigma2", "n_list", "bins", "mu_coeff", "norm"),
}
RUN_KEYS = ("mode", "trials", "seed", "workers")


def _config_rows(cfg: dict[str, str]) -> tuple[str, list, dict]:
    """(mode, rows, run settings for scaling_experiment) of a simulate config."""
    mode = cfg.get("mode", "single")
    if mode not in MODE_KEYS:
        raise CliError(f"unknown simulate mode {mode!r}")
    unread = sorted(set(cfg) - set(RUN_KEYS) - set(MODE_KEYS[mode]))
    if unread:
        raise CliError(f"config keys not read by mode {mode!r}: {', '.join(unread)}")

    def get(key: str, default: str | None = None) -> str:
        if key in cfg:
            return cfg[key]
        if default is None:
            raise CliError(f"config key {key!r} is required for mode {mode!r}")
        return default

    def optional(key: str, parse):
        return parse(cfg[key]) if key in cfg else None

    run = {"trials": int(get("trials")), "master_seed": int(get("seed", "0")), "workers": int(get("workers", "1"))}
    if run["trials"] < 1:
        raise CliError(f"trials must be >= 1, got {run['trials']}")
    if mode == "single":
        rows = single_rows(
            channel=_parse_channel(get("channel"), int(get("bins", "8"))),
            n=int(get("n")),
            k=int(get("k")),
            mu=optional("mu", float),
            norm=get("norm", "linf"),
            a=optional("a", int),
            beta=optional("beta", float),
        )
    elif mode == "bsc-scaling":
        rows = bsc_scaling_rows(
            eps=float(get("eps")),
            k=int(get("k")),
            n_list=_int_list(get("n_list")),
            beta=float(get("beta")),
            mu=float(get("mu")),
            norm=get("norm", "linf"),
        )
    else:
        rows = energy_scaling_rows(
            energy=float(get("energy")),
            sigma2=float(get("sigma2", "1.0")),
            n_list=_int_list(get("n_list")),
            bins=int(get("bins", "8")),
            mu_coeff=float(get("mu_coeff", "1.2")),
            norm=get("norm", "l1"),
        )
    return mode, rows, run


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
    try:
        results, failure = scaling_experiment(rows, **run), None
    except RuntimeError as exc:
        results, failure = exc.completed, exc
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesync",
        description="Frame synchronization thresholds, sync words, and decoder simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="synchronization threshold of a channel")
    p.add_argument("--bsc", type=float, metavar="EPS")
    p.add_argument("--onoff-bsc", nargs=2, metavar=("P", "EPS"))
    p.add_argument("--awgn", nargs=2, type=float, metavar=("P", "SIGMA2"))
    p.add_argument("--rayleigh", nargs=3, type=float, metavar=("P", "SIGMA2", "SIGMA_H"))
    p.add_argument("--file", metavar="PATH")
    p.add_argument("--inline", metavar="ROWS", help="rows 'a,b;c,d'")
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
