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
from .continuous import AwgnSpec, QuantizationGrid, RayleighAwgnSpec, quantize_to_dmc
from .decoder import (
    TrialConfig,
    _window_from_exponent,
    bsc_scaling_rows,
    energy_scaling_rows,
    monte_carlo,
    scaling_to_csv,
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


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------- threshold


def _parse_channel_args(args) -> tuple:
    """Resolve the channel source flags into (description dict, ThresholdReport)."""
    if args.bsc is not None:
        eps = args.bsc
        report = sync_threshold(bsc(eps))
        return {"channel": f"bsc:{eps:g}"}, report
    if args.onoff_bsc is not None:
        vals = [float(tok.split("=")[-1]) for tok in args.onoff_bsc]
        if len(vals) != 2:
            raise CliError("--onoff-bsc takes two values: P EPS")
        p, eps = vals
        channel = compose(on_off_fading_matrix(p), bsc(eps))
        report = sync_threshold(channel)
        return {"channel": f"onoff-bsc:{p:g},{eps:g}"}, report
    if args.awgn is not None:
        power, sigma2 = args.awgn
        spec = AwgnSpec(power=power, noise_var=sigma2)
        alpha = awgn_threshold(spec)
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
        report = sync_threshold(load_channel(args.file))
        return {"channel": f"file:{args.file}"}, report
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
    p_list = _float_list(args.p_list) if args.p_list else DEFAULT_P_GRID
    eps_list = _float_list(args.eps_list) if args.eps_list else DEFAULT_EPS_GRID
    if not p_list or not eps_list:
        raise CliError("p and eps lists must be non-empty")
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
    snr_list = _float_list(args.snr_list) if args.snr_list else DEFAULT_SNR_GRID
    sigma_h_list = _float_list(args.sigma_h_list) if args.sigma_h_list else DEFAULT_SIGMA_H
    cells = rayleigh_ratio_sweep(snr_list, sigma_h_list, noise_var=args.sigma2)
    _emit(sweep_to_csv(cells), args.out)
    if any(math.isnan(c.ratio) for c in cells):
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


def _build_channel(desc: str, bins: int):
    kind, _, params = desc.partition(":")
    if kind == "bsc":
        return bsc(float(params))
    if kind == "onoff":
        p, eps = _float_list(params)
        return compose(on_off_fading_matrix(p), bsc(eps))
    if kind == "awgn":
        vals = _float_list(params)
        power, sigma2 = vals[0], vals[1]
        s = math.sqrt(sigma2)
        grid = QuantizationGrid(-5.0 * s, math.sqrt(power) + 5.0 * s, bins)
        return quantize_to_dmc(AwgnSpec(power=power, noise_var=sigma2), grid)
    if kind == "file":
        return load_channel(params)
    raise CliError(f"unknown channel spec {desc!r}")


def _require(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise CliError(f"config key {key!r} is required for mode {cfg.get('mode')!r}")
    return cfg[key]


def _run_single(cfg: dict[str, str]) -> tuple[dict, str]:
    trials = int(_require(cfg, "trials"))
    if trials < 1:
        raise CliError(f"trials must be >= 1, got {trials}")
    seed = int(cfg.get("seed", "0"))
    workers = int(cfg.get("workers", "1"))
    bins = int(cfg.get("bins", "8"))
    channel = _build_channel(_require(cfg, "channel"), bins)
    n = int(_require(cfg, "n"))
    k = int(_require(cfg, "k"))
    word = build_sync_word(n, k)
    mu = float(cfg["mu"]) if "mu" in cfg else None
    norm = cfg.get("norm", "linf")
    if "a" in cfg:
        a = int(cfg["a"])
    elif "beta" in cfg:
        a = _window_from_exponent(float(cfg["beta"]) * sync_threshold(channel).alpha * n)
    else:
        raise CliError("single mode needs either 'a' or 'beta'")
    config = TrialConfig(a=a, word=word, channel=channel, mu=mu, norm=norm)
    report = monte_carlo(config, trials, master_seed=seed, workers=workers)
    payload = {"config": _echo_dict(cfg), "a": float(a), "report": report.to_json_dict()}
    return payload, _json_dumps(payload)


def _echo_dict(cfg: dict[str, str]) -> dict[str, str]:
    # worker count is an execution detail; outputs must not depend on it
    return {k: v for k, v in cfg.items() if k != "workers"}


def _echo_header(cfg: dict[str, str]) -> str:
    return "".join(f"# {k} = {v}\n" for k, v in sorted(_echo_dict(cfg).items()))


def _run_scaling(rows, cfg: dict[str, str]) -> tuple[str, Exception | None]:
    """Monte Carlo per row; on a mid-run failure the completed rows survive."""
    trials = int(_require(cfg, "trials"))
    seed = int(cfg.get("seed", "0"))
    workers = int(cfg.get("workers", "1"))
    results, failure = [], None
    for row in rows:
        try:
            report = monte_carlo(row.config, trials, master_seed=seed, workers=workers)
        except RuntimeError as exc:
            failure = exc
            break
        results.append((row, report))
    return _echo_header(cfg) + scaling_to_csv(results), failure


def _build_rows(mode: str, cfg: dict[str, str]):
    if mode == "bsc-scaling":
        return bsc_scaling_rows(
            eps=float(_require(cfg, "eps")),
            k=int(_require(cfg, "k")),
            n_list=_int_list(_require(cfg, "n_list")),
            beta=float(_require(cfg, "beta")),
            mu=float(_require(cfg, "mu")),
            norm=cfg.get("norm", "linf"),
        )
    return energy_scaling_rows(
        energy=float(_require(cfg, "energy")),
        sigma2=float(cfg.get("sigma2", "1.0")),
        n_list=_int_list(_require(cfg, "n_list")),
        bins=int(cfg.get("bins", "8")),
        mu_coeff=float(cfg.get("mu_coeff", "1.2")),
        norm=cfg.get("norm", "l1"),
    )


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

    mode = cfg.get("mode", "single")
    t0 = time.monotonic()
    failure: Exception | None = None
    if mode == "single":
        try:
            _, text = _run_single(cfg)
        except (QuadratureNonConvergence, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    elif mode in ("bsc-scaling", "energy-scaling"):
        text, failure = _run_scaling(_build_rows(mode, cfg), cfg)
    else:
        raise CliError(f"unknown simulate mode {mode!r}")
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
