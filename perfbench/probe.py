"""Child-process side of the benchmark: the pass worker and the library call.

  python3 perfbench/probe.py worker SPEC_JSON
      imports framesync and builds the workload's rows, configs and
      TrialEngines through public functions (SPEC["setup"]), then prints
      {"t_ready": <perf_counter>, "cal_s": <calibration>}. The parent reads
      the clock before it starts the process, so the difference is the
      set-up time including interpreter start (Linux perf_counter is
      CLOCK_MONOTONIC, one clock for all processes). Then it repeats the
      pass SPEC["ops"] in this warm process until SPEC["seconds"] have passed
      since t_ready (at least once; never if it is null): each CLI operation
      through framesync.cli.main, each writing its output to
      SPEC["outdir"]/pass<i>-<label>.out. After each pass it prints
      {"pass": i, "wall_s": {label: s}, "codes": {label: exit code},
      "cal_s": <calibration>}. It stops after a pass with a failed operation.

  python3 perfbench/probe.py library BINS
      the documented library path: quantize Rayleigh+AWGN (P=100, sigma^2=1,
      sigma_H=1) on QuantizationGrid(-8, 36, BINS) and take sync_threshold;
      prints {"alpha": ..., "channel_sha256": ...}.

framesync is found through PYTHONPATH, which the parent sets to ./src.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import traceback
from time import perf_counter

from calibration import calibrate

RAYLEIGH_SPEC = (100.0, 1.0, 1.0)
RAYLEIGH_GRID = (-8.0, 36.0)
RAYLEIGH_MASS_LOSS_TOL = 1e-2


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build(fs, cfg: dict[str, str]) -> list:
    """Build what a run of `cfg` needs before its first trial; returns the engines."""
    mode = cfg.get("mode", "single")
    if mode == "rayleigh":
        for sigma_h in _floats(cfg["sigma_h_list"]):
            for snr in _floats(cfg["snr_list"]):
                fs.RayleighAwgnSpec(power=snr, noise_var=1.0, scale=sigma_h)
        fs.QuantizationGrid(*RAYLEIGH_GRID, int(cfg["bins"]))
        return []
    if mode == "bsc-scaling":
        rows = fs.bsc_scaling_rows(
            eps=float(cfg["eps"]),
            k=int(cfg["k"]),
            n_list=_ints(cfg["n_list"]),
            beta=float(cfg["beta"]),
            mu=float(cfg["mu"]),
            norm=cfg.get("norm", "linf"),
        )
        configs = [row.config for row in rows]
    elif mode == "energy-scaling":
        rows = fs.energy_scaling_rows(
            energy=float(cfg["energy"]),
            sigma2=float(cfg.get("sigma2", "1.0")),
            n_list=_ints(cfg["n_list"]),
            bins=int(cfg.get("bins", "8")),
            mu_coeff=float(cfg.get("mu_coeff", "1.2")),
            norm=cfg.get("norm", "l1"),
        )
        configs = [row.config for row in rows]
    elif mode == "single":
        kind, _, eps = cfg["channel"].partition(":")
        if kind != "bsc":
            raise ValueError(f"set-up probe supports bsc channels only, got {cfg['channel']!r}")
        word = fs.build_sync_word(int(cfg["n"]), int(cfg["k"]))
        mu = float(cfg["mu"]) if "mu" in cfg else None
        config = fs.TrialConfig(
            a=int(cfg["a"]), word=word, channel=fs.bsc(float(eps)), mu=mu,
            norm=cfg.get("norm", "linf"),
        )
        configs = [config]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    engine = getattr(fs.decoder, "TrialEngine", None)
    return [] if engine is None else [engine(c) for c in configs]


def quantized_rayleigh(fs, bins: int) -> str:
    """The library call of the rayleigh workload; returns its JSON output line.

    Functions are looked up on their home modules at call time, so the
    traced run sees these calls.
    """
    power, noise_var, scale = RAYLEIGH_SPEC
    spec = fs.RayleighAwgnSpec(power=power, noise_var=noise_var, scale=scale)
    grid = fs.QuantizationGrid(*RAYLEIGH_GRID, bins)
    channel = fs.continuous.quantize_to_dmc(spec, grid, mass_loss_tol=RAYLEIGH_MASS_LOSS_TOL)
    alpha = fs.thresholds.sync_threshold(channel).alpha
    digest = hashlib.sha256(channel.rows.astype("<f8").tobytes()).hexdigest()
    return json.dumps({"alpha": alpha, "bins": bins, "channel_sha256": digest}) + "\n"


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_op(fs, kind: str, args: list[str], path: str, cli_main=None) -> int:
    """One operation of a pass, its output written to path; returns its exit code.

    cli_main stands in for framesync.cli.main (the traced run passes a wrapper)."""
    if kind == "library":
        with open(path, "w") as fh:
            fh.write(quantized_rayleigh(fs, int(args[0])))
        return 0
    try:
        return (cli_main or fs.cli.main)([*args, "--out", path])
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def worker(fs, spec: dict) -> int:
    build(fs, spec["setup"])
    t_ready = perf_counter()
    _emit({"t_ready": t_ready, "cal_s": calibrate()})
    i = 0
    while spec["seconds"] is not None and (i == 0 or perf_counter() - t_ready < spec["seconds"]):
        walls, codes = {}, {}
        for label, kind, args in spec["ops"]:
            path = os.path.join(spec["outdir"], f"pass{i}-{label}.out")
            t0 = perf_counter()
            try:
                codes[label] = run_op(fs, kind, args, path)
            except Exception:  # the program crashed: report it, stop this worker
                traceback.print_exc()
                codes[label] = None
            walls[label] = perf_counter() - t0
        _emit({"pass": i, "wall_s": walls, "codes": codes, "cal_s": calibrate()})
        if any(code != 0 for code in codes.values()):
            break
        i += 1
    return 0


def main(argv: list[str]) -> int:
    import framesync as fs
    import framesync.cli  # noqa: F401

    if argv[0] == "worker":
        return worker(fs, json.loads(argv[1]))
    if argv[0] == "library":
        sys.stdout.write(quantized_rayleigh(fs, int(argv[1])))
        return 0
    raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
