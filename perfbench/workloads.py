"""The benchmark's workloads: the operations of one pass and their output checks.

An operation is one CLI call (`python3 -m framesync.cli ...`) or one library
call (`perfbench/probe.py library ...`). A pass is the workload's operations
in sequence. Why each workload exists is written in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

PRESET_SEED = 20250807
HERE = os.path.dirname(os.path.abspath(__file__))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def parse_preset(root: str, preset: str) -> dict[str, str]:
    """key = value lines of a shipped preset, comments dropped."""
    path = os.path.join(root, "src", "framesync", "presets", f"{preset}.cfg")
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                cfg[key.strip()] = value.strip()
    return cfg


@dataclass(frozen=True)
class Op:
    label: str  # names the output within a pass
    kind: str  # "cli" or "library"
    args: tuple[str, ...]  # framesync.cli arguments without --out, or library arguments


class Simulate:
    """`framesync simulate --preset ...` with the seed and trial count set by the benchmark."""

    def __init__(self, name, preset, sets, trials, ref_trials, fast_trials):
        self.name, self.preset, self.sets = name, preset, tuple(sets)
        self.trials, self.ref_trials, self.fast_trials = trials, ref_trials, fast_trials

    def op(self, seed: int, trials: int, extra: tuple[str, ...] = ()) -> Op:
        args = ["simulate", "--preset", self.preset]
        for item in (*self.sets, f"seed={seed}", f"trials={trials}", "workers=1", *extra):
            args += ["--set", item]
        return Op("simulate", "cli", tuple(args))

    def pass_trials(self, fast: bool) -> int:
        return self.fast_trials if fast else self.trials

    def pass_ops(self, seed: int, fast: bool, extra: tuple[str, ...] = ()) -> list[Op]:
        return [self.op(seed, self.pass_trials(fast), extra)]

    def reference_trials(self, fast: bool) -> int:
        return self.fast_trials if fast else self.ref_trials

    def check_ops(self, fast: bool) -> list[Op]:
        """An untimed pass at the preset seed whose output reference.json records,
        so every run checks against a reference whatever its own seed."""
        return [self.op(PRESET_SEED, self.reference_trials(fast))]

    def setup_config(self, root: str, seed: int, fast: bool) -> dict[str, str]:
        cfg = parse_preset(root, self.preset)
        for item in self.sets:
            key, _, value = item.partition("=")
            cfg[key] = value
        cfg.update(seed=str(seed), trials=str(self.pass_trials(fast)), workers="1")
        return cfg

    def check(self, outputs: dict[str, bytes], seed: int, trials: int, ref: dict):
        """(work items, {label: [errors]}) for one pass's outputs."""
        data = outputs["simulate"]
        errors: list[str] = []
        try:
            items = self._check_report(data.decode(), seed, trials, errors)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"unparseable output: {exc!r}")
            items = 0
        expected = ref["simulate"].get(f"{self.name}/seed={seed}/trials={trials}")
        if expected is not None and sha256(data) != expected:
            errors.append(f"output differs from the reference at seed={seed} trials={trials}")
        return items, {"simulate": errors}

    def _check_report(self, text: str, seed: int, trials: int, errors: list[str]) -> int:
        if text.lstrip().startswith("{"):
            payload = json.loads(text)
            echo, rep = payload["config"], payload["report"]
            if rep["trials"] != trials or sum(rep["counts"].values()) != trials:
                errors.append(f"class counts {rep['counts']} do not sum to {trials}")
            rows = [(rep["p_err"], *rep["wilson_ci_95"]["p_err"], rep["p_e1"], rep["p_e2"], rep["p_e3"])]
            n_rows = 1
        else:
            lines = text.splitlines()
            echo = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
            table = list(csv.DictReader(io.StringIO("\n".join(l for l in lines if not l.startswith("#")))))
            rows = [tuple(float(r[k]) for k in ("p_err", "ci_lo", "ci_hi", "p_e1", "p_e2", "p_e3"))
                    for r in table]
            n_rows = len(echo["n_list"].split(","))
            if len(rows) != n_rows:
                errors.append(f"{len(rows)} result rows for {n_rows} configured lengths")
        if echo.get("seed") != str(seed) or echo.get("trials") != str(trials):
            errors.append(f"config echo {echo} does not carry seed={seed} trials={trials}")
        if "workers" in echo:
            errors.append("config echo carries the worker count")
        for p_err, lo, hi, e1, e2, e3 in rows:
            if abs(p_err - (e1 + e2 + e3)) > 1e-12 or not 0.0 <= lo <= p_err <= hi <= 1.0:
                errors.append(f"inconsistent row p_err={p_err} ci=[{lo}, {hi}]")
            for p in (e1, e2, e3):
                if abs(p * trials - round(p * trials)) > 1e-6:
                    errors.append(f"rate {p} is not a count over {trials} trials")
        return trials * n_rows


class Rayleigh:
    """`framesync rayleigh-sweep` on part of its default grid, then the quantized-channel library call.

    A pass is kept near 2 s (the full 7x3 sweep plus 4096 bins takes 13-20 s
    on a 2-vCPU Xeon), so that a run holds many passes; every layer the full
    pass exercises is still exercised.
    """

    SNR, SIGMA_H, BINS = "1,10,100", "1", 256
    FAST_SNR, FAST_SIGMA_H, FAST_BINS = "100", "1", 128

    def __init__(self, name):
        self.name = name

    def pass_trials(self, fast: bool) -> int:
        return 0  # no randomness; the seed does not apply

    reference_trials = pass_trials

    def _grid(self, fast: bool) -> tuple[str, str, int]:
        return (self.FAST_SNR, self.FAST_SIGMA_H, self.FAST_BINS) if fast else (
            self.SNR, self.SIGMA_H, self.BINS)

    def pass_ops(self, seed: int, fast: bool, extra: tuple[str, ...] = ()) -> list[Op]:
        snr, sigma_h, bins = self._grid(fast)
        return [
            Op("sweep", "cli", ("rayleigh-sweep", "--snr-list", snr, "--sigma-h-list", sigma_h, *extra)),
            Op("library", "library", (str(bins),)),
        ]

    def check_ops(self, fast: bool) -> list[Op]:
        return []  # every timed pass is compared with the committed sweep already

    def setup_config(self, root: str, seed: int, fast: bool) -> dict[str, str]:
        snr, sigma_h, bins = self._grid(fast)
        return {"mode": "rayleigh", "snr_list": snr, "sigma_h_list": sigma_h, "bins": str(bins)}

    def check(self, outputs: dict[str, bytes], seed: int, trials: int, ref: dict):
        errors: dict[str, list[str]] = {label: [] for label in outputs}
        items = 0
        reference = ref["rayleigh_sweep_csv"].splitlines()
        ref_lines = {tuple(line.split(",")[:2]): line for line in reference[1:]}
        # rayleigh_threshold_numeric of the (snr, sigma_h) = (100, 1) channel the library call quantizes
        alpha_cont = float(ref_lines[("100", "1")].split(",")[2])
        if "sweep" in outputs:
            lines = outputs["sweep"].decode().splitlines()
            errs = errors["sweep"]
            if not lines or lines[0] != reference[0]:
                errs.append("sweep header differs from the reference")
            for line in lines[1:]:
                cells = line.split(",")
                if "nan" in cells:
                    errs.append(f"nan sweep cell: {line}")
                if ref_lines.get(tuple(cells[:2])) != line:
                    errs.append(f"sweep line differs from the committed out/rayleigh_sweep.csv: {line}")
            items += max(len(lines) - 1, 0)
        if "library" in outputs:
            errs = errors["library"]
            try:
                result = json.loads(outputs["library"])
                alpha, bins, digest = result["alpha"], result["bins"], result["channel_sha256"]
            except (ValueError, KeyError, TypeError) as exc:
                errs.append(f"unparseable library output: {exc!r}")
            else:
                items += 1
                # the cross-check of tests/test_continuous.py::test_rayleigh_quantized_vs_continuous
                if not (math.isfinite(alpha) and abs(alpha - alpha_cont) <= 0.02 * alpha_cont):
                    errs.append(f"quantized alpha {alpha} is not within 2% of {alpha_cont}")
                expected = ref["quantized_channel"].get(str(bins))
                if expected is not None and digest != expected:
                    errs.append(f"quantized channel ({bins} bins) differs from the reference")
        return items, errors


WORKLOADS = {
    w.name: w
    for w in (
        # trials per pass keep a pass near 0.4 s on a 2-vCPU Xeon, so a 30-s run
        # holds dozens of passes
        Simulate("skip_scan", "bsc_scaling", (), trials=400, ref_trials=200, fast_trials=20),
        Simulate("full_scan", "energy_scaling", (), trials=80, ref_trials=30, fast_trials=4),
        Simulate("short_batched", "single_bsc", ("n=15", "k=2", "a=30"),
                 trials=30_000, ref_trials=12_000, fast_trials=500),
        Rayleigh("rayleigh"),
    )
}
