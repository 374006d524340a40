"""Self-test of the benchmark, in fast mode with tiny trial counts.

  python3 perfbench/selftest.py        (from the repository root; a few minutes)

Checks that
  1. every metric named in BENCHMARK.json is emitted with its unit by the
     untraced and the traced run of every workload, with no failed operation,
     and the traced counts put each workload's trials on its own engine path;
  2. module and class attributes of framesync are the originals after a
     traced run;
  3. an invalid --set (exit 2) counts in failed_frac and the harness still
     reports;
  4. the shipped presets at the preset seed reproduce the committed out/
     files byte for byte, and reference.json agrees with out/.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
from workloads import WORKLOADS, load_reference, sha256

PRESET_OUTPUTS = {"single_bsc": "single_bsc.json", "bsc_scaling": "bsc_scaling.csv",
                  "energy_scaling": "energy_scaling.csv"}
SIMULATE_ONLY = ("decoder.", "channels.")
RAYLEIGH_ONLY = ("quadrature.adaptive_quad.calls", "quadrature.adaptive_quad.evals",
                 "continuous.rayleigh_awgn_density.calls")
PATHS = {"skip_scan": "skip", "full_scan": "full", "short_batched": "batched"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def attributes(fs) -> dict:
    mods = [fs, fs.cli, fs.channels, fs.continuous, fs.decoder, fs.quadrature,
            fs.sequences, fs.thresholds]
    owners = mods + [getattr(fs.decoder, "TrialEngine", object)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def check_metrics(rec: dict, specs: list[dict], what: str) -> None:
    emitted = rec["metrics"]
    missing = [m["name"] for m in specs
               if m["name"] not in emitted or emitted[m["name"]].get("unit") != m["unit"]]
    expect(not missing, f"{what}: every metric emitted with its unit" + (f" {missing}" if missing else ""))
    expect(rec["failed"] == 0, f"{what}: no failed operation ({rec['failed']} of {rec['attempted']})")


def check_layers(name: str, m: dict) -> None:
    value = {k: v["value"] for k, v in m.items()}
    if name == "rayleigh":
        busy = [k for k, v in value.items() if k.startswith(SIMULATE_ONLY) and v]
        expect(not busy, f"{name}: decoder and channel layers idle" + (f" {busy}" if busy else ""))
        expect(all(value[k] > 0 for k in RAYLEIGH_ONLY), f"{name}: quadrature layers busy")
        return
    busy = [k for k in RAYLEIGH_ONLY if value[k]]
    expect(not busy, f"{name}: quadrature layers idle" + (f" {busy}" if busy else ""))
    paths = {p: value[f"decoder.path.{p}_trials"] for p in ("skip", "full", "batched")}
    own = paths.pop(PATHS[name])
    trials = value["decoder.TrialEngine.run.calls"] + value["decoder.TrialEngine.run_batch.trials"]
    expect(own == trials > 0 and not any(paths.values()),
           f"{name}: all {trials} trials on the {PATHS[name]} path")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, run.SRC)
    import framesync as fs
    import framesync.cli  # noqa: F401

    for name in WORKLOADS:
        check_metrics(run.execute(name, 1, 1, trace=False, fast=True), bench["end_to_end"],
                      f"{name} untraced")
        before = attributes(fs)
        rec = run.execute(name, 1, 1, trace=True, fast=True)
        after = attributes(fs)
        changed = [k for k in before.keys() | after.keys() if before.get(k) is not after.get(k)]
        expect(not changed, f"{name} traced: framesync attributes restored")
        check_metrics(rec, bench["per_layer"], f"{name} traced")
        check_layers(name, rec["metrics"])

    for trace in (False, True):
        rec = run.execute("skip_scan", 1, 1, trace=trace, fast=True, extra=("bogus",))
        codes = [op["exit"] for op in rec["operations"] if op.get("timed")]
        expect(rec["failed_frac"] > 0 and codes and all(c == 2 for c in codes),
               f"invalid --set (trace={int(trace)}): exit 2 counted, failed_frac "
               f"{rec['failed_frac']:.3g}")

    ref = load_reference()
    out_dir = os.path.join(run.ROOT, "out")
    env = dict(os.environ, PYTHONPATH=run.SRC)
    for preset, fname in PRESET_OUTPUTS.items():
        path = os.path.join(run.WORK, "selftest-" + fname)
        os.makedirs(run.WORK, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "framesync.cli", "simulate", "--preset", preset,
                               "--out", path], env=env, cwd=run.ROOT, capture_output=True)
        digest = sha256(run._read(path)) if proc.returncode == 0 else None
        expect(digest == ref["out"][fname], f"simulate --preset {preset} reproduces out/{fname}")
        if os.path.exists(path):
            os.unlink(path)
    for fname, digest in ref["out"].items():
        path = os.path.join(out_dir, fname)
        if os.path.exists(path):
            expect(sha256(run._read(path)) == digest, f"reference.json agrees with out/{fname}")
    sweep = os.path.join(out_dir, "rayleigh_sweep.csv")
    if os.path.exists(sweep):
        expect(run._read(sweep).decode() == ref["rayleigh_sweep_csv"],
               "reference.json carries out/rayleigh_sweep.csv")
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
