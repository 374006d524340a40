"""Write perfbench/reference.json from the program and the out/ files of this checkout.

  python3 perfbench/record_reference.py

Run from the repository root, and only when an output format changes on
purpose: the benchmark's output checks compare against these digests.
Records, at the preset seed, the sha256 of each simulate workload's output
at its reference, pass and fast trial counts; the digest of the quantized
Rayleigh channel of the library call; the committed out/rayleigh_sweep.csv;
and the digests of the committed out/ files that selftest.py reproduces.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from workloads import HERE, PRESET_SEED, WORKLOADS, Rayleigh, sha256

ROOT = os.getcwd()
OUT_FILES = ("bsc_scaling.csv", "energy_scaling.csv", "single_bsc.json", "rayleigh_sweep.csv")


def _run(argv: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True).stdout


def main() -> int:
    def out_file(name):
        with open(os.path.join(ROOT, "out", name), "rb") as fh:
            return fh.read()

    ref = {
        "simulate": {},
        "quantized_channel": {},
        "rayleigh_sweep_csv": out_file("rayleigh_sweep.csv").decode(),
        "out": {name: sha256(out_file(name)) for name in OUT_FILES},
    }
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = os.path.join(tmp, "out")
        for w in WORKLOADS.values():
            if isinstance(w, Rayleigh):
                continue
            for trials in sorted({w.ref_trials, w.trials, w.fast_trials}):
                _run([sys.executable, "-m", "framesync.cli", *w.op(PRESET_SEED, trials).args,
                      "--out", path])
                with open(path, "rb") as fh:
                    key = f"{w.name}/seed={PRESET_SEED}/trials={trials}"
                    ref["simulate"][key] = sha256(fh.read())
                print(key, ref["simulate"][key])
    for bins in (Rayleigh.BINS, Rayleigh.FAST_BINS):
        line = _run([sys.executable, os.path.join(HERE, "probe.py"), "library", str(bins)])
        ref["quantized_channel"][str(bins)] = json.loads(line)["channel_sha256"]
        print(f"quantized_channel/{bins}", ref["quantized_channel"][str(bins)])
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
