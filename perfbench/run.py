"""framesync benchmark: one workload per invocation, run from the repository root.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0, with tracing off, first runs a simulate workload once at the
preset seed as a fresh CLI process and checks its output against
reference.json. Then it starts worker processes in turn (probe.py worker):
each is one set-up sample (interpreter start, import framesync, the
workload's rows and engines) followed by CHUNK_S seconds of passes in that
warm process, each CLI operation through framesync.cli.main. The end-to-end metrics are medians over the run's
samples; the record keeps their quartiles, extremes and count.

The benchmark and its children run on one CPU, and every sample is
bracketed by calibration.py's fixed loop: times are reported at the
reference speed, raw seconds x CAL_REF_S / (the loop's time around the
sample), so that the shared host's speed swings, which slow the program and
the loop alike, cancel. The raw seconds are printed beside them and kept in
the record.

--trace 1 runs one untraced and one traced pass in this process and reports
the layer metrics. Every output is checked (workloads.py); a failed check
counts as a failed operation. Every workload runs with workers=1.

Human-readable lines go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The full record (run
stamp, quartiles, every operation with its output sha256) is written to
.perfbench/results/, and the traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from time import perf_counter

import probe
from calibration import CAL_REF_S, at_reference, calibrate
from metrics import END_TO_END, LAYER
from tracing import Tracer
from workloads import HERE, PRESET_SEED, WORKLOADS, load_reference, sha256

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
HARD_LIMIT_S = 165.0  # a child still running then is killed, so a run ends within 180 s
MIN_SETUP_PROBES = 3
CHUNK_S = 3.0  # seconds of passes per worker process, after its set-up


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so the calibration loop
    and the program see the same CPU; returns it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class Proc:
    """One finished operation; cpu_s and rss_mb are None when it ran in this process."""

    wall_s: float
    cpu_s: float | None
    rss_mb: float | None
    code: int | None
    stdout: bytes = b""
    stderr: str = ""
    started: float = 0.0  # perf_counter() just before the child was started


@dataclass
class Pass:
    wall_s: float = 0.0
    ref_s: float = 0.0  # wall_s at the reference speed (calibration.py)
    items: int = 0


class Runner:
    """Runs operations, checks their outputs and keeps the run's record."""

    def __init__(self, workload, seed: int, fast: bool, extra: tuple[str, ...]):
        self.workload, self.seed, self.fast, self.extra = workload, seed, fast, extra
        self.ref = load_reference()
        self.records: list[dict] = []
        self.started = perf_counter()
        self.deadline = self.started + HARD_LIMIT_S
        self.tmp = os.path.join(WORK, "tmp", f"{workload.name}-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self._timed_digests: dict | None = None
        self.rows: dict = {}  # per-row TrialEngine.run timings of a traced run
        self.setups: list[float] = []  # at the reference speed
        self.raw_setups: list[float] = []
        self.rss_mb: list[float] = []  # peak RSS of each worker process
        self.cal_s: list[float] = []  # every calibration time of the run

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["errors"])

    # ------------------------------------------------------ processes

    def spawn(self, argv: list[str], name: str) -> Proc:
        """Run argv to completion in a child process."""
        out, err = os.path.join(self.tmp, name + ".stdout"), os.path.join(self.tmp, name + ".stderr")
        with open(out, "wb") as so, open(err, "wb") as se:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted (SIGTERM, ^C): leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                    proc.returncode, _read(out), _read(err).decode(errors="replace"), started=t0)

    def worker_chunk(self, ops, seconds: float | None) -> list[Pass]:
        """One worker process (probe.py worker): its set-up, then timed passes of
        ops for `seconds` (at least one; none if seconds is None); records the
        set-up and every operation."""
        w = self.workload
        outdir = os.path.join(self.tmp, "passes")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        spec = {"setup": w.setup_config(ROOT, self.seed, self.fast), "seconds": seconds,
                "ops": [[op.label, op.kind, list(op.args)] for op in ops], "outdir": outdir}
        self.cal_s.append(calibrate())
        proc = self.spawn([sys.executable, os.path.join(HERE, "probe.py"), "worker",
                           json.dumps(spec)], "worker")
        errors = _process_errors(proc)
        lines = []
        for raw in proc.stdout.decode(errors="replace").splitlines():
            try:
                lines.append(json.loads(raw))
            except ValueError:
                errors.append(f"worker printed a line that is not JSON: {raw[:100]!r}")
        head = lines[0] if lines and "t_ready" in lines[0] else None
        setup_s = ref_setup_s = None
        if head is None:
            errors.append("worker printed no set-up time")
        else:
            setup_s = head["t_ready"] - proc.started
            ref_setup_s = at_reference(setup_s, self.cal_s[-1], head["cal_s"])
            self.raw_setups.append(setup_s)
            self.setups.append(ref_setup_s)
            self.rss_mb.append(proc.rss_mb)
        self.records.append({"op": "setup", "kind": "worker", "wall_s": proc.wall_s,
                             "cpu_s": proc.cpu_s, "rss_mb": proc.rss_mb, "setup_s": setup_s,
                             "ref_setup_s": ref_setup_s, "exit": proc.code, "errors": errors})
        passes = []
        trials = w.pass_trials(self.fast)
        for prev, line in zip(lines, lines[1:]):
            self.cal_s.append(line["cal_s"])
            outputs, errs, meta = {}, {}, {}
            for op in ops:
                code = line["codes"].get(op.label)
                outputs[op.label] = _read(os.path.join(outdir, f"pass{line['pass']}-{op.label}.out"))
                errs[op.label] = [] if code == 0 else [f"exit code {code}: {proc.stderr.strip()[-300:]}"]
                meta[op.label] = {"wall_s": line["wall_s"].get(op.label), "exit": code}
            items = self.finish_pass(ops, outputs, errs, meta, self.seed, trials, timed=True)
            wall = sum(line["wall_s"].values())
            passes.append(Pass(wall, at_reference(wall, prev["cal_s"], line["cal_s"]), items))
        return passes

    # --------------------------------------------------------- passes

    def run_pass(self, ops, seed: int, trials: int, timed: bool, fs=None, tracer=None) -> Pass:
        """Run ops in sequence, each as its own process, or in this process when fs is given."""
        result, outputs, errors, meta = Pass(), {}, {}, {}
        for op in ops:
            path = os.path.join(self.tmp, op.label + ".out")
            if os.path.exists(path):
                os.unlink(path)
            if fs is None:
                proc, data, errs = self._op_process(op, path)
            else:
                proc, data, errs = self._op_inprocess(op, path, fs, tracer)
            result.wall_s += proc.wall_s
            outputs[op.label], errors[op.label] = data, errs
            meta[op.label] = {"wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "rss_mb": proc.rss_mb,
                              "exit": proc.code}
        if ops:
            result.items = self.finish_pass(ops, outputs, errors, meta, seed, trials, timed,
                                            traced=tracer is not None)
        return result

    def finish_pass(self, ops, outputs: dict, errors: dict, meta: dict, seed: int, trials: int,
                    timed: bool, traced: bool = False) -> int:
        """Check one pass's outputs and record its operations; returns its work items."""
        items, check_errors = self.workload.check(outputs, seed, trials, self.ref)
        for label, errs in check_errors.items():
            errors[label].extend(errs)
        digests = {label: sha256(data) for label, data in outputs.items()}
        if timed:
            # every timed pass of a run has the same inputs, so the same output bytes
            if self._timed_digests is None:
                self._timed_digests = digests
            for label, digest in digests.items():
                if digest != self._timed_digests.get(label):
                    errors[label].append("output differs from the run's first pass")
        for op in ops:
            self.records.append({"op": op.label, "kind": op.kind, "args": list(op.args),
                                 "seed": seed, "timed": timed, "traced": traced, **meta[op.label],
                                 "sha256": digests[op.label], "errors": errors[op.label]})
        return items

    def _op_process(self, op, path: str):
        argv = [sys.executable, "-m", "framesync.cli", *op.args, "--out", path]
        proc = self.spawn(argv, op.label)
        return proc, _read(path), _process_errors(proc)

    def _op_inprocess(self, op, path: str, fs, tracer):
        errors: list[str] = []
        code = None
        main = functools.partial(tracer.call, "cli.main", fs.cli.main) if tracer else None
        t0 = perf_counter()
        try:
            code = probe.run_op(fs, op.kind, list(op.args), path, main)
        except Exception:  # the program crashed: record it and keep the harness running
            errors.append(traceback.format_exc())
        wall = perf_counter() - t0
        if code != 0 and not errors:
            errors.append(f"exit code {code}")
        return Proc(wall, None, None, code), _read(path), errors

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _process_errors(proc: Proc) -> list[str]:
    errors = []
    if proc.code != 0:
        errors.append(f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
    if "Traceback (most recent call last)" in proc.stderr:
        errors.append("traceback on stderr")
    return errors


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _summary(values: list[float]) -> dict:
    """The median of a run's samples, reported as the value, with quartiles, extremes and count."""
    med = statistics.median(values) if values else 0.0
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "min": min(values, default=0.0),
            "max": max(values, default=0.0), "n": len(values)}


# ------------------------------------------------------------------ runs


def untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same metrics in raw seconds)."""
    w, fast = runner.workload, runner.fast
    runner.run_pass(w.check_ops(fast), PRESET_SEED, w.reference_trials(fast), timed=False)
    ops = w.pass_ops(runner.seed, fast, runner.extra)
    passes: list[Pass] = []

    def fits(duration: float) -> bool:
        now = perf_counter()
        return now - runner.started + duration <= seconds and now + 2 * duration < runner.deadline

    # worker processes in turn, each a set-up sample and up to CHUNK_S seconds of
    # pass samples; the last one gets the time that is left
    while True:
        overhead = max(runner.raw_setups, default=0.0) + max((p.wall_s for p in passes), default=0.0)
        chunk_s = min(CHUNK_S, seconds - (perf_counter() - runner.started) - overhead)
        if runner.raw_setups and (chunk_s < CHUNK_S / 3 or not fits(overhead)):
            break
        passes += runner.worker_chunk(ops, max(chunk_s, 0.0))
        if not runner.raw_setups:  # the worker failed before its first pass
            break
    while len(runner.setups) < MIN_SETUP_PROBES and fits(max(runner.raw_setups, default=0.0)):
        runner.worker_chunk(ops, None)

    def metrics(setups: list[float], pass_s: list[float]) -> dict:
        return {
            "wall_s": _summary(pass_s),
            "trials_per_s": _summary([p.items / t for p, t in zip(passes, pass_s) if t > 0]),
            "setup_s": _summary(setups),
            "peak_rss_mb": _summary(runner.rss_mb),
        }

    return (metrics(runner.setups, [p.ref_s for p in passes]),
            metrics(runner.raw_setups, [p.wall_s for p in passes]))


def traced(runner: Runner, spans_path: str) -> tuple[dict, list[str]]:
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import framesync as fs
    import framesync.cli  # noqa: F401

    import_s = perf_counter() - t0
    if not os.path.abspath(fs.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"framesync imported from {fs.__file__}, not from {SRC}")
    w, fast = runner.workload, runner.fast
    runner.run_pass(w.check_ops(fast), PRESET_SEED, w.reference_trials(fast), timed=False, fs=fs)
    ops = w.pass_ops(runner.seed, fast, runner.extra)
    trials = w.pass_trials(fast)
    cal = [calibrate()]
    plain = runner.run_pass(ops, runner.seed, trials, timed=True, fs=fs)
    cal.append(calibrate())
    tracer = Tracer()
    tracer.install(fs)
    try:
        with_trace = runner.run_pass(ops, runner.seed, trials, timed=True, fs=fs, tracer=tracer)
    finally:
        not_restored = tracer.uninstall()
    cal.append(calibrate())
    if not_restored:
        raise HarnessError(f"attributes not restored after tracing: {not_restored}")
    tracer.write_spans(spans_path)
    summary = tracer.summary()
    metrics = {name: {"value": tracer.layer_metric(name, summary)} for name in LAYER}
    metrics["import.framesync_s"]["value"] = import_s
    # both passes at the reference speed, so that the ratio is the tracer's, not the machine's
    metrics["trace.overhead_ratio"]["value"] = (
        at_reference(with_trace.wall_s, cal[1], cal[2]) / at_reference(plain.wall_s, cal[0], cal[1])
        if plain.wall_s else 0.0)
    runner.rows = tracer.row_summary()
    return metrics, tracer.absent


def run_stamp(load_before) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workers": 1,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _source_digest() -> str:
    """sha256 over src/framesync's files, for comparing checkouts without git."""
    base = os.path.join(SRC, "framesync")
    parts = []
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith((".py", ".cfg")):
                path = os.path.join(dirpath, fname)
                parts.append(os.path.relpath(path, base) + ":" + sha256(_read(path)))
    return sha256("\n".join(parts).encode())


def execute(name: str, seed: int, seconds: float, trace: bool,
            fast: bool = False, extra: tuple[str, ...] = ()) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    if not os.path.isfile(os.path.join(SRC, "framesync", "__init__.py")):
        raise HarnessError(f"no framesync source tree under {SRC}; run from the repository root")
    load_before = os.getloadavg()
    workload = WORKLOADS[name]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    runner = Runner(workload, seed, fast, extra)
    raw = {}
    try:
        if trace:
            spans = os.path.join(WORK, "results", stem + "-spans.jsonl.gz")
            metrics, absent = traced(runner, spans)
            specs = LAYER
        else:
            (metrics, raw), absent, spans = untraced(runner, seconds), [], None
            specs = END_TO_END
    finally:
        runner.close()
    for mname, entry in metrics.items():
        entry["unit"] = specs[mname][0]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fast": fast,
        "stamp": run_stamp(load_before),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "metrics": metrics,
        "raw_metrics": raw,
        "calibration_s": _summary(runner.cal_s) if runner.cal_s else None,
        "metric_notes": {m: specs[m][1] for m in metrics},
        "absent": absent,
        "spans_file": spans,
        "rows": runner.rows,
        "operations": runner.records,
    }
    path = os.path.join(WORK, "results", stem + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    record["result_file"] = path
    return record


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which stops the child


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    pin_to_one_cpu()
    try:
        record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for mname, m in record["metrics"].items():
        extra = (f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, min {m['min']:.6g}, "
                 f"max {m['max']:.6g}, n={m['n']}]" if "n" in m else "")
        print(f"{record['workload']} {mname} = {m['value']:.6g} {m['unit']}{extra}")
    for mname, m in record["raw_metrics"].items():
        if mname != "peak_rss_mb":
            print(f"{record['workload']} raw {mname} = {m['value']:.6g} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    if record["calibration_s"]:
        c = record["calibration_s"]
        print(f"{record['workload']} calibration loop = {c['value']:.6g} s "
              f"(reference {CAL_REF_S} s) [min {c['min']:.6g}, max {c['max']:.6g}, n={c['n']}]")
    print(f"{record['workload']} failed_frac = {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    for rec in record["operations"]:
        for err in rec["errors"]:
            print(f"{record['workload']} FAILED {rec['op']}: {err.strip().splitlines()[-1]}")
    print(f"{record['workload']} record: {os.path.relpath(record['result_file'], ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]} for m, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
