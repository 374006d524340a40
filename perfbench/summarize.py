"""Summarize run records written by run.py, one line per workload and metric.

  python3 perfbench/summarize.py .perfbench/results/*.json [--against OLD.json ...] [--json OUT]

For each workload and metric (and, as raw.NAME, each end-to-end time in raw
seconds), over the runs given: the median of the per-run
values, and the spread (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). With --against, the change of that median
relative to the median of the other set of records (a parent commit, say),
signed so that a positive share is worse, and whether the two sets produced
the same output bytes for each workload and seed they share. Fast-mode
records are skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _bench() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def records(paths: list[str]):
    for path in paths:
        if path.endswith("-spans.jsonl.gz"):
            continue
        with open(path) as fh:
            rec = json.load(fh)
        if not rec.get("fast"):
            yield rec


def output_digests(paths: list[str]) -> dict:
    """{(workload, seed): {operation: sha256}} of the timed passes of untraced runs."""
    return {(rec["workload"], rec["seed"]): {op["op"]: op["sha256"] for op in rec["operations"]
                                             if op.get("timed")}
            for rec in records(paths) if rec["trace"] == 0}


def collect(paths: list[str]) -> dict:
    """{(workload, trace): {metric: [per-run values]}}"""
    groups: dict = {}
    for rec in records(paths):
        group = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            group.setdefault(name, []).append(m["value"])
        for name, m in rec.get("raw_metrics", {}).items():
            if name != "peak_rss_mb":
                group.setdefault("raw." + name, []).append(m["value"])
        group.setdefault("failed_frac", []).append(rec["failed_frac"])
    return groups


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    bench = _bench()
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    new, old = collect(args.records), collect(args.against)
    summary = {}
    for (workload, trace), metrics in sorted(new.items()):
        for name, values in metrics.items():
            entry = stats(values)
            line = (f"{workload:14s} {name:40s} median {entry['median']:<12.6g} "
                    f"spread {entry['spread']:7.2%}  runs {entry['runs']}")
            if name in bounds:
                line += f"  bound {bounds[name]:.0%}"
            base = old.get((workload, trace), {}).get(name)
            if base:
                ref = statistics.median(base)
                sign = -1.0 if better.get(name.removeprefix("raw.")) == "higher" else 1.0
                entry["worse_by"] = sign * (entry["median"] - ref) / ref if ref else 0.0
                line += f"  worse by {entry['worse_by']:+.2%}"
            print(line)
            summary.setdefault(f"{workload}/trace{trace}", {})[name] = entry
    if args.against:
        new_out, old_out = output_digests(args.records), output_digests(args.against)
        shared = sorted(new_out.keys() & old_out.keys())
        differ = [key for key in shared if new_out[key] != old_out[key]]
        print(f"outputs: {len(shared) - len(differ)} of {len(shared)} shared (workload, seed) "
              f"runs identical" + "".join(f"\n  differ: {w} seed {s}" for w, s in differ))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
