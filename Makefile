PYTHON ?= python3
OUT ?= out
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test acceptance reproduce verify-out check loc bench bench-pairs bench-json clean

test:
	$(PYTHON) -m pytest tests -q --durations=10

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -s -v

reproduce:
	mkdir -p $(OUT)
	$(PYTHON) -m framesync.cli threshold --bsc 0.1 --out $(OUT)/threshold_bsc.json
	$(PYTHON) -m framesync.cli threshold --onoff-bsc 0.5 0.1 --out $(OUT)/threshold_onoff.json
	$(PYTHON) -m framesync.cli threshold --rayleigh 100 1 1 --out $(OUT)/threshold_rayleigh.json
	$(PYTHON) -m framesync.cli lemma1-grid --out $(OUT)/fading_bound_grid.csv
	$(PYTHON) -m framesync.cli rayleigh-sweep --out $(OUT)/rayleigh_sweep.csv
	$(PYTHON) -m framesync.cli sequence --n 100 --k 4 --out $(OUT)/sequence_63.json
	$(PYTHON) -m framesync.cli simulate --preset single_bsc --out $(OUT)/single_bsc.json
	$(PYTHON) -m framesync.cli simulate --preset bsc_scaling --out $(OUT)/bsc_scaling.csv
	$(PYTHON) -m framesync.cli simulate --preset energy_scaling --out $(OUT)/energy_scaling.csv

# rebuild out/ into a temporary directory and compare it with the committed files
verify-out:
	@tmp=$$(mktemp -d) && $(MAKE) --no-print-directory reproduce OUT=$$tmp \
		&& diff -r $$tmp out; status=$$?; rm -rf $$tmp; \
		if [ $$status -eq 0 ]; then echo "out/ reproduced byte for byte"; fi; exit $$status

# the tests, then the out/ check whatever the tests gave; fails if either fails
# (criteria 4 and 11 fail by design, see README)
check:
	@$(MAKE) --no-print-directory test; status=$$?; \
		$(MAKE) --no-print-directory verify-out && exit $$status

# code lines of each module under src/framesync: lines that hold a token other than a comment, less
# the module, class and function docstrings that ast finds; blank and comment-only lines do not count
define LOC
import ast, io, sys, tokenize
from pathlib import Path
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
total = 0
for path in sorted(Path(sys.argv[1]).glob("*.py")):
    text = path.read_text()
    lines = {row for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type not in LAYOUT
             for row in range(tok.start[0], tok.end[0] + 1)}
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    total += len(lines)
    print(f"{len(lines):6d}  {path}")
print(f"{total:6d}  total")
endef
export LOC
loc:
	@$(PYTHON) -c "$$LOC" src/framesync

# one benchmark run of workload W (skip_scan, full_scan, short_batched or rayleigh); bench-pairs
# also takes a space-separated list, W="skip_scan full_scan"
W ?= full_scan
bench:
	$(PYTHON) perfbench/run.py --workload $(W) --seed 1 --seconds 30 --trace 0

# PAIRS pairs of benchmark runs of each workload in W (a space-separated list, run workload by
# workload), one on revision BASE (exported with git archive into a temporary directory) and one
# on this checkout, the side that runs first alternating; pair i runs both sides at seed SEED + i,
# so their outputs compare byte for byte. BASE's records are copied to .perfbench/pairs/ before
# the directory goes; after each workload's pairs, its records on this checkout are summarized
# against BASE's. The paths of both sides' records, all workloads', go to $(RECORDS)change.txt and
# $(RECORDS)base.txt, one a line, and BASE's commit to $(RECORDS)base-commit.txt, for bench-json.
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 1000
RECORDS := .perfbench/records-
bench-pairs:
	@set -e; tmp=$$(mktemp -d); tree=$$tmp/base; here=$$(pwd); \
	trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tree"; git archive $(BASE) | tar -x -C "$$tree"; mkdir -p .perfbench/pairs; \
	: > $(RECORDS)change.txt; : > $(RECORDS)base.txt; git rev-parse $(BASE) > $(RECORDS)base-commit.txt; \
	for w in $(W); do \
		new=; old=; \
		for i in $$(seq 0 $$(($(PAIRS) - 1))); do \
			if [ $$((i % 2)) -eq 0 ]; then sides="base change"; else sides="change base"; fi; \
			for side in $$sides; do \
				dir=$$here; [ $$side = base ] && dir=$$tree; \
				echo "== $$w, pair $$i, $$side, seed $$(($(SEED) + i))"; \
				log=$$(cd "$$dir" && $(PYTHON) perfbench/run.py --workload $$w --seed $$(($(SEED) + i)) \
					--seconds 30 --trace 0); \
				echo "$$log"; rec=$$(echo "$$log" | sed -n 's/^.* record: //p'); \
				if [ $$side = base ]; then \
					cp "$$tree/$$rec" .perfbench/pairs/; old="$$old .perfbench/pairs/$$(basename $$rec)"; \
				else new="$$new $$rec"; fi; \
			done; \
		done; \
		$(PYTHON) perfbench/summarize.py $$new --against $$old; \
		printf '%s\n' $$new >> $(RECORDS)change.txt; printf '%s\n' $$old >> $(RECORDS)base.txt; \
	done; \
	echo "records: $(RECORDS)change.txt (this checkout), $(RECORDS)base.txt ($(BASE))"

# BENCH_$(PR).json at the repository root from the records the last bench-pairs listed: under
# "summary", summarize.py's JSON of this checkout's records against BASE's; under "change" and
# "base", each record's workload, seed, seconds and run stamp (source sha256, versions, CPUs used,
# load average; not the stamp's commit, which names HEAD for an uncommitted change and nothing for
# BASE's exported tree); under "base_commit", the commit bench-pairs ran as BASE; under
# "change_commit" and "change_src_uncommitted", this checkout's HEAD and whether src/ differs from
# it; under "pairs", the seeds each workload ran on both sides; under "tier1", the wall seconds of
# one `$(PYTHON) -m pytest tests -q` run on this checkout, its passed and failed counts, and the
# host's nproc
define BENCH_STAMPS
import json, os, re, subprocess, sys, time
path, change, base, base_commit = sys.argv[1:]
keys = ("source_sha256", "python", "numpy", "scipy", "nproc", "cpus_used", "loadavg_before",
        "loadavg_after")
def side(listing):
    records = [json.load(open(rec)) for rec in open(listing).read().split()]
    return [{"workload": r["workload"], "seed": r["seed"], "seconds": r["seconds"],
             **{k: r["stamp"][k] for k in keys}} for r in records]
bench = {"summary": json.load(open(path)), "change": side(change), "base": side(base)}
git = lambda *args: subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()
bench["base_commit"] = open(base_commit).read().strip()
bench["change_commit"] = git("rev-parse", "HEAD")
bench["change_src_uncommitted"] = bool(git("status", "--porcelain", "--", "src"))
seeds = {s: {(r["workload"], r["seed"]) for r in bench[s]} for s in ("change", "base")}
bench["pairs"] = {}
for workload, seed in sorted(seeds["change"] & seeds["base"]):
    bench["pairs"].setdefault(workload, []).append(seed)
t0 = time.monotonic()
tests = subprocess.run([sys.executable, "-m", "pytest", "tests", "-q"], capture_output=True, text=True)
bench["tier1"] = {"wall_s": round(time.monotonic() - t0, 3), "passed": 0, "failed": 0,
                  "nproc": len(os.sched_getaffinity(0))}
for count, outcome in re.findall(r"(\d+) (passed|failed)", tests.stdout.splitlines()[-1]):
    bench["tier1"][outcome] = int(count)
with open(path, "w") as fh:
    json.dump(bench, fh, indent=1, sort_keys=True)
    fh.write("\n")
endef
export BENCH_STAMPS
bench-json:
	@test -n "$(PR)" || { echo "usage: make bench-json PR=n" >&2; exit 2; }
	$(PYTHON) perfbench/summarize.py $$(cat $(RECORDS)change.txt) --against $$(cat $(RECORDS)base.txt) \
		--json BENCH_$(PR).json
	$(PYTHON) -c "$$BENCH_STAMPS" BENCH_$(PR).json $(RECORDS)change.txt $(RECORDS)base.txt $(RECORDS)base-commit.txt

clean:
	rm -rf out
