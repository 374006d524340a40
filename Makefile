PYTHON ?= python3
OUT ?= out
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test acceptance reproduce verify-out check bench bench-pairs clean

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

# one benchmark run of workload W (skip_scan, full_scan, short_batched or rayleigh)
W ?= full_scan
bench:
	$(PYTHON) perfbench/run.py --workload $(W) --seed 1 --seconds 30 --trace 0

# PAIRS pairs of benchmark runs of workload W, one on revision BASE (checked out in a temporary
# git worktree) and one on this checkout, the side that runs first alternating; pair i runs both
# sides at seed SEED + i, so their outputs compare byte for byte. BASE's records are copied to
# .perfbench/pairs/ before the worktree goes; the last step summarizes this checkout's records
# against BASE's.
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 1000
bench-pairs:
	@set -e; tmp=$$(mktemp -d); tree=$$tmp/base; here=$$(pwd); new=; old=; \
	trap 'git worktree remove --force "$$tree" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tree" $(BASE); mkdir -p .perfbench/pairs; \
	for i in $$(seq 0 $$(($(PAIRS) - 1))); do \
		if [ $$((i % 2)) -eq 0 ]; then sides="base change"; else sides="change base"; fi; \
		for side in $$sides; do \
			dir=$$here; [ $$side = base ] && dir=$$tree; \
			echo "== pair $$i, $$side, seed $$(($(SEED) + i))"; \
			log=$$(cd "$$dir" && $(PYTHON) perfbench/run.py --workload $(W) --seed $$(($(SEED) + i)) \
				--seconds 30 --trace 0); \
			echo "$$log"; rec=$$(echo "$$log" | sed -n 's/^.* record: //p'); \
			if [ $$side = base ]; then \
				cp "$$tree/$$rec" .perfbench/pairs/; old="$$old .perfbench/pairs/$$(basename $$rec)"; \
			else new="$$new $$rec"; fi; \
		done; \
	done; \
	$(PYTHON) perfbench/summarize.py $$new --against $$old

clean:
	rm -rf out
