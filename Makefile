PYTHON ?= python3
OUT ?= out
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test acceptance reproduce verify-out check clean

test:
	$(PYTHON) -m pytest tests -q

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

clean:
	rm -rf out
