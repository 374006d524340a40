"""Metric names, units and the predicted effect of each layer metric.

End-to-end metrics come from the untraced run (`--trace 0`), each the median
of the run's samples (passes in warm worker processes, or the workers'
set-ups for setup_s); layer metrics from the traced run (`--trace 1`).
End-to-end times are at the reference speed: each sample's raw seconds x
CAL_REF_S / the time of calibration.py's fixed loop, timed right before and
after the sample on the same CPU. The raw seconds are printed beside them
and kept in the run record. Each layer entry names the end-to-end
metric it should move and on which workloads; on every other workload the
prediction is no change.
"""

END_TO_END = {
    "wall_s": ("s", "wall time of one workload pass (its CLI and library calls in sequence) "
                    "in a warm worker process, at the reference speed"),
    "trials_per_s": (
        "1/s",
        "work items per second of a pass at the reference speed, items / wall_s: "
        "Monte Carlo trials on the simulate workloads, threshold evaluations (sweep cells "
        "plus the library threshold) on rayleigh",
    ),
    "setup_s": (
        "s",
        "interpreter start, import framesync, and building the workload's rows, configs "
        "and TrialEngines (skip certificate included) through public functions, "
        "timed in each worker process before its passes, at the reference speed",
    ),
    "peak_rss_mb": ("MB", "peak resident set size of a worker process (set-up and its passes)"),
}

# name -> (unit, prediction)
LAYER = {
    "cli.main.self_s": ("s", "setup_s and wall_s on all workloads, slightly"),
    "import.framesync_s": ("s", "setup_s on all workloads"),
    "decoder.rows.s": ("s", "setup_s on skip_scan and full_scan"),
    "decoder.TrialEngine.init.s": ("s", "setup_s on skip_scan and full_scan"),
    "decoder.monte_carlo.s": ("s", "trials_per_s on skip_scan and full_scan"),
    "decoder.TrialEngine.run.calls": ("count", "trials_per_s on skip_scan and full_scan"),
    "decoder.TrialEngine.run.self_s": ("s", "trials_per_s on skip_scan and full_scan"),
    "decoder.TrialEngine.run.p50_us": ("us", "trials_per_s on skip_scan and full_scan"),
    "decoder.TrialEngine.run.p99_us": ("us", "trials_per_s on skip_scan and full_scan"),
    "decoder.TrialEngine.run_batch.trials": ("count", "trials_per_s on short_batched"),
    "decoder.TrialEngine.run_batch.s": ("s", "trials_per_s on short_batched"),
    "decoder.trial_rng.calls": ("count", "trials_per_s on skip_scan and full_scan"),
    "decoder.trial_rng.s": ("s", "trials_per_s on skip_scan and full_scan"),
    "decoder.classify.s": ("s", "trials_per_s on skip_scan and full_scan, slightly"),
    "decoder.path.skip_trials": ("count", "none; all skip_scan trials take the skip path"),
    "decoder.path.full_trials": ("count", "none; all full_scan trials take the full path"),
    "decoder.path.batched_trials": ("count", "none; all short_batched trials are batched"),
    "channels.sample_outputs.calls": ("count", "trials_per_s on skip_scan most"),
    "channels.sample_outputs.symbols": ("count", "trials_per_s on skip_scan most"),
    "channels.sample_outputs.s": ("s", "trials_per_s on skip_scan most"),
    "sequences.build_sync_word.s": ("s", "setup_s on the simulate workloads"),
    "continuous.quantize_to_dmc.calls": ("count", "wall_s on rayleigh; setup_s on full_scan"),
    "continuous.quantize_to_dmc.s": ("s", "wall_s on rayleigh; setup_s on full_scan"),
    "continuous.rayleigh_awgn_density.calls": ("count", "wall_s on rayleigh"),
    "continuous.rayleigh_awgn_density.s": ("s", "wall_s on rayleigh"),
    "quadrature.adaptive_quad.calls": ("count", "wall_s on rayleigh only"),
    "quadrature.adaptive_quad.evals": ("count", "wall_s on rayleigh only"),
    "quadrature.adaptive_quad.self_s": ("s", "wall_s on rayleigh only"),
    "quadrature.adaptive_quad.failures": ("count", "none; 0 everywhere"),
    "thresholds.rayleigh_threshold_numeric.s": ("s", "wall_s on rayleigh"),
    "thresholds.sync_threshold.s": ("s", "wall_s on rayleigh; setup_s on full_scan"),
    "trace.overhead_ratio": ("ratio", "none; traced over untraced wall time of one pass, "
                                      "both at the reference speed"),
}
