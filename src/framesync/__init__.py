"""Sequential frame synchronization over noisy and fading channels.

Channel tables and composition, synchronization thresholds (closed-form and
numeric), maximal-length sync-word construction, and a sequential
joint-typicality decoder with a reproducible Monte Carlo harness.
"""

from .channels import (
    ChannelError,
    DimensionMismatch,
    Dmc,
    IndexOutOfRange,
    NegativeEntry,
    NonStochasticRow,
    bsc,
    compose,
    dmc_new,
    load_channel,
    on_off_fading_matrix,
    save_channel,
)
from .continuous import (
    AwgnSpec,
    MassLoss,
    QuantizationGrid,
    RayleighAwgnSpec,
    awgn_density,
    default_grid,
    quantize_to_dmc,
    quantized_awgn,
    rayleigh_density_of,
)
from .decoder import (
    ErrorReport,
    ScalingRow,
    SimulationInfeasible,
    StreamExhausted,
    TrialConfig,
    TrialOutcome,
    TypicalityDecoder,
    bsc_scaling_rows,
    energy_scaling_rows,
    monte_carlo,
    run_decoder,
    scaling_to_csv,
    simulate_trial,
    single_rows,
    trial_rng,
    wilson_interval,
)
from .quadrature import QuadratureNonConvergence, adaptive_quad
from .sequences import (
    IncompatibleLength,
    Lfsr,
    NoValidLength,
    SyncWord,
    UnsupportedDegree,
    ZeroSeed,
    build_sync_word,
    generate_mlsr,
    min_shift_hamming_distance,
    nearest_valid_length,
)
from .thresholds import (
    FadingBoundReport,
    SweepCell,
    ThresholdReport,
    awgn_threshold,
    bsc_threshold_closed_form,
    composite_binary_threshold_closed_form,
    kl_divergence,
    fading_bound_check,
    rayleigh_ratio_sweep,
    rayleigh_threshold_numeric,
    sweep_to_csv,
    sync_threshold,
)

__version__ = "0.1.0"
