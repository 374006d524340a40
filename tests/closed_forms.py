"""Closed forms and a grid that only the tests use: the BSC threshold, the Gaussian density that
the Rayleigh kernels must match bit for bit, and a quantizer grid spanning both conditional laws."""

import math

import numpy as np

from framesync import AwgnSpec, QuantizationGrid, RayleighAwgnSpec

DEFAULT_BINS = 4096


def bsc_threshold_closed_form(eps: float) -> float:
    """Threshold of the binary symmetric channel, in nats."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be strictly inside (0,1), got {eps}")
    return (1.0 - eps) * math.log((1.0 - eps) / eps) + eps * math.log(eps / (1.0 - eps))


def default_grid(spec: AwgnSpec | RayleighAwgnSpec, bins: int = DEFAULT_BINS) -> QuantizationGrid:
    """Grid spanning both conditional densities to ~1e-7 tail mass."""
    s = spec.sigma
    lo = -8.0 * s
    if isinstance(spec, RayleighAwgnSpec):
        hi = 8.0 * s + 6.0 * spec.scale * math.sqrt(spec.power)
    else:
        hi = 8.0 * s + math.sqrt(spec.power)
    return QuantizationGrid(lo, hi, bins)


def awgn_density(y, mean: float, noise_var: float):
    """Gaussian density at y, the same bits for a scalar y as for y inside an array: the square is
    d * d, as numpy squares an array, where d**2 on a numpy scalar calls libm's pow."""
    AwgnSpec(0.0, noise_var)  # the spec's check: finite and > 0, so NaN and inf fail too
    d = np.asarray(y, dtype=np.float64) - mean
    out = np.exp(-(d * d) / (2.0 * noise_var)) / math.sqrt(2.0 * math.pi * noise_var)
    return float(out) if out.ndim == 0 else out
