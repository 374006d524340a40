"""AWGN and Rayleigh-fading channels: densities, sampling, and quantization.

The continuous channels use a binary input {x(0)=0, x(1)=sqrt(P)}. Idle slots
carry pure Gaussian noise; sync slots carry the signal, faded per slot for the
Rayleigh model. Quantization integrates the conditional laws over grid cells
(outermost cells absorb the clipped tails) to produce a finite-alphabet Dmc.

The Rayleigh amplitude uses the standard density (h / scale^2) exp(-h^2 / (2 scale^2)),
so E[h^2] = 2 scale^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .channels import Dmc, dmc_new, save_channel
from .quadrature import adaptive_quad

# Rayleigh integration is truncated where the amplitude tail mass drops to
# RAYLEIGH_TAIL; h_max = scale * sqrt(2 ln(1/RAYLEIGH_TAIL)).
RAYLEIGH_TAIL = 1e-16
MASS_LOSS_TOL = 1e-6
DEFAULT_BINS = 4096


class MassLoss(ValueError):
    """The grid is too narrow: more than MASS_LOSS_TOL of a row lies beyond it."""


@dataclass(frozen=True)
class AwgnSpec:
    """Additive white Gaussian noise channel with symbol power P and variance sigma^2."""

    power: float
    noise_var: float

    def __post_init__(self):
        # chained comparisons against inf, so NaN and inf fail them too
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError(f"noise variance must be finite and > 0, got {self.noise_var}")
        if not 0.0 <= self.power < math.inf:
            raise ValueError(f"power must be finite and >= 0, got {self.power}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.noise_var)

    @property
    def snr(self) -> float:
        return self.power / self.noise_var


@dataclass(frozen=True)
class RayleighAwgnSpec:
    """Per-slot Rayleigh fading (scale sigma_H) followed by AWGN."""

    power: float
    noise_var: float
    scale: float

    def __post_init__(self):
        AwgnSpec(self.power, self.noise_var)  # the same checks on P and sigma^2
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"Rayleigh scale must be finite and > 0, got {self.scale}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.noise_var)

    @property
    def h_max(self) -> float:
        return self.scale * math.sqrt(2.0 * math.log(1.0 / RAYLEIGH_TAIL))


@dataclass(frozen=True)
class QuantizationGrid:
    """Uniform cell edges on [lo, hi]; the outermost cells absorb the tails."""

    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"grid needs finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.bins < 2:
            raise ValueError(f"grid needs at least 2 bins, got {self.bins}")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)

    def bin_of(self, y) -> np.ndarray:
        """Cell index for real output(s); beyond-grid values land in the tail cells."""
        idx = np.searchsorted(self.edges[1:-1], np.asarray(y, dtype=np.float64), side="right")
        return np.clip(idx, 0, self.bins - 1)


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
    """Gaussian density at y."""
    if noise_var <= 0.0:
        raise ValueError("noise variance must be > 0")
    y = np.asarray(y, dtype=np.float64)
    out = np.exp(-((y - mean) ** 2) / (2.0 * noise_var)) / math.sqrt(2.0 * math.pi * noise_var)
    return float(out) if out.ndim == 0 else out


def rayleigh_pdf(h, scale: float):
    h = np.asarray(h, dtype=np.float64)
    out = np.where(h >= 0.0, h / scale**2 * np.exp(-(h**2) / (2.0 * scale**2)), 0.0)
    return float(out) if out.ndim == 0 else out


def rayleigh_awgn_density(y: float, spec: RayleighAwgnSpec) -> float:
    """Density of h*sqrt(P) + n at y: the Rayleigh-faded signal plus noise law."""
    root_p = math.sqrt(spec.power)

    def integrand(h: float) -> float:
        return awgn_density(y, h * root_p, spec.noise_var) * rayleigh_pdf(h, spec.scale)

    return adaptive_quad(integrand, 0.0, spec.h_max)


def _gaussian_cell_masses(edges: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    """Exact cell masses of N(mean, sigma^2), tail-accurate on both sides."""
    z = (edges - mean) / sigma
    lo_z, hi_z = z[:-1], z[1:]
    upper = ndtr(-lo_z) - ndtr(-hi_z)  # accurate when the cell sits above the mean
    lower = ndtr(hi_z) - ndtr(lo_z)
    return np.where(lo_z > 0.0, upper, lower)


def _rayleigh_row_cdf(edges: np.ndarray, spec: RayleighAwgnSpec) -> np.ndarray:
    """CDF of the faded-signal law at each grid edge, by quadrature over h."""
    root_p = math.sqrt(spec.power)
    sigma = spec.sigma

    def cdf_at(e: float) -> float:
        def integrand(h: float) -> float:
            return rayleigh_pdf(h, spec.scale) * ndtr((e - h * root_p) / sigma)

        return adaptive_quad(integrand, 0.0, spec.h_max, abs_tol=1e-13, rel_tol=1e-10)

    return np.array([cdf_at(e) for e in edges])


def quantize_to_dmc(
    spec: AwgnSpec | RayleighAwgnSpec,
    grid: QuantizationGrid | None = None,
    return_tail_mass: bool = False,
    mass_loss_tol: float = MASS_LOSS_TOL,
):
    """Quantize the channel into a 2-input Dmc over the grid cells.

    Cell probabilities are the conditional laws integrated over each cell, the
    outermost cells absorbing all beyond-grid mass. Raises :class:`MassLoss`
    when a row carries more than ``mass_loss_tol`` beyond the grid, which
    signals the grid is too narrow to represent the channel faithfully. (At
    very high fading SNR the idle law underflows before the signal law decays,
    so a deliberately larger budget may be passed to study clipped tails.)
    """
    if grid is None:
        grid = default_grid(spec)
    edges = grid.edges
    rows = np.zeros((2, grid.bins))
    tail = np.zeros(2)

    # idle row: pure noise
    noise_cells = _gaussian_cell_masses(edges, 0.0, spec.sigma)
    tail[0] = 1.0 - noise_cells.sum()
    rows[0] = noise_cells
    rows[0, 0] += ndtr((edges[0] - 0.0) / spec.sigma)
    rows[0, -1] += ndtr(-(edges[-1] - 0.0) / spec.sigma)

    # sync row
    if isinstance(spec, RayleighAwgnSpec):
        cdf = _rayleigh_row_cdf(edges, spec)
        tail[1] = 1.0 - (cdf[-1] - cdf[0])
        cdf[0], cdf[-1] = 0.0, 1.0  # tail cells absorb
        # quadrature dust can break monotonicity at the 1e-13 level
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        rows[1] = np.diff(cdf)
    else:
        mean = math.sqrt(spec.power)
        cells = _gaussian_cell_masses(edges, mean, spec.sigma)
        tail[1] = 1.0 - cells.sum()
        rows[1] = cells
        rows[1, 0] += ndtr((edges[0] - mean) / spec.sigma)
        rows[1, -1] += ndtr(-(edges[-1] - mean) / spec.sigma)

    if np.any(tail > mass_loss_tol):
        raise MassLoss(
            f"beyond-grid mass {tail.max():.3g} exceeds {mass_loss_tol}; widen the grid"
        )
    dmc = dmc_new(rows, normalize=True)
    if return_tail_mass:
        return dmc, tail
    return dmc


def quantized_awgn(spec: AwgnSpec, bins: int) -> Dmc:
    """AWGN quantized on ``bins`` cells of [-5 sigma, sqrt(P) + 5 sigma], the simulation grid."""
    s = spec.sigma
    return quantize_to_dmc(spec, QuantizationGrid(-5.0 * s, math.sqrt(spec.power) + 5.0 * s, bins))


def sample_continuous(
    spec: AwgnSpec | RayleighAwgnSpec,
    input_is_sync: bool,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw channel output(s): noise only for x(0), signal plus noise for x(1)."""
    n = rng.normal(0.0, spec.sigma, size=size)
    if not input_is_sync:
        return n
    root_p = math.sqrt(spec.power)
    if isinstance(spec, RayleighAwgnSpec):
        h = rng.rayleigh(spec.scale, size=size)
        return h * root_p + n
    return root_p + n


def export_quantized(path, spec, grid: QuantizationGrid | None = None) -> Dmc:
    """Write the quantized channel matrix plus a JSON sidecar with grid metadata."""
    if grid is None:
        grid = default_grid(spec)
    dmc, tail = quantize_to_dmc(spec, grid, return_tail_mass=True)
    save_channel(path, dmc)
    sidecar = {
        "lo": grid.lo,
        "hi": grid.hi,
        "bins": grid.bins,
        "tail_mass": [float(t) for t in tail],
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return dmc
