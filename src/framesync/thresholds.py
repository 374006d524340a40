"""Synchronization thresholds: KL divergence maximization over channel inputs.

The threshold of a channel is the largest KL divergence between any input's
output law and the idle symbol's output law, in nats. A channel whose x(1) law
puts mass where the idle law has none has an infinite threshold; that case is
detected explicitly and carried as math.inf, never produced by float
arithmetic on zeros.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .channels import Dmc, compose, dmc_new, on_off_fading_matrix
from .continuous import AwgnSpec, RayleighAwgnSpec, rayleigh_density_of
from .quadrature import QuadratureNonConvergence, adaptive_quad

FADING_BOUND_TOL = 1e-12
NATS_PER_BIT = math.log(2.0)


def kl_divergence(p, q) -> float:
    """D(p || q) in nats with the 0 log 0 = 0 convention.

    Returns math.inf when p puts mass where q has none (detected by support
    check, not by dividing by zero). p and q are checked as the two rows of
    dmc_new(normalize=True): a row it rejects raises ChannelError (a ValueError).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions must be 1-D and equal length, got {p.shape}, {q.shape}")
    dmc_new([p, q], normalize=True)  # the check only: the divergence reads p and q as given
    return _kl(p, q)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """kl_divergence's arithmetic without its checks, for rows a Dmc has validated.

    The logs are libm's (math.log), not numpy's, whose loops the CPU picks at run time.
    """
    support = p > 0.0
    p, q = p[support], q[support]
    if np.any(q == 0.0):
        return math.inf
    log_p, log_q = (np.array([math.log(x) for x in row.tolist()]) for row in (p, q))
    return max(float(np.sum(p * (log_p - log_q))), 0.0)


@dataclass(frozen=True)
class ThresholdReport:
    """Each input's divergence from the idle law, the maximizing input, and how they were computed."""

    argmax_symbol: int
    method: str
    per_symbol_divergences: tuple[float, ...]

    @property
    def alpha(self) -> float:
        """The threshold in nats: the divergence at the maximizing input."""
        return self.per_symbol_divergences[self.argmax_symbol]

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.alpha)

    def alpha_bits(self) -> float:
        return self.alpha / NATS_PER_BIT

    def to_json_dict(self) -> dict:
        def enc(x: float):
            return "infinite" if math.isinf(x) else x

        return {
            "alpha_nats": enc(self.alpha),
            "argmax_symbol": self.argmax_symbol,
            "method": self.method,
            "per_symbol_divergences": [enc(d) for d in self.per_symbol_divergences],
        }


def sync_threshold(channel: Dmc) -> ThresholdReport:
    """Maximize D(Q(.|x) || Q(.|x(0))) over inputs, x(0) being row 0; ties break to the lowest index."""
    divs = [_kl(row, channel.rows[0]) for row in channel.rows]
    return ThresholdReport(
        argmax_symbol=divs.index(max(divs)), method="exact-discrete", per_symbol_divergences=tuple(divs))


def bsc_threshold_closed_form(eps: float) -> float:
    """Threshold of the binary symmetric channel, in nats."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be strictly inside (0,1), got {eps}")
    return (1.0 - eps) * math.log((1.0 - eps) / eps) + eps * math.log(eps / (1.0 - eps))


def composite_binary_threshold_closed_form(p: float, eps: float) -> float:
    """Threshold of ON-OFF fading cascaded with a BSC, in nats.

    Uses the effective crossover eps_p = (1-p)(1-eps) + p*eps of the composite
    x(1) row against the clean x(0) row.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be strictly inside (0,1), got {eps}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    eps_p = (1.0 - p) * (1.0 - eps) + p * eps
    return (1.0 - eps_p) * math.log((1.0 - eps_p) / eps) + eps_p * math.log(
        eps_p / (1.0 - eps)
    )


@dataclass(frozen=True)
class FadingBoundReport:
    """Both sides of the fading bound alpha(Q) <= p * alpha(Qn), from which its bound, slack and verdict follow."""

    p: float
    alpha_composite: float
    alpha_noise: float
    argmax_composite: int
    argmax_noise: int

    @property
    def p_alpha_noise(self) -> float:
        """p * alpha(Qn), and 0.0 at p = 0, where the product with an infinite alpha(Qn) is nan."""
        return self.p * self.alpha_noise if self.p else 0.0

    @property
    def slack(self) -> float:
        """p * alpha(Qn) - alpha(Q), or inf where the bound is infinite and so holds vacuously."""
        return math.inf if math.isinf(self.p_alpha_noise) else self.p_alpha_noise - self.alpha_composite

    @property
    def holds(self) -> bool:
        return self.alpha_composite <= self.p_alpha_noise + FADING_BOUND_TOL


def fading_bound_check(p: float, noise: Dmc) -> FadingBoundReport:
    """Verify the ON-OFF fading bound for a given noise channel; p outside [0, 1] raises ChannelError."""
    rep_c = sync_threshold(compose(on_off_fading_matrix(p, noise.n_inputs), noise))
    rep_n = sync_threshold(noise)
    return FadingBoundReport(p, rep_c.alpha, rep_n.alpha, rep_c.argmax_symbol, rep_n.argmax_symbol)


def awgn_threshold(spec: AwgnSpec) -> float:
    """P / (2 sigma^2), the AWGN threshold in nats."""
    alpha = spec.power / (2.0 * spec.noise_var)
    if alpha == math.inf:  # Gaussian laws share their support, so only the double can make it infinite
        raise ValueError(f"P / (2 sigma^2) = {spec.power!r} / (2 * {spec.noise_var!r}) overflows a double")
    return alpha


def rayleigh_threshold_numeric(spec: RayleighAwgnSpec) -> float:
    """Threshold of the Rayleigh-plus-AWGN channel by quadrature of the KL integrand.

    Raises QuadratureNonConvergence unless the result is finite and at least 1e-6 nats;
    P = 0 gives exactly 0.0."""
    if spec.power == 0.0:
        return 0.0
    s = spec.sigma
    s2 = spec.noise_var
    lo = -10.0 * s
    hi = math.sqrt(spec.power) * spec.h_max + 10.0 * s
    log_norm = 0.5 * math.log(2.0 * math.pi * s2)
    density = rayleigh_density_of(spec)

    def integrand(y: float) -> float:
        q1 = density(y)
        if q1 <= 0.0:
            return 0.0
        log_q0 = -y * y / (2.0 * s2) - log_norm
        return q1 * (math.log(q1) - log_q0)

    # below abs_tol / rel_tol QUADPACK stops on the absolute tolerance, which certifies no digit
    abs_tol, rel_tol = 1e-12, 1e-6
    alpha = adaptive_quad(integrand, lo, hi, abs_tol=abs_tol, rel_tol=rel_tol)
    if not abs_tol / rel_tol <= alpha < math.inf:
        raise QuadratureNonConvergence(
            f"Rayleigh threshold came out as {alpha!r} nats; the KL quadrature (abs_tol {abs_tol:g}, "
            f"rel_tol {rel_tol:g}) certifies only a finite value >= {abs_tol / rel_tol:g}")
    return alpha


@dataclass(frozen=True)
class SweepCell:
    snr: float
    sigma_h: float
    alpha_q: float  # nan marks a failed cell
    alpha_qn: float
    ratio: float


def rayleigh_ratio_sweep(
    snr_grid: list[float], sigma_h_list: list[float], noise_var: float = 1.0
) -> list[SweepCell]:
    """Ratio of the fading threshold to the AWGN threshold over an SNR grid.

    Cells where quadrature fails carry nan and a stderr warning; the sweep
    continues.
    """
    if any(snr <= 0.0 for snr in snr_grid):
        raise ValueError("all SNR values must be > 0")
    cells = []
    for sigma_h in sigma_h_list:
        for snr in snr_grid:
            power = snr * noise_var
            spec = RayleighAwgnSpec(power=power, noise_var=noise_var, scale=sigma_h)
            alpha_qn = awgn_threshold(AwgnSpec(power=power, noise_var=noise_var))
            try:
                alpha_q = rayleigh_threshold_numeric(spec)
                ratio = alpha_q / alpha_qn
            except QuadratureNonConvergence as exc:
                print(
                    f"warning: sweep cell snr={snr} sigma_h={sigma_h} failed: {exc}",
                    file=sys.stderr,
                )
                alpha_q, ratio = math.nan, math.nan
            cells.append(SweepCell(snr, sigma_h, alpha_q, alpha_qn, ratio))
    return cells


def sweep_to_csv(cells: list[SweepCell]) -> str:
    """One CSV row per cell, its columns SweepCell's fields in order, each written with 15 significant digits."""
    names = [field.name for field in fields(SweepCell)]
    rows = [",".join(f"{getattr(cell, name):.15g}" for name in names) for cell in cells]
    return "\n".join([",".join(names), *rows]) + "\n"
