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
from dataclasses import dataclass

import numpy as np

from .channels import Dmc, compose, on_off_fading_matrix
from .continuous import AwgnSpec, RayleighAwgnSpec, rayleigh_awgn_density
from .quadrature import QuadratureNonConvergence, adaptive_quad

FADING_BOUND_TOL = 1e-12
NATS_PER_BIT = math.log(2.0)


def kl_divergence(p, q) -> float:
    """D(p || q) in nats with the 0 log 0 = 0 convention.

    Returns math.inf when p puts mass where q has none (detected by support
    check, not by dividing by zero).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions must be 1-D and equal length, got {p.shape}, {q.shape}")
    for name, d in (("p", p), ("q", q)):
        if np.any(d < 0.0):
            raise ValueError(f"{name} has negative entries")
        if abs(d.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {d.sum()!r}, not 1 within 1e-9")
    return _kl(p, q)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """kl_divergence's arithmetic without its checks, for rows a Dmc has validated."""
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    val = float(np.sum(p[support] * (np.log(p[support]) - np.log(q[support]))))
    return max(val, 0.0)


@dataclass(frozen=True)
class ThresholdReport:
    """Threshold value, the maximizing input, and how it was computed."""

    alpha: float
    argmax_symbol: int
    method: str
    per_symbol_divergences: tuple[float, ...]

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.alpha)

    def alpha_bits(self) -> float:
        return self.alpha / NATS_PER_BIT if not self.is_infinite else math.inf

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
    base = channel.rows[0]
    divs = [_kl(row, base) for row in channel.rows]
    best = 0
    for x in range(1, channel.n_inputs):
        if divs[x] > divs[best]:
            best = x
    return ThresholdReport(
        alpha=divs[best],
        argmax_symbol=best,
        method="exact-discrete",
        per_symbol_divergences=tuple(divs),
    )


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
    """Both sides of the fading bound alpha(Q) <= p * alpha(Qn), with slack."""

    p: float
    alpha_composite: float
    alpha_noise: float
    p_alpha_noise: float
    slack: float
    holds: bool
    argmax_composite: int
    argmax_noise: int


def fading_bound_check(p: float, noise: Dmc) -> FadingBoundReport:
    """Verify the ON-OFF fading bound for a given noise channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    fading = on_off_fading_matrix(p, noise.n_inputs)
    composite = compose(fading, noise)
    rep_c = sync_threshold(composite)
    rep_n = sync_threshold(noise)
    if p == 0.0:
        p_alpha = 0.0
    elif rep_n.is_infinite:
        p_alpha = math.inf
    else:
        p_alpha = p * rep_n.alpha
    if math.isinf(p_alpha):
        holds, slack = True, math.inf  # bound vacuous
    elif rep_c.is_infinite:
        holds, slack = False, -math.inf
    else:
        slack = p_alpha - rep_c.alpha
        holds = rep_c.alpha <= p_alpha + FADING_BOUND_TOL
    return FadingBoundReport(
        p=p,
        alpha_composite=rep_c.alpha,
        alpha_noise=rep_n.alpha,
        p_alpha_noise=p_alpha,
        slack=slack,
        holds=holds,
        argmax_composite=rep_c.argmax_symbol,
        argmax_noise=rep_n.argmax_symbol,
    )


def awgn_threshold(spec: AwgnSpec) -> float:
    """P / (2 sigma^2), the AWGN threshold in nats."""
    return spec.power / (2.0 * spec.noise_var)


def rayleigh_threshold_numeric(spec: RayleighAwgnSpec, rel_tol: float = 1e-6) -> float:
    """Threshold of the Rayleigh-plus-AWGN channel by quadrature of the KL integrand."""
    if spec.power == 0.0:
        return 0.0
    s = spec.sigma
    s2 = spec.noise_var
    lo = -10.0 * s
    hi = math.sqrt(spec.power) * spec.h_max + 10.0 * s
    log_norm = 0.5 * math.log(2.0 * math.pi * s2)

    def integrand(y: float) -> float:
        q1 = rayleigh_awgn_density(y, spec)
        if q1 <= 0.0:
            return 0.0
        log_q0 = -y * y / (2.0 * s2) - log_norm
        return q1 * (math.log(q1) - log_q0)

    return adaptive_quad(integrand, lo, hi, abs_tol=1e-12, rel_tol=rel_tol)


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
    lines = ["snr,sigma_h,alpha_q,alpha_qn,ratio"]
    for c in cells:
        lines.append(
            f"{c.snr:.15g},{c.sigma_h:.15g},{c.alpha_q:.15g},{c.alpha_qn:.15g},{c.ratio:.15g}"
        )
    return "\n".join(lines) + "\n"
