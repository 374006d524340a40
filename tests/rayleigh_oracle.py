"""Closed-form Rayleigh+AWGN laws: the reference for the nested quadratures.

The output is y = h sqrt(P) + n, with h Rayleigh of scale sigma_H and n ~ N(0, sigma^2).
Write s = sigma_H sqrt(P) and r^2 = s^2 + sigma^2. Then

    f(y) = sigma / (sqrt(2 pi) r^2) e^(-y^2 / 2 sigma^2) + (s y / r^3) e^(-y^2 / 2 r^2) Phi(s y / (sigma r))
    F(y) = Phi(y / sigma) - (s / r) e^(-y^2 / 2 r^2) Phi(s y / (sigma r))

The threshold is D(f || N(0, sigma^2)), integrated here on the log-density over
fixed pieces of the real line. Nothing here comes from framesync.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx, log_ndtr, ndtr


def _shape(power, noise_var, scale):
    sigma = math.sqrt(noise_var)
    s = scale * math.sqrt(power)
    return sigma, s, math.hypot(s, sigma)


def log_density(y, power, noise_var, scale):
    """ln f(y)."""
    sigma, s, r = _shape(power, noise_var, scale)
    t = s * y / (sigma * r)
    if y <= 0.0:
        # both terms carry e^(-y^2 / 2 sigma^2): Phi(t) e^(-y^2 / 2 r^2) = e^(-y^2 / 2 sigma^2)
        # Phi(t) / (sqrt(2 pi) phi(t)), and Phi / phi = sqrt(pi / 2) erfcx(-t / sqrt 2)
        bracket = sigma / r**2 + (s * y / r**3) * math.sqrt(math.pi / 2.0) * erfcx(-t / math.sqrt(2.0))
        return -y * y / (2.0 * noise_var) - 0.5 * math.log(2.0 * math.pi) + math.log(bracket)
    first = math.log(sigma / (math.sqrt(2.0 * math.pi) * r * r)) - y * y / (2.0 * noise_var)
    second = math.log(s * y / r**3) - y * y / (2.0 * r * r) + log_ndtr(t)
    return float(np.logaddexp(first, second))


def cdf(y, power, noise_var, scale):
    """F(y)."""
    sigma, s, r = _shape(power, noise_var, scale)
    return float(ndtr(y / sigma) - (s / r) * math.exp(-y * y / (2.0 * r * r)) * ndtr(s * y / (sigma * r)))


def threshold(power, noise_var, scale):
    """D(f || N(0, sigma^2)) in nats."""
    sigma, _, r = _shape(power, noise_var, scale)
    log_norm = 0.5 * math.log(2.0 * math.pi * noise_var)

    def integrand(y):
        log_f = log_density(y, power, noise_var, scale)
        return math.exp(log_f) * (log_f + y * y / (2.0 * noise_var) + log_norm)

    pieces = sorted({-40.0 * sigma, -10.0 * sigma, 0.0, 10.0 * sigma, *(k * r for k in (1, 2, 4, 8, 12, 16))})
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] for a, b in zip(pieces, pieces[1:]))
