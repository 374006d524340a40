"""Adaptive quadrature front-end used by the continuous-channel code.

Thin wrapper over scipy's QUADPACK adaptive subdivision with the package-wide
tolerance pair and an evaluation budget, converting silent accuracy failures
into a hard error.

QUADPACK allocates its workspace for ``limit`` subintervals at every call, so
``adaptive_quad`` first runs with ``limit = min(FIRST_LIMIT, SUBDIVISION_LIMIT)``
and reruns at ``SUBDIVISION_LIMIT`` only when that run used more than
``limit // 2 + 2`` subintervals. Up to that count ``dqagse`` and its error-list
sort ``dqpsrt`` take the same steps at any limit (they read ``limit`` only past
``limit / 2 + 2`` subintervals and at ``last == limit``), so a kept first run is
bit for bit the run at ``SUBDIVISION_LIMIT``: value, error and evaluation count.
"""

from __future__ import annotations

from typing import Callable

ABS_TOL = 1e-12
REL_TOL = 1e-9
# QUADPACK evaluates 21 points per subinterval; this cap keeps the total
# evaluation budget near 1e6.
SUBDIVISION_LIMIT = 47_000
# the first run's workspace; every Rayleigh integral the commands compute uses at most 12
FIRST_LIMIT = 200


class QuadratureNonConvergence(RuntimeError):
    """The subdivision budget was exhausted before reaching tolerance."""


def adaptive_quad(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """Integrate fn over [lo, hi] to the requested tolerance or raise.

    An ArithmeticError raised by fn (a float that overflows, a division by zero)
    means the integral cannot be computed, and raises QuadratureNonConvergence."""
    from scipy.integrate import quad  # here, so commands that integrate nothing never load it

    for limit in (min(FIRST_LIMIT, SUBDIVISION_LIMIT), SUBDIVISION_LIMIT):
        try:
            value, abserr, info, *message = quad(
                fn, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=True
            )
        except ArithmeticError as exc:
            raise QuadratureNonConvergence(
                f"integral on [{lo}, {hi}] failed: the integrand raised {exc!r}") from None
        if limit == SUBDIVISION_LIMIT or info["last"] <= limit // 2 + 2:
            break  # the run at SUBDIVISION_LIMIT, bit for bit
    if message:
        raise QuadratureNonConvergence(
            f"integral on [{lo}, {hi}] did not converge: {message[0]}"
        )
    if abserr > abs_tol + rel_tol * abs(value) * 10.0:
        raise QuadratureNonConvergence(
            f"integral on [{lo}, {hi}] reports error {abserr} beyond tolerance"
        )
    return value
