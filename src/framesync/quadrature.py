"""Adaptive quadrature front-end used by the continuous-channel code.

Thin wrapper over scipy's QUADPACK adaptive subdivision with the package-wide
tolerance pair and an evaluation budget, converting silent accuracy failures
into a hard error.
"""

from __future__ import annotations

from typing import Callable

ABS_TOL = 1e-12
REL_TOL = 1e-9
# QUADPACK evaluates 21 points per subinterval; this cap keeps the total
# evaluation budget near 1e6.
SUBDIVISION_LIMIT = 47_000


class QuadratureNonConvergence(RuntimeError):
    """The subdivision budget was exhausted before reaching tolerance."""


def adaptive_quad(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """Integrate fn over [lo, hi] to the requested tolerance or raise."""
    from scipy.integrate import quad  # here, so commands that integrate nothing never load it

    value, abserr, info, *message = quad(
        fn, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=SUBDIVISION_LIMIT, full_output=True
    )
    if message:
        raise QuadratureNonConvergence(
            f"integral on [{lo}, {hi}] did not converge: {message[0]}"
        )
    if abserr > abs_tol + rel_tol * abs(value) * 10.0:
        raise QuadratureNonConvergence(
            f"integral on [{lo}, {hi}] reports error {abserr} beyond tolerance"
        )
    return value
