"""AWGN and Rayleigh-fading channels: densities and quantization.

The continuous channels use a binary input {x(0)=0, x(1)=sqrt(P)}. Idle slots
carry pure Gaussian noise; sync slots carry the signal, faded per slot for the
Rayleigh model. Quantization integrates the conditional laws over grid cells
(outermost cells absorb the clipped tails) to produce a finite-alphabet Dmc.

The Rayleigh amplitude uses the standard density (h / scale^2) exp(-h^2 / (2 scale^2)),
so E[h^2] = 2 scale^2.

The Gaussian CDF of the AWGN cell masses, ``phi``, is the Cephes ``ndtr`` that
``scipy.special.ndtr`` runs (S. L. Moshier, Methods and Programs for Mathematical Functions,
1989), transcribed operation for operation with libm's exp, so it returns scipy's doubles
without loading scipy. The Rayleigh CDF integrand keeps scipy's: it runs once per quantizer
edge, on an array over every amplitude node met so far, and once per new node on a float; its
command loads scipy for QUADPACK anyway.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channels import Dmc, _integer, dmc_new
from .quadrature import ABS_TOL, QuadratureNonConvergence, adaptive_quad

# Quadratures over the amplitude h stop at h_max, where its tail mass drops to RAYLEIGH_TAIL.
# Over h the noise is a spike (density) or a step (CDF) of width sigma / sqrt(P); past this many
# widths per Rayleigh scale, sigma_H sqrt(P) / sigma, QUADPACK can step over it and call a wrong
# value converged (the threshold came out 55% low at 100). Checked against closed forms.
RAYLEIGH_TAIL = 1e-16
MAX_SCALE_WIDTHS = 32.0
MASS_LOSS_TOL = 1e-6


# Cephes ndtr.c: erfc(x) on [1, 8) as exp(-x^2) P(x)/Q(x), on [8, inf) as exp(-x^2) R(x)/S(x),
# erf(x) on [0, 1] as x T(x^2)/U(x^2); Q, S and U are monic, their leading 1 left out
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX)


def _polevl(x: float, coef: tuple, monic: bool = False) -> float:
    """Horner's rule from the leading coefficient down (Cephes polevl; p1evl when monic)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes erf for |x| < 1, the only arguments phi and _erfc give it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, True)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= 1/sqrt(2), the only arguments phi gives it; its branches for
    negative x and its re-check of a zero result cannot be reached from there."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # underflow
    if x < 8.0:
        return math.exp(z) * _polevl(x, _P) / _polevl(x, _Q, True)
    return math.exp(z) * _polevl(x, _R) / _polevl(x, _S, True)


def phi(a: float) -> float:
    """Standard normal CDF of a float, equal to scipy.special.ndtr bit for bit."""
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


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


@dataclass(frozen=True)
class RayleighAwgnSpec:
    """Per-slot Rayleigh fading (scale sigma_H) followed by AWGN."""

    power: float
    noise_var: float
    scale: float

    def __post_init__(self):
        AwgnSpec(self.power, self.noise_var)  # the same checks on P and sigma^2
        # the kernels divide by sigma_H^2: a square that underflows to 0 or overflows fails too
        if not (0.0 < self.scale and 0.0 < self.scale * self.scale < math.inf):
            raise ValueError(f"Rayleigh scale must be > 0 with a square finite and > 0, got {self.scale}")

    sigma = AwgnSpec.sigma

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
        object.__setattr__(self, "bins", _integer("bins", self.bins))
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"grid needs finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.bins < 2:
            raise ValueError(f"grid needs at least 2 bins, got {self.bins}")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)


def _density_node(y: float, shift: float, w: float, twice_var: float, norm: float) -> float:
    """N(y; shift, sigma^2) w on floats, shift = h sqrt(P), in the operations and order of the
    Gaussian density on arrays (awgn_density in tests/closed_forms.py). Its square is d * d, numpy's
    square of an array: libm's pow, which d**2 calls on a float or a numpy scalar, is an ulp off on
    about one d in a thousand."""
    d = y - shift
    if (square := d * d) == math.inf:
        square = d**2  # Python's pow raises OverflowError where a finite d squares past DBL_MAX
    return float(np.exp(-square / twice_var)) / norm * w


def _density_row(y: float, shifts: np.ndarray, weights: np.ndarray, twice_var: float, norm: float) -> np.ndarray:
    """_density_node over arrays of nodes, operation for operation."""
    d = y - shifts
    return np.exp(-(d * d) / twice_var) / norm * weights


def _cdf_node(e: float, shift: float, w: float, sigma: float, ndtr) -> float:
    """w P(shift + n <= e) on floats."""
    return w * float(ndtr((e - shift) / sigma))


def _cdf_row(e: float, shifts: np.ndarray, weights: np.ndarray, sigma: float, ndtr) -> np.ndarray:
    """_cdf_node over arrays of nodes, operation for operation."""
    return weights * ndtr((e - shifts) / sigma)


def _rayleigh_kernel(spec: RayleighAwgnSpec, node_form, row_form, *consts) -> Callable[[float], Callable]:
    """A kernel over the amplitude h as a function of the outer point x: h -> node_form(x, h sqrt(P),
    w(h), *consts), w the Rayleigh amplitude density (0 for h < 0). The density kernel is
    h -> N(y; h sqrt(P), sigma^2) w(h) (_density_node), the CDF kernel h -> w(h) P(h sqrt(P) + n <= e)
    (_cdf_node).

    QUADPACK asks for the same h nodes at every outer point, one node per callback. The kernel keeps
    its own table of the nodes met so far, holding h sqrt(P) and w(h) per node. At each outer point
    it evaluates row_form, node_form's array form, over the whole table and turns it into a list
    once; a callback at a node of that row returns its entry. A node the row lacks goes through
    node_form and joins the table, so the float form runs once per distinct node. Both forms run the
    same operations in the same order with numpy's exp and scipy's ndtr, which return the same double
    for an array element as for a float (math.exp differs in the last bit): every value is
    bit-identical to the array formula, hit or miss. Zero never joins the table: +0.0 and -0.0 share
    a key but not a sign. A row on which numpy overflows or goes invalid is left to the float form,
    which raises OverflowError or returns inf or nan silently, as it always has. The table lives as
    long as the kernel. Raises QuadratureNonConvergence past MAX_SCALE_WIDTHS, where the quadratures
    go wrong."""
    root_p, scale2, twice_scale2 = math.sqrt(spec.power), spec.scale**2, 2.0 * spec.scale**2
    if not (widths := spec.scale * root_p / spec.sigma) <= MAX_SCALE_WIDTHS:
        raise QuadratureNonConvergence(
            f"sigma_H sqrt(P) / sigma = {widths:.4g} exceeds {MAX_SCALE_WIDTHS:g}: the Rayleigh quadratures fail")
    columns: dict[float, int] = {}  # node h -> its index in shifts and weights
    shifts: list[float] = []  # h sqrt(P)
    weights: list[float] = []  # w(h)
    table = [np.empty(0), np.empty(0)]  # shifts and weights as arrays, rebuilt after nodes join

    def at_node(x: float, h: float) -> float:
        """The kernel at a node the row lacks, by its float form; a new node joins the table."""
        w = h / scale2 * float(np.exp(-(h * h) / twice_scale2)) if h >= 0.0 else 0.0
        if h and h not in columns:  # a node that joined after the row is in the table already
            columns[h] = len(weights)
            shifts.append(h * root_p)
            weights.append(w)
        return node_form(x, h * root_p, w, *consts)

    def at(x: float) -> Callable[[float], float]:
        if len(table[1]) < len(weights):
            table[:] = np.array(shifts), np.array(weights)
        try:
            with np.errstate(over="raise", invalid="raise"):
                row = row_form(x, *table, *consts).tolist()
        except FloatingPointError:
            row = []  # every node by the float form
        n, column = len(row), columns.get

        def kernel(h: float) -> float:
            i = column(h, n)  # >= n for a node that joined after this row, or not at all
            return row[i] if i < n else at_node(x, h)

        return kernel

    return at


def rayleigh_density_of(spec: RayleighAwgnSpec) -> Callable[[float], float]:
    """y -> the density of h*sqrt(P) + n at y, every y sharing one spec's kernel.

    Its absolute tolerance scales as 1/sigma like the density (ABS_TOL at sigma = 1), which
    leaves sigma_H sqrt(P) / sigma the one parameter the quadrature sees."""
    h_max, abs_tol, var = spec.h_max, ABS_TOL / spec.sigma, spec.noise_var
    density_at = _rayleigh_kernel(spec, _density_node, _density_row, 2.0 * var, math.sqrt(2.0 * math.pi * var))
    return lambda y: adaptive_quad(density_at(y), 0.0, h_max, abs_tol=abs_tol)


def _gaussian_row(edges: np.ndarray, mean: float, sigma: float) -> tuple[np.ndarray, float]:
    """Cell masses of N(mean, sigma^2), tail-accurate on both sides, with the outermost
    cells absorbing the mass beyond the grid; and that beyond-grid mass."""
    z = (edges - mean) / sigma
    zs = z.tolist()
    below = np.array([phi(v) for v in zs])
    above = np.array([phi(-v) for v in zs])  # 1 - below, accurate above the mean
    cells = np.where(z[:-1] > 0.0, above[:-1] - above[1:], below[1:] - below[:-1])
    tail = 1.0 - cells.sum()
    cells[0] += below[0]
    cells[-1] += above[-1]
    return cells, tail


def quantize_to_dmc(
    spec: AwgnSpec | RayleighAwgnSpec,
    grid: QuantizationGrid,
    mass_loss_tol: float = MASS_LOSS_TOL,
) -> Dmc:
    """Quantize the channel into a 2-input Dmc over the cells of grid.

    Cell probabilities are the conditional laws integrated over each cell, the
    outermost cells absorbing all beyond-grid mass. Raises :class:`MassLoss`
    when a row carries more than ``mass_loss_tol`` beyond the grid, which
    signals the grid is too narrow to represent the channel faithfully. (At
    very high fading SNR the idle law underflows before the signal law decays,
    so a deliberately larger budget may be passed to study clipped tails.) A
    Rayleigh spec past MAX_SCALE_WIDTHS raises :class:`QuadratureNonConvergence`.
    """
    edges = grid.edges
    idle, idle_tail = _gaussian_row(edges, 0.0, spec.sigma)  # pure noise
    if isinstance(spec, RayleighAwgnSpec):
        from scipy.special import ndtr  # scipy loads only where a command computes with it

        # the faded-signal law's CDF at each edge
        cdf_at = _rayleigh_kernel(spec, _cdf_node, _cdf_row, spec.sigma, ndtr)
        cdf = np.array([adaptive_quad(cdf_at(e), 0.0, spec.h_max, abs_tol=1e-13,
                                      rel_tol=1e-10) for e in edges.tolist()])
        sync_tail = 1.0 - (cdf[-1] - cdf[0])
        cdf[0], cdf[-1] = 0.0, 1.0  # tail cells absorb
        # quadrature dust can break monotonicity at the 1e-13 level
        sync = np.diff(np.maximum.accumulate(np.clip(cdf, 0.0, 1.0)))
    else:
        sync, sync_tail = _gaussian_row(edges, math.sqrt(spec.power), spec.sigma)
    tail = np.array([idle_tail, sync_tail])
    if np.any(tail > mass_loss_tol):
        raise MassLoss(
            f"beyond-grid mass {tail.max():.3g} exceeds {mass_loss_tol}; widen the grid"
        )
    return dmc_new(np.array([idle, sync]), normalize=True)


def quantized_awgn(spec: AwgnSpec, bins: int) -> Dmc:
    """AWGN quantized on ``bins`` cells of [-5 sigma, sqrt(P) + 5 sigma], the simulation grid."""
    s = spec.sigma
    return quantize_to_dmc(spec, QuantizationGrid(-5.0 * s, math.sqrt(spec.power) + 5.0 * s, bins))
