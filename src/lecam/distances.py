"""Total variation and Hellinger computations between the sampling laws
and their Gaussian limits.

Three kinds of laws appear: the two discrete sampling laws, their jittered
versions (lattice draw plus uniform noise on the centered unit cube, giving
a density that is constant on unit cubes), and Gaussian laws with matching
moments.  Discrete pairs are summed exactly, and so are jittered discrete
pairs: the unit cubes around lattice points are disjoint, so jittering both
laws leaves their TV unchanged.  Jittered-versus-Gaussian pairs are
integrated cube by cube.  In d <= 2 the last axis is done in closed form,
as sums of normal tails from ``math.erfc`` (``_slice_integrals``): that is
the whole cell in d=1, and in d=2 an outer Gauss-Legendre rule runs over
pieces of each cell cut at the kinks (``_closed_form_tv``).  In d=3 cubes
take tensor-product Gauss-Legendre rules, with breadth-first bisection
where the integrand |pmf - density| has a kink (``integrate_cells``).  A
Monte Carlo estimator covers everything beyond dimension three and checks
the samplers against a jittered target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import RegimeError, ValidationError
from .lattice import (
    ExperimentParams,
    count_vector_levels,
    count_vector_matrix,
    support_matrix,
    validate_params,
    weight_ratio,
)
from .numerics import (
    EXACT_TOTAL_UNIT,
    apply_jitter,
    exact_sum,
    exact_total,
    make_generator,
    round_half_away,
    split_seed,
)
from .pmf import (
    hypergeometric_log_pmf_matrix,
    leaf_log_pmfs,
    multinomial_log_pmf_matrix,
    multinomial_moments,
    sample_hypergeometric,
    sample_multinomial,
)

HYPERGEOMETRIC = "hypergeometric"
MULTINOMIAL = "multinomial"
_LAW_ALIASES = {
    "hyper": HYPERGEOMETRIC,
    "hypergeometric": HYPERGEOMETRIC,
    "multi": MULTINOMIAL,
    "multinomial": MULTINOMIAL,
}

DEFAULT_QUAD_ORDER = 8
DEFAULT_MC_SAMPLES = 1_000_000
MAX_QUAD_DIM = 3
MAX_BISECTION_DEPTH = 6
MIN_MC_SAMPLES = 10_000
_MC_CHUNK = 1 << 20
# Points per log_density call in the cell integrator; bounds its memory.
_CELL_BLOCK = 1 << 15

METHOD_EXACT = "exact-discrete"
METHOD_QUAD = "cube-quadrature"
METHOD_MC = "monte-carlo"

# The pairs of laws whose TV :func:`tv_pair` computes.
TV_PAIRS = ("hyper-multi", "hyper-hyper", "multi-multi",
            "jitterhyper-jittermulti", "jitterhyper-gauss", "jittermulti-gauss")


def _canonical_law(name: str) -> str:
    try:
        return _LAW_ALIASES[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown law {name!r}; expected one of {sorted(set(_LAW_ALIASES))}"
        ) from None


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    """Multivariate normal with its covariance factored once.

    ``whitening`` is the inverse of the lower Cholesky factor L, so the
    Mahalanobis form of x is |whitening (x - mean)|^2, and ``log_norm`` is
    the log normalising constant -d/2 log(2 pi) - log det L.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky_factor: np.ndarray
    whitening: np.ndarray = field(init=False, repr=False)
    log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.mean.size
        whitening = np.tril(np.linalg.inv(self.cholesky_factor))
        log_det_half = float(np.sum(np.log(np.diag(self.cholesky_factor))))
        object.__setattr__(self, "whitening", whitening)
        object.__setattr__(self, "log_norm", -0.5 * dim * math.log(2.0 * math.pi) - log_det_half)

    @classmethod
    def from_moments(cls, mean, covariance) -> "GaussianLaw":
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        if mean.ndim != 1 or covariance.shape != (mean.size, mean.size):
            raise ValidationError("mean must be a d-vector and covariance d x d")
        if not np.allclose(covariance, covariance.T, rtol=0.0, atol=1e-12):
            raise ValidationError("covariance must be symmetric")
        try:
            factor = np.linalg.cholesky(covariance)
        except np.linalg.LinAlgError:
            raise ValidationError("covariance must be positive definite") from None
        return cls(mean=mean, covariance=covariance, cholesky_factor=factor)

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, x):
        """Log-density at x, shape (d,) or (m, d); returns scalar or (m,).

        The whitening runs as d(d+1)/2 elementwise row operations on
        preallocated buffers, so small batches pay no per-call overhead and
        wake no BLAS threads.
        """
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        if pts.shape[1] != self.dim:
            raise ValidationError(f"points must have {self.dim} coordinates")
        centered = np.subtract(pts.T, self.mean[:, None], order="C")
        out = np.zeros(len(pts))
        y = np.empty(len(pts))
        term = np.empty(len(pts))
        for i, row in enumerate(self.whitening):
            np.multiply(centered[0], row[0], out=y)
            for j in range(1, i + 1):
                y += np.multiply(centered[j], row[j], out=term)
            y *= y
            out += y
        out *= -0.5
        out += self.log_norm
        return float(out[0]) if single else out


def build_gaussian(params: ExperimentParams) -> GaussianLaw:
    """Gaussian with the with-replacement law's mean and covariance."""
    moments = multinomial_moments(params.sample_size, params.weights)
    return GaussianLaw.from_moments(moments.mean, moments.covariance)


class JitteredLaw:
    """Density of a lattice law after adding uniform noise on the unit cube.

    The density at x equals the pmf at the nearest lattice point, so it is
    piecewise constant; points outside every support cube have density zero.
    """

    def __init__(self, params: ExperimentParams, which: str):
        self.params = params
        self.which = _canonical_law(which)

    @property
    def dim(self) -> int:
        return self.params.dim

    def log_density(self, x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        centers = round_half_away(pts)
        out = _log_pmf_matrix(self.params, self.which, centers)
        return float(out[0]) if single else out


def _support_points(params: ExperimentParams, laws: Sequence[str]) -> np.ndarray:
    """Lattice points that carry the mass of every law in ``laws``."""
    if MULTINOMIAL in map(_canonical_law, laws):
        return count_vector_matrix(params.sample_size, params.dim)
    return support_matrix(params)


def _log_pmf_matrix(params: ExperimentParams, which: str, points: np.ndarray) -> np.ndarray:
    which = _canonical_law(which)
    if which == HYPERGEOMETRIC:
        return hypergeometric_log_pmf_matrix(params, points)
    return multinomial_log_pmf_matrix(params.sample_size, params.weights, points)


@dataclass(frozen=True)
class TVResult:
    """A total-variation value with its computation method and error bar."""

    value: float
    method: str
    error_estimate: float


@dataclass(frozen=True)
class TVBoundParts:
    """The explicit ingredients of the jittered-vs-Gaussian TV upper bound.

    The pieces are reported separately and no assembled inequality is ever
    asserted: the remaining terms of the bound carry unspecified constants.
    """

    nu: tuple[int, ...]
    tail_sum: float
    n2_over_N: float
    gaussian_term_scale: float


class HellingerResult(NamedTuple):
    """Squared Hellinger distance plus the TV bound it implies."""

    h_squared: float
    tv_bound: float


class TailCheck(NamedTuple):
    """Exact tail probability P(K_i > nu n p_i) next to its large-deviation bound."""

    empirical: float
    bound: float
    nu: int


# ---------------------------------------------------------------------------
# quadrature rules

@lru_cache(maxsize=None)
def _tensor_rule(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre offsets inside the centered unit cube and their weights."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = nodes / 2.0
    weights = weights / 2.0
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * dim), indexing="ij")
    wprod = np.ones(offsets.shape[0])
    for g in wgrids:
        wprod = wprod * g.ravel()
    return offsets, wprod


@lru_cache(maxsize=None)
def _corner_offsets(dim: int) -> np.ndarray:
    """Corners of the centered unit cube; also the shifts of a cell's children."""
    return np.array([[(b >> i & 1) - 0.5 for i in range(dim)] for b in range(1 << dim)])


class _Face(NamedTuple):
    """One face of a cell and the peak of the density over it.

    Each coordinate sits at the cell's lower edge (sign -1), at its upper
    edge (+1) or is free (0).  Over the free coordinates F the Mahalanobis
    form is least at x_F = mean_F + coef (x_G - mean_G), where G are the
    fixed ones and coef = -P_FF^-1 P_FG for the precision matrix P.
    """

    signs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    coef: np.ndarray


def _cell_faces(law: GaussianLaw) -> list[_Face]:
    """The 3^d faces of a cell, corners (no free coordinate) first."""
    precision = np.einsum("ki,kj->ij", law.whitening, law.whitening)
    faces = []
    for signs in itertools.product((-1.0, 1.0, 0.0), repeat=law.dim):
        signs = np.array(signs)
        free = np.nonzero(signs == 0.0)[0]
        fixed = np.nonzero(signs != 0.0)[0]
        coef = -np.linalg.solve(precision[np.ix_(free, free)], precision[np.ix_(free, fixed)])
        faces.append(_Face(signs, free, fixed, coef))
    faces.sort(key=lambda face: len(face.free))
    return faces


def _rule_integrals(
    law: GaussianLaw,
    consts: np.ndarray | None,
    centers: np.ndarray,
    halfwidths: np.ndarray,
    order: int,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Integrals of |const - density| and of the density over each cell.

    One tensor Gauss-Legendre rule per cell, evaluated in blocks of at most
    ``_CELL_BLOCK`` points and reduced with einsum (no BLAS call).  With
    ``consts`` None only the masses are computed.
    """
    offsets, weights = _tensor_rule(order, law.dim)
    step = max(1, _CELL_BLOCK // len(weights))
    masses = np.empty(len(centers))
    gaps = None if consts is None else np.empty(len(centers))
    for s in range(0, len(centers), step):
        width = 2.0 * halfwidths[s : s + step]
        pts = np.multiply(offsets, width[:, None, None])
        pts += centers[s : s + step, None, :]
        dens = law.log_density(pts.reshape(-1, law.dim)).reshape(len(width), -1)
        np.exp(dens, out=dens)
        vol = width**law.dim
        masses[s : s + step] = np.einsum("ij,j->i", dens, weights) * vol
        if gaps is not None:
            np.subtract(consts[s : s + step, None], dens, out=dens)
            np.abs(dens, out=dens)
            gaps[s : s + step] = np.einsum("ij,j->i", dens, weights) * vol
    return gaps, masses


def _log_density_range(
    law: GaussianLaw, faces: list[_Face], centers: np.ndarray, halfwidth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest log-density on each cell, exactly.

    The log-density is concave, so its least value on a cell sits at a
    corner.  Its greatest value sits at the peak over one of the cell's
    faces: each face's peak is computed exactly and kept when it lies inside
    that face.  All 3^d candidates of every cell go into one log_density call.
    """
    m, dim = centers.shape
    pts = np.empty((m, len(faces), dim))
    inside = np.ones((m, len(faces)), dtype=bool)
    for f, face in enumerate(faces):
        x = pts[:, f, :]
        x[:] = centers + face.signs * halfwidth
        for row, i in zip(face.coef, face.free):
            xi = np.full(m, law.mean[i])
            for c, j in zip(row, face.fixed):
                xi += c * (x[:, j] - law.mean[j])
            inside[:, f] &= np.abs(xi - centers[:, i]) <= halfwidth
            x[:, i] = xi
    logs = law.log_density(pts.reshape(-1, dim)).reshape(m, len(faces))
    lowest = logs[:, : 1 << dim].min(axis=1)
    highest = np.where(inside, logs, -np.inf).max(axis=1)
    return lowest, highest


class CellIntegrals(NamedTuple):
    """Totals over all cells from :func:`integrate_cells`, keyed by rule order.

    ``leaf_error`` is half the sum, over sub-cells still straddling at
    MAX_BISECTION_DEPTH, of |I_hi - I_lo|, the gap between the first two
    orders' integrals of |const - density| on each such sub-cell.  Every
    total is exact until its one final rounding, so the order in which the
    blocks of cells were integrated cannot move it.
    """

    abs_total: dict[int, float]
    mass_total: dict[int, float]
    leaf_error: float


def integrate_cells(
    law: GaussianLaw,
    consts: np.ndarray,
    log_consts: np.ndarray,
    centers: np.ndarray,
    orders: Sequence[int],
) -> CellIntegrals:
    """Integrals of |const - density| and of the density over unit cells.

    ``centers`` (m, d) are the centers of unit cubes, ``consts`` the constant
    on each and ``log_consts`` its logarithm; one pair of totals over the
    cells is returned per Gauss-Legendre order in ``orders``, the two
    orders of :func:`_quad_orders`.  A cell whose density crosses its
    constant has a kink inside, so it is bisected into its 2^d children
    before integration, breadth first, up to MAX_BISECTION_DEPTH levels;
    cells still straddling there are integrated as they are and counted in
    ``leaf_error``.  The TV uses it in d=3 only: in d <= 2 the closed form
    along the last axis needs no bisection (see :func:`tv_jittered_vs_gaussian`).

    The frontier is kept as a stack of blocks of cells, so memory stays
    bounded by the depth times one block's children, and every
    ``log_density`` call covers at most ``_CELL_BLOCK`` points.
    """
    m, dim = centers.shape
    abs_totals = dict.fromkeys(orders, 0)
    mass_totals = dict.fromkeys(orders, 0)
    leaf_total = 0
    faces = _cell_faces(law)
    block = max(1, _CELL_BLOCK // len(faces))
    stack = [
        (np.arange(s, min(s + block, m)), centers[s : s + block], 0.5, 0)
        for s in reversed(range(0, m, block))
    ]
    while stack:
        owners, ctr, half, level = stack.pop()
        lowest, highest = _log_density_range(law, faces, ctr, half)
        straddle = (lowest <= log_consts[owners]) & (highest >= log_consts[owners])
        halves = np.full(len(owners), half)
        unresolved = straddle if level == MAX_BISECTION_DEPTH else None
        if unresolved is None and straddle.any():
            shifts = _corner_offsets(dim)
            kids = (ctr[straddle][:, None, :] + shifts[None, :, :] * half).reshape(-1, dim)
            kid_owners = np.repeat(owners[straddle], len(shifts))
            for s in reversed(range(0, len(kids), block)):
                stack.append((kid_owners[s : s + block], kids[s : s + block], half / 2.0, level + 1))
            smooth = ~straddle
            owners, ctr, halves = owners[smooth], ctr[smooth], halves[smooth]
        gaps = {}
        for order in orders:
            gaps[order], masses = _rule_integrals(law, consts[owners], ctr, halves, order)
            abs_totals[order] += exact_total(gaps[order])
            mass_totals[order] += exact_total(masses)
        if unresolved is not None:
            leaf_total += exact_total(np.abs(gaps[orders[0]] - gaps[orders[1]])[unresolved])
    return CellIntegrals(
        {order: total / EXACT_TOTAL_UNIT for order, total in abs_totals.items()},
        {order: total / EXACT_TOTAL_UNIT for order, total in mass_totals.items()},
        0.5 * (leaf_total / EXACT_TOTAL_UNIT),
    )


# ---------------------------------------------------------------------------
# closed form along the last axis (d <= 2)

_erfc = np.frompyfunc(math.erfc, 1, 1)
_EPS = float(np.finfo(float).eps)
# Rounding charged per unit of a closed-form term's magnitude: 16 ulps.
_ROUNDING = 16.0 * _EPS


@lru_cache(maxsize=None)
def _endpoint_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1] after the endpoint transform x = psi(u).

    psi(u) = u^3 (10 - 15 u + 6 u^2) has psi' = 30 u^2 (1 - u)^2, so it
    flattens the integrand at both ends of a piece: the square-root kinks
    where a level ellipse is tangent to a cut become smooth enough for
    Gauss-Legendre to converge fast.  Returns the nodes psi(u_j) and the
    weights psi'(u_j) w_j.
    """
    u, w = np.polynomial.legendre.leggauss(count)
    u = (u + 1.0) / 2.0
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u), 15.0 * (u * (1.0 - u)) ** 2 * w


def _slice_integrals(c, log_c, a, b, mean, sd, log_scale):
    """Integral over y in [a, b] of |c - f(y)| - f(y), in closed form.

    f = exp(log_scale) times the N(mean, sd^2) density.  It exceeds c
    exactly on |y - mean| < sd rho, with rho^2 = 2 (ln peak(f) - ln c), so
    with lo, hi that interval clipped to [a, b] the integral is
    c [(lo - a) + (b - hi) - (hi - lo)] - 2 [f-mass(a, lo) + f-mass(hi, b)].
    Each normal mass is a difference of tails from ``math.erfc``, always
    taken on the side away from the mean, so no tail cancels.  The caller
    measures y from a point near the mass (the Gaussian's mean), so that
    rounding y - mean costs little.  Works elementwise on broadcastable
    arrays.

    Returns the integrals and magnitudes that bound their rounding, in ulps
    up to a small factor: c (|a| + |b|) for the lengths, and for the masses
    each tail t at z weighted by (1 + z^2) (its sensitivity to a relative
    error in z) times 1 + |mean| / sd (that of mean's own rounding), plus 1
    for each mass that straddles the mean.
    """
    scale = np.exp(log_scale)
    log_peak = log_scale - math.log(sd * math.sqrt(2.0 * math.pi))
    reach = sd * np.sqrt(np.maximum(2.0 * (log_peak - log_c), 0.0))
    lo = np.clip(mean - reach, a, b)
    hi = np.clip(mean + reach, a, b)
    z = (np.stack(np.broadcast_arrays(a, lo, hi, b)) - mean) / sd
    tail = 0.5 * _erfc(np.abs(z) * math.sqrt(0.5)).astype(float)
    z0, z1, t0, t1 = z[0::2], z[1::2], tail[0::2], tail[1::2]
    straddle = (z0 < 0.0) & (z1 > 0.0)
    mass = np.where(z0 >= 0.0, t0 - t1, np.where(straddle, 1.0 - t0 - t1, t1 - t0))
    value = c * ((lo - a) + (b - hi) - (hi - lo)) - 2.0 * scale * mass.sum(axis=0)
    spread = (tail * (1.0 + z * z)).sum(axis=0) * (1.0 + np.abs(mean) / sd)
    size = c * (np.abs(a) + np.abs(b)) + 2.0 * scale * (spread + straddle.sum(axis=0))
    return value, size


def _closed_form_tv(
    law: GaussianLaw, log_consts: np.ndarray, points: np.ndarray, quad_order: int
) -> tuple[float, float]:
    """TV = 1/2 [1 + sum_cells int (|c - density| - density)] for d <= 2, and its bar.

    The last axis is done in closed form (:func:`_slice_integrals`): in d=1
    that is the whole cell, and the bar is the rounding alone.  In d=2 the
    outer x1 integral is a rule over pieces (:func:`_outer_pieces`), and
    the bar adds half the sum over pieces of the gap between its two node
    counts.  Cells go in blocks of at most ``_CELL_BLOCK`` evaluations; every
    sum is exact, so the blocks do not move the result.
    """
    m, dim = points.shape
    consts = np.exp(log_consts)
    # a d=2 cell has at most 7 pieces of 3 + 2 quad_order nodes each
    block = max(1, _CELL_BLOCK // (1 if dim == 1 else 35 * quad_order))
    total = rounding = gap = 0
    for s in range(0, m, block):
        part = slice(s, s + block)
        if dim == 1:
            centers = points[part, 0] - law.mean[0]
            value, size = _slice_integrals(
                consts[part], log_consts[part], centers - 0.5, centers + 0.5,
                0.0, law.cholesky_factor[0, 0], 0.0,
            )
        else:
            value, size, gaps = _outer_pieces(law, consts[part], log_consts[part], points[part], quad_order)
            gap += exact_total(gaps)
        total += exact_total(value)
        rounding += exact_total(size)
    total, rounding, gap = (t / EXACT_TOTAL_UNIT for t in (total, rounding, gap))
    # The law's moments are stored rounded: its mean moves by up to an ulp,
    # which moves the TV by less than that shift in whitened units.
    stored = dim + float(np.sum(np.abs(law.whitening) * np.abs(law.mean)))
    error = 0.5 * (gap + _ROUNDING * rounding) + _EPS * stored
    return min(max(0.5 * (1.0 + total), 0.0), 1.0), error


def _outer_pieces(
    law: GaussianLaw,
    consts: np.ndarray,
    log_consts: np.ndarray,
    points: np.ndarray,
    quad_order: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outer x1 integral over d=2 cells, a rule node at a time.

    Given x1 the density is the x1 marginal times a normal in x2, so the x2
    integral is :func:`_slice_integrals`.  As a function of x1 it has kinks
    where the level ellipse {density = c} ends and where it crosses the
    cell's two x2 edges: at most 6 cuts.  With x = mean + L w (L the lower
    Cholesky factor) the ellipse is the circle |w|^2 = q0 = 2 (log_norm - ln c):
    it ends at w1 = +-sqrt(q0) and meets the line x2 = mean2 + u where
    w1 = (u l21 +- l22 sqrt(s22 q0 - u^2)) / s22.  Each piece between cuts
    takes 3 quad_order nodes of :func:`_endpoint_rule` and, for the gap,
    2 quad_order.  Returns the weighted terms at 3 quad_order nodes, their
    rounding magnitudes, and each piece's |I(3 quad_order) - I(2 quad_order)|.
    """
    (l11, _), (l21, l22) = law.cholesky_factor
    mu1, mu2 = law.mean
    s22 = l21 * l21 + l22 * l22
    k1, k2 = points[:, 0], points[:, 1]
    q0 = 2.0 * (law.log_norm - log_consts)
    with np.errstate(invalid="ignore"):
        cuts = [k1 - 0.5, k1 + 0.5, mu1 - l11 * np.sqrt(q0), mu1 + l11 * np.sqrt(q0)]
        for edge in (k2 - 0.5, k2 + 0.5):
            u = edge - mu2
            root = l22 * np.sqrt(s22 * q0 - u * u)
            cuts += [mu1 + l11 * (u * l21 - root) / s22, mu1 + l11 * (u * l21 + root) / s22]
    cuts = np.column_stack(cuts)
    cuts = np.clip(np.where(np.isnan(cuts), k1[:, None] + 0.5, cuts),
                   k1[:, None] - 0.5, k1[:, None] + 0.5)
    cuts.sort(axis=1)
    left, right = cuts[:, :-1], cuts[:, 1:]
    keep = right > left
    owner = np.nonzero(keep)[0]
    left, width = left[keep][:, None], (right - left)[keep][:, None]
    u_lo = (k2[owner] - 0.5 - mu2)[:, None]
    log_marginal = -math.log(l11 * math.sqrt(2.0 * math.pi))
    results = []
    for count in (3 * quad_order, 2 * quad_order):
        nodes, weights = _endpoint_rule(count)
        w1 = (left + width * nodes - mu1) / l11
        value, size = _slice_integrals(
            consts[owner, None], log_consts[owner, None], u_lo, u_lo + 1.0,
            l21 * w1, l22, log_marginal - 0.5 * w1 * w1,
        )
        # the marginal's own rounding grows with its exponent
        results.append((value * (width * weights), size * (1.0 + w1 * w1) * (width * weights)))
    (terms, sizes), (coarse, _) = results
    return terms.ravel(), sizes.ravel(), np.abs(terms.sum(axis=1) - coarse.sum(axis=1))


# ---------------------------------------------------------------------------
# total variation computations

def tv_discrete(params: ExperimentParams, law_a: str, law_b: str) -> TVResult:
    """Exact TV between the two discrete laws, ``1/2 sum q |expm1(r)|`` over
    the count vectors, from the multinomial pmf q and the log-ratio r (-inf
    off the hypergeometric support) of :func:`pmf.leaf_log_pmfs`.  Two copies
    of one law have r = 0: their TV is exactly 0, their lattice built for the bar."""
    a = _canonical_law(law_a)
    b = _canonical_law(law_b)
    if a == b:
        return TVResult(0.0, METHOD_EXACT, _discrete_error(_support_points(params, (a,))))
    log_q, r = leaf_log_pmfs(params, count_vector_levels(params.sample_size, params.dim))
    terms = np.abs(np.expm1(r, out=r), out=r)  # in place, as in the fold
    terms *= np.exp(log_q, out=log_q)
    return TVResult(0.5 * exact_sum(terms), METHOD_EXACT, _discrete_error(log_q))


def _discrete_error(points: np.ndarray) -> float:
    """Bar of an exact TV over ``points``: each term carries at most a few ulps."""
    return 1e-15 * len(points) + 1e-15


def tv_jittered_vs_gaussian(
    params: ExperimentParams,
    discrete_law: str,
    law: GaussianLaw,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> TVResult:
    """TV between a jittered discrete law and a Gaussian, cube by cube.

    value = 1/2 [ sum_k int_cube(k) |pmf(k) - density| + (1 - sum_k int_cube(k) density) ];
    the complement term accounts for Gaussian mass outside the support cubes,
    keeping the result exact up to quadrature error.  In d <= 2 the last
    axis is integrated in closed form (:func:`_closed_form_tv`): d=1 needs
    no rule at all, and d=2 takes 3 ``quad_order`` outer nodes per piece,
    its bar the gap to 2 ``quad_order`` plus the rounding.  In d=3 cubes
    where the density crosses the cube's constant are bisected before
    integration (:func:`integrate_cells`), and the bar is the gap between
    the two orders of :func:`_quad_orders`.
    """
    if quad_order < 2:
        raise ValidationError("quad_order must be at least 2")
    if params.dim > MAX_QUAD_DIM:
        raise ValidationError(
            f"quadrature supports dimension <= {MAX_QUAD_DIM}; "
            "use the Monte Carlo path instead"
        )
    if law.dim != params.dim:
        raise ValidationError("Gaussian dimension does not match the experiment")
    points = _support_points(params, (discrete_law,))
    logp = _log_pmf_matrix(params, _canonical_law(discrete_law), points)
    if params.dim <= 2:
        value, error = _closed_form_tv(law, logp, points.astype(float), quad_order)
        return TVResult(value=value, method=METHOD_QUAD, error_estimate=error)
    orders = _quad_orders(quad_order)
    parts = integrate_cells(law, np.exp(logp), logp, points.astype(float), orders)
    value, gap = _tv_and_gap([(parts.abs_total[o], parts.mass_total[o]) for o in orders])
    error = parts.leaf_error + 1e-12 + 1e-16 * len(points) + gap
    return TVResult(value=min(max(value, 0.0), 1.0), method=METHOD_QUAD, error_estimate=error)


def _quad_orders(quad_order: int) -> tuple[int, int]:
    """The rule orders of a quadrature TV: ``quad_order``, then a strictly lower
    one for its bar, max(2, quad_order // 2), or the 1-point rule at order 2."""
    return quad_order, (max(2, quad_order // 2) if quad_order > 2 else 1)


def _tv_and_gap(totals: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """TV at the first order of :func:`_quad_orders` and its gap to the last.

    ``totals`` holds, per order, the correctly rounded sums over the cells
    of |pmf - density| and of the Gaussian mass; the TV is
    1/2 [sum |.| + max(0, 1 - sum mass)], the complement counting the mass
    outside the cells.
    """
    values = [0.5 * (gaps + max(0.0, 1.0 - masses)) for gaps, masses in totals]
    return values[0], abs(values[0] - values[-1])


def tv_monte_carlo(
    params: ExperimentParams,
    discrete_law: str,
    density,
    sample_count: int,
    seed: int | np.random.SeedSequence = 0,
) -> TVResult:
    """Monte Carlo estimate of TV(jittered discrete law, density).

    Uses TV = E_X[(1 - density(X)/jittered(X))^+] with X drawn from the
    jittered law; reports the sample mean and its standard error (a
    one-sigma band).  ``density`` is any object with a log_density method.
    """
    if sample_count < MIN_MC_SAMPLES:
        raise ValidationError(f"sample_count must be at least {MIN_MC_SAMPLES}")
    which = _canonical_law(discrete_law)
    n_chunks = (sample_count + _MC_CHUNK - 1) // _MC_CHUNK
    children = split_seed(seed, n_chunks)
    done = 0
    chunk_sums = []
    chunk_sq_sums = []
    for child in children:
        m = min(_MC_CHUNK, sample_count - done)
        done += m
        gen = make_generator(child)
        if which == HYPERGEOMETRIC:
            draws = sample_hypergeometric(params, gen, size=m)
        else:
            draws = sample_multinomial(params.sample_size, params.weights, gen, size=m)
        logp = _log_pmf_matrix(params, which, draws)
        logd = density.log_density(apply_jitter(draws, gen))
        term = 1.0 - np.exp(logd - logp)
        np.clip(term, 0.0, None, out=term)
        chunk_sums.append(float(np.sum(term)))
        chunk_sq_sums.append(float(np.dot(term, term)))
    total = math.fsum(chunk_sums)
    total_sq = math.fsum(chunk_sq_sums)
    mean = total / sample_count
    var = max(0.0, (total_sq - sample_count * mean * mean) / (sample_count - 1))
    stderr = math.sqrt(var / sample_count)
    return TVResult(value=mean, method=METHOD_MC, error_estimate=stderr)


def tv_pair(
    params: ExperimentParams,
    pair: str,
    method: str = "auto",
    quad_order: int = DEFAULT_QUAD_ORDER,
    sample_count: int = DEFAULT_MC_SAMPLES,
    seed: int | np.random.SeedSequence = 0,
) -> TVResult:
    """TV between the two laws named by ``pair`` (one of ``TV_PAIRS``).

    ``method`` is "auto", "exact", "quad" or "mc".  Every pair without a
    Gaussian is summed exactly ("auto" or "exact", :func:`tv_discrete`):
    the unit cubes around lattice points are disjoint, so jittering both
    laws leaves their TV unchanged.  The jittered discrete pair can also be
    estimated by Monte Carlo against :class:`JitteredLaw` ("mc").  A
    jittered law and its Gaussian are integrated cube by cube ("auto" or
    "quad") or estimated by Monte Carlo ("mc").  Any other combination
    raises :class:`ValidationError`.
    """
    if pair not in TV_PAIRS:
        raise ValidationError(f"unknown pair {pair!r}; expected one of {TV_PAIRS}")
    first, second = pair.split("-")
    which, other = first.removeprefix("jitter"), second.removeprefix("jitter")
    if other == "gauss":
        methods = ("auto", "quad", "mc")
    else:
        methods = ("auto", "exact", "mc") if which != first else ("auto", "exact")
    if method not in methods:
        raise ValidationError(
            f"method {method!r} not available for pair {pair}; use one of {', '.join(methods)}"
        )
    if other != "gauss" and method != "mc":
        return tv_discrete(params, which, other)
    target = build_gaussian(params) if other == "gauss" else JitteredLaw(params, other)
    if method == "mc":
        return tv_monte_carlo(params, which, target, sample_count, seed)
    return tv_jittered_vs_gaussian(params, which, target, quad_order)


def hellinger_discrete(params: ExperimentParams) -> HellingerResult:
    """Squared Hellinger distance between the two discrete laws.

    Also returns 2 * sqrt(H^2), a conservative upper bound on their TV
    distance (TV <= sqrt(H^2 (2 - H^2)) <= 2 H).
    """
    log_q, r = leaf_log_pmfs(params, count_vector_levels(params.sample_size, params.dim))
    r *= 0.5
    terms = np.square(np.expm1(r, out=r), out=r)  # in place, as in the fold
    terms *= np.exp(log_q, out=log_q)
    h_squared = 0.5 * exact_sum(terms)
    return HellingerResult(h_squared=h_squared, tv_bound=math.sqrt(4.0 * h_squared))


def _tail_summand(params: ExperimentParams, coord: int) -> tuple[int, float]:
    N = params.population
    n = params.sample_size
    c = params.counts[coord]
    nu = (N - 1) // c  # integer form of ceil(1/p - 1)
    exp1 = float(Fraction(n * nu * c, N))
    exp2 = float(Fraction(n * (N - nu * c), N))
    log_term = -exp1 * math.log(nu) + exp2 * math.log((N - c) / (N - nu * c))
    return nu, math.exp(log_term)


def _require_regime(params: ExperimentParams) -> None:
    """Raise :class:`RegimeError` unless the sample is at most 3/4 of the population.

    The TV bound pieces and the deficiency bounds hold only in this regime.
    """
    n = params.sample_size
    N = params.population
    if 4 * n > 3 * N:
        raise RegimeError(
            f"sample_size {n} exceeds three quarters of population {N}"
        )


def _gaussian_term_scale(params: ExperimentParams) -> float:
    """The reference scale d / sqrt(n) * sqrt(max p / min p) of the Gaussian term."""
    return params.dim / math.sqrt(params.sample_size) * math.sqrt(weight_ratio(params))


def tv_bound_parts(params: ExperimentParams) -> TVBoundParts:
    """Explicit pieces of the jittered-vs-Gaussian TV upper bound.

    Valid in the regime where the sample is at most three quarters of the
    population.
    """
    _require_regime(params)
    N = params.population
    n = params.sample_size
    nus = []
    summands = []
    for i in range(params.dim + 1):
        nu, term = _tail_summand(params, i)
        nus.append(nu)
        summands.append(term)
    return TVBoundParts(
        nu=tuple(nus),
        tail_sum=math.fsum(summands),
        n2_over_N=n * n / N,
        gaussian_term_scale=_gaussian_term_scale(params),
    )


def tail_probability_check(params: ExperimentParams, coord: int) -> TailCheck:
    """Exact marginal tail P(K_i > nu_i n p_i) next to its displayed bound.

    The marginal of one coordinate is the d=1 sampling law with counts
    (c, N - c), so the tail is a short exact sum of its masses.  ``coord``
    indexes the dim + 1 categories, 0-based.
    """
    if not 0 <= coord <= params.dim:
        raise ValidationError(f"coord must lie in [0, {params.dim}]")
    N = params.population
    n = params.sample_size
    c = params.counts[coord]
    nu, bound = _tail_summand(params, coord)
    threshold = Fraction(nu * n * c, N)
    j_start = int(threshold) + 1  # strict inequality: smallest integer above
    j_end = min(c, n)
    if j_start > j_end:
        return TailCheck(empirical=0.0, bound=bound, nu=nu)
    marginal = validate_params(N, n, (c, N - c))
    logs = hypergeometric_log_pmf_matrix(marginal, np.arange(j_start, j_end + 1)[:, None])
    empirical = exact_sum(np.exp(logs))
    return TailCheck(empirical=empirical, bound=bound, nu=nu)
