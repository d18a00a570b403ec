"""Total variation and Hellinger computations between the sampling laws
and their Gaussian limits.

Three kinds of laws appear: the two discrete sampling laws, their jittered
versions (lattice draw plus uniform noise on the centered unit cube, giving
a density that is constant on unit cubes), and Gaussian laws with matching
moments.  Discrete pairs are summed exactly, and so are jittered discrete
pairs: the unit cubes around lattice points are disjoint, so jittering both
laws leaves their TV unchanged.  Jittered-versus-Gaussian pairs are
integrated cube by cube by one recursive integrator (``_cell_integrals``):
the last axis in closed form, as sums of normal tails that one numpy
kernel computes a block of cells at a time (``_erfc``, called by
``_slice_integrals``), which is the whole cell in d=1, and every axis above
it by a Gauss-Legendre rule over pieces of the cell cut where the integrand
|pmf - density| has kinks.  The same pass gives each cell's
Gaussian mass, so the TV to the Gaussian rounded onto the lattice comes
with it.  One pass takes the cells of many pairs at once
(``_cube_quadrature``, which a scan hands a whole family): the cells go
grouped by pair, each group with its own Gaussian's constants, and each
pair's sums are taken over its own cells, so a pair's TV has the same bits
alone or in a family.  A Monte Carlo estimator covers everything beyond
dimension three.  Where the sampled law's support fits a chunk of draws it
tables its cells and their log-pmf once, from ``_support_log_pmfs``, the
quadrature's producer too, with one cdf; each draw is one uniform and one
search, an index into the table; elsewhere it runs the samplers.  A
jittered lattice target's log-pmf is read on the same table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._erfc_table import ERFC_TABLE
from .errors import RegimeError, ValidationError
from .lattice import (
    ExperimentParams,
    _capped_support_size,
    _check_cap,
    _level_points,
    count_vector_levels,
    count_vector_matrix,
    count_vector_size,
    support_cap,
    support_matrix,
    validate_params,
    weight_ratio,
)
from .numerics import (
    _exact_sum_of_blocks,
    apply_jitter,
    exact_sum,
    make_generator,
    round_half_away,
    split_seed,
)
from .pmf import (
    _family_log_pmfs,
    _full_count_matrix,
    _first_at_least,
    _multinomial_log_pmf_rows,
    hypergeometric_log_pmf_matrix,
    leaf_log_pmfs,
    multinomial_moments,
    sample_hypergeometric,
    sample_multinomial,
    scheffe_levels,
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
# leggauss(3 q) builds a (3 q) x (3 q) companion matrix; callers use q <= 16.
MAX_QUAD_ORDER = 64
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

    The constructor checks the moments, finite, symmetric and positive
    definite, and derives the lower Cholesky factor L from the covariance,
    so the two cannot disagree.  ``whitening`` is the inverse of L, so the
    Mahalanobis form of x is |whitening (x - mean)|^2, and ``log_norm`` is
    the log normalising constant -d/2 log(2 pi) - log det L.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky_factor: np.ndarray = field(init=False)
    whitening: np.ndarray = field(init=False, repr=False)
    log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        covariance = np.asarray(self.covariance, dtype=float)
        if (mean.ndim != 1 or covariance.shape != (mean.size, mean.size)
                or not (np.isfinite(mean).all() and np.isfinite(covariance).all())):
            raise ValidationError("mean must be a finite d-vector and covariance finite d x d")
        # np.allclose(covariance, covariance.T, rtol=0, atol=1e-12), in a
        # tenth of its time: the entries are finite
        if np.abs(covariance - covariance.T).max() > 1e-12:
            raise ValidationError("covariance must be symmetric")
        try:
            factor = np.linalg.cholesky(covariance)
        except np.linalg.LinAlgError:
            raise ValidationError("covariance must be positive definite") from None
        log_det_half = float(np.sum(np.log(np.diag(factor))))
        derived = {
            "mean": mean,
            "covariance": covariance,
            "cholesky_factor": factor,
            "whitening": np.tril(np.linalg.inv(factor)),
            "log_norm": -0.5 * mean.size * math.log(2.0 * math.pi) - log_det_half,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

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
    return GaussianLaw(moments.mean, moments.covariance)


class JitteredLaw:
    """Density of a lattice law after adding uniform noise on the unit cube.

    The density at x equals the pmf at the nearest lattice point, so it is
    piecewise constant; points outside every support cube (rounding to a
    negative count, past n or past a category's count) have density zero.
    :func:`tv_monte_carlo` reads the same row kernel at the lattice points
    directly.
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
        out = _law_log_pmf(self.params, self.which, round_half_away(pts))
        return float(out[0]) if single else out


def _law_log_pmf(params: ExperimentParams, which: str, points: np.ndarray) -> np.ndarray:
    """The row kernel of the canonical law ``which`` at each row of ``points``."""
    return _family_log_pmfs([params], [points], [which == HYPERGEOMETRIC])


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
# the cell integrator: closed form along the last axis, a rule above it

# One row of coefficients per degree, for Horner's rule to gather by piece.
_ERFC_COEFFS = np.array([row.split() for row in ERFC_TABLE.strip().splitlines()], float).T.copy()
_ERFC_PIECES = float(_ERFC_COEFFS.shape[1])
# erfc(28) < 2**-1080 rounds to 0: clipping there sends inf to 0, not NaN.
_ERFC_CLIP = 28.0
# Clearing a double's low 27 bits leaves 26 significant bits, so z * z is exact.
_HIGH_BITS = np.int64(-(1 << 27))


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc elementwise over an array of x >= 0 (no NaN), in whole-array
    passes: within 6 ulps where the result is a normal float, within
    2 units of 2**-1074 below, and 0 from x = 27.226 on, where erfc itself
    rounds to 0 (``tests/test_distances.py`` checks this against mpmath).

    erfc(x) = g(x) / (1 + 2x) * exp(-x^2), with g = (1 + 2x) erfcx between
    1 and 1.3 read from ``_erfc_table`` (fitted by
    ``scripts/fit_erfc_table.py``): 64 equal pieces of y = (x - 4) / (x + 4)
    over [-1, 1), each a polynomial of degree 7 in v = u - k on piece
    k <= u < k + 1 of u = 32 (y + 1) = 64 x / (x + 4), evaluated by
    Horner's rule on coefficients gathered by piece.  exp(-x^2) is
    exp(-z^2) exp((z - x)(z + x)) with z = x less its low 27 bits (the
    fdlibm split): z^2 is exact and the second exponent is below 5e-5.
    The input is not written to.
    """
    x = np.minimum(x, _ERFC_CLIP)
    buf = x + 4.0
    u = x * _ERFC_PIECES
    u /= buf
    piece = u.astype(np.intp)
    v = np.subtract(u, piece, out=u)
    # "clip" skips take's bounds check, which copies ``out``; u <= 56 here
    g = _ERFC_COEFFS[0].take(piece, mode="clip")
    for coeffs in _ERFC_COEFFS[1:]:
        g *= v
        g += coeffs.take(piece, out=buf, mode="clip")
    np.multiply(x, 2.0, out=buf)
    buf += 1.0
    g /= buf
    z = np.bitwise_and(x.view(np.int64), _HIGH_BITS, out=v.view(np.int64)).view(float)
    np.subtract(z, x, out=buf)
    x += z
    buf *= x
    g *= np.exp(buf, out=buf)
    z *= z
    g *= np.exp(np.negative(z, out=z), out=z)
    return g


_EPS = float(np.finfo(float).eps)
# Rounding charged per unit of a closed-form term's magnitude: 16 ulps, of
# which 6 are the tails' own (the bound ``_erfc`` is tested to) and the rest
# the few roundings that combine them.
_ROUNDING = 16.0 * _EPS


@lru_cache(maxsize=None)
def _endpoint_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1] after the endpoint transform x = psi(u).

    psi(u) = u^3 (10 - 15 u + 6 u^2) has psi' = 30 u^2 (1 - u)^2, so it
    flattens the integrand at both ends of a piece: the square-root kinks
    where a level ellipsoid is tangent to a cut become smooth enough for
    Gauss-Legendre to converge fast.  Returns the nodes psi(u_j) and the
    weights psi'(u_j) w_j.
    """
    u, w = np.polynomial.legendre.leggauss(count)
    u = (u + 1.0) / 2.0
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u), 15.0 * (u * (1.0 - u)) ** 2 * w


def _slice_integrals(c, log_c, a, b, mean, sd, log_scale, log_sd):
    """Integrals over y in [a, b] of |c - f(y)| - f(y) and of f(y), in closed form.

    f = exp(log_scale) times the N(mean, sd^2) density, and ``log_sd`` is
    ln(sd sqrt(2 pi)), which the caller takes per law by ``math.log``.  It exceeds c
    exactly on |y - mean| < sd rho, with rho^2 = 2 (ln peak(f) - ln c), so
    with lo, hi that interval clipped to [a, b] the first integral is
    c [(lo - a) + (b - hi) - (hi - lo)] - 2 [f-mass(a, lo) + f-mass(hi, b)].
    Each normal mass is a difference of tails Phi(-|z|) taken on the side
    away from the mean, so no tail cancels: [a, lo] lies below the mean and
    [hi, b] above it (or is empty), so each side is one difference, and only
    the cell's own mass can span the mean.  One :func:`_erfc` call gives
    the tails at all four edges of every slice.  The caller measures y from
    a point near the mass (the Gaussian's mean), so that rounding y - mean
    costs little.  Works elementwise on (m,) arrays, sd and ``log_sd`` too.

    Returns both integrals and magnitudes that bound their rounding, in ulps
    up to a small factor: c (|a| + |b|) for the lengths, and for the masses
    each tail t at z weighted by (1 + z^2) (its sensitivity to a relative
    error in z) times 1 + |mean| / sd (that of mean's own rounding).
    """
    scale = np.exp(log_scale)
    log_peak = log_scale - log_sd
    reach = sd * np.sqrt(np.maximum(2.0 * (log_peak - log_c), 0.0))
    lo = np.clip(mean - reach, a, b)
    hi = np.clip(mean + reach, a, b)
    z = (np.stack((a, lo, hi, b)) - mean) / sd
    tail = 0.5 * _erfc(np.abs(z) * math.sqrt(0.5))
    sides = (tail[1] - tail[0]) + (tail[2] - tail[3])
    value = c * ((lo - a) + (b - hi) - (hi - lo)) - 2.0 * scale * sides
    spread = (tail * (1.0 + z * z)).sum(axis=0) * (1.0 + np.abs(mean) / sd)
    size = c * (np.abs(a) + np.abs(b)) + 2.0 * scale * spread
    mass = np.where(z[0] >= 0.0, tail[0] - tail[3],
                    np.where(z[3] > 0.0, 1.0 - tail[0] - tail[3], tail[3] - tail[0]))
    return value, scale * mass, size


@lru_cache(maxsize=256)
def _law_constants(factor: tuple[tuple[float, ...], ...]) -> tuple[float, float, list[tuple]]:
    """A law's constants in the cell integrator, from its factor L as nested
    tuples, so each is computed once: ln(l11 sqrt(2 pi)), the log
    normalising constant of N(0, L L') and, above d=1, :func:`_sections`."""
    cholesky = np.array(factor)
    dim = len(cholesky)
    log_sd = math.log(cholesky[0, 0] * math.sqrt(2.0 * math.pi))
    log_norm = -0.5 * dim * math.log(2.0 * math.pi) - float(np.sum(np.log(np.diag(cholesky))))
    return log_sd, log_norm, _sections(cholesky) if dim > 1 else []


def _sections(cholesky: np.ndarray) -> list[tuple]:
    """Where the sections of the level ellipsoid by a cell's faces reach in x1.

    With x = mean + L w the ellipsoid {f = c} is the sphere |w|^2 = q0.  Hold
    a set S of the inner axes at cell edges, x_S - mean_S = b: the section's
    w1 spans a1'G b +- s sqrt(q0 - b'G b), with A = L[S], G = (A A')^-1,
    a1 = L[S, 0] and s = sqrt(1 - a1'G a1).  Returns, per S and per choice of
    lower (-1/2) or upper (+1/2) edge on each axis of S, the axes, the edge
    offsets from the cell's center, G a1, G and s; S empty gives the
    sphere's own ends, w1 = +-sqrt(q0).
    """
    sections = []
    for size in range(len(cholesky)):
        for axes in itertools.combinations(range(1, len(cholesky)), size):
            rows = cholesky[list(axes)]
            gram = np.linalg.inv(np.einsum("ik,jk->ij", rows, rows))
            tilt = np.einsum("ij,j->i", gram, rows[:, 0])
            spread = math.sqrt(max(1.0 - float(np.sum(rows[:, 0] * tilt)), 0.0))
            for edges in itertools.product((-0.5, 0.5), repeat=size):
                sections.append((list(axes), np.array(edges), tilt, gram, spread))
    return sections


def _cell_integrals(cholesky, bounds, consts, log_consts, centers, mean, log_scale, quad_order):
    """Per unit cell, the integrals of |c - f| - f and of f, their rounding
    magnitudes and their quadrature gaps, a (5, m) array in that order.

    ``cholesky`` stacks one lower factor L per law, and the cells of law j
    are ``bounds[j]:bounds[j + 1]``; f is exp(log_scale) times the
    N(mean, L L') density.  ``centers`` and ``mean`` (m, d) are measured
    from one point near the mass, and ``consts`` holds each cell's c,
    ``log_consts`` its logarithm.  Each law's constants are its own, as with
    that law alone:
    its factor's entries, its ``math.log`` normalisers and its
    :func:`_sections`.  The last axis is in closed form
    (:func:`_slice_integrals`), its gaps 0.  Above it, with x1 = mean1 +
    l11 w1, f is the x1 marginal times the normal of the other axes given
    x1, whose factor is L[1:, 1:] and whose mean moves by L[1:, 0] w1, so
    the x1 integral is a rule over this function one dimension down.  As a
    function of x1 that integrand has kinks where the sections of {f = c}
    by the cell's faces end.  Cut there, each piece takes 3 ``quad_order``
    nodes of :func:`_endpoint_rule`, and its gap adds the difference to
    2 ``quad_order`` nodes to the gaps one dimension down.  Cells go in
    blocks of at most ``_CELL_BLOCK`` evaluations one dimension down, and
    no cell's result depends on the others.
    """
    dim = cholesky.shape[1]
    # a cell has at most 2 3^(d-1) + 1 pieces, of 3 quad_order nodes each
    block = max(1, _CELL_BLOCK // (1 if dim == 1 else (2 * 3 ** (dim - 1) + 1) * 3 * quad_order))
    if len(consts) > block:
        return np.concatenate([
            _cell_integrals(cholesky, np.clip(bounds, s, s + block) - s, consts[s : s + block],
                            log_consts[s : s + block], centers[s : s + block],
                            mean[s : s + block], log_scale[s : s + block], quad_order)
            for s in range(0, len(consts), block)
        ], axis=1)
    l11 = cholesky[:, 0, 0]
    log_sd, log_norm, sections = zip(*[_law_constants(tuple(map(tuple, f))) for f in cholesky])
    if dim == 1:
        value, mass, size = _slice_integrals(
            consts, log_consts, centers[:, 0] - 0.5, centers[:, 0] + 0.5,
            mean[:, 0], _per_cell(l11, bounds), log_scale, _per_cell(log_sd, bounds),
        )
        return np.stack([value, mass, size, np.zeros_like(value), np.zeros_like(value)])
    q0 = 2.0 * (log_scale + _per_cell(log_norm, bounds) - log_consts)
    offset = centers - mean
    lo, hi = offset[:, 0] - 0.5, offset[:, 0] + 0.5
    ends = []  # per law, its cells' cuts at the two ends of each section
    with np.errstate(invalid="ignore"):  # a missed section cuts at NaN: fmax sends it to lo
        for j, cells in _law_slices(bounds):
            ends.append([])
            for axes, edges, tilt, gram, spread in sections[j]:
                b = offset[cells, axes] + edges
                mid = np.einsum("ij,j->i", b, tilt)
                rad = spread * np.sqrt(q0[cells] - np.einsum("ij,jk,ik->i", b, gram, b))
                ends[-1] += [l11[j] * (mid - rad), l11[j] * (mid + rad)]
    cuts = [lo, hi, *(ends[0] if len(ends) == 1 else map(np.concatenate, zip(*ends)))]
    cuts = np.fmin(np.fmax(np.column_stack(cuts), lo[:, None]), hi[:, None])
    cuts.sort(axis=1)
    left, right = cuts[:, :-1], cuts[:, 1:]
    keep = right > left
    owner = np.nonzero(keep)[0]
    left, width = left[keep][:, None], (right - left)[keep][:, None]
    piece_bounds = owner.searchsorted(bounds)  # the pieces of each law's cells
    # the scaled x1 marginal's log-density at w1 is this less w1^2 / 2
    log_marginal = log_scale[owner] - _per_cell(log_sd, piece_bounds)
    l11 = _per_cell(cholesky[:, :1, 0], piece_bounds)
    tilt = _per_cell(cholesky[:, None, 1:, 0], piece_bounds)
    results = []
    for count in (3 * quad_order, 2 * quad_order):
        nodes, weights = _endpoint_rule(count)
        w1 = (left + width * nodes) / l11
        rows = np.repeat(owner, count)
        # take, not fancy indexing: a third of the time on the (m, d) rows
        inner = _cell_integrals(
            cholesky[:, 1:, 1:], piece_bounds * count, consts.take(rows), log_consts.take(rows),
            centers[:, 1:].take(rows, axis=0),
            mean[:, 1:].take(rows, axis=0) + (w1[..., None] * tilt).reshape(-1, dim - 1),
            (log_marginal[:, None] - 0.5 * w1 * w1).ravel(), quad_order,
        ).reshape(5, *w1.shape)
        # the marginal's own rounding grows with its exponent
        inner[2] *= 1.0 + w1 * w1
        results.append((inner * (width * weights)).sum(axis=-1))
    pieces, coarse = results
    pieces[3:] += np.abs(pieces[:2] - coarse[:2])
    return np.add.reduceat(pieces, np.flatnonzero(np.diff(owner, prepend=-1)), axis=1)


def _per_cell(values, bounds: np.ndarray):
    """Per-law ``values`` (along the first axis) at each cell, the cells of
    law j being ``bounds[j]:bounds[j + 1]``: the one law's own entry, which
    numpy broadcasts, where there is one law."""
    return values[0] if len(values) == 1 else np.repeat(values, np.diff(bounds), axis=0)


def _law_slices(bounds: np.ndarray) -> list[tuple[int, slice]]:
    """Each law that has cells, with the slice of its cells."""
    bounds = bounds.tolist()
    return [(j, slice(a, b)) for j, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]


def _support_log_pmfs(
    laws: list[tuple[ExperimentParams, str]]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each (params, canonical law)'s cells, its support (the count vectors
    for the multinomial), and the log-pmf at every cell in that order, from
    one :func:`pmf._family_log_pmfs` call over every law: the bits of
    :func:`_law_log_pmf` law by law.  The one producer of a law's cells for
    the quadrature and the tabled Monte Carlo.  Where every count reaches n
    the hypergeometric support is the count vectors, so laws of one n and
    dimension share them (a scan point's two laws)."""
    shared, points = {}, []  # the cells, once enumerated per (n, dim) or law
    for p, which in laws:
        key = p.sample_size, p.dim
        if which == HYPERGEOMETRIC and min(p.counts) < p.sample_size:
            key = p  # a support of its own
        if key not in shared:
            shared[key] = count_vector_matrix(*key) if which == MULTINOMIAL else support_matrix(p)
        points.append(shared[key])
    family, kinds = zip(*laws)
    return points, _family_log_pmfs(family, points, [w == HYPERGEOMETRIC for w in kinds])


def _cube_quadrature(
    items: Sequence[tuple[ExperimentParams, str, GaussianLaw]], quad_order: int
) -> list[tuple[TVResult, TVResult]]:
    """Per item (params, discrete law, :class:`GaussianLaw`), TV(jittered law,
    Gaussian) and TV(lattice law, rounded Gaussian), every item's cells in
    one pass of the cell integrator per dimension.

    Over the support cells k, with p_k the pmf and m_k the Gaussian mass of
    the cell (:func:`_cell_integrals`), the first TV is
    1/2 [1 + sum_k int_cell(k) (|p_k - density| - density)].  The rounded
    Gaussian puts m_k on every cell of the lattice, and off the support p
    is 0 while the cells tile the space, so the second TV is
    1/2 [sum_k |p_k - m_k| + (1 - sum_k m_k)].  Each bar is the quadrature
    gaps plus the rounding; an error in m_k moves the second TV by up to
    that error.  Every sum is exact and taken over the item's own cells,
    so neither the blocks of cells nor the other items can move a bit.
    """
    if not isinstance(quad_order, (int, np.integer)) or not 2 <= quad_order <= MAX_QUAD_ORDER:
        raise ValidationError(f"quad_order must be an integer in [2, {MAX_QUAD_ORDER}]")
    for params, _, law in items:
        if params.dim > MAX_QUAD_DIM:
            raise ValidationError(
                f"quadrature supports dimension <= {MAX_QUAD_DIM}; "
                "use the Monte Carlo path instead"
            )
        if law.dim != params.dim:
            raise ValidationError("Gaussian dimension does not match the experiment")
    which = [_canonical_law(name) for _, name, _ in items]
    out = [None] * len(items)
    for dim in sorted({params.dim for params, _, _ in items}):
        at = [i for i, (params, _, _) in enumerate(items) if params.dim == dim]
        gaussians = [items[i][2] for i in at]
        points, log_consts = _support_log_pmfs([(items[i][0], which[i]) for i in at])
        consts = np.exp(log_consts)
        m = len(consts)
        cells = _cell_integrals(
            np.array([law.cholesky_factor for law in gaussians]),
            np.cumsum([0] + [len(p) for p in points]), consts, log_consts,
            np.concatenate([p - law.mean for p, law in zip(points, gaussians)]),
            np.zeros((m, dim)), np.zeros(m), quad_order)
        stop = 0
        for i, p, law in zip(at, points, gaussians):
            start, stop = stop, stop + len(p)
            total, masses, rounding, gap, mass_gap = map(exact_sum, cells[:, start:stop])
            # The law's moments are stored rounded: its mean moves by up to an ulp,
            # which moves either TV by less than that shift in whitened units.
            stored = _EPS * (dim + float(np.sum(np.abs(law.whitening) * np.abs(law.mean))))
            before = TVResult(min(max(0.5 * (1.0 + total), 0.0), 1.0), METHOD_QUAD,
                              0.5 * (gap + _ROUNDING * rounding) + stored)
            after = TVResult(
                0.5 * (exact_sum(np.abs(consts[start:stop] - cells[1, start:stop]))
                       + max(0.0, 1.0 - masses)),
                METHOD_QUAD, mass_gap + _ROUNDING * (rounding + masses) + stored)
            out[i] = before, after
    return out


# ---------------------------------------------------------------------------
# total variation computations

def tv_discrete(params: ExperimentParams, law_a: str, law_b: str) -> TVResult:
    """Exact TV between the two discrete laws, summed over the Scheffe set
    only: ``TV = sum_{k in A} (P_k - Q_k)`` with ``A = {P > Q}``, whose points
    :func:`pmf.scheffe_levels` enumerates, about the n**(d/2) of the
    ellipsoid ``chi^2 < d`` against the n**d count vectors.  Each term is
    ``P (-expm1(-r))``, its positive part, with ``ln Q`` from the multinomial
    row kernel and, where 2n <= N, ``r`` from the bound's own running sums;
    where 2n > N, ``ln P`` from the hypergeometric one, read at ``c - k``,
    and ``r = ln P - ln Q``.  Two
    copies of one law have r = 0: their TV is exactly 0, its bar from the
    lattice's size, counted, not built, under the same cap as an
    enumeration."""
    a = _canonical_law(law_a)
    b = _canonical_law(law_b)
    if a == b:
        if a == MULTINOMIAL:
            size = count_vector_size(params.sample_size, params.dim)
            _check_cap(size, "count-vector set")
        else:
            size = _capped_support_size(params)
        return TVResult(0.0, METHOD_EXACT, _discrete_error(size))
    size = count_vector_size(params.sample_size, params.dim)
    levels, r = scheffe_levels(params)
    points = _level_points(levels)
    c = np.array(params.counts, dtype=np.int64)
    ks = _full_count_matrix(points, params.dim, params.sample_size)
    log_q = _multinomial_log_pmf_rows(np.log(c / params.population), ks)
    if 2 * params.sample_size > params.population:
        log_p = hypergeometric_log_pmf_matrix(params, points)
        r = log_p - log_q
    else:
        log_p = log_q + r
    terms = np.exp(log_p) * -np.expm1(-r)
    return TVResult(exact_sum(np.maximum(terms, 0.0)), METHOD_EXACT, _discrete_error(size))


def _hellinger_terms(log_q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``q expm1(r / 2)**2`` over a block, in place."""
    r *= 0.5
    np.square(np.expm1(r, out=r), out=r)
    r *= np.exp(log_q, out=log_q)
    return r


def _leaf_sum(params: ExperimentParams, terms) -> float:
    """The exact sum of ``terms`` over the count vectors' blocks of
    :func:`pmf.leaf_log_pmfs`: no leaf-sized array is made."""
    levels = count_vector_levels(params.sample_size, params.dim)
    return _exact_sum_of_blocks(lambda: itertools.starmap(terms, leaf_log_pmfs(params, levels)))


def _discrete_error(size: int) -> float:
    """Bar of an exact TV over ``size`` points: each term carries at most a few ulps."""
    return 1e-15 * size + 1e-15


def tv_jittered_vs_gaussian(
    params: ExperimentParams,
    discrete_law: str,
    law: GaussianLaw,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> TVResult:
    """TV between a jittered discrete law and a Gaussian, cube by cube.

    value = 1/2 [ sum_k int_cube(k) |pmf(k) - density| + (1 - sum_k int_cube(k) density) ];
    the complement term accounts for Gaussian mass outside the support cubes,
    keeping the result exact up to quadrature error.  The last axis is
    integrated in closed form, so d=1 needs no rule at all; every axis above
    it takes 3 ``quad_order`` nodes per piece of each cell, cut at the kinks,
    and the bar is the gap to 2 ``quad_order`` plus the rounding
    (:func:`_cell_integrals`).
    """
    return _cube_quadrature([(params, discrete_law, law)], quad_order)[0][0]


def _clipped_terms(log_ratio: np.ndarray) -> np.ndarray:
    """``(1 - exp(log_ratio))^+``, in place."""
    term = np.exp(log_ratio, out=log_ratio)
    np.subtract(1.0, term, out=term)
    return np.clip(term, 0.0, None, out=term)


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

    Where the sampled law's count vectors number no more than the draws of
    a chunk (``min(sample_count, _MC_CHUNK)``) and fit the cap, its support
    is tabled once per call: the points, their log-pmf from the row kernel
    and one normalised cdf.  Each draw is then one uniform and one search of
    that cdf, an index into the support.  Elsewhere each chunk runs the
    sequential sampler, one uniform and one search per coordinate, and the
    row kernel reads each draw.  At d=1 both routes spend one uniform per
    draw and draw the same points.

    A :class:`JitteredLaw` target, of this experiment or another, needs no
    jitter: its density at a jittered draw is its pmf at the draw, which the
    jitter never leaves the open cube of, and the jitter is each chunk
    generator's last use.  So on the tabled route its terms are one table
    over the support, read at each draw's index, and on the other its
    log-pmf is read at the draws: the same bits as through the jitter.
    Every other density gets the jittered draws.
    """
    if not isinstance(sample_count, (int, np.integer)) or sample_count < MIN_MC_SAMPLES:
        raise ValidationError(f"sample_count must be an integer of at least {MIN_MC_SAMPLES}")
    which = _canonical_law(discrete_law)
    lattice_target = type(density) is JitteredLaw
    n, dim = params.sample_size, params.dim
    tabled = count_vector_size(n, dim) <= min(sample_count, _MC_CHUNK, support_cap())
    if tabled:
        [points], log_pmf = _support_log_pmfs([(params, which)])
        cdf = log_pmf - log_pmf.max()
        np.exp(cdf, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        cdf = cdf[None, :]
        if lattice_target:
            terms = _clipped_terms(_law_log_pmf(density.params, density.which, points) - log_pmf)
        else:
            centers = points.astype(float)  # the jitter reads float draws
    n_chunks = (sample_count + _MC_CHUNK - 1) // _MC_CHUNK
    children = split_seed(seed, n_chunks)
    done = 0
    chunk_sums = []
    chunk_sq_sums = []
    for child in children:
        m = min(_MC_CHUNK, sample_count - done)
        done += m
        gen = make_generator(child)
        if tabled:
            index = _first_at_least(cdf, gen.random(m))
            if lattice_target:
                term = terms.take(index)
            else:
                # the density first, so the gathered log-pmf is not held
                # through the density's temporaries
                density_at = density.log_density(apply_jitter(centers.take(index, axis=0), gen))
                term = _clipped_terms(density_at - log_pmf.take(index))
        else:
            if which == HYPERGEOMETRIC:
                draws = sample_hypergeometric(params, gen, size=m)
            else:
                draws = sample_multinomial(params.sample_size, params.weights, gen, size=m)
            if lattice_target:
                log_ratio = _law_log_pmf(density.params, density.which, draws)
            else:
                log_ratio = density.log_density(apply_jitter(draws, gen))
            term = _clipped_terms(log_ratio - _law_log_pmf(params, which, draws))
        chunk_sums.append(float(np.sum(term)))
        chunk_sq_sums.append(float(np.sum(np.square(term, out=term))))
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
    estimated by Monte Carlo against :class:`JitteredLaw` ("mc"), which
    reads the second law's pmf at the draws with no jitter.  A
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
    h_squared = 0.5 * _leaf_sum(params, _hellinger_terms)
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


def _in_regime(params: ExperimentParams) -> bool:
    """Whether the sample is at most 3/4 of the population, the regime where
    the TV bound pieces and the deficiency bounds hold."""
    return 4 * params.sample_size <= 3 * params.population


def _require_regime(params: ExperimentParams) -> None:
    """Raise :class:`RegimeError` outside :func:`_in_regime`."""
    if not _in_regime(params):
        raise RegimeError(
            f"sample_size {params.sample_size} exceeds three quarters of "
            f"population {params.population}"
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
    if not isinstance(coord, (int, np.integer)) or not 0 <= coord <= params.dim:
        raise ValidationError(f"coord must be an integer in [0, {params.dim}]")
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
