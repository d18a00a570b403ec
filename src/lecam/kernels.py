"""Markov kernels connecting the lattice and Gaussian experiments.

Two kernels carry observations back and forth: jittering (add uniform noise
on the centered unit cube) turns a lattice draw into a continuous one, and
rounding inverts it.  Because rounding a jittered point always recovers the
original point, a data-processing argument turns a one-sided total-variation
bound into a bound on both deficiencies at once; ``data_processing_check``
validates that chain numerically.  The TVs themselves come from
``distances.tv_pair`` (the ``*-gauss`` pairs) and, for the check, from one
pass of the cube quadrature, which gives each support cell's Gaussian mass
beside the jittered law's TV and so the rounded Gaussian's TV with it.
``lecam_scan`` hands a whole chunk of its family to one routine: each
point's Gaussian, built once, with its laws, and their TVs from
``distances._jittered_tvs``, ``tv_pair``'s route too: one pass of the cell
integrator over every cell of the chunk, or one Monte Carlo run per law at
its point's seed.  Its slopes follow the one fit rule,
``numerics._fit_refusal``, through ``numerics._rate_fit``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distances import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_QUAD_ORDER,
    MAX_QUAD_DIM,
    _GAUSSIAN_METHODS,
    TVResult,
    _cube_quadrature,
    _gaussian_term_scale,
    _in_regime,
    _jittered_tvs,
    _require_regime,
    build_gaussian,
    tv_pair,
)
from .errors import ValidationError
from .lattice import ExperimentParams
# apply_jitter is the jitter kernel; it lives in numerics and is re-exported here
from .numerics import SlopeFit, _rate_fit, apply_jitter, round_half_away
from .records import ScanRecord

# Method of the deficiency rows of a Le Cam scan point outside the regime.
METHOD_FLAGGED = "flagged:outside-regime"
# The deficiency bounds of a Le Cam scan point, a record each, in order.
_BOUNDS = ("delta_P_to_Q", "delta_Q_to_P", "le_cam_upper")


@dataclass(frozen=True)
class DeficiencyReport:
    """Upper bounds on both one-sided deficiencies and their maximum.

    ``budget`` is the reference scale d/sqrt(n) * sqrt(max p / min p) that
    the bounds are expected to track; it is reported, never asserted.
    """

    delta_P_to_Q: float
    delta_Q_to_P: float
    le_cam_upper: float
    budget: float
    error_estimate: float
    method: str


class DataProcessingResult(NamedTuple):
    """TV before and after rounding the Gaussian onto the lattice."""

    tv_before: float
    tv_after: float
    slack: float
    error_before: float
    error_after: float

    @property
    def combined_error(self) -> float:
        return self.error_before + self.error_after


def apply_round(z):
    """Componentwise nearest integer, halves away from zero.

    The result is a lattice-point candidate: it may fall outside the support,
    in which case downstream laws simply assign it probability zero.
    """
    rounded = round_half_away(z)
    if isinstance(z, tuple):
        return tuple(int(v) for v in rounded)
    return rounded


def deficiency_upper_bounds(
    params: ExperimentParams,
    tv_method: str = "quad",
    quad_order: int = DEFAULT_QUAD_ORDER,
    sample_count: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> DeficiencyReport:
    """Upper bounds on both deficiencies between the two experiments.

    The jitter kernel carries the lattice experiment into the Gaussian one,
    so TV(jittered law, Gaussian) bounds that deficiency; rounding the
    Gaussian back can only shrink TV, so the same number bounds the reverse
    deficiency as well.  Both fields therefore carry the same value, and
    ``data_processing_check`` verifies the shrinking step numerically.
    ``tv_method`` is a :func:`tv_pair` method name.
    """
    _require_regime(params)
    tv = tv_pair(params, "jitterhyper-gauss", tv_method, quad_order, sample_count, seed)
    return _deficiency_report(params, tv)


def _deficiency_report(params: ExperimentParams, tv: TVResult) -> DeficiencyReport:
    """The report of :func:`deficiency_upper_bounds` from TV(jittered
    hypergeometric law, Gaussian)."""
    delta_forward = tv.value
    delta_backward = tv.value
    return DeficiencyReport(
        delta_P_to_Q=delta_forward,
        delta_Q_to_P=delta_backward,
        le_cam_upper=max(delta_forward, delta_backward),
        budget=_gaussian_term_scale(params),
        error_estimate=tv.error_estimate,
        method=tv.method,
    )


@dataclass(frozen=True)
class LecamScan:
    """Le Cam scan records plus the log-log slope in n of each fitted quantity.

    ``fits`` maps ``le_cam_upper`` and ``tv_jittered_multinomial_gauss`` to
    their fits, or to None when fewer than four points are positive and in
    the regime, or when they all share one sample size.
    """

    records: tuple[ScanRecord, ...]
    fits: dict[str, SlopeFit | None]


def lecam_scan(
    family: Sequence[ExperimentParams],
    tv_method: str = "quad",
    quad_order: int = DEFAULT_QUAD_ORDER,
    sample_count: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    jobs: int = 1,
) -> LecamScan:
    """Deficiency bounds and the with-replacement TV along a family.

    Each point gives five records: ``delta_P_to_Q``, ``delta_Q_to_P``,
    ``le_cam_upper`` and ``budget`` from :func:`deficiency_upper_bounds`, and
    ``tv_jittered_multinomial_gauss``.  Points outside the regime of the
    bound get NaN deficiency rows with method ``METHOD_FLAGGED`` instead of
    an error.  Each chunk of points (see :func:`_map_ordered`) builds each
    point's Gaussian once and takes the TVs of its laws, or a flagged
    point's multinomial one, from one pass of the cell integrator ("quad"
    or "auto") or from one Monte Carlo run per law ("mc"), with the bits of
    :func:`deficiency_upper_bounds` and :func:`tv_pair` point by point.
    Point i uses seed + i, so results are identical at any ``jobs``.
    ``tv_method`` is checked here, before any worker starts.
    """
    if tv_method not in _GAUSSIAN_METHODS:
        raise ValidationError(f"tv_method {tv_method!r} not available; "
                              f"use one of {', '.join(_GAUSSIAN_METHODS)}")
    points = [(params, seed + i) for i, params in enumerate(family)]
    chunk = functools.partial(
        _lecam_points, method=tv_method, quad_order=quad_order, sample_count=sample_count)
    records = tuple(r for bundle in _map_ordered(chunk, points, jobs) for r in bundle)
    # flagged rows carry NaN, which fails the positivity test
    fits = {quantity: _rate_fit([(r.sample_size, r.value) for r in records
                                 if r.quantity == quantity and r.value > 0])
            for quantity in ("le_cam_upper", "tv_jittered_multinomial_gauss")}
    return LecamScan(records=records, fits=fits)


def _map_ordered(fn, items, jobs: int):
    """``fn`` over ``items`` in chunks, over at most ``jobs`` worker processes.

    ``fn`` maps a list of items to the list of their results.  The items are
    dealt round-robin into ``min(jobs, len(items))`` chunks, a worker each,
    so growing families spread their costly tail; with one job there is one
    chunk and no pool.  Results keep the order of ``items``, so scans are
    identical at any ``jobs``.
    """
    if not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise ValidationError("jobs must be at least 1")
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return fn(list(items))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunks = list(pool.map(fn, [items[j::jobs] for j in range(jobs)]))
    out = [None] * len(items)
    for j, chunk in enumerate(chunks):
        out[j::jobs] = chunk
    return out


def _lecam_points(
    points, method: str, quad_order: int, sample_count: int
) -> list[list[ScanRecord]]:
    """The five records of each (params, seed) scan point of a chunk.

    Each point builds its Gaussian once and lists its laws, the
    hypergeometric one where the point is in the regime, then the
    multinomial one.  Their TVs come from :func:`distances._jittered_tvs`,
    :func:`tv_pair`'s route: one cube quadrature pass over the chunk, or
    one Monte Carlo run per law at its point's seed.
    Top-level so process pools can pickle it."""
    items = []
    for params, seed in points:
        gaussian = build_gaussian(params)
        laws = ("hypergeometric", "multinomial") if _in_regime(params) else ("multinomial",)
        items += [(params, which, gaussian, seed) for which in laws]
    tvs = iter(_jittered_tvs(items, method, quad_order, sample_count))
    records = []
    for params, _ in points:
        if _in_regime(params):
            report = _deficiency_report(params, next(tvs))
            rows = [(name, getattr(report, name), report.error_estimate, report.method)
                    for name in _BOUNDS] + [("budget", report.budget, 0.0, "closed-form")]
        else:
            rows = [(name, float("nan"), float("nan"), METHOD_FLAGGED)
                    for name in (*_BOUNDS, "budget")]
        tv = next(tvs)
        rows.append(("tv_jittered_multinomial_gauss", tv.value, tv.error_estimate, tv.method))
        records.append([ScanRecord.at(params, *row) for row in rows])
    return records


def data_processing_check(
    params: ExperimentParams,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> DataProcessingResult:
    """Check that rounding the Gaussian onto the lattice shrinks the TV.

    tv_before compares the jittered lattice law with the Gaussian; tv_after
    compares the lattice law with the rounded Gaussian, whose mass function
    is the Gaussian measure m_k of each unit cube.  Data processing guarantees
    tv_after <= tv_before; slack is the measured difference.

    Off the support the pmf p is 0, so a cube there adds just m_k, and the
    cubes tile R^d, so those masses add up to 1 - sum_supp m_k:
    tv_after = 1/2 [sum_supp |p_k - m_k| + (1 - sum_supp m_k)], summed over
    the support cells alone.  Both TVs come from one pass of the cell
    integrator, which yields each cell's m_k beside its |p_k - density|.
    """
    if params.dim > MAX_QUAD_DIM:
        raise ValidationError(f"the data-processing check supports dimension <= {MAX_QUAD_DIM}")
    [(before, after)] = _cube_quadrature(
        [(params, "hypergeometric", build_gaussian(params))], quad_order)
    return DataProcessingResult(
        tv_before=before.value,
        tv_after=after.value,
        slack=before.value - after.value,
        error_before=before.error_estimate,
        error_after=after.error_estimate,
    )
