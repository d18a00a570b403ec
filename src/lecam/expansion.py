"""Exact log-ratio of the two sampling laws and its local polynomial expansions.

The log-ratio log(P_without / Q_with) admits a 1/N expansion whose brackets
are exact rationals in (n, k, counts).  The first-order term decays like
1/N with an N^-2 remainder on the truncated set, except at a root of the
second bracket, where that remainder already decays like N^-3; the
second-order term tightens the remainder to N^-3.  ``residual_scan``
measures those decay exponents empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import (
    ExperimentParams,
    LatticePoint,
    _exact_gamma,
    full_counts,
    in_truncated_set,
    point_in_support,
)
from .numerics import SlopeFit, fit_loglog_slope
from .pmf import log_ratio_matrix
from .records import ScanRecord

DEFAULT_TRUNCATION = 0.75
# A residual at most this many ulps of |exact| is rounding, not signal: the
# exact log-ratio itself was within 31 ulps of a 50-digit reference on
# criterion 03's family up to N = 2^24.
RESIDUAL_FLOOR_ULPS = 64


@dataclass(frozen=True)
class ExpansionResult:
    """Exact log-ratio next to its two polynomial approximations."""

    exact: float
    order1: float
    order2: float
    residual1: float
    residual2: float


def log_ratio_exact(params: ExperimentParams, point: Sequence[int]) -> float:
    """log of (without-replacement pmf / with-replacement pmf) at one point.

    One row of :func:`lecam.pmf.log_ratio_matrix`: sums of log(1 - j/c_i)
    and log(1 - j/N) over the draws, so the two nearly equal log-pmfs are
    never formed and no log-factorial enters.
    """
    if not point_in_support(params, point):
        raise ValidationError(
            f"point {tuple(point)} lies outside the support; the ratio is undefined"
        )
    return float(log_ratio_matrix(params.counts, [full_counts(params, point)])[0])


def _bracket(
    params: ExperimentParams, point: Sequence[int], piece, scale: int, power: int
) -> Fraction:
    """(piece(n) - sum_i (1/p_i)^power piece(k_i)) / scale, exactly.

    The sum runs in integers over the common denominator lcm(c_i^power), so
    only the result is a Fraction.
    """
    N = params.population
    den = math.lcm(*(c**power for c in params.counts))
    num = piece(params.sample_size) * den
    for c, k in zip(params.counts, full_counts(params, point)):
        num -= piece(k) * N**power * (den // c**power)
    return Fraction(num, scale * den)


def first_order_bracket(params: ExperimentParams, point: Sequence[int]) -> Fraction:
    """Exact bracket (n^2/2 - n/2) - sum_i (1/p_i)(k_i^2/2 - k_i/2)."""
    return _bracket(params, point, lambda t: t * t - t, 2, 1)


def second_order_bracket(params: ExperimentParams, point: Sequence[int]) -> Fraction:
    """Exact bracket (n^3/6 - n^2/4 + n/12) - sum_i (1/p_i^2)(same cubic in k_i)."""
    # t^3/6 - t^2/4 + t/12 == t (t - 1)(2 t - 1) / 12
    return _bracket(params, point, lambda t: t * (t - 1) * (2 * t - 1), 12, 2)


def expansion_order1(params: ExperimentParams, point: Sequence[int]) -> float:
    """First-order approximation: bracket over N."""
    return float(first_order_bracket(params, point) / params.population)


def expansion_order2(params: ExperimentParams, point: Sequence[int]) -> float:
    """Second-order approximation: both brackets, exact rational arithmetic."""
    return _truncations(params, point)[1]


def _truncations(params: ExperimentParams, point: Sequence[int]) -> tuple[float, float]:
    """Both approximations, from one evaluation of each bracket."""
    N = params.population
    first = first_order_bracket(params, point) / N
    return float(first), float(first + second_order_bracket(params, point) / N**2)


def expand(params: ExperimentParams, point: Sequence[int]) -> ExpansionResult:
    """Exact log-ratio together with both approximations and their residuals."""
    return _expansion(params, point, log_ratio_exact(params, point))


def _expansion(params: ExperimentParams, point: Sequence[int], exact: float) -> ExpansionResult:
    """:func:`expand` at a point whose exact log-ratio is given."""
    o1, o2 = _truncations(params, point)
    return ExpansionResult(
        exact=exact,
        order1=o1,
        order2=o2,
        residual1=exact - o1,
        residual2=exact - o2,
    )


@dataclass(frozen=True)
class ResidualScan:
    """Residual magnitudes across a family plus the fitted decay exponent."""

    records: tuple[ScanRecord, ...]
    fit: SlopeFit | None
    degenerate: bool


def residual_scan(
    family: Sequence[ExperimentParams],
    k_rule: Callable[[ExperimentParams], Sequence[int]],
    order: int,
    gamma=DEFAULT_TRUNCATION,
) -> ResidualScan:
    """Measure |exact - approximation| along a family of growing populations.

    Every (params, k) pair must lie in the gamma-truncated set.  The exact
    log-ratios come from one :func:`lecam.pmf.log_ratio_matrix` call per
    dimension in the family, a row per point with its own counts: the bits
    of :func:`log_ratio_exact`, with the tables built in one pass.
    Residuals at or below ``RESIDUAL_FLOOR_ULPS`` ulps of the point's exact
    log-ratio are left out of the fit; with fewer than four left (the
    single-draw case, where they vanish identically), or all of them at one
    population, the scan is reported as degenerate instead of fitted.  A
    family sitting on a zero of the next bracket is still fitted: its
    residual decays one order faster than the truncation order suggests.
    """
    if len(family) == 0:
        raise ValidationError("residual_scan requires a non-empty family")
    if not isinstance(order, (int, np.integer)) or order not in (1, 2):
        raise ValidationError("order must be the integer 1 or 2")
    g = _exact_gamma(gamma)
    if not 0 < g < 1:
        raise ValidationError("gamma must lie in (0, 1) for a residual scan")
    points = []
    for params in family:
        point = full_counts(params, k_rule(params))[:-1]
        if not in_truncated_set(params, point, g):
            raise ValidationError(
                f"point {point} violates the gamma={float(g)} truncation at "
                f"population {params.population}"
            )
        points.append((params, point))
    exact = _log_ratios(points)
    records = tuple(_residual_record(params, point, value, order)
                    for (params, point), value in zip(points, exact))
    resolved = [
        (record.population, record.value)
        for record, value in zip(records, exact)
        if record.value > RESIDUAL_FLOOR_ULPS * math.ulp(value)
    ]
    if len(resolved) < 4 or len({x for x, _ in resolved}) < 2:
        return ResidualScan(records=records, fit=None, degenerate=True)
    fit = fit_loglog_slope([x for x, _ in resolved], [y for _, y in resolved])
    return ResidualScan(records=records, fit=fit, degenerate=False)


def _log_ratios(points: Sequence[tuple[ExperimentParams, LatticePoint]]) -> list[float]:
    """:func:`log_ratio_exact` at each support point of its experiment, from
    one kernel call per dimension."""
    by_dim: dict[int, list[int]] = {}
    for i, (params, _) in enumerate(points):
        by_dim.setdefault(params.dim, []).append(i)
    out = np.empty(len(points))
    for at in by_dim.values():
        counts = [points[i][0].counts for i in at]
        out[at] = log_ratio_matrix(counts, [full_counts(*points[i]) for i in at])
    return out.tolist()


def _residual_record(
    params: ExperimentParams, point: LatticePoint, exact: float, order: int
) -> ScanRecord:
    """The record of the residual against a point's exact log-ratio."""
    result = _expansion(params, point, exact)
    residual = result.residual1 if order == 1 else result.residual2
    return ScanRecord(
        population=params.population,
        sample_size=params.sample_size,
        dim=params.dim,
        weights=params.weights,
        quantity=f"abs_residual_order{int(order)}",
        value=abs(residual),
        error=0.0,
        method="exact-log-ratio",
    )

