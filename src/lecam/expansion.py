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
    _exact_gamma,
    _in_support,
    _in_truncated_set,
    full_counts,
)
from .numerics import SlopeFit, _rate_fit
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
    return _log_ratio_at(params, full_counts(params, point))


def _log_ratio_at(params: ExperimentParams, ks: tuple[int, ...]) -> float:
    """:func:`log_ratio_exact` at a point's full counts."""
    if not _in_support(params, ks):
        raise ValidationError(
            f"point {ks[:-1]} lies outside the support; the ratio is undefined"
        )
    return float(log_ratio_matrix(params.counts, [ks])[0])


# per order j: the bracket's polynomial f_j, times its scale, and the scale
_PIECES = {
    1: (lambda t: t * t - t, 2),  # t^2/2 - t/2
    2: (lambda t: t * (t - 1) * (2 * t - 1), 12),  # t^3/6 - t^2/4 + t/12
}


def _bracket(params: ExperimentParams, ks: Sequence[int], order: int) -> Fraction:
    """f(n) - sum_i (1/p_i)^order f(k_i) at a point's full counts, exactly,
    with f the order's polynomial (``_PIECES``).

    The sum runs in integers over the common denominator lcm(c_i^order), so
    only the result is a Fraction.
    """
    piece, scale = _PIECES[order]
    N = params.population
    den = math.lcm(*(c**order for c in params.counts))
    num = piece(params.sample_size) * den
    for c, k in zip(params.counts, ks):
        num -= piece(k) * N**order * (den // c**order)
    return Fraction(num, scale * den)


def _truncations(params: ExperimentParams, ks: Sequence[int], order: int) -> list[float]:
    """The expansions to orders 1..order at a point's full counts: the
    brackets, each over N to its order, summed exactly and rounded once per
    order, so each bracket is built once."""
    N, total, out = params.population, Fraction(0), []
    for j in range(1, order + 1):
        total += _bracket(params, ks, j) / N**j
        out.append(float(total))
    return out


def first_order_bracket(params: ExperimentParams, point: Sequence[int]) -> Fraction:
    """Exact bracket (n^2/2 - n/2) - sum_i (1/p_i)(k_i^2/2 - k_i/2)."""
    return _bracket(params, full_counts(params, point), 1)


def second_order_bracket(params: ExperimentParams, point: Sequence[int]) -> Fraction:
    """Exact bracket (n^3/6 - n^2/4 + n/12) - sum_i (1/p_i^2)(same cubic in k_i)."""
    return _bracket(params, full_counts(params, point), 2)


def expansion_order1(params: ExperimentParams, point: Sequence[int]) -> float:
    """First-order approximation: bracket over N."""
    return _truncations(params, full_counts(params, point), 1)[-1]


def expansion_order2(params: ExperimentParams, point: Sequence[int]) -> float:
    """Second-order approximation: both brackets, exact rational arithmetic."""
    return _truncations(params, full_counts(params, point), 2)[-1]


def expand(params: ExperimentParams, point: Sequence[int]) -> ExpansionResult:
    """Exact log-ratio together with both approximations and their residuals."""
    ks = full_counts(params, point)
    exact = _log_ratio_at(params, ks)
    order1, order2 = _truncations(params, ks, 2)
    return ExpansionResult(exact, order1, order2, exact - order1, exact - order2)


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

    Every (params, k) pair must lie in the gamma-truncated set.  Each
    point's full counts are built once, for that test, its kernel row and
    the brackets ``order`` needs.  The exact log-ratios come from one
    :func:`lecam.pmf.log_ratio_matrix` call per dimension in the family, a
    row per point with its own counts: the bits of :func:`log_ratio_exact`,
    with the tables built in one pass.
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
    rows = []
    for params in family:
        ks = full_counts(params, k_rule(params))
        if not _in_truncated_set(params, ks, g):
            raise ValidationError(
                f"point {ks[:-1]} violates the gamma={float(g)} truncation at "
                f"population {params.population}"
            )
        rows.append((params, ks))
    exact = _log_ratios(rows)
    records = tuple(
        ScanRecord(
            population=params.population,
            sample_size=params.sample_size,
            dim=params.dim,
            weights=params.weights,
            quantity=f"abs_residual_order{int(order)}",
            value=abs(value - _truncations(params, ks, order)[-1]),
            error=0.0,
            method="exact-log-ratio",
        )
        for (params, ks), value in zip(rows, exact)
    )
    fit = _rate_fit([(record.population, record.value)
                     for record, value in zip(records, exact)
                     if record.value > RESIDUAL_FLOOR_ULPS * math.ulp(value)])
    return ResidualScan(records=records, fit=fit, degenerate=fit is None)


def _log_ratios(rows: Sequence[tuple[ExperimentParams, tuple[int, ...]]]) -> list[float]:
    """:func:`log_ratio_exact` at each row of an experiment and a support
    point's full counts, from one kernel call per dimension."""
    by_dim: dict[int, list[int]] = {}
    for i, (params, _) in enumerate(rows):
        by_dim.setdefault(params.dim, []).append(i)
    out = np.empty(len(rows))
    for at in by_dim.values():
        out[at] = log_ratio_matrix([rows[i][0].counts for i in at], [rows[i][1] for i in at])
    return out.tolist()
