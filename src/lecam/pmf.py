"""Log-space mass functions, exact moments, and samplers for both sampling laws.

All probabilities are carried as natural logarithms so that supports with
thousands of points never underflow; sums over supports go through
log-sum-exp or compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lattice import (
    ExperimentParams,
    LatticePoint,
    point_in_support,
)
from .numerics import log_binomial, log_binomial_array, log_factorial

# A probability in natural-log space; -inf encodes probability zero.
LogProb = float

NEG_INF = float("-inf")


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """Mean vector and covariance matrix over the free coordinates."""

    mean: np.ndarray
    covariance: np.ndarray


def _check_point_length(dim: int, point: Sequence[int]) -> None:
    if len(point) != dim:
        raise ValidationError(f"point has {len(point)} coordinates, expected {dim}")


def _full_count_matrix(points: np.ndarray, dim: int, sample_size: int) -> np.ndarray:
    """(m, dim) points extended by their derived last count, as (m, dim + 1) int64."""
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValidationError(f"points must have shape (m, {dim})")
    return np.column_stack([points, sample_size - points.sum(axis=1)])


def hypergeometric_log_pmf(params: ExperimentParams, point: Sequence[int]) -> LogProb:
    """Log-probability of drawing exactly these category counts without replacement."""
    _check_point_length(params.dim, point)
    if not point_in_support(params, point):
        return NEG_INF
    return float(hypergeometric_log_pmf_matrix(params, np.array([point], dtype=np.int64))[0])


def hypergeometric_log_pmf_matrix(params: ExperimentParams, points: np.ndarray) -> np.ndarray:
    """Vectorized log-pmf over an (m, dim) array of points; -inf off support."""
    ks = _full_count_matrix(points, params.dim, params.sample_size)
    counts = np.asarray(params.counts, dtype=np.int64)
    valid = np.all((ks >= 0) & (ks <= counts[None, :]), axis=1)
    logs = log_binomial_array(counts[None, :], np.where(valid[:, None], ks, 0))
    total = logs.sum(axis=1) - log_binomial(params.population, params.sample_size)
    return np.where(valid, total, -np.inf)


def _check_weights(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray([float(x) for x in weights], dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValidationError("weights must be a vector with at least two entries")
    if np.any(w <= 0.0):
        raise ValidationError("every weight must be strictly positive")
    if abs(math.fsum(w.tolist()) - 1.0) > 1e-9:
        raise ValidationError("weights must sum to 1")
    return w


def multinomial_log_pmf(sample_size: int, weights: Sequence[float], point: Sequence[int]) -> LogProb:
    """Log-probability of these category counts when drawing with replacement."""
    if sample_size < 1:
        raise ValidationError("sample_size must be a positive integer")
    w = _check_weights(weights)
    _check_point_length(w.size - 1, point)
    ks = [int(k) for k in point]
    if min(ks) < 0 or sum(ks) > sample_size:
        return NEG_INF
    return float(multinomial_log_pmf_matrix(sample_size, w, np.array([ks], dtype=np.int64))[0])


def multinomial_log_pmf_matrix(
    sample_size: int, weights: Sequence[float], points: np.ndarray
) -> np.ndarray:
    """Vectorized log-pmf over an (m, dim) array of points; -inf off support."""
    w = _check_weights(weights)
    ks = _full_count_matrix(points, w.size - 1, sample_size)
    valid = np.all(ks >= 0, axis=1)
    safe = np.where(valid[:, None], ks, 0)
    total = log_factorial(sample_size) - log_factorial(safe).sum(axis=1)
    total = total + (safe * np.log(w)[None, :]).sum(axis=1)
    return np.where(valid, total, -np.inf)


def hypergeometric_moments(params: ExperimentParams) -> MomentSummary:
    """Mean and covariance of the without-replacement counts (free coordinates).

    The covariance is the with-replacement one damped by the finite-population
    factor (N - n) / (N - 1).
    """
    N = params.population
    n = params.sample_size
    p = np.asarray(params.weights[: params.dim], dtype=float)
    mean = n * p
    factor = 0.0 if N == n else n * (N - n) / (N - 1)
    covariance = factor * (np.diag(p) - np.outer(p, p))
    return MomentSummary(mean=mean, covariance=covariance)


def multinomial_moments(sample_size: int, weights: Sequence[float]) -> MomentSummary:
    """Mean and covariance of the with-replacement counts (free coordinates)."""
    w = _check_weights(weights)
    p = w[: w.size - 1]
    mean = sample_size * p
    covariance = sample_size * (np.diag(p) - np.outer(p, p))
    return MomentSummary(mean=mean, covariance=covariance)


def _hypergeometric_quantile(
    total: np.ndarray, marked: int, draws: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Smallest j with P(K <= j) >= u for K counting marked objects in a draw.

    ``total`` and ``draws`` vary per batch element; the walk starts at the
    lowest feasible count and advances every element until its cdf crosses u.
    """
    lo = np.maximum(0, draws - (total - marked))
    hi = np.minimum(marked, draws)
    log_start = (
        log_binomial_array(marked, lo)
        + log_binomial_array(total - marked, draws - lo)
        - log_binomial_array(total, draws)
    )
    prob = np.exp(log_start)
    cdf = prob.copy()
    j = lo.astype(np.int64).copy()
    active = (cdf < u) & (j < hi)
    while np.any(active):
        ja = j[active]
        ratio = (
            (marked - ja)
            * (draws[active] - ja)
            / ((ja + 1.0) * (total[active] - marked - draws[active] + ja + 1.0))
        )
        prob[active] *= ratio
        j[active] += 1
        cdf[active] += prob[active]
        active = active & (cdf < u) & (j < hi)
    return j


def sample_hypergeometric(
    params: ExperimentParams,
    rng: np.random.Generator,
    size: int | None = None,
) -> LatticePoint | np.ndarray:
    """Draw category counts without replacement via sequential conditionals.

    Returns a tuple for ``size=None`` or an (size, dim) int64 array.  Only
    ``rng.random`` is consumed, so the stream is stable across library
    versions and identical seeds reproduce identical samples.
    """
    m = 1 if size is None else int(size)
    if m < 1:
        raise ValidationError("size must be a positive integer")
    remaining_total = np.full(m, params.population, dtype=np.int64)
    remaining_draws = np.full(m, params.sample_size, dtype=np.int64)
    out = np.empty((m, params.dim), dtype=np.int64)
    for i in range(params.dim):
        u = rng.random(m)
        ki = _hypergeometric_quantile(remaining_total, params.counts[i], remaining_draws, u)
        out[:, i] = ki
        remaining_total -= params.counts[i]
        remaining_draws -= ki
    if size is None:
        return tuple(int(v) for v in out[0])
    return out


def _binomial_quantile(trials: np.ndarray, prob: float, u: np.ndarray) -> np.ndarray:
    """Smallest j with P(B <= j) >= u for B binomial with per-element trials."""
    log_start = trials * math.log1p(-prob)
    mass = np.exp(log_start)
    cdf = mass.copy()
    j = np.zeros(trials.shape, dtype=np.int64)
    odds = prob / (1.0 - prob)
    active = (cdf < u) & (j < trials)
    while np.any(active):
        ja = j[active]
        mass[active] *= (trials[active] - ja) / (ja + 1.0) * odds
        j[active] += 1
        cdf[active] += mass[active]
        active = active & (cdf < u) & (j < trials)
    return j


def sample_multinomial(
    sample_size: int,
    weights: Sequence[float],
    rng: np.random.Generator,
    size: int | None = None,
) -> LatticePoint | np.ndarray:
    """Draw category counts with replacement via sequential binomial conditionals."""
    if sample_size < 1:
        raise ValidationError("sample_size must be a positive integer")
    w = _check_weights(weights)
    dim = w.size - 1
    m = 1 if size is None else int(size)
    if m < 1:
        raise ValidationError("size must be a positive integer")
    remaining = np.full(m, sample_size, dtype=np.int64)
    out = np.empty((m, dim), dtype=np.int64)
    for i in range(dim):
        tail = math.fsum(w[i:].tolist())
        cond = float(w[i]) / tail
        u = rng.random(m)
        if cond >= 1.0:
            ki = remaining.copy()
        else:
            ki = _binomial_quantile(remaining, cond, u)
        out[:, i] = ki
        remaining -= ki
    if size is None:
        return tuple(int(v) for v in out[0])
    return out
