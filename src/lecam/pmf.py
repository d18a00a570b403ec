"""Log-space mass functions, exact moments, and samplers for both sampling laws.

All probabilities are carried as natural logarithms so that supports with
thousands of points never underflow; sums over supports go through
log-sum-exp or compensated summation.  Every hypergeometric log-probability
is the multinomial one at weights ``counts / N`` plus ``log_ratio_matrix``,
so no two log-factorials of size N log N are ever subtracted.  Both are a
row constant plus one term per category, ``k ln w_i - ln k!`` and for the
ratio ``T_{c_i}[k]``, tabled by ``_log_pmf_tables``.  The row kernels add
these terms a whole column at a time, left to right, and
``_family_log_pmfs``, the one producer of a law's rows, reads those of
many laws of either kind in one call of each; ``leaf_log_pmfs`` folds the
tables down a lattice's levels in the same order and yields the leaves a
cache-sized block at a time.  ``scheffe_levels`` bounds the ratio's
tables to enumerate only the points where P may exceed Q, and sums r there.

Both samplers draw one coordinate at a time from its conditional law through
one routine, ``_sample_sequential``: inversion by table lookup (Devroye 1986,
*Non-Uniform Random Variate Generation*, ch. III).  Each coordinate reads a
2-D table, a row per remaining draw count, from its two tables built once,
in blocks of bounded size; the first coordinate's table is one row, as
every draw still has all n to place.  Rows are normalised from their mode,
so no mass underflows at any sample size.  One search serves every row:
indexed by a guide table (Chen and Asau 1974), as fine as the block's
uniforms pay for, where one comparison settles most uniforms and a halving
search inside the cell the rest.  It returns a flat index into the block's
table, so one ``take`` from the table of counts gives the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import (
    ExperimentParams,
    LatticePoint,
    Levels,
    _bounded_levels,
    _check_cap,
    _leaf_blocks,
)
from .numerics import compensated_cumsum, log_factorial, whole_numbers

# A probability in natural-log space; -inf encodes probability zero.
LogProb = float

NEG_INF = float("-inf")


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """Mean vector and covariance matrix over the free coordinates."""

    mean: np.ndarray
    covariance: np.ndarray


# Up to this many columns, adding whole columns is at least as fast as an
# integer matmul over the rows of an (m, dim) int64 array: at 10^5 rows, on
# one core of a 2-vCPU Xeon with numpy 2.4, 0.04 against 0.83 ms at d=1,
# 0.22 against 0.84 ms at d=2 and 0.36 against 0.48 ms at d=3, but 0.64
# against 0.55 ms at d=4.
_COLUMN_SUM_MAX_DIM = 3


def _full_count_matrix(points: np.ndarray, dim: int, sample_size: int) -> np.ndarray:
    """(m, dim) points extended by their derived last count, as (m, dim + 1) int64
    stored column by column (the kernels read whole columns)."""
    points = whole_numbers(points, "points")
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValidationError(f"points must have shape (m, {dim})")
    cols = points.T
    if dim > _COLUMN_SUM_MAX_DIM:
        last = sample_size - points @ np.ones(dim, dtype=np.int64)
    else:
        last = sample_size - cols[0]
        for col in cols[1:]:
            last -= col
    return np.array([*cols, last]).T


def hypergeometric_log_pmf(params: ExperimentParams, point: Sequence[int]) -> LogProb:
    """Log-probability of drawing exactly these category counts without replacement."""
    return float(hypergeometric_log_pmf_matrix(params, [point])[0])


def hypergeometric_log_pmf_matrix(params: ExperimentParams, points: np.ndarray) -> np.ndarray:
    """Vectorized log-pmf over an (m, dim) array of points; -inf off support.

    Past n = N/2 rows are read at what they leave, ``counts - k``: as likely,
    fewer draws enter the sums, and a census row is exactly certain."""
    return _family_log_pmfs([params], [points], [True])


def _family_log_pmfs(
    family: Sequence[ExperimentParams], points: Sequence[np.ndarray], hypergeometric: Sequence[bool]
) -> np.ndarray:
    """The log-pmf of each law of one dimension at its own (m_i, dim) points,
    concatenated: the bits of :func:`hypergeometric_log_pmf_matrix` or
    :func:`multinomial_log_pmf_matrix` law by law, as ``hypergeometric``
    says.  Every row takes one multinomial kernel call, at ``counts / N`` or
    ``params.weights``, and the hypergeometric rows one
    :func:`log_ratio_matrix` call, which builds each law's tables once, at
    ``c - k`` where the law draws over half of N.  One law hands the kernels
    its log-weights and counts as shared vectors; more hand them a row each."""
    sizes = [len(x) for x in points]

    def per_row(values):
        values = np.asarray(values)
        return values[0] if len(values) == 1 else np.repeat(values, sizes, axis=0)

    ks = [_full_count_matrix(x, p.dim, p.sample_size) for x, p in zip(points, family)]
    ks = ks[0] if len(ks) == 1 else np.concatenate([k.T for k in ks], axis=1).T
    counts = np.array([p.counts for p in family], dtype=np.int64)
    log_w = per_row([np.log(c / p.population) if h else np.log(p.weights)
                     for c, p, h in zip(counts, family, hypergeometric)])
    hyper, counts = per_row(hypergeometric), per_row(counts)
    flip = hyper & per_row([2 * p.sample_size > p.population for p in family])
    if flip.any():
        ks = np.where(flip[..., None], counts - ks, ks)
    out = _multinomial_log_pmf_rows(log_w.T, ks)
    if hyper.all():
        return out + log_ratio_matrix(counts, ks)
    if hyper.any():
        out[hyper] += log_ratio_matrix(counts[hyper], ks[hyper])
    return out


# Entries per block of tables built at once (one row, if a row is longer): the
# temporaries stay bounded however many draw counts a sampler's coordinate
# sees, or however many populations one log-ratio call reads.
_TABLE_BLOCK = 1 << 14


def _check_table_cap(dim: int, sample_size: int, what: str) -> None:
    """Charge tables over k = 0..n, n + 1 entries per free coordinate, to the
    cap before any is built: they grow with n, not with the points read."""
    _check_cap(dim * (sample_size + 1), f"{what} over n = {sample_size}",
               "lower n or raise the cap")


def _ratio_increments(sizes: np.ndarray, top: int) -> np.ndarray:
    """``log(1 - j/c)``, j = 0..top - 1, for each size c: falling in j, and
    not finite from j = c.

    ``log1p(-j/c)`` up to j = c/2; past it the argument nears -1 and its
    rounding is amplified, while ``(c - j) / c`` is rounded once.  Each is
    evaluated on its own side only, by masked passes, or in one pass where
    every row lies below c/2."""
    j = np.arange(top)
    with np.errstate(divide="ignore", invalid="ignore"):
        if (2 * (top - 1) <= sizes).all():
            return np.log1p(-j / sizes[:, None])
        sizes = sizes[:, None]
        low = 2 * j <= sizes
        out = np.empty(low.shape)
        np.log1p(-j / sizes, out=out, where=low)
        np.log((sizes - j) / sizes, out=out, where=~low)
    return out


def _ratio_tables(sizes: np.ndarray, top: int) -> np.ndarray:
    """``T_c[k] = sum_{j<k} log(1 - j/c)``, k = 0..top, to about an ulp, for
    each size c; not finite past k = c."""
    increments = _ratio_increments(sizes, top)
    with np.errstate(invalid="ignore"):
        return compensated_cumsum(increments)


def _log_pmf_tables(log_w: np.ndarray, top: int, sizes: np.ndarray | None = None) -> tuple:
    """Per category i, over k = 0..top, the multinomial term ``k ln w_i - ln k!``
    and, given sizes, ``T_c[k]`` per size c: with the counts c_i, added to the
    first, the hypergeometric term (not finite past k = c_i)."""
    k = np.arange(top + 1)
    multi = k * log_w[:, None] - log_factorial(k)
    return multi, None if sizes is None else _ratio_tables(sizes, top)


def log_ratio_matrix(counts: Sequence[int] | np.ndarray, ks: np.ndarray) -> np.ndarray:
    """ln P(k) - ln Q(k) per row of an (m, d + 1) matrix of full counts.

    P draws without replacement from a population split into counts, Q
    with replacement at weights ``counts / N``; a row's sum is its draw
    count n.  ``counts`` is one (d + 1,) vector shared by every row, or an
    (m, d + 1) matrix with a population per row, whose consecutive rows of
    equal counts share one set of tables.  The ratio is exactly
    ``sum_i T_{c_i}[k_i] - T_N[n]`` with ``T_c[k] = sum_{j<k} log(1 - j/c)``,
    read from compensated prefix tables (:func:`_ratio_tables`), ``-T_N[n]``
    first and then each count's term, left to right.  The tables are charged
    to the cap first, d (n + 1) entries a row.  -inf where some k_i is
    negative or exceeds c_i.
    """
    counts = np.asarray(counts, dtype=np.int64)
    cols = np.asarray(ks, dtype=np.int64).T
    # read unsigned, a negative count exceeds every count
    limits = counts.T if counts.ndim == 2 else counts[:, None]
    over = cols.view(np.uint64) > limits.view(np.uint64)
    bad = over.any(axis=0) if over.any() else None
    n = cols.sum(axis=0)
    # the tables reach the longest row on the support; the lookups of rows
    # off it are clipped into them and their results overwritten
    top = n.max(initial=0) if bad is None else n.max(initial=0, where=~bad)
    _check_table_cap(len(cols) - 1, int(top), "the log-ratio table")
    if counts.ndim == 2:
        # rows off the support read the first entries of their own tables
        out = _per_row_log_ratios(counts, cols if bad is None else np.where(bad, 0, cols), top)
    else:
        out = _read_log_ratios(_ratio_tables(np.append(counts, counts.sum()), top), cols, n)
    if bad is not None:
        out[bad] = -np.inf
    return out


def _read_log_ratios(tables: np.ndarray, cols: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``-T_N[n] + sum_i T_{c_i}[k_i]``, in that order, from table rows
    ``c_0..c_d, N``; lookups past either end are clipped."""
    out = -np.take(tables[-1], n, mode="clip")
    for table, col in zip(tables, cols):
        out += np.take(table, col, mode="clip")
    return out


def _per_row_log_ratios(counts: np.ndarray, cols: np.ndarray, top: int) -> np.ndarray:
    """:func:`_read_log_ratios` per row of (m, d + 1) ``counts``, from tables
    up to ``top`` built once per run of consecutive rows with the same counts.
    A block of runs, of at most ``_TABLE_BLOCK`` entries (one run, if a run's
    tables are longer), gets its tables from one :func:`_ratio_tables` call
    over the sizes ``c_0..c_d, N`` of all its runs, size by size, so each
    size's row lays the block's tables end to end; a row's lookups are
    shifted to its run's.  Each table entry depends only on the increments
    before it, so a row's terms have the bits of a call with its counts
    alone."""
    fresh = np.ones(len(counts), dtype=bool)
    np.logical_or.reduce(counts[1:] != counts[:-1], axis=1, out=fresh[1:])
    first = np.flatnonzero(fresh)  # per run, its first row
    heads = counts[first]
    sizes = np.column_stack([heads, heads.sum(axis=1)]).T
    width = int(top) + 1
    per_block = max(1, _TABLE_BLOCK // (len(sizes) * width))
    # per row, where its run's tables start in a block's
    offset = (fresh.cumsum() - 1) * width
    out = np.empty(len(counts))
    for start in range(0, len(heads), per_block):
        end = start + per_block
        block = slice(first[start], first[end] if end < len(first) else len(counts))
        rows = cols[:, block]
        shift = offset[block] - start * width
        tables = _ratio_tables(sizes[:, start : start + per_block].ravel(), top)
        tables = tables.reshape(len(sizes), -1)
        out[block] = _read_log_ratios(tables, rows + shift, rows.sum(axis=0) + shift)
    return out


def _merge_falling(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The entries of two falling arrays as one falling array: each entry of
    b goes after the entries of a at least as large."""
    at = np.searchsorted(-a, -b, side="right")
    at += np.arange(len(b))
    out = np.empty(len(a) + len(b))
    out[at] = b
    rest = np.ones(len(out), dtype=bool)
    rest[at] = False
    out[rest] = a
    return out


def scheffe_levels(params: ExperimentParams) -> tuple[Levels, np.ndarray]:
    """Levels (see ``lattice._bounded_levels``) of the count vectors where P,
    drawing without replacement, may exceed Q, drawing with replacement: a
    superset, by a rounding margin, of the Scheffe set ``A = {k : r(k) > 0}``;
    and ``r`` at their leaves, in order, with the bits of
    :func:`log_ratio_matrix`.

    ``r = sum_i T_{c_i}[k_i] - T_N[n]`` with each ``T_c`` concave, so A is a
    convex set of lattice points, and a prefix ``k_0..k_i`` with partial sum
    S from ``-T_N[n]`` completes into it only if ``S + V[rem]`` exceeds 0,
    where ``V[m]``, the best sum over the categories still to place of m
    draws, is the sum of the m largest increments ``log(1 - j/c)`` among them
    (the greedy allocation of a separable concave sum; Ibaraki and Katoh
    1988, *Resource Allocation Problems*).  ``S + T_{c_i}[k] + V[rem - k]``
    is concave in k, so each parent keeps one run of children: from its first
    to its last candidate above the threshold.  At the last free coordinate V
    is the last count's table, so that level, and all of d=1, merges nothing,
    and its sums are r.  Each level's candidates are charged to the cap, and
    so are the tables, before they are built.
    """
    c = np.array(params.counts, dtype=np.int64)
    n, dim = params.sample_size, params.dim
    _check_table_cap(dim, n, "the log-ratio table")
    # no k_i passes min(c_i, n): the categories' rows stop at the largest,
    # and N's, which T_N[n] needs, is built alone where that is short of n
    top = min(int(c.max()), n)
    increments = _ratio_increments(np.append(c, params.population) if top == n else c, top)
    with np.errstate(invalid="ignore"):
        tables = compensated_cumsum(increments)  # not finite past k = c, never read
    if top == n:
        log_n = tables[-1, n]  # T_N[n]
    else:
        log_n = compensated_cumsum(_ratio_increments(np.array([params.population]), n))[0, n]
    # the tables' rounding, a few ulps of their size, and some slack: a
    # superset of A only adds terms that are positive parts of P - Q <= 0
    threshold = -(1e-9 + 1e-13 * abs(log_n))
    # per level, V over the categories after it, from the last level up
    best = [tables[dim]]
    merged = increments[dim, : c[dim]]
    for i in range(dim - 1, 0, -1):
        merged = _merge_falling(increments[i, : c[i]], merged)[:n]
        best.insert(0, compensated_cumsum(merged))
    partial = r = np.array([-log_n])  # per parent: -T_N[n] + sum_{j<i} T_{c_j}[k_j]

    def bound(i, lo, sizes, remaining):
        nonlocal partial, r
        ends = np.cumsum(sizes)
        k = np.repeat(lo + sizes - ends, sizes)
        k += np.arange(len(k))
        s = np.repeat(partial, sizes)
        s += tables[i].take(k)
        total = s + best[i].take(np.repeat(remaining, sizes) - k)
        kept = np.flatnonzero(total > threshold)
        # each parent's kept candidates lie at kept[a:b]
        a, b = kept.searchsorted(ends - sizes), kept.searchsorted(ends)
        some = b > a
        first, last = kept[a[some]], kept[b[some] - 1]
        runs = last - first + 1
        lo, sizes = lo.copy(), np.zeros_like(sizes)
        lo[some], sizes[some] = k[first], runs
        at = np.repeat(first - np.cumsum(runs) + runs, runs)
        at += np.arange(len(at))
        partial, r = s[at], total[at]
        return lo, sizes

    return _bounded_levels(params.counts, n, bound), r


def leaf_log_pmfs(
    params: ExperimentParams, levels: Levels
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``ln Q`` (multinomial) and ``r = ln P - ln Q`` at the leaves of ``levels``,
    one block of ``lattice._leaf_blocks`` at a time, in order.

    Each law is a product of one factor per category, so each coordinate
    gets a table over ``0..n`` from :func:`_log_pmf_tables`: ``k ln p_i -
    ln k!`` for Q, and ``T_{c_i}[k]`` for r (-inf past ``c_i``).  Each level
    sets ``S = S[parent] + table_i[values]``, from ``ln n!`` and ``-T_N[n]``,
    down to the leaves' parents; a leaf adds the last free coordinate's table
    and then the last count's, ``(S[parent] + table_d-1[k]) + table_d[last]``,
    so no leaf-sized array is made.  When ``2n > N`` every leaf flips: P is
    read at ``c - k`` after ``N - n`` draws.
    """
    c = np.array(params.counts, dtype=np.int64)
    N, n = params.population, params.sample_size
    k = np.arange(n + 1)
    draws = min(n, N - n)  # a leaf drawing over half of N flips to c - k
    off = k > c[:, None]
    j = np.where(off, 0, c[:, None] - k if draws < n else k)
    multi, tables = _log_pmf_tables(np.log(c / N), max(n, j.max()), np.append(c, N))
    # T at j, plus Q's factor at j less at k: exactly 0 unless the leaves flip
    at_j = np.take_along_axis(multi, j, axis=1)
    ratio = np.take_along_axis(tables[:-1], j, axis=1) + (at_j - multi[:, : n + 1])
    ratio[off] = -np.inf
    ratio_0 = log_factorial(draws) - log_factorial(n) - tables[-1, draws]
    log_q, r = np.array([log_factorial(n)]), np.array([ratio_0])
    for i, (sizes, values) in enumerate(levels.steps):
        log_q = np.repeat(log_q, sizes)
        log_q += multi[i][values]
        r = np.repeat(r, sizes)
        r += ratio[i][values]
    free = len(levels.steps)  # the last free coordinate
    for parents, runs, values, last in _leaf_blocks(levels):
        block_q = np.repeat(log_q[parents], runs)
        block_q += multi[free].take(values)
        block_q += multi[-1].take(last)
        block_r = np.repeat(r[parents], runs)
        block_r += ratio[free].take(values)
        block_r += ratio[-1].take(last)
        yield block_q, block_r


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
    if len(point) != w.size - 1:
        raise ValidationError(f"point has {len(point)} coordinates, expected {w.size - 1}")
    ks = whole_numbers(point).tolist()
    if min(ks) < 0 or sum(ks) > sample_size:
        return NEG_INF
    return float(multinomial_log_pmf_matrix(sample_size, w, np.array([ks], dtype=np.int64))[0])


def multinomial_log_pmf_matrix(
    sample_size: int, weights: Sequence[float], points: np.ndarray
) -> np.ndarray:
    """Vectorized log-pmf over an (m, dim) array of points; -inf off support."""
    w = _check_weights(weights)
    ks = _full_count_matrix(points, w.size - 1, sample_size)
    return _multinomial_log_pmf_rows(np.log(w), ks)


def _multinomial_log_pmf_rows(log_w: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Log-pmf of full count rows drawn with replacement; each row sum is its draw count.

    ``log_w`` is one (d + 1,) vector of log-weights shared by every row, or
    a (d + 1, m) array with a column per row.  From ``ln t!``, each
    column's ``k ln w_i - ln k!`` (an entry of
    :func:`_log_pmf_tables`, by the same expression) is added a whole column
    at a time, left to right, as :func:`leaf_log_pmfs` adds its tables."""
    cols = ks.T
    bad = (cols < 0).any(axis=0) if cols.min(initial=0) < 0 else None
    cols = cols if bad is None else np.where(bad, 0, cols)
    total = log_factorial(cols.sum(axis=0))
    for col, w, fact in zip(cols, log_w, log_factorial(cols)):
        total += col * w - fact
    return total if bad is None else np.where(bad, -np.inf, total)


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


# Guide cells per table entry, at most: a finer guide settles more uniforms by
# its first comparison.  The fineness is spent only up to the block's uniforms.
_GUIDE_FINENESS = 8


def _first_at_least(cdf: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """The flat index into ``cdf`` of ``np.searchsorted(cdf[row], u)`` per uniform,
    by an indexed search (Chen and Asau 1974; Devroye 1986, section III.2.4);
    each row ends in exactly 1.0 > u.  ``rows`` may be omitted for one row.

    Each row is cut into G = 2**j cells, at least its width, so ``u * G`` is
    exact; a guide, from one bincount of ``cdf * G`` (at most G), holds where
    each cell's entries start.  G is up to ``_GUIDE_FINENESS`` times finer
    while the guide stays within the number of uniforms.  A uniform starts at
    the first entry of its cell, which is at most its answer; one comparison
    settles it unless an entry of its cell lies below it, and those finish by
    a halving search inside the cell.
    """
    height, width = cdf.shape
    flat = cdf.ravel()
    cells = 1 << (width - 1).bit_length()
    fine = min(_GUIDE_FINENESS, u.size // (height * cells))
    if fine > 1:
        cells <<= fine.bit_length() - 1
    span = cells + 1
    slots = (cdf * cells).astype(np.intp)
    if height > 1:
        slots += np.arange(0, height * span, span)[:, None]
    # starts[r * (G + 1) + c]: the flat index of row r's first entry >= c / G
    starts = np.zeros(height * span + 1, dtype=np.intp)
    np.cumsum(np.bincount(slots.ravel(), minlength=height * span), out=starts[1:])
    cell = (u * cells).astype(np.intp)
    if rows is not None:
        cell += rows * span
    at = starts.take(cell)
    left = np.flatnonzero(flat.take(at) < u)
    if left.size:
        cell = cell.take(left)
        at[left] = _halving_search(flat, at.take(left) + 1, starts.take(cell + 1), u.take(left))
    return at


def _halving_search(
    flat: np.ndarray, start: np.ndarray, end: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The first index in ``[start, end]`` whose entry is at least u, given that the
    entry at ``end`` is; probes past ``end`` are clamped onto it."""
    at, probe, below = start.copy(), np.empty_like(start), np.empty(u.shape, dtype=bool)
    for bit in reversed(range(int((end - start).max(initial=0)).bit_length())):
        np.minimum(np.add(at, (1 << bit) - 1, out=probe), end, out=probe)
        at += np.less(flat.take(probe), u, out=below) * (1 << bit)
    return at


def _sample_sequential(
    sample_size: int,
    rng: np.random.Generator,
    size: int | None,
    coordinates: Sequence[tuple[np.ndarray, int, int]],
) -> LatticePoint | np.ndarray:
    """Draw count vectors one coordinate at a time, by inversion of tabled cdfs.

    Coordinate i is ``(tables, c, o)``: of t draws left it takes k, from
    ``max(0, t - o)`` to ``min(t, c)``, with log-pmf ``tables[0][k] +
    tables[1][t - k]`` up to a row constant; a row with 2t > c + o reads
    ``(c - k, o - (t - k))``, as likely and below t.  The tables reach n.
    The first coordinate has the one count t = n; later ones take their
    distinct t from a bincount, and each block of at most ``_TABLE_BLOCK``
    entries is one gather.  A row is normalised from its mode (so no mass
    underflows) and summed along itself, the same bits as a 1-D table per
    t; the search's flat index reads the drawn count from the block's table
    of counts.  One ``rng.random(m)`` is consumed per coordinate, and each
    coordinate's draws fill one row of the (dim, m) draws.
    """
    m = 1 if size is None else size
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValidationError("size must be a positive integer")
    out = np.empty((len(coordinates), m), dtype=np.int64)
    remaining = None  # the first coordinate places all n draws
    for i, ((tables, c, o), drawn) in enumerate(zip(coordinates, out)):
        u = rng.random(m)
        if remaining is None:
            ts, rows = np.array([sample_size]), None
        else:
            present = np.bincount(remaining) > 0
            ts, rows = np.flatnonzero(present), (np.cumsum(present) - 1)[remaining]
        per_block = max(1, _TABLE_BLOCK // (int(ts[-1]) + 1))
        block = (rows // per_block).astype(np.int32) if per_block < ts.size else None
        for start in range(0, ts.size, per_block):
            t = ts[start : start + per_block, None]
            low, high = np.maximum(t - o, 0), np.minimum(t, c)
            offsets = np.arange((high - low).max() + 1)
            ks = np.minimum(low + offsets, high)  # past the highest count: masked below
            s, j = t, ks
            flip = 2 * t > c + o
            if flip.any():
                s, j = np.where(flip, c + o - t, t), np.where(flip, c - ks, ks)
            cdf = tables[0].take(j)
            cdf += tables[1].take(s - j)
            cdf -= cdf.max(axis=1, keepdims=True)
            np.exp(cdf, out=cdf)
            cdf[offsets > high - low] = 0.0
            np.cumsum(cdf, axis=1, out=cdf)
            cdf /= cdf[:, -1:]
            if block is None:
                ks.take(_first_at_least(cdf, u, rows), out=drawn)
            else:
                picks = np.flatnonzero(block == start // per_block)
                drawn[picks] = ks.take(_first_at_least(cdf, u[picks], rows[picks] - start))
        if i + 1 == len(out):
            break
        if remaining is None:
            remaining = sample_size - drawn
        else:
            remaining -= drawn
    if size is None:
        return tuple(int(v) for v in out[:, 0])
    return out.T.copy()


def sample_hypergeometric(
    params: ExperimentParams,
    rng: np.random.Generator,
    size: int | None = None,
) -> LatticePoint | np.ndarray:
    """Draw category counts without replacement via sequential conditionals.

    Coordinate i, given t draws left from the R_i objects outside the earlier
    categories, is hypergeometric with counts (c_i, R_i - c_i).  Returns a
    tuple for ``size=None`` or an (size, dim) int64 array.  Only
    ``rng.random`` is consumed, so the stream is stable across library
    versions and identical seeds reproduce identical samples.
    """
    n, counts = params.sample_size, params.counts
    _check_table_cap(params.dim, n, "the sampler's table")
    coordinates = []
    for i in range(params.dim):
        pair = np.array([counts[i], sum(counts[i + 1 :])])
        multi, ratio = _log_pmf_tables(np.log(pair / pair.sum()), n, pair)
        coordinates.append((multi + ratio, *pair.tolist()))
    return _sample_sequential(n, rng, size, coordinates)


def sample_multinomial(
    sample_size: int,
    weights: Sequence[float],
    rng: np.random.Generator,
    size: int | None = None,
) -> LatticePoint | np.ndarray:
    """Draw category counts with replacement via sequential binomial conditionals.

    Coordinate i, given t draws left, is binomial with success probability
    q = w_i / sum_{l >= i} w_l; its failure probability is taken as
    sum_{l > i} w_l over the same sum, which stays positive where q rounds
    to 1.  No count bounds it, so it passes c = o = n and never flips.
    """
    if sample_size < 1:
        raise ValidationError("sample_size must be a positive integer")
    w = _check_weights(weights)
    _check_table_cap(w.size - 1, sample_size, "the sampler's table")
    n, tails = sample_size, [math.fsum(w[i:].tolist()) for i in range(w.size)]
    log_w = [np.log(np.array([w[i], tails[i + 1]]) / tails[i]) for i in range(w.size - 1)]
    return _sample_sequential(n, rng, size, [(_log_pmf_tables(lw, n)[0], n, n) for lw in log_w])
