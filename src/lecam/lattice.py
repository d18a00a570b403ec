"""Experiment parameters, lattice supports, and truncation regions.

The sampling experiment draws ``sample_size`` objects without replacement
from a population of ``population`` objects split into ``dim + 1``
categories.  Category weights are stored as the exact integer counts
``population * p_i`` so that normalization and membership checks never
involve floating-point rounding.

Every lattice comes from one enumerator, ``_bounded_levels``: a tree built
one coordinate at a time down to the parents of its leaves, whose last level
``_leaf_blocks`` expands a cache-sized block of leaves at a time, so no
leaf-sized temporary is made.  A bound callback may narrow each parent's
children, as the Scheffe set of the exact TV does.  Support sizes are
counted exactly without building anything.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import SupportCapError, ValidationError
from .numerics import whole_numbers

DEFAULT_SUPPORT_CAP = 10_000_000
MAX_POPULATION = (1 << 63) - 1
SUPPORT_CAP_ENV = "LECAM_SUPPORT_CAP"

# First dim category counts; the last count is derived as sample_size - sum.
LatticePoint = tuple[int, ...]


# Leaves per block when the last level is expanded: each block's temporaries
# stay in cache, where leaf-sized arrays would each pay their page faults.
_LEAF_BLOCK = 1 << 15


class Levels(NamedTuple):
    """A lattice built one coordinate at a time down to the parents of its
    leaves (see ``_bounded_levels``); ``_leaf_blocks`` expands the last level."""

    steps: list[tuple[np.ndarray, np.ndarray]]  # per coordinate bar the last: sizes, values
    low: np.ndarray  # per parent: the lowest value of the last free coordinate
    runs: np.ndarray  # per parent: how many leaves, valued low, low + 1, ...
    remaining: np.ndarray  # per parent: the draws left for the last two counts


@dataclass(frozen=True)
class ExperimentParams:
    """Population size, sample size, and exact integer category weights."""

    population: int
    sample_size: int
    counts: tuple[int, ...]  # population * p_i for every category; sums to population

    @property
    def dim(self) -> int:
        """Number of free coordinates (one less than the category count)."""
        return len(self.counts) - 1

    @property
    def weights(self) -> tuple[float, ...]:
        """Category probabilities as floats, length dim + 1."""
        return tuple(c / self.population for c in self.counts)


def validate_params(
    population: int,
    sample_size: int,
    weights: Sequence,
) -> ExperimentParams:
    """Validate and build an :class:`ExperimentParams`.

    ``weights`` may be integer counts summing to ``population`` or exact
    rationals summing to 1 whose denominators divide ``population``.  Floats
    are rejected: the lattice constraint is exact and so is its check.  The
    population must fit int64, below 2**63, as every table and kernel reads
    counts in it.
    """
    if not isinstance(population, (int, np.integer)) or population < 1:
        raise ValidationError("population must be a positive integer")
    if population > MAX_POPULATION:
        # every count and the sample size lie below it, so all fit int64
        raise ValidationError(
            f"population {population} exceeds {MAX_POPULATION}, the largest int64"
        )
    if not isinstance(sample_size, (int, np.integer)) or sample_size < 1:
        raise ValidationError("sample_size must be a positive integer")
    if sample_size > population:
        raise ValidationError(
            f"sample_size {sample_size} exceeds population {population}"
        )
    if len(weights) < 2:
        raise ValidationError("at least two category weights are required")
    counts: list[int] = []
    for w in weights:
        if isinstance(w, (bool, float)) or not isinstance(w, (Rational, np.integer)):
            raise ValidationError(
                "weights must be integer counts or exact rationals, not floats"
            )
        frac = Fraction(w)
        # Integer inputs are counts; proper fractions are probabilities.
        if frac.denominator == 1 and frac >= 1:
            count = int(frac)
        else:
            count_frac = frac * population
            if count_frac.denominator != 1:
                raise ValidationError(
                    f"weight {w} times population {population} is not an integer"
                )
            count = int(count_frac)
        if count < 1:
            raise ValidationError("every category weight must be strictly positive")
        counts.append(count)
    total = sum(counts)
    if total != population:
        raise ValidationError(
            f"weights sum to {Fraction(total, population)} of the population, expected 1"
        )
    return ExperimentParams(int(population), int(sample_size), tuple(counts))


def scaled_params(population: int, sample_size: int, pattern: Sequence[int]) -> ExperimentParams:
    """Scale an integer weight pattern to a given population, exactly.

    Every weight must be positive and ``population * w / sum(pattern)`` an
    integer for each weight ``w``.
    """
    if not pattern or min(pattern) < 1:
        raise ValidationError(f"pattern {tuple(pattern)} must have positive weights")
    total = sum(pattern)
    counts = []
    for w in pattern:
        c = Fraction(population * w, total)
        if c.denominator != 1:
            raise ValidationError(
                f"pattern {tuple(pattern)} does not scale to integer counts at N={population}"
            )
        counts.append(int(c))
    return validate_params(population, sample_size, counts)


def support_cap() -> int:
    """Enumeration cap: ``LECAM_SUPPORT_CAP`` if set, else the default."""
    raw = os.environ.get(SUPPORT_CAP_ENV)
    if raw is None:
        return DEFAULT_SUPPORT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"{SUPPORT_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValidationError(f"{SUPPORT_CAP_ENV} must be positive, got {value}")
    return value


def _bounded_vector_count(counts: Sequence[int], total: int) -> int:
    """Number of integer vectors with 0 <= k_i <= counts[i] and sum == total.

    k -> counts - k maps them one-to-one onto the vectors summing to
    sum(counts) - total, so the smaller total t is counted: one prefix sum
    per count but the largest, over the sums up to t they reach, and for the
    largest one window sum over ``[t - c_max, t]``.  That table is charged to
    the cap first: it is the support at d=1 and never longer, as at least
    ``min(t, N - c_max) + 1`` vectors sum to t <= N/2.  In int64 while the
    C(t + d, d) vectors of d = len(counts) - 1 counts summing to at most t
    fit it, and in Python ints above.
    """
    total = min(total, sum(counts) - total)
    if total < 0:
        return 0
    *others, largest = sorted(counts)
    top = min(total, sum(min(c, total) for c in others))
    _check_cap(top + 1, "support" if len(others) == 1 else "the support count's table")
    wide = math.comb(total + len(others), len(others)) >= 1 << 63
    ways = np.zeros(top + 1, dtype=object if wide else np.int64)
    ways[0] = 1
    sums = np.arange(top + 1)
    for c in others:
        prefix = np.concatenate((np.zeros(1, dtype=ways.dtype), np.cumsum(ways)))
        ways = prefix[1:] - prefix[np.maximum(sums - min(c, top), 0)]
    return int(ways[max(total - largest, 0) :].sum())


def support_size(params: ExperimentParams) -> int:
    """Exact number of lattice points in the support."""
    return _bounded_vector_count(params.counts, params.sample_size)


def _box_in_support(counts: Sequence[int], total: int) -> int:
    """The points of one box inside the support, a lower bound on its size
    from O(d) integer work.

    Count the smaller total t, as :func:`_bounded_vector_count` does.  Give
    each count but the largest, c_max, a width w_i <= c_i, with
    W = sum w_i <= min(c_max, t).  Offsets a_i in [0, c_i - w_i] summing into
    [t - c_max, t - W] exist (t - W >= max(0, t - c_max), and
    sum (c_i - w_i) >= t - c_max as W <= t <= N - t), so every vector
    a + j, 0 <= j <= w, sums into [t - c_max, t] and the largest count takes
    the rest: the box's prod (w_i + 1) points all lie in the support.  The
    widths share W evenly, smallest counts first.
    """
    t = min(total, sum(counts) - total)
    if t < 0:
        return 0
    *others, largest = sorted(counts)
    room, size = min(largest, t), 1
    for i, c in enumerate(others):
        width = min(c, room // (len(others) - i))
        room -= width
        size *= width + 1
    return size


def _capped_support_size(params: ExperimentParams) -> int:
    """:func:`support_size`, refused above the cap, by :func:`_box_in_support`
    first: a support far past the cap is refused at once, not counted."""
    _check_cap(_box_in_support(params.counts, params.sample_size), "a box inside the support")
    size = support_size(params)
    _check_cap(size, "support")
    return size


def _bounded_levels(counts: Sequence[int], total: int, bound=None) -> Levels:
    """Every k with 0 <= k_i <= counts[i] and total - sum(k) in [0, counts[-1]],
    as the leaves of a tree built one coordinate at a time, in lexicographic
    order: each level above the leaves holds its values and how many children
    each entry of the level above has.  The leaves themselves are left as one
    run of consecutive values per parent, for ``_leaf_blocks`` to expand.

    ``bound(i, lo, sizes, remaining)``, if given, narrows each parent's run of
    candidates ``lo, ..., lo + sizes - 1`` for coordinate i, given the draws it
    has left, and returns the narrowed ``(lo, sizes)``; a size of 0 leaves a
    parent no children.  It sees the levels in order, and each level's
    candidates are charged to the cap before it is called."""
    counts = [min(c, total) for c in counts]  # exact, and keeps the bounds in int64
    remaining = np.array([total], dtype=np.int64)
    capacity = sum(counts[1:])  # what the categories after the current one absorb
    steps = []
    for i in range(len(counts) - 1):
        lo = np.maximum(remaining - capacity, 0)
        sizes = np.minimum(remaining, counts[i]) - lo + 1
        if bound is not None:
            _check_cap(int(sizes.sum()), f"level {i + 1} of a bounded lattice")
            lo, sizes = bound(i, lo, sizes, remaining)
        if i == len(counts) - 2:
            break
        # a parent's children run lo, lo + 1, ... from its first row onwards
        values = np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        values += np.arange(len(values))
        remaining = np.repeat(remaining, sizes)
        remaining -= values
        capacity -= counts[i + 1]
        steps.append((sizes, values))
    return Levels(steps, lo, sizes, remaining)


def _leaf_blocks(levels: Levels) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """The leaves in order, at most ``_LEAF_BLOCK`` at a time: per block the
    parents it hangs from (a slice), how many of its leaves each has, and the
    leaves' last free coordinate and derived last count.  A parent with more
    leaves than a block is split across blocks."""
    ends = np.cumsum(levels.runs)
    # leaf number i, the j-th of parent p, is valued low[p] + j = i + shift[p]
    shift = levels.low + levels.runs - ends
    size = int(ends[-1])
    for start in range(0, size, _LEAF_BLOCK):
        stop = min(start + _LEAF_BLOCK, size)
        parents = slice(int(np.searchsorted(ends, start, side="right")),
                        int(np.searchsorted(ends, stop)) + 1)
        runs = np.minimum(ends[parents], stop)
        runs[1:] -= ends[parents][:-1]
        runs[0] -= start
        values = np.repeat(shift[parents], runs)
        values += np.arange(start, stop)
        last = np.repeat(levels.remaining[parents], runs)
        last -= values
        yield parents, runs, values, last


def _level_points(levels: Levels) -> np.ndarray:
    """The leaves as a C-ordered (m, dim) int64 array, filled a block at a time
    from their parents' rows, each level's values repeated down to them."""
    columns = []
    for sizes, values in levels.steps:
        columns = [np.repeat(col, sizes) for col in columns] + [values]
    # each parent's row; the last column is the leaf's own, set per block
    heads = np.column_stack(columns + [np.zeros(len(levels.runs), dtype=np.int64)])
    points = np.empty((int(levels.runs.sum()), heads.shape[1]), dtype=np.int64)
    row = 0
    for parents, runs, values, _ in _leaf_blocks(levels):
        block = points[row : row + len(values)]
        rows = np.repeat(np.arange(parents.start, parents.stop), runs)
        heads.take(rows, axis=0, out=block, mode="clip")  # clip: unbuffered
        block[:, -1] = values
        row += len(values)
    return points


def _check_cap(size: int, what: str, advice: str = "use the Monte Carlo paths instead") -> None:
    limit = support_cap()
    if size > limit:
        raise SupportCapError(
            f"{what} has {size} points, above the cap of {limit}; {advice}",
            required=size,
            cap=limit,
        )


def support_matrix(params: ExperimentParams) -> np.ndarray:
    """Support points as an (m, dim) int64 array in lexicographic order.

    Raises :class:`SupportCapError` when the support is larger than the cap;
    callers should fall back to the Monte Carlo paths in that case.  The
    support lies among the count vectors, so it is counted exactly, at
    O(dim * n), only when they outnumber the cap and a box inside it does
    not (:func:`_capped_support_size`).
    """
    if count_vector_size(params.sample_size, params.dim) > support_cap():
        _capped_support_size(params)
    return _level_points(_bounded_levels(params.counts, params.sample_size))


def enumerate_support(params: ExperimentParams) -> list[LatticePoint]:
    """Every support point exactly once, in lexicographic order, as tuples.

    The rows of :func:`support_matrix`, which raises :class:`SupportCapError`
    above the cap.
    """
    return [tuple(row) for row in support_matrix(params).tolist()]


def count_vector_size(sample_size: int, dim: int) -> int:
    """Number of non-negative integer vectors of length dim with sum <= sample_size."""
    if not isinstance(sample_size, (int, np.integer)) or sample_size < 0:
        raise ValidationError(f"sample_size must be a non-negative integer, got {sample_size!r}")
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    return math.comb(sample_size + dim, dim)


def count_vector_levels(sample_size: int, dim: int) -> Levels:
    """Levels of all k >= 0 with ||k||_1 <= sample_size, capped: the support
    of the with-replacement law, a superset of every without-replacement one."""
    _check_cap(count_vector_size(sample_size, dim), "count-vector set")
    return _bounded_levels((sample_size,) * (dim + 1), sample_size)


def count_vector_matrix(sample_size: int, dim: int) -> np.ndarray:
    """The leaves of :func:`count_vector_levels` as an (m, dim) array, lex order."""
    return _level_points(count_vector_levels(sample_size, dim))


def full_counts(params: ExperimentParams, point: Sequence[int]) -> tuple[int, ...]:
    """The point, whole numbers only, and its derived last count sample_size - ||k||_1.

    The one gate for a point: a point of any length but ``params.dim`` is refused."""
    if len(point) != params.dim:
        raise ValidationError(
            f"point has {len(point)} coordinates, expected {params.dim}"
        )
    ks = [k if type(k) is int else int(whole_numbers(k)) for k in point]
    return (*ks, params.sample_size - sum(ks))


def point_in_support(params: ExperimentParams, point: Sequence[int]) -> bool:
    """Membership test for the without-replacement support."""
    return _in_support(params, full_counts(params, point))


def _in_support(params: ExperimentParams, ks: Sequence[int]) -> bool:
    """:func:`point_in_support` at a point's full counts."""
    return all(0 <= k <= c for k, c in zip(ks, params.counts))


def _exact_gamma(gamma) -> Fraction:
    """``gamma`` as an exact Fraction; NaN or an infinity is a ValidationError."""
    try:
        return Fraction(gamma)
    except (ValueError, OverflowError):
        raise ValidationError(f"gamma must be a finite number, got {gamma}") from None


def in_truncated_set(params: ExperimentParams, point: Sequence[int], gamma) -> bool:
    """True iff max_i k_i / p_i <= gamma * population, exactly.

    ``gamma`` may be a float or Fraction in (0, 1]; the comparison uses exact
    rational arithmetic on the stored integer counts.
    """
    g = _exact_gamma(gamma)
    if not 0 < g <= 1:
        raise ValidationError("gamma must lie in (0, 1]")
    return _in_truncated_set(params, full_counts(params, point), g)


def _in_truncated_set(params: ExperimentParams, ks: Sequence[int], g: Fraction) -> bool:
    """:func:`in_truncated_set` at a point's full counts, for an exact gamma in
    (0, 1]; a point outside the support is refused."""
    if not _in_support(params, ks):
        raise ValidationError(f"point {tuple(ks[:-1])} lies outside the support")
    # k_i / p_i <= g N  <=>  k_i <= g * counts_i, cleared of g's denominator
    return all(k * g.denominator <= g.numerator * c for k, c in zip(ks, params.counts))


def weight_ratio(params: ExperimentParams) -> float:
    """max_i p_i / min_i p_i."""
    return max(params.counts) / min(params.counts)
