"""Low-level numerical helpers: log-factorials, compensated prefix sums, exact
sums, slope fits, rounding and its inverse jitter, and rng plumbing.

Small log-factorials come from an exact compensated cumulative-sum table,
large ones from the Stirling series; the two branches agree to ~1e-15
relative error at the crossover.  Hypergeometric probabilities subtract no
log-factorials: ``pmf.log_ratio_matrix`` builds them from prefix sums.
Sums over a lattice go through ``exact_sum``, which returns ``math.fsum``'s
correctly rounded value from whole-array passes, or through
``_exact_sum_of_blocks``, the same sum over terms made a block at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError

LOG_FACTORIAL_TABLE_SIZE = 1025  # table covers 0 <= m <= 1024
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums ``[0, v0, v0 + v1, ...]`` along the last axis, each to about an ulp.

    A plain cumsum drifts by one rounding per term.  Each of its additions'
    exact rounding error is recovered (TwoSum) and their running sum added
    back, so the drift left is second order in the unit roundoff.
    """
    v = np.asarray(values, dtype=float)
    out = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    prev, new = out[..., :-1], out[..., 1:]
    np.add.accumulate(v, axis=-1, out=new)
    back = new - prev
    err = (prev - (new - back)) + (v - back)
    new += np.add.accumulate(err, axis=-1)
    return out


_LOG_FACTORIAL_TABLE = compensated_cumsum(
    [math.log(m) for m in range(1, LOG_FACTORIAL_TABLE_SIZE)]
)


def _stirling_log_factorial(m):
    """Stirling series for ln(m!), accurate to ~1e-22 relative for m >= 1024."""
    m = np.asarray(m, dtype=float)
    inv = 1.0 / m
    inv2 = inv * inv
    series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0)))
    return _HALF_LOG_TWO_PI + (m + 0.5) * np.log(m) - m + series


def whole_numbers(values, what: str = "coordinates") -> np.ndarray:
    """``values`` as int64; a float that is not whole (a cast would truncate
    it to another lattice point), or anything past int64, is refused."""
    arr = np.asarray(values)
    if not (arr.dtype.kind in "ib" or (arr.dtype.kind == "f"  # NaN fails both tests
            and ((np.abs(arr) < 2.0**63) & (np.trunc(arr) == arr)).all())):
        raise ValidationError(f"{what} must be whole numbers below 2**63")
    return arr.astype(np.int64, copy=False)


def log_factorial(m):
    """Natural log of m! for non-negative integer m.

    Accepts a scalar or an integer array; returns a float or float array.
    Relative error is below 1e-13 everywhere.
    """
    arr = whole_numbers(m, "log_factorial's argument")
    flat = np.atleast_1d(arr)
    if flat.min(initial=0) < 0:
        raise ValidationError("log_factorial requires non-negative integers")
    out = np.take(_LOG_FACTORIAL_TABLE, flat, mode="clip")
    if flat.max(initial=0) >= LOG_FACTORIAL_TABLE_SIZE:
        large = flat >= LOG_FACTORIAL_TABLE_SIZE
        out[large] = _stirling_log_factorial(flat[large])
    return float(out[0]) if arr.ndim == 0 else out


# fsum is the faster route below this many terms.
_EXACT_SUM_MIN_TERMS = 512
# Terms per block: no bin then reaches 2**45, and the temporaries fit in cache.
_EXACT_SUM_BLOCK = 1 << 16
# Below this magnitude no partial sum of fsum's can overflow.
_EXACT_SUM_BOUND = 2.0**960
_BYTE_WEIGHTS = 1 << np.arange(8)


def _block_total(x: np.ndarray) -> int:
    """The exact sum of finite floats below ``_EXACT_SUM_BOUND``, as an integer
    in units of 2**-1127.

    Each term is M * 2**(e - 53) with M a 53-bit integer.  The halves of
    M = hi * 2**26 + lo are summed by exponent with ``np.bincount``, a block
    at a time, in bins that stay integers far below 2**53 and so exact; the
    bins are added as Python integers.  Most steps work in place: each fresh
    array costs its page faults.
    """
    total = 0
    for s in range(0, x.size, _EXACT_SUM_BLOCK):
        mantissas, exponents = np.frexp(x[s : s + _EXACT_SUM_BLOCK])
        np.ldexp(mantissas, 27, out=mantissas)  # exact: hi and 2**-26 lo
        high = np.trunc(mantissas)
        low = np.ldexp(np.subtract(mantissas, high, out=mantissas), 26, out=mantissas)
        # bin i weighs 2**(i - 1127): the least term, 2**-1074, lands in bin 1
        slots = exponents.astype(np.intp)
        slots += 1100
        bins = np.bincount(slots, high, minlength=2128)
        slots -= 26
        bins += np.bincount(slots, low, minlength=2128)
        digits = bins.astype(np.int64).reshape(-1, 8) @ _BYTE_WEIGHTS  # base 2**8
        used = np.flatnonzero(digits)
        total += sum(d << 8 * i for i, d in zip(used.tolist(), digits[used].tolist()))
    return total


def exact_sum(values) -> float:
    """``math.fsum`` of an array of floats, bit for bit, in whole-array passes.

    Small arrays go to fsum itself; see ``_exact_sum_of_blocks``.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < _EXACT_SUM_MIN_TERMS:
        return math.fsum(x.tolist())
    return _exact_sum_of_blocks(lambda: (x,))


def _exact_sum_of_blocks(blocks: Callable[[], Iterable[np.ndarray]]) -> float:
    """``math.fsum`` of every term of the blocks that ``blocks()`` yields, bit
    for bit, never joining them.

    Each block joins one exact integer total (``_block_total``), and one
    integer division rounds it correctly, as fsum does.  fsum's own cases,
    a non-finite or huge term or a zero total (whose sign fsum settles),
    call ``blocks()`` again and fsum every term.
    """
    total = 0
    for x in blocks():
        if not np.abs(x).max(initial=0.0) < _EXACT_SUM_BOUND:
            break
        total += _block_total(x)
    else:
        if total:
            return total / (1 << 1127)
    return math.fsum(itertools.chain.from_iterable(x.tolist() for x in blocks()))


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least-squares line fit on log-log axes."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit:
    """Fit ln(ys) = slope * ln(xs) + intercept by ordinary least squares.

    Requires finite, strictly positive points that :func:`_fit_refusal`
    does not refuse.
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise ValidationError("fit_loglog_slope expects two 1-d sequences of equal length")
    if refusal := _fit_refusal(xa.tolist()):
        raise ValidationError(f"fit_loglog_slope {refusal}")
    if np.any(~np.isfinite(xa)) or np.any(~np.isfinite(ya)):
        raise ValidationError("fit_loglog_slope requires finite values")
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise ValidationError("fit_loglog_slope requires strictly positive values")
    lx = np.log(xa)
    ly = np.log(ya)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), r_squared, int(xa.size))


def _fit_refusal(xs: Sequence[float]) -> str | None:
    """Why a rate fitted at these x values would not be meaningful, or None:
    the one rule of every fit, at least four points at two or more distinct x."""
    if len(xs) < 4:
        return "needs at least 4 points"
    return None if len(set(xs)) >= 2 else "needs at least 2 distinct x values"


def _rate_fit(points: Sequence[tuple[float, float]]) -> SlopeFit | None:
    """:func:`fit_loglog_slope` over positive (x, y) points, or None where
    :func:`_fit_refusal` refuses their x values."""
    xs = [x for x, _ in points]
    return None if _fit_refusal(xs) else fit_loglog_slope(xs, [y for _, y in points])


def round_half_away(z) -> np.ndarray:
    """Componentwise nearest integer, halves rounding away from zero.

    Ties sit on a measure-zero set for every continuous law used here; the
    fixed tie-break exists only for bit-exact reproducibility.  NaN, an
    infinity or a value past int64 is a :class:`ValidationError`.
    """
    z = np.asarray(z, dtype=float)
    return whole_numbers(np.sign(z) * np.floor(np.abs(z) + 0.5), "rounded values")


def apply_jitter(point: Sequence[int], rng: np.random.Generator, size: int | None = None):
    """Add uniform noise on (-1/2, 1/2)^d to a lattice point.

    With ``size`` given, returns (size, d) jittered copies of the point or,
    when ``point`` is an (m, d) array and size is None, one draw per row.
    """
    arr = np.asarray(point, dtype=float)
    # stay in the open cube: rng.random can return 0, and k + (1/2 - 2**-53)
    # rounds to k + 1/2 for k >= 1.  A sum on a face keeps its lattice point.
    # Only an offset within ulp(max |k| + 1/2) of -1/2 or 1/2 can round onto
    # a face, so only those offsets take the exact test; in it out - arr is
    # exact, as out lies within a factor 2 of k, or k = 0.
    reach = None
    if arr.size and arr.ndim >= 1:
        reach = 0.5 - np.spacing(max(arr.max(), -arr.min()) + 0.5)
    if arr.ndim == 1 and size is not None:
        arr = np.broadcast_to(arr, (int(size), arr.size))
    out = rng.random(arr.shape)
    out -= 0.5
    edge = None
    if reach is not None and out.size and (out.max() >= reach or out.min() <= -reach):
        edge = np.flatnonzero(np.abs(out) >= reach)
    out += arr
    if edge is not None:
        flat, k = out.reshape(-1), arr.flat[edge]
        face = np.abs(flat[edge] - k) == 0.5
        flat[edge[face]] = k[face]
    return out


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """``seed`` as a SeedSequence; a plain seed must be a non-negative integer."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    return np.random.SeedSequence(seed)


def make_generator(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based generator from a seed; the bit stream is version-stable."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def split_seed(seed: int | np.random.SeedSequence, count: int) -> list[np.random.SeedSequence]:
    """Split a master seed into independent child seeds.

    Children depend only on (seed, count), never on scheduling, so parallel
    scans reproduce bit-for-bit at any worker count.
    """
    return _seed_sequence(seed).spawn(count)
