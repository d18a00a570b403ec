import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lecam import (
    JitteredLaw,
    ValidationError,
    apply_round,
    fit_loglog_slope,
    log_factorial,
    make_generator,
    split_seed,
    validate_params,
)
from lecam.numerics import (
    _EXACT_SUM_BLOCK,
    _EXACT_SUM_MIN_TERMS,
    LOG_FACTORIAL_TABLE_SIZE,
    _exact_sum_of_blocks,
    _rate_fit,
    compensated_cumsum,
    exact_sum,
)


class TestLogFactorial:
    def test_empty_product(self):
        assert log_factorial(0) == 0.0

    def test_small_value(self):
        assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)

    def test_large_value_matches_big_integer(self):
        # math.log accepts arbitrary-precision integers, so this reference
        # never overflows and shares no code with the implementation
        assert log_factorial(170) == pytest.approx(math.log(math.factorial(170)), rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 12, 100, 1023, 1024, 1025, 2048, 10**6])
    def test_matches_lgamma(self, m):
        assert log_factorial(m) == pytest.approx(math.lgamma(m + 1), rel=1e-13)

    def test_branches_agree_at_crossover(self):
        # the table ends at 1024; the Stirling branch must continue seamlessly
        edge = LOG_FACTORIAL_TABLE_SIZE - 1
        step = log_factorial(edge + 1) - log_factorial(edge)
        assert step == pytest.approx(math.log(edge + 1), rel=1e-12)

    def test_array_matches_scalar(self):
        ms = np.array([0, 5, 170, 1023, 1024, 1025, 5000])
        out = log_factorial(ms)
        assert out.tolist() == [log_factorial(int(m)) for m in ms]

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            log_factorial(-1)
        with pytest.raises(ValidationError):
            log_factorial(np.array([3, -2]))

    @pytest.mark.parametrize("a, k", [(5, 2), (2048, 1000), (10**6, 3)])
    def test_differences_give_binomial(self, a, k):
        # the pmfs build their coefficients from such differences, on both
        # sides of the table edge
        assert log_factorial(a) == pytest.approx(
            log_factorial(k) + log_factorial(a - k) + math.log(math.comb(a, k)), rel=1e-14
        )

    def test_beyond_int64_rejected(self):
        with pytest.raises(ValidationError):
            log_factorial(2**63)
        with pytest.raises(ValidationError):
            log_factorial([3, 2**63 + 5])
        with pytest.raises(ValidationError):
            log_factorial(np.array([3, 2**70], dtype=object))
        assert log_factorial(2**63 - 1) == pytest.approx(
            math.lgamma(2.0**63), rel=1e-13
        )


def _fsum_outcome(total, values):
    """The bits of ``total(values)``, or the type of what it raised."""
    try:
        return struct.pack("<d", total(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _random_terms(rng, kind, size):
    if kind == "log-normal":  # magnitudes from 1e-300 to 1
        return np.exp(rng.uniform(math.log(1e-300), 0.0, size))
    if kind == "subnormal":
        return rng.integers(-(2**52), 2**52, size) * 5e-324
    if kind == "mixed-signs":
        terms = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        terms[: size // 3] = -terms[size // 3 : 2 * (size // 3)]  # exact cancellations
        return rng.permutation(terms)
    return rng.choice([-1.0, 1.0], size) * (1.0 - 2.0**-53) * 2.0 ** rng.integers(-60, 60, size)


class TestExactSum:
    @pytest.mark.parametrize("kind", ["log-normal", "subnormal", "mixed-signs", "full-mantissas"])
    @pytest.mark.parametrize(
        "size", [1, _EXACT_SUM_MIN_TERMS - 1, _EXACT_SUM_MIN_TERMS, _EXACT_SUM_MIN_TERMS + 1, 5000]
    )
    def test_matches_fsum_bit_for_bit(self, kind, size):
        rng = np.random.default_rng(size)
        for _ in range(25):
            terms = _random_terms(rng, kind, size)
            assert _fsum_outcome(exact_sum, terms) == _fsum_outcome(math.fsum, terms.tolist())

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
           st.integers(0, 2 * _EXACT_SUM_MIN_TERMS))
    def test_any_floats_as_fsum(self, head, repeat):
        # repeating the drawn terms carries them past the small-array cutoff
        terms = np.array(head * (1 + repeat // max(1, len(head))), dtype=float)
        assert _fsum_outcome(exact_sum, terms) == _fsum_outcome(math.fsum, terms.tolist())

    @pytest.mark.parametrize("size", [0, 1, 2 * _EXACT_SUM_MIN_TERMS])
    @pytest.mark.parametrize(
        "special",
        [[], [0.0], [-0.0], [float("inf")], [-float("inf")], [float("nan")],
         [float("inf"), -float("inf")], [1e308, 1e308, -1e308]],
    )
    def test_special_values_as_fsum(self, size, special):
        terms = np.concatenate([np.full(size, -0.0), special, np.full(size, 0.25)])
        assert _fsum_outcome(exact_sum, terms) == _fsum_outcome(math.fsum, terms.tolist())

    def test_exact_past_the_block_boundary(self):
        # Full 53-bit mantissas of one sign and exponent fill every bin to
        # its largest; a bin summed in floats past the block would round.
        assert _EXACT_SUM_BLOCK * (2**27 + 2**26) < 2**53
        terms = np.full(3 * _EXACT_SUM_BLOCK + 5, 1.0 - 2.0**-53)
        terms[::7] = 2.0**-1074
        assert exact_sum(terms) == math.fsum(terms.tolist())
        terms[1::2] *= -1.0 + 2.0**-52
        assert exact_sum(terms) == math.fsum(terms.tolist())

    def test_accepts_any_shape(self):
        terms = np.arange(2000.0).reshape(40, 50) / 3.0
        assert exact_sum(terms) == math.fsum(terms.ravel().tolist())
        assert exact_sum([0.1] * 1000) == math.fsum([0.1] * 1000)


def _sum_of_blocks(block):
    """``_exact_sum_of_blocks`` over fresh copies of an array's blocks, as the
    lattice yields them, each call anew."""
    def total(terms):
        terms = np.asarray(terms, dtype=float)
        return _exact_sum_of_blocks(
            lambda: (terms[s : s + block].copy() for s in range(0, terms.size, block))
        )
    return total


class TestExactSumOfBlocks:
    @pytest.mark.parametrize("kind", ["log-normal", "subnormal", "mixed-signs", "full-mantissas"])
    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_matches_fsum_of_the_joined_blocks(self, kind, block):
        rng = np.random.default_rng(block)
        for _ in range(3):
            terms = _random_terms(rng, kind, 1000)
            assert _fsum_outcome(_sum_of_blocks(block), terms) == _fsum_outcome(
                math.fsum, terms.tolist())

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
           st.integers(1, 9))
    def test_any_floats_as_fsum(self, terms, block):
        assert _fsum_outcome(_sum_of_blocks(block), terms) == _fsum_outcome(math.fsum, terms)

    @pytest.mark.parametrize("block", [1, 3, 2000])
    @pytest.mark.parametrize(
        "special",
        [[], [0.0], [-0.0], [float("inf")], [-float("inf")], [float("nan")],
         [float("inf"), -float("inf")], [1e308, 1e308, -1e308]],
    )
    def test_special_values_as_fsum(self, block, special):
        # fsum settles a non-finite or huge term and a zero total; the blocks
        # before such a term have already joined the integer total
        for size in (0, 5, 600):
            terms = np.concatenate([np.full(size, -0.0), special, np.full(size, 0.25)])
            assert _fsum_outcome(_sum_of_blocks(block), terms) == _fsum_outcome(
                math.fsum, terms.tolist())


class TestCompensatedCumsum:
    def test_prefixes_match_exact_sums(self):
        # mixed signs and magnitudes, where a plain cumsum drifts
        rng = np.random.default_rng(4)
        values = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000)
        got = compensated_cumsum(values)
        assert got[0] == 0.0
        for k in range(0, 5001, 97):
            exact = math.fsum(values[:k])
            assert abs(got[k] - exact) <= 2 * math.ulp(exact) + 1e-300

    def test_rows_are_summed_independently(self):
        values = np.arange(12.0).reshape(3, 4) - 5.5
        got = compensated_cumsum(values)
        assert got.shape == (3, 5)
        for row, expected in zip(got, values):
            assert row.tolist() == compensated_cumsum(expected).tolist()

    def test_empty_input(self):
        assert compensated_cumsum([]).tolist() == [0.0]


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        xs = [2.0, 4.0, 8.0, 16.0, 32.0]
        ys = [3.5 * x**-2.25 for x in xs]
        fit = fit_loglog_slope(xs, ys)
        assert fit.slope == pytest.approx(-2.25, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.5), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points_used == 5

    def test_needs_four_points(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([1, 2, 3], [1, 2, 3])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([1, 2, 3, 4], [1.0, 0.0, 2.0, 3.0])

    def test_needs_two_distinct_x_values(self):
        # one x carries no slope; least squares on it is rank deficient
        with pytest.raises(ValidationError, match="2 distinct x values"):
            fit_loglog_slope([64] * 4, [1.0, 2.0, 3.0, 4.0])
        fit = fit_loglog_slope([64, 64, 64, 128], [1.0, 1.0, 1.0, 0.5])
        assert fit.slope == pytest.approx(-1.0)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([1, 2, 3, 4], [1.0, float("nan"), 2.0, 3.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([1, 2, 3, 4], [1, 2, 3])

    @pytest.mark.parametrize("xs", [[], [8], [8, 16, 32], [64] * 4, [64] * 9, [64, 64, 64, 128],
                                    [8, 16, 32, 64], [8, 8, 16, 16, 16]])
    def test_scans_fit_exactly_where_the_fit_accepts(self, xs):
        # the scans' rule and fit_loglog_slope's are one: the scans skip a
        # fit exactly where it would raise, and otherwise return its bits
        points = [(x, 0.5 * x**-1.5 * (1 + 0.01 * i)) for i, x in enumerate(xs)]
        fit = _rate_fit(points)
        try:
            want = fit_loglog_slope([x for x, _ in points], [y for _, y in points])
        except ValidationError:
            assert fit is None
        else:
            assert fit == want


class TestRngPlumbing:
    def test_same_seed_same_stream(self):
        a = make_generator(42).random(100)
        b = make_generator(42).random(100)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_generator(1).random(100)
        b = make_generator(2).random(100)
        assert not (a == b).all()

    def test_split_is_reproducible_and_disjoint(self):
        first = [make_generator(s).random(50) for s in split_seed(7, 3)]
        second = [make_generator(s).random(50) for s in split_seed(7, 3)]
        for x, y in zip(first, second):
            assert (x == y).all()
        assert not (first[0] == first[1]).all()

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        for call in (make_generator, lambda s: split_seed(s, 2)):
            with pytest.raises(ValidationError, match="non-negative integer"):
                call(seed)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.0**63, -(2.0**63)])
def test_rounding_refuses_what_int64_cannot_hold(value):
    # cast to int64, NaN would read INT64_MIN, a point off every support
    with pytest.raises(ValidationError):
        apply_round((value, 1.2))
    law = JitteredLaw(validate_params(12, 5, (6, 6)), "hyper")
    if math.isfinite(value):
        # a finite point that far lies off every support cube: density 0
        assert law.log_density([value]) == -math.inf
    else:
        with pytest.raises(ValidationError):
            law.log_density([value])
    assert apply_round((2.0**63 - 1024, -1.5)) == (2**63 - 1024, -2)
