import contextlib
import hashlib
import io
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import stats

import oracles
from lecam import (
    SupportCapError,
    ValidationError,
    count_vector_matrix,
    enumerate_support,
    hypergeometric_log_pmf,
    hypergeometric_log_pmf_matrix,
    hypergeometric_moments,
    make_generator,
    multinomial_log_pmf,
    multinomial_log_pmf_matrix,
    multinomial_moments,
    sample_hypergeometric,
    sample_multinomial,
    support_matrix,
    validate_params,
)
from lecam import distances, pmf
from lecam.cli import main
from lecam.distances import JitteredLaw
from lecam.expansion import expand, first_order_bracket, residual_scan
from lecam.lattice import SUPPORT_CAP_ENV, _level_points, count_vector_levels, point_in_support
from lecam.numerics import log_factorial
from lecam.pmf import (
    _first_at_least,
    _guide,
    _guided_search,
    _log_pmf_tables,
    _multinomial_log_pmf_rows,
    leaf_log_pmfs,
    log_ratio_matrix,
)
from strategies import experiment_params

BALANCED = validate_params(10, 5, (5, 5))
THREE_CAT = validate_params(12, 4, (4, 4, 4))


class TestHypergeometricPmf:
    def test_frozen_balanced_point(self):
        # 25/63, from the exact combinatorial oracle
        assert math.exp(hypergeometric_log_pmf(BALANCED, (2,))) == pytest.approx(
            25 / 63, abs=1e-15
        )

    def test_frozen_three_category_point(self):
        assert math.exp(hypergeometric_log_pmf(THREE_CAT, (1, 2))) == pytest.approx(
            32 / 165, abs=1e-15
        )

    def test_off_support_is_minus_inf(self):
        assert hypergeometric_log_pmf(BALANCED, (6,)) == float("-inf")
        assert hypergeometric_log_pmf(BALANCED, (-1,)) == float("-inf")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            hypergeometric_log_pmf(BALANCED, (1, 1))

    def test_matrix_matches_scalar(self):
        points = support_matrix(THREE_CAT)
        logs = hypergeometric_log_pmf_matrix(THREE_CAT, points)
        for row, lp in zip(points, logs):
            assert lp == pytest.approx(
                hypergeometric_log_pmf(THREE_CAT, tuple(row)), abs=1e-14
            )

    def test_census_is_deterministic(self):
        params = validate_params(7, 7, (3, 4))
        assert hypergeometric_log_pmf(params, (3,)) == pytest.approx(0.0, abs=1e-14)

    def test_census_is_a_point_mass(self):
        # drawing the whole population leaves a single outcome with probability 1
        assert hypergeometric_log_pmf(validate_params(10, 10, (5, 5)), (5,)) == 0.0


class TestMultinomialPmf:
    def test_frozen_three_category_point(self):
        # 4/27 for one of three equally likely categories drawn 4 times
        value = math.exp(multinomial_log_pmf(4, THREE_CAT.weights, (1, 2)))
        assert value == pytest.approx(4 / 27, abs=1e-15)

    def test_frozen_balanced_point(self):
        # C(5,2) / 2^5 = 10/32
        value = math.exp(multinomial_log_pmf(5, (0.5, 0.5), (2,)))
        assert value == pytest.approx(10 / 32, abs=1e-15)

    def test_plain_float_weights(self):
        # weights need not come from a validated finite population
        value = math.exp(multinomial_log_pmf(2, (0.3, 0.7), (1,)))
        assert value == pytest.approx(0.42, abs=1e-15)

    def test_single_draw_recovers_weights(self):
        weights = (0.2, 0.3, 0.5)
        assert multinomial_log_pmf(1, weights, (1, 0)) == pytest.approx(math.log(0.2), abs=1e-15)
        assert multinomial_log_pmf(1, weights, (0, 1)) == pytest.approx(math.log(0.3), abs=1e-15)
        assert multinomial_log_pmf(1, weights, (0, 0)) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_matrix_matches_scalar(self):
        points = count_vector_matrix(4, 2)
        logs = multinomial_log_pmf_matrix(4, THREE_CAT.weights, points)
        for row, lq in zip(points, logs):
            assert lq == pytest.approx(
                multinomial_log_pmf(4, THREE_CAT.weights, tuple(row)), abs=1e-14
            )

    def test_overdrawn_point_is_minus_inf(self):
        assert multinomial_log_pmf(4, THREE_CAT.weights, (3, 2)) == float("-inf")


@given(experiment_params())
def test_hypergeometric_normalizes(params):
    logs = hypergeometric_log_pmf_matrix(params, support_matrix(params))
    assert math.fsum(np.exp(logs).tolist()) == pytest.approx(1.0, abs=1e-12)


@given(experiment_params())
def test_multinomial_normalizes(params):
    points = count_vector_matrix(params.sample_size, params.dim)
    logs = multinomial_log_pmf_matrix(params.sample_size, params.weights, points)
    assert math.fsum(np.exp(logs).tolist()) == pytest.approx(1.0, abs=1e-12)


@given(experiment_params(max_dim=2, max_count=6, max_draws=6))
def test_pmfs_match_exact_oracle(params):
    for point in enumerate_support(params):
        expected = oracles.hyper_prob(
            params.population, params.counts, params.sample_size, point
        )
        got = math.exp(hypergeometric_log_pmf(params, point))
        assert got == pytest.approx(float(expected), rel=1e-12)
        expected_q = oracles.multi_prob(
            params.population, params.counts, params.sample_size, point
        )
        got_q = math.exp(multinomial_log_pmf(params.sample_size, params.weights, point))
        assert got_q == pytest.approx(float(expected_q), rel=1e-12)


N24 = 2**24

# d = 1 and d = 2 instances with N up to 2^24, n up to 2000, and two census
# cases (n = 10^4 of N = 12,000)
WIDE_PMF_CASES = [
    (N24, 8, (N24 // 2, N24 // 2)),
    (N24, 16, (N24 // 4, 3 * N24 // 4)),
    (N24, 2000, (N24 // 4, 3 * N24 // 4)),
    (999_999, 2000, (333_333, 666_666)),
    (999_999, 8, (111_111, 333_333, 555_555)),
    (N24, 16, (N24 // 4, N24 // 4, N24 // 2)),
    (999_999, 2000, (111_111, 333_333, 555_555)),
    (12_000, 10_000, (6_000, 6_000)),
    (12_000, 10_000, (3_000, 4_000, 5_000)),
]


def _spread_points(params, per_axis=17):
    """Support points on an even grid spanning every coordinate's feasible range."""
    N, n = params.population, params.sample_size
    axes = [
        np.unique(np.linspace(max(0, n - (N - c)), min(c, n), per_axis).round().astype(int))
        for c in params.counts[:-1]
    ]
    points = [pt for pt in itertools.product(*axes) if point_in_support(params, pt)]
    return np.array(points, dtype=np.int64)


@pytest.mark.parametrize("population, draws, counts", WIDE_PMF_CASES)
def test_log_pmfs_match_50_digit_oracle(population, draws, counts):
    params = validate_params(population, draws, counts)
    points = _spread_points(params)
    bar = 1e-15 * math.lgamma(draws + 1) + 1e-16
    hyper = hypergeometric_log_pmf_matrix(params, points)
    multi = multinomial_log_pmf_matrix(draws, params.weights, points)
    for row, h, q in zip(points.tolist(), hyper, multi):
        point = tuple(row)
        assert abs(h - oracles.log_hyper_prob(population, counts, draws, point)) <= bar
        assert abs(q - oracles.log_multi_prob(population, counts, draws, point)) <= bar


class TestLogRatioMatrix:
    def test_rows_of_different_sums_match_oracle(self):
        counts = (5, 7)
        rows = [(2, 3), (0, 0), (1, 0), (5, 7), (4, 7)]
        got = log_ratio_matrix(counts, np.array(rows))
        for (k0, k1), value in zip(rows, got):
            expected = float(oracles.log_ratio(12, counts, k0 + k1, (k0,)))
            assert value == pytest.approx(expected, abs=1e-14)

    def test_rows_off_the_support_are_minus_inf(self):
        got = log_ratio_matrix((5, 7), np.array([(6, 0), (3, 8), (-1, 3)]))
        assert got.tolist() == [float("-inf")] * 3

    @given(experiment_params(max_dim=3, max_count=9, max_draws=9), st.data())
    def test_rows_off_the_support_leave_the_others_alone(self, params, data):
        # off-support rows, negative or far past every count, are read from
        # clipped tables: the rows on the support keep their bits, and no
        # table grows to the length of a row off it
        c = params.counts
        good = np.array([
            row + (params.sample_size - sum(row),)
            for row in map(tuple, support_matrix(params).tolist())
        ])
        far = st.integers(-(10**12), 10**12)
        bad = np.array(data.draw(st.lists(
            st.lists(far, min_size=len(c), max_size=len(c)).filter(
                lambda row: any(not 0 <= k <= ci for k, ci in zip(row, c))),
            min_size=1, max_size=5)))
        order = np.random.default_rng(0).permutation(len(good) + len(bad))
        mixed = np.concatenate([good, bad])[order]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_ratio_matrix(c, mixed)
        on_support = order < len(good)
        assert got[on_support].tobytes() == log_ratio_matrix(c, good)[order[on_support]].tobytes()
        assert np.all(got[~on_support] == -np.inf)

    @given(experiment_params(max_dim=5, max_count=10**6, max_draws=24))
    def test_scheffe_sums_are_the_kernel_bits(self, params):
        # where 2n <= N the bound's running sums, from -T_N[n], end in r at
        # each kept leaf, added in the kernel's order
        assume(2 * params.sample_size <= params.population)
        levels, r = pmf.scheffe_levels(params)
        ks = pmf._full_count_matrix(_level_points(levels), params.dim, params.sample_size)
        assert r.tobytes() == log_ratio_matrix(params.counts, ks).tobytes()

    def test_one_row_of_its_own_counts_is_the_shared_call(self):
        counts, row = (7, 11, 30), [(2, 5, 9)]
        got = log_ratio_matrix([counts], row)
        assert got.tobytes() == log_ratio_matrix(counts, row).tobytes()

    @pytest.mark.parametrize("block", [1, 64, 1 << 14])
    def test_rows_of_their_own_counts_keep_the_shared_bits(self, monkeypatch, block):
        # populations and draw counts differ from row to row, some rows leave
        # the support, and blocks of tables end between rows (one row a block
        # when its tables are longer than the block)
        monkeypatch.setattr(pmf, "_TABLE_BLOCK", block)
        counts = [(5, 7), (50, 70), (3, 2**40), (5, 7), (1000, 1), (8, 8)]
        rows = [(2, 3), (40, 60), (3, 0), (6, 0), (0, 1), (-1, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_ratio_matrix(counts, rows)
        want = np.concatenate([log_ratio_matrix(c, [row]) for c, row in zip(counts, rows)])
        assert got.tobytes() == want.tobytes()
        assert np.isneginf(got).tolist() == [False, False, False, True, False, True]

    @pytest.mark.parametrize("block", [1, 2 * 3 * 101, 1 << 14])
    def test_runs_of_equal_counts_share_their_tables(self, monkeypatch, block):
        # three runs, the first and last of equal counts but apart: three
        # table sets (3 sizes of 101 entries each), each row with the bits
        # of its counts' own call, one, two or three runs a block
        built = []

        def counting(sizes, top):
            built.append(len(sizes))
            return ratio_tables(sizes, top)

        ratio_tables = pmf._ratio_tables
        monkeypatch.setattr(pmf, "_TABLE_BLOCK", block)
        monkeypatch.setattr(pmf, "_ratio_tables", counting)
        counts = [(5, 7)] * 4 + [(50, 70)] * 3 + [(5, 7)] * 2
        rows = [(2, 3), (5, 0), (0, 8), (1, 1), (40, 60), (0, 0), (3, 5), (4, 4), (2, 2)]
        got = log_ratio_matrix(counts, rows)
        assert sum(built) == 3 * 3
        built.clear()
        want = np.concatenate([log_ratio_matrix(c, [row]) for c, row in zip(counts, rows)])
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.integers(1, 2**62), min_size=1, max_size=6), st.integers(0, 80),
           st.lists(st.integers(1, 60), min_size=0, max_size=4))
    def test_increments_are_the_two_sided_expression(self, large, top, small):
        # each side of c/2 evaluated alone: the bits of evaluating both and
        # picking one, -inf at j = c and NaN past it included
        sizes = np.array(small + large, dtype=np.int64)
        column, j = sizes[:, None], np.arange(top)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(2 * j <= column, np.log1p(-j / column),
                            np.log((column - j) / column))
        got = pmf._ratio_increments(sizes, top)
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
        assert got.tobytes() == want.tobytes()

    def test_tables_are_charged_to_the_cap(self, monkeypatch, capsys):
        # n = 10^9: one row's tables would take 7.45 GiB; refused before any
        # is built, whichever form the counts take
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setenv(SUPPORT_CAP_ENV, "1000")
        monkeypatch.setattr(pmf, "_ratio_increments", refuse)
        half = 10**9
        for counts in ((half, half), [(half, half)]):
            with pytest.raises(SupportCapError) as err:
                log_ratio_matrix(counts, [(half // 2, half // 2)])
            assert (err.value.required, err.value.cap) == (half + 1, 1000)
        args = ["ratio", "--N", str(2 * half), "--n", str(half), "--Np", f"{half},{half}",
                "--k", str(half // 2), "--json"]
        assert main(args) == 4
        assert "log-ratio table over n = 1000000000" in capsys.readouterr().err


class TestLeafLogPmfs:
    @staticmethod
    def _check(params):
        """The fold over every count vector against the two matrices; returns ln P.

        Every count vector, so rows off the hypergeometric support and,
        whenever 2n > N, census-flipped rows are included.  ln Q, and r
        unless the rows flip, agree byte for byte.  n ln N bounds
        every table term the matrices add on a finite row: ln k!, k |ln p_i|
        and |T_c[k]| for k <= n, and for a flipped row the same at c - k,
        which stays below N - n < n.
        """
        n, d = params.sample_size, params.dim
        points = count_vector_matrix(n, d)
        tol = 4 * np.spacing(n * math.log(params.population))
        blocks = list(leaf_log_pmfs(params, count_vector_levels(n, d)))
        log_q, r = (np.concatenate(parts) for parts in zip(*blocks))
        log_p = log_q + r
        # the row kernels add the fold's table entries in the fold's order
        want_q = multinomial_log_pmf_matrix(params.sample_size, params.weights, points)
        assert log_q.tobytes() == want_q.tobytes()
        if 2 * n <= params.population:
            full = np.column_stack([points, n - points.sum(axis=1)])
            assert r.tobytes() == log_ratio_matrix(params.counts, full).tobytes()
        want_p = hypergeometric_log_pmf_matrix(params, points)
        assert np.array_equal(np.isneginf(log_p), np.isneginf(want_p))
        finite = np.isfinite(want_p)
        assert np.abs(log_p[finite] - want_p[finite]).max() <= tol
        return log_p

    @given(experiment_params(max_dim=3, max_count=6, max_draws=8))
    def test_fold_matches_the_matrices(self, params):
        self._check(params)

    def test_census_flipped_instances(self):
        for params in (validate_params(12, 9, (3, 4, 5)), validate_params(20, 15, (8, 12))):
            # 2n > N: every row flips
            assert np.isfinite(self._check(params)).sum() == len(support_matrix(params))
        # a census draws everything; read at c - k its one row is certain, exactly
        log_p = self._check(validate_params(12, 12, (3, 4, 5)))
        assert log_p[np.isfinite(log_p)].tolist() == [0.0]

    def test_one_log_weight_vector_past_2_53(self):
        # numpy's c / N rounds c to a float first, then the quotient; every
        # route reads params.weights, each c_i / N rounded once, so the fold,
        # the row kernel and the hypergeometric kernel read one Q
        params = validate_params(2**55 + 3, 7, (2**54, 2**54 + 3))
        points = count_vector_matrix(7, 1)
        full = np.column_stack([points, 7 - points.sum(axis=1)])
        log_q = multinomial_log_pmf_matrix(7, params.weights, points)
        fold_q = np.concatenate([q for q, _ in leaf_log_pmfs(params, count_vector_levels(7, 1))])
        assert fold_q.tobytes() == log_q.tobytes()
        log_p = log_q + log_ratio_matrix(params.counts, full)
        assert hypergeometric_log_pmf_matrix(params, points).tobytes() == log_p.tobytes()


class TestSharedMultinomialRows:
    @given(st.lists(experiment_params(max_dim=3, max_count=40, max_draws=12),
                    min_size=1, max_size=5).filter(lambda f: len({p.dim for p in f}) == 1))
    def test_a_column_of_weights_per_row_is_each_law_alone(self, family):
        points = [count_vector_matrix(p.sample_size, p.dim) for p in family]
        sizes = [len(x) for x in points]
        ks = np.concatenate([pmf._full_count_matrix(x, p.dim, p.sample_size)
                             for x, p in zip(points, family)])
        log_w = np.repeat(np.log([p.weights for p in family]).T, sizes, axis=1)
        want = np.concatenate([multinomial_log_pmf_matrix(p.sample_size, p.weights, x)
                               for x, p in zip(points, family)])
        assert _multinomial_log_pmf_rows(log_w, ks).tobytes() == want.tobytes()

    @given(experiment_params(max_dim=3, max_count=9, max_draws=9))
    def test_columns_add_left_to_right_as_a_row_loop(self, params):
        # the kernel sums whole columns; this loop adds each row's terms in
        # the same order, one scalar at a time: ln t!, then k ln w_i - ln k!
        # per column, left to right
        log_w = np.log(np.array(params.weights))
        ks = np.array([
            row + (params.sample_size - sum(row),)
            for row in map(tuple, count_vector_matrix(params.sample_size, params.dim).tolist())
        ])
        got = _multinomial_log_pmf_rows(log_w, ks)
        for row, value in zip(ks.tolist(), got.tolist()):
            total = log_factorial(sum(row))
            for k, w in zip(row, log_w):
                total += k * w - log_factorial(k)
            assert value == total


_PARAMS_12 = validate_params(12, 5, (6, 6))
# each public entry that reads lattice coordinates, at a point or points
_COORDINATE_GATES = {
    "hypergeometric_log_pmf_matrix": lambda k: hypergeometric_log_pmf_matrix(_PARAMS_12, [[k]]),
    "hypergeometric_log_pmf": lambda k: hypergeometric_log_pmf(_PARAMS_12, (k,)),
    "multinomial_log_pmf_matrix": lambda k: multinomial_log_pmf_matrix(5, (0.5, 0.5), [[k]]),
    "multinomial_log_pmf": lambda k: multinomial_log_pmf(5, (0.5, 0.5), (k,)),
    "point_in_support": lambda k: point_in_support(_PARAMS_12, (k,)),
    "expand": lambda k: expand(_PARAMS_12, (k,)).exact,
    "first_order_bracket": lambda k: first_order_bracket(_PARAMS_12, (k,)),
    "log_factorial": lambda k: log_factorial(k),
    "residual_scan": lambda k: residual_scan(
        [validate_params(N, 8, (N // 2, N // 2)) for N in (16, 32, 64, 128, 256)],
        lambda p: (k,), order=1),
}


@pytest.mark.parametrize("value", [1.5, 1.9, -0.5, math.nan, math.inf, np.float64(2.25)])
@pytest.mark.parametrize("entry", list(_COORDINATE_GATES))
def test_a_coordinate_that_is_not_whole_is_refused(entry, value):
    # truncating would read another lattice point: 1.5 as 1
    with pytest.raises(ValidationError):
        _COORDINATE_GATES[entry](value)


@pytest.mark.parametrize("entry", list(_COORDINATE_GATES))
def test_a_whole_float_reads_as_its_integer(entry):
    call = _COORDINATE_GATES[entry]
    assert call(2.0) == call(2) and call(np.float64(2.0)) == call(2)


# each with-replacement entry, at a sample size
_SAMPLE_SIZE_GATES = {
    "multinomial_moments": lambda n: multinomial_moments(n, (0.5, 0.5)),
    "multinomial_log_pmf_matrix": lambda n: multinomial_log_pmf_matrix(n, (0.5, 0.5), [[0]]),
    "multinomial_log_pmf": lambda n: multinomial_log_pmf(n, (0.5, 0.5), (0,)),
    "sample_multinomial": lambda n: sample_multinomial(n, (0.5, 0.5), make_generator(0)),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, np.float64(3.0)])
@pytest.mark.parametrize("entry", list(_SAMPLE_SIZE_GATES))
def test_a_sample_size_that_is_not_a_positive_integer_is_refused(entry, value):
    with pytest.raises(ValidationError, match="sample_size must be a positive integer"):
        _SAMPLE_SIZE_GATES[entry](value)


def _rows_off_the_support(dim, n):
    """Rows off the support of n draws: negative coordinates, one past n,
    d coordinates of n each (in range, summing past n, and past 2**63 where
    n = 2**62), and d of 2**62 (past n, summing past 2**63)."""
    pad = (0,) * (dim - 1)
    rows = [(-1, *pad), (*pad, -(2**62)), (n + n // 2, *pad)]  # each exact as a float
    if dim > 1:
        rows.append((n,) * dim)
    if n < 2**62:
        rows.append((2**62,) * dim)
    return rows


def _log_pmfs(params, rows):
    """Each entry that reads a lattice law's log-pmf, at every row, keyed by
    its law and its name."""
    n, w, x = params.sample_size, params.weights, np.array(rows, float)
    return {
        ("hyper", "matrix"): hypergeometric_log_pmf_matrix(params, rows),
        ("multi", "matrix"): multinomial_log_pmf_matrix(n, w, rows),
        ("hyper", "scalar"): [hypergeometric_log_pmf(params, r) for r in rows],
        ("multi", "scalar"): [multinomial_log_pmf(n, w, r) for r in rows],
        ("hyper", "JitteredLaw"): JitteredLaw(params, "hyper").log_density(x),
        ("multi", "JitteredLaw"): JitteredLaw(params, "multi").log_density(x),
    }


@pytest.mark.parametrize("dim", range(1, 7))
def test_every_row_off_the_support_is_impossible(dim):
    # the last count n - sum k must not wrap int64 into a finite log-pmf
    desk = validate_params(10 * (dim + 1), 10, (10,) * (dim + 1))
    share = (2**63 - 1) // (dim + 1)
    wide = validate_params(share * (dim + 1), 2**62, (share,) * (dim + 1))
    for params in (desk, wide):
        off = _rows_off_the_support(dim, params.sample_size)
        for entry, got in _log_pmfs(params, off).items():
            assert list(got) == [-np.inf] * len(got), (entry, params.sample_size)
    pad = (0,) * (dim - 1)
    on = [(0,) * dim, (1,) * dim, (10, *pad), (*pad, 3)]
    oracle = {"hyper": oracles.log_hyper_prob, "multi": oracles.log_multi_prob}
    for (law, name), got in _log_pmfs(desk, on).items():
        want = [float(oracle[law](desk.population, desk.counts, 10, r)) for r in on]
        assert list(got) == pytest.approx(want, rel=1e-13), (law, name)


class TestMoments:
    def test_hypergeometric_exact(self):
        m = hypergeometric_moments(THREE_CAT)
        assert m.mean == pytest.approx([4 / 3, 4 / 3], abs=1e-14)
        factor = 4 * (12 - 4) / 11
        expected = factor * np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])
        assert m.covariance == pytest.approx(expected, abs=1e-14)

    def test_multinomial_exact(self):
        m = multinomial_moments(THREE_CAT.sample_size, THREE_CAT.weights)
        expected = 4 * np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])
        assert m.covariance == pytest.approx(expected, abs=1e-14)

    def test_census_has_zero_variance(self):
        m = hypergeometric_moments(validate_params(7, 7, (3, 4)))
        assert m.covariance == pytest.approx(np.zeros((1, 1)), abs=1e-14)

    @given(experiment_params())
    def test_match_enumeration(self, params):
        points = support_matrix(params).astype(float)
        probs = np.exp(hypergeometric_log_pmf_matrix(params, support_matrix(params)))
        m = hypergeometric_moments(params)
        mean = probs @ points
        assert mean == pytest.approx(m.mean, abs=1e-10)
        centered = points - mean
        cov = (probs[:, None] * centered).T @ centered
        assert cov == pytest.approx(m.covariance, abs=1e-10)


class TestSamplers:
    def test_hypergeometric_frequencies(self):
        rng = make_generator(11)
        draws = sample_hypergeometric(BALANCED, rng, size=200_000)
        assert draws.shape == (200_000, 1)
        freq = np.mean(draws[:, 0] == 2)
        target = 25 / 63
        se = math.sqrt(target * (1 - target) / 200_000)
        assert abs(freq - target) < 5 * se

    def test_hypergeometric_stays_in_support(self):
        rng = make_generator(3)
        draws = sample_hypergeometric(THREE_CAT, rng, size=5000)
        rest = THREE_CAT.sample_size - draws.sum(axis=1)
        assert (draws >= 0).all() and (rest >= 0).all()
        assert (draws <= np.array(THREE_CAT.counts[:-1])).all()
        assert (rest <= THREE_CAT.counts[-1]).all()

    def test_multinomial_mean(self):
        rng = make_generator(5)
        draws = sample_multinomial(
            THREE_CAT.sample_size, THREE_CAT.weights, rng, size=200_000
        )
        mean = draws.mean(axis=0)
        m = multinomial_moments(THREE_CAT.sample_size, THREE_CAT.weights)
        se = np.sqrt(np.diag(m.covariance) / 200_000)
        assert (np.abs(mean - m.mean) < 5 * se).all()

    def test_single_draw_is_tuple(self):
        rng = make_generator(0)
        point = sample_hypergeometric(BALANCED, rng)
        assert isinstance(point, tuple) and len(point) == 1
        point = sample_multinomial(BALANCED.sample_size, BALANCED.weights, rng)
        assert isinstance(point, tuple) and len(point) == 1

    def test_seeded_streams_reproduce(self):
        a = sample_hypergeometric(THREE_CAT, make_generator(42), size=64)
        b = sample_hypergeometric(THREE_CAT, make_generator(42), size=64)
        assert (a == b).all()

    @pytest.mark.parametrize("law", ["hyper", "multi"])
    def test_size_must_be_an_integer(self, law):
        with pytest.raises(ValidationError, match="size must be a positive integer"):
            _sample(THREE_CAT, law, make_generator(0), 2.5)

    def test_census_sampling_is_exact(self):
        params = validate_params(7, 7, (3, 4))
        draws = sample_hypergeometric(params, make_generator(1), size=100)
        assert (draws[:, 0] == 3).all()

    @pytest.mark.parametrize("law", ["hyper", "multi"])
    def test_tables_are_charged_to_the_cap_before_any_is_built(self, monkeypatch, law):
        # dim (n + 1) entries: 2 * 500 fit a cap of 1000, 2 * 501 do not;
        # at n = 687,498,282 the tables would take gigabytes
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setenv(SUPPORT_CAP_ENV, "1000")
        _sample(validate_params(3 * 499, 499, (499,) * 3), law, make_generator(0), 10)
        monkeypatch.setattr(pmf, "_log_pmf_tables", refuse)
        for n in (500, 687_498_282):
            with pytest.raises(SupportCapError) as err:
                _sample(validate_params(3 * n, n, (n,) * 3), law, make_generator(0), 10)
            assert (err.value.required, err.value.cap) == (2 * (n + 1), 1000)


class _FixedUniforms:
    """A generator stand-in: its i-th batch of uniforms is ``batches[i]``, and
    the last one repeats; a batch is an array or one value for every draw."""

    def __init__(self, *batches):
        self.batches = list(batches)

    def random(self, size):
        batch = self.batches.pop(0) if len(self.batches) > 1 else self.batches[0]
        return np.broadcast_to(np.asarray(batch, dtype=float), (size,)).copy()


class TestInversionEdges:
    ABOVE = validate_params(10, 8, (3, 7))  # first count feasible in [1, 3]

    def test_zero_uniform_gives_lowest_feasible_count(self):
        draws = sample_hypergeometric(self.ABOVE, _FixedUniforms(0.0), size=4)
        assert (draws[:, 0] == 1).all()
        point = sample_multinomial(8, self.ABOVE.weights, _FixedUniforms(0.0))
        assert point == (0,)

    def test_largest_uniform_gives_highest_feasible_count(self):
        top = _FixedUniforms(np.nextafter(1.0, 0.0))
        assert (sample_hypergeometric(self.ABOVE, top, size=4)[:, 0] == 3).all()
        assert sample_multinomial(8, self.ABOVE.weights, top) == (8,)

    @pytest.mark.parametrize("u", [0.0, 0.5, np.nextafter(1.0, 0.0)])
    def test_census_draws_exactly_the_counts(self, u):
        params = validate_params(12, 12, (3, 4, 5))
        draws = sample_hypergeometric(params, _FixedUniforms(u), size=3)
        assert (draws == [3, 4]).all()

    def test_conditional_weight_rounding_to_one(self):
        # the second conditional probability 0.5 / (0.5 + 1e-300) rounds to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_multinomial(5, (0.5, 0.5, 1e-300), make_generator(0), size=1000)
        assert (draws.sum(axis=1) == 5).all()


def _feasible(params, law, t, i):
    """Coordinate i's lowest and highest feasible counts given t draws left."""
    if law == "multi":
        return np.zeros_like(t), t
    rest = params.population - sum(params.counts[: i + 1])
    return np.maximum(t - rest, 0), np.minimum(t, params.counts[i])


def _sample(params, law, rng, size):
    if law == "hyper":
        return sample_hypergeometric(params, rng, size=size)
    return sample_multinomial(params.sample_size, params.weights, rng, size=size)


@pytest.fixture(params=[1, pmf._TABLE_BLOCK], ids=["row-blocks", "one-block"])
def table_block(request, monkeypatch):
    """Both the default block and one table row per block."""
    monkeypatch.setattr(pmf, "_TABLE_BLOCK", request.param)
    return request.param


class TestInversionEdgesAcrossDrawCounts:
    # d >= 2: a spread of first-coordinate uniforms leaves the later
    # coordinates several draw counts each, among them t = 0 (a one-entry
    # table) in the first and third instances, and lowest counts above 0 in
    # the second
    INSTANCES = [
        validate_params(20, 6, (6, 4, 10)),
        validate_params(12, 8, (5, 4, 3)),
        validate_params(30, 8, (8, 5, 6, 11)),
    ]
    SPREAD = np.append(np.linspace(0.0, 1.0, 60, endpoint=False), 1 - np.logspace(-3, -15, 4))

    @pytest.mark.parametrize("law", ["hyper", "multi"])
    @pytest.mark.parametrize("params", INSTANCES, ids=["t0", "low-above-0", "d3"])
    @pytest.mark.parametrize("end", ["lowest", "highest"])
    def test_later_coordinates_hit_their_ends(self, table_block, params, law, end):
        u = 0.0 if end == "lowest" else np.nextafter(1.0, 0.0)
        draws = _sample(params, law, _FixedUniforms(self.SPREAD, u), 64)
        t = params.sample_size - draws[:, 0]
        assert np.unique(t).size >= 4
        if params.counts[0] >= params.sample_size:
            assert (t == 0).any()
        for i in range(1, params.dim):
            low, high = _feasible(params, law, t, i)
            assert (draws[:, i] == (low if end == "lowest" else high)).all()
            t = t - draws[:, i]

    @pytest.mark.parametrize("law", ["hyper", "multi"])
    def test_every_cdf_boundary_matches_the_one_table_per_count(self, table_block, law):
        # uniforms at, just below and just above every entry of each draw
        # count's 1-D cdf, read from the coordinate's tables one count at a
        # time: an entry of the blocked 2-D table off by one ulp would move a draw
        params = validate_params(4096, 60, (1024, 1024, 2048))
        spread = np.linspace(0.0, 1.0, 400, endpoint=False)
        t = params.sample_size - _sample(params, law, _FixedUniforms(spread, 0.5), 400)[:, 0]
        # coordinate 1's two tables, as the sampler builds them; at most 60
        # of its c + o = 3072 objects are drawn, so no row flips
        n = params.sample_size
        if law == "hyper":
            pair = np.array(params.counts[1:])
            multi, ratio = _log_pmf_tables(np.log(pair / pair.sum()), n, pair)
            tables = multi + ratio
        else:
            w = np.array(params.weights)
            tails = [math.fsum(w[1:]), math.fsum(w[2:])]
            tables = _log_pmf_tables(np.log(np.array([w[1], tails[1]]) / tails[0]), n)[0]
        u, want = np.empty(400), np.empty(400, dtype=np.int64)
        for j, (tj, low, high) in enumerate(zip(t, *_feasible(params, law, t, 1))):
            ks = np.arange(low, high + 1)
            log_pmf = tables[0][ks] + tables[1][tj - ks]
            cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
            cdf /= cdf[-1]
            at = cdf[(j // 3) % ks.size]
            u[j] = min(np.nextafter(at, at - 1 + j % 3), np.nextafter(1.0, 0.0))
            want[j] = ks[np.searchsorted(cdf, u[j])]
        draws = _sample(params, law, _FixedUniforms(spread, u), 400)
        assert (draws[:, 1] == want).all()


def _searchsorted_per_row(cdf, u, rows=None):
    """Row r's ``np.searchsorted`` (side left) per uniform, as a flat index into
    ``cdf``: plus r * width.  ``rows=None`` means the one row of ``cdf``."""
    if rows is None:
        assert cdf.shape[0] == 1
        return np.searchsorted(cdf[0], u)
    want = np.empty(u.size, dtype=np.intp)
    for r in np.unique(rows):
        at = rows == r
        want[at] = r * cdf.shape[1] + np.searchsorted(cdf[r], u[at])
    return want


def _assert_search_is_searchsorted(cdf, rows, u):
    got = _first_at_least(cdf, u) if rows is None else _first_at_least(cdf, u, rows)
    assert got.tolist() == _searchsorted_per_row(cdf, u, rows).tolist()


def _normalised_cdf(mass):
    cdf = np.cumsum(mass, axis=1)
    return cdf / cdf[:, -1:]


def test_halving_search_is_searchsorted():
    # rows with ties (counts of zero mass), one with all its mass on its
    # first count; uniforms at 0, on entries, between them and just below 1
    rng = np.random.default_rng(3)
    mass = rng.random((5, 9)) * (rng.random((5, 9)) < 0.6)
    mass[:, 0], mass[4, 1:] = 1.0, 0.0
    cdf = _normalised_cdf(mass)
    rows = np.repeat(np.arange(5), 40)
    u = np.concatenate([cdf[r][rng.integers(0, 9, 20)] for r in range(5)])
    u = np.stack([u, rng.random(u.size)], axis=1).reshape(-1)
    u[::37], u[5::37] = 0.0, 1.0
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    _assert_search_is_searchsorted(cdf, rows, u)
    # rows of width 1, 2, 2**j and 2**j + 1, whose guides have 1, 2, 2**j and
    # 2**(j + 1) cells, with ties and all the mass on the first or last count;
    # uniforms at 0, on every entry and at 1 - 2**-53, all at once, eight
    # times over (a guide 4 or 8 times finer) and a sparse subset of fewer
    # uniforms than half the entries
    top = np.nextafter(1.0, 0.0)
    for width in (1, 2, 8, 9, 16, 17):
        mass = rng.random((6, width)) * (rng.random((6, width)) < 0.6)
        mass[:, 0] += 1e-3
        mass[4], mass[5] = 0.0, 0.0
        mass[4, 0], mass[5, -1] = 1.0, 1.0
        cdf = _normalised_cdf(mass)
        u = np.minimum(np.concatenate([[0.0] * 6, cdf.ravel(), [top] * 6]), top)
        rows = np.concatenate([np.arange(6), np.repeat(np.arange(6), width), np.arange(6)])
        _assert_search_is_searchsorted(cdf, rows, u)
        _assert_search_is_searchsorted(cdf, np.tile(rows, 8), np.tile(u, 8))
        few = rng.choice(u.size, (cdf.size - 1) // 2, replace=False)
        _assert_search_is_searchsorted(cdf, rows[few], u[few])


def test_guided_search_where_the_mass_piles_into_end_cells():
    # a d=1 row at n = 10**5: about 49,000 entries of each tail lie below
    # 1/G (the guide's first cell) or at least 1 - 1/G (its last cell, or
    # exactly 1.0), so uniforms there outrun the bounded walk and finish by
    # the halving search inside their cell
    n = 100_000
    ks = np.arange(n + 1)
    log_pmf = _multinomial_log_pmf_rows(np.log([0.5, 0.5]), np.column_stack([ks, n - ks]))
    cdf = _normalised_cdf(np.exp(log_pmf - log_pmf.max())[None, :])
    cells = 1 << n.bit_length()
    assert (cdf < 1 / cells).sum() > 45_000 and (cdf >= 1 - 1 / cells).sum() > 45_000
    top = np.nextafter(1.0, 0.0)
    u = np.minimum(np.concatenate([[0.0], cdf[0], np.nextafter(cdf[0], 0.0), [top]]), top)
    _assert_search_is_searchsorted(cdf, np.zeros(u.size, dtype=np.int64), u)
    # the sampler's first coordinate omits rows; with at least 8 uniforms per
    # coarse cell the guide is 8 times finer, and the piled cells stay piled
    _assert_search_is_searchsorted(cdf, None, u)
    _assert_search_is_searchsorted(cdf, None, np.tile(u, 6))


@pytest.mark.parametrize("uniforms", [5, 4000], ids=["coarse-guide", "fine-guide"])
@pytest.mark.parametrize("width", [1, 2, 9, 16, 17, 1000])
def test_search_of_one_row_with_rows_omitted(width, uniforms):
    # ties, leading counts of zero mass and all the mass on one count; the
    # uniforms include 0, every entry and 1 - 2**-53, with as few uniforms
    # as entries or fewer (a guide of 2**ceil(log2 width) cells) and with up
    # to _GUIDE_FINENESS times more (a guide that many times finer)
    rng = np.random.default_rng(width)
    top = np.nextafter(1.0, 0.0)
    for mass in (rng.random(width) * (rng.random(width) < 0.6), np.eye(width)[width // 2]):
        mass[0] = 0.0 if width > 1 else 1.0
        mass[-1] += 1e-3
        cdf = _normalised_cdf(mass[None, :])
        u = np.concatenate([[0.0, top], cdf[0], rng.random(uniforms)])
        u = np.minimum(u, top)[:uniforms]
        _assert_search_is_searchsorted(cdf, None, u)
        # as Monte Carlo searches: blocks of uniforms through one guide, built
        # for more uniforms than any block (as fine as a guide gets)
        guide = _guide(cdf, 64 * width)
        got = np.concatenate([_guided_search(cdf, guide, b) for b in np.array_split(u, 3)])
        assert got.tolist() == _searchsorted_per_row(cdf, u).tolist()


@pytest.mark.parametrize("uniforms", [4, 5000], ids=["coarse-guide", "fine-guide"])
def test_search_at_the_extreme_uniforms(uniforms):
    # u = 0 finds each row's first entry, 0 where counts of zero mass lead;
    # u = 1 - 2**-53 the first entry at 1.0, before any trailing zero mass
    rng = np.random.default_rng(4)
    mass = rng.random((4, 13)) + 1e-3
    mass[0, :5] = mass[1, -6:] = 0.0
    mass[2], mass[3] = 0.0, 0.0
    mass[2, 0] = mass[3, 6] = 1.0
    cdf = _normalised_cdf(mass)
    rows = np.arange(uniforms) % 4
    for u in (0.0, np.nextafter(1.0, 0.0)):
        _assert_search_is_searchsorted(cdf, rows, np.full(uniforms, u))


@pytest.mark.parametrize("law", ["hyper", "multi"])
def test_sampler_memory_is_bounded_by_the_block(law):
    # d=3 at n=10^4: the later coordinates see over 200 draw counts each,
    # with tables of about 7,500 entries.  One table of every count at once
    # peaked at about 215 MB here; blocks of _TABLE_BLOCK entries at about
    # 1.4 to 3 MB, most of it building each coordinate's tables.
    # Every block builds its guide, with far fewer uniforms than entries
    params = validate_params(10**6, 10_000, (250_000,) * 4)
    tracemalloc.start()
    try:
        draws = _sample(params, law, make_generator(0), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.unique(draws[:, 0]).size >= 100
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("law", ["hyper", "multi"])
def test_guided_search_memory_at_a_wide_row(law):
    # d=1 at n=10^5: one row of 100,001 entries, longer than a block, and
    # 10^5 uniforms, so the guide has 2**17 + 1 cells.  The peak, about 9.5
    # to 15 MB, is set by the row's gathers, its table and the draws
    params = validate_params(10**6, 10**5, (500_000, 500_000))
    tracemalloc.start()
    try:
        draws = _sample(params, law, make_generator(0), 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (10**5, 1)
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("size", [1, 1000])
@pytest.mark.parametrize("counts", [(5, 5), (4, 4, 4), (3,) * 5], ids=["d1", "d2", "d4"])
@pytest.mark.parametrize("law", ["hyper", "multi"])
def test_samplers_return_c_ordered_draws(law, counts, size):
    # the sampler fills one coordinate's draws at a time, then lays them out
    params = validate_params(sum(counts), 6, counts)
    draws = _sample(params, law, make_generator(0), size)
    assert draws.shape == (size, params.dim) and draws.dtype == np.int64
    assert draws.flags.c_contiguous and draws.strides == (8 * params.dim, 8)


def _draw_digest(draws) -> str:
    """First 16 hex digits of the sha256 of draws as little-endian int64."""
    return hashlib.sha256(np.ascontiguousarray(draws, dtype="<i8").tobytes()).hexdigest()[:16]


def _pinned_digests(population, draws, counts, size, seed=0):
    params = validate_params(population, draws, counts)
    return tuple(
        _draw_digest(_sample(params, law, make_generator(seed), size)) for law in ("hyper", "multi")
    )


M6 = 10**6

# (N, n, counts, size, hypergeometric digest, multinomial digest) at seed 0:
# the five mc-draws instances of bench/workloads.py, d=3 at n=10^4 (whose
# later coordinates see hundreds of draw counts, so their tables span several
# blocks), two census-flipped instances and a census.  Made at commit 897bd35,
# before the samplers were batched, by this file's helpers (they call only the
# public samplers) from the repository root:
#   PYTHONPATH=src:tests python -c "import test_pmf as t; \
#     [print(c[:4], t._pinned_digests(*c[:4])) for c in t.PINNED_DRAWS]"
PINNED_DRAWS = [
    (M6, 500, (M6 // 2, M6 // 2), 20_000, "fd3810e6583115d2", "792324fcaa2ae9b4"),
    (M6, 1100, (M6 // 2, M6 // 2), 20_000, "efde772d8f084945", "85f0fa23d4f51582"),
    (4096, 16, (1024, 1024, 2048), 20_000, "84d630f96e901aa6", "048e53585bd9c060"),
    (500, 10, (100,) * 5, 20_000, "3a49b82ff6a2f5bf", "855500e10ff4b5f3"),
    (M6, 10_000, (M6 // 4,) * 4, 2_000, "6715750b1ff07cd6", "58d128d05d58a232"),
    (12, 9, (1, 1, 10), 20_000, "3e0bf92b3576abcd", "66851a37ff063941"),
    (20, 15, (3, 5, 12), 20_000, "be0a5ca681ce219d", "e73e32afab981198"),
    (12, 12, (3, 4, 5), 1_000, "8ecb3e6c7ac58035", "cd35b13269d4e6d2"),
]


@pytest.mark.parametrize("case", PINNED_DRAWS, ids=lambda c: f"N{c[0]}-n{c[1]}-d{len(c[2]) - 1}")
def test_draws_are_pinned(case):
    assert _pinned_digests(*case[:4]) == case[4:]


@pytest.mark.parametrize("case", [PINNED_DRAWS[i] for i in (2, 3, 6)],
                         ids=["N4096-n16-d2", "N500-n10-d4", "N20-n15-d2"])
def test_pinned_draws_do_not_depend_on_the_block(monkeypatch, case):
    monkeypatch.setattr(pmf, "_TABLE_BLOCK", 20)
    assert _pinned_digests(*case[:4]) == case[4:]


@pytest.mark.parametrize("case", [c for c in PINNED_DRAWS if len(c[2]) in (3, 5)],
                         ids=lambda c: f"N{c[0]}-n{c[1]}-d{len(c[2]) - 1}")
def test_each_coordinate_builds_its_tables_once(monkeypatch, case):
    # blocks of 20 entries split the later coordinates' rows over many
    # blocks, which all read the tables built once per coordinate; where some
    # c_i < n (and at the census) the tables hold entries that are not
    # finite past c_i, and no row reads one
    build, builds = pmf._log_pmf_tables, []

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(pmf, "_log_pmf_tables", counted)
    monkeypatch.setattr(pmf, "_TABLE_BLOCK", 20)
    N, n, counts, size = case[:4]
    params = validate_params(N, n, counts)
    for law, digest in zip(("hyper", "multi"), case[4:]):
        builds.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = _sample(params, law, make_generator(0), size)
        assert len(builds) == params.dim
        assert _draw_digest(draws) == digest


@pytest.mark.parametrize("block", [None, 40], ids=["one-block", "several-blocks"])
@pytest.mark.parametrize("law", ["hyper", "multi"])
@pytest.mark.parametrize("case", [PINNED_DRAWS[i] for i in (0, 2, 3)],
                         ids=["N1e6-n500-d1", "N4096-n16-d2", "N500-n10-d4"])
def test_sampler_searches_are_searchsorted(monkeypatch, block, law, case):
    # every search the sampler makes, in one block per coordinate or several,
    # against np.searchsorted row by row; the first coordinate searches one
    # row with rows omitted, and the draws keep their pinned digest
    search, calls = pmf._first_at_least, []

    def checked(cdf, u, rows=None):
        got = search(cdf, u, rows)
        assert got.tolist() == _searchsorted_per_row(cdf, u, rows).tolist()
        calls.append(rows is None)
        return got

    monkeypatch.setattr(pmf, "_first_at_least", checked)
    if block:
        monkeypatch.setattr(pmf, "_TABLE_BLOCK", block)
    N, n, counts, size = case[:4]
    params = validate_params(N, n, counts)
    draws = _sample(params, law, make_generator(0), size)
    assert _draw_digest(draws) == case[4 if law == "hyper" else 5]
    assert calls[0] and not any(calls[1:])
    dim = len(counts) - 1
    # the first coordinate's one row is one block at any block size
    assert len(calls) > dim if block and dim > 1 else len(calls) == dim


def test_rounded_to_one_weight_draws_are_pinned():
    draws = sample_multinomial(5, (0.5, 0.5, 1e-300), make_generator(0), size=1000)
    assert _draw_digest(draws) == "b852f6fadd176343"


def _mc_argv(pair, population, draws, counts):
    return ["tv", "--pair", pair, "--N", population, "--n", draws, "--Np", counts,
            "--method", "mc", "--samples", "100000", "--seed", "7", "--json"]


def _mc_output(pair, population, draws, counts):
    """The tv and error_estimate that ``lecam tv --json`` prints for this Monte Carlo run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(_mc_argv(pair, population, draws, counts)) == 0
    printed = json.loads(out.getvalue())
    return printed["tv"], printed["error_estimate"]


# (pair, N, n, counts, tv, error_estimate) of `lecam tv --method mc --samples
# 100000 --seed 7 --json` on the first four mc-draws instances of
# bench/workloads.py.  Made by this file's helper (it calls only the CLI)
# from the repository root:
#   PYTHONPATH=src:tests python -c "import test_pmf as t; \
#     [print(c[:4], t._mc_output(*c[:4])) for c in t.PINNED_MC_OUTPUTS]"
# The d=2 and d=4 rows were remade when Monte Carlo began to draw from the
# tabled support, one uniform per draw instead of one per coordinate; the
# d=1 rows, whose draws did not change, were not.
PINNED_MC_OUTPUTS = [
    ("jitterhyper-gauss", "1000000", "500", "500000,500000",
     0.008961170587844628, 4.960310187833232e-05),
    ("jittermulti-gauss", "1000000", "500", "500000,500000",
     0.00896439572342766, 5.001757409832744e-05),
    ("jitterhyper-gauss", "4096", "16", "1024,1024,2048",
     0.10570747151942465, 0.00047759232588554846),
    ("jitterhyper-jittermulti", "500", "10", "100,100,100,100,100",
     0.010269477446259874, 3.673631135460912e-05),
]


@pytest.mark.parametrize("pair, N, n, counts, tv, error", PINNED_MC_OUTPUTS)
def test_monte_carlo_outputs_are_pinned(capsys, pair, N, n, counts, tv, error):
    assert main(_mc_argv(pair, N, n, counts)) == 0
    want = (f'{{\n  "tv": {tv!r},\n  "method": "monte-carlo",\n'
            f'  "error_estimate": {error!r}\n}}\n')
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("pair, N, n, counts", [
    *(case[:4] for case in PINNED_MC_OUTPUTS),
    ("jitterhyper-gauss", "600", "30", "120,120,120,120,120"),
], ids=["d1-hyper", "d1-multi", "d2", "d4-jittered", "d4-sampler"])
def test_monte_carlo_outputs_do_not_hang_on_the_block(monkeypatch, capsys, pair, N, n, counts):
    # 10,007 draws end in a ragged block at every block size; the last
    # instance's 46,376 count vectors outnumber them, so it runs the sampler
    argv = _mc_argv(pair, N, n, counts)
    argv[argv.index("100000")] = "10007"
    printed = []
    for block in (7, 1000, distances._MC_BLOCK):
        monkeypatch.setattr(distances, "_MC_BLOCK", block)
        assert main(argv) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == printed[2]


@pytest.mark.parametrize("sample_size", [2000, 10_000])
@pytest.mark.parametrize("law", ["hyper", "multi"])
def test_samplers_match_exact_pmf_at_large_n(law, sample_size):
    # Chi-square of 10^5 draws against the 50-digit oracle pmf, bins under 5
    # expected draws pooled.  At p = 1/2 a CDF walk started from the lowest
    # count's mass 2^-n underflows, and every draw would come back as n.
    N, m = 10**6, 100_000
    params = validate_params(N, sample_size, (N // 2, N // 2))
    rng = make_generator(2024)
    if law == "hyper":
        draws = sample_hypergeometric(params, rng, size=m)
        log_prob = oracles.log_hyper_prob
    else:
        draws = sample_multinomial(sample_size, params.weights, rng, size=m)
        log_prob = oracles.log_multi_prob
    half = int(6 * math.sqrt(sample_size / 4))
    ks = np.arange(sample_size // 2 - half, sample_size // 2 + half + 1)
    expected = m * np.array(
        [math.exp(float(log_prob(N, params.counts, sample_size, (int(k),)))) for k in ks]
    )
    observed = np.bincount(draws[:, 0], minlength=sample_size + 1)[ks]
    keep = expected >= 5
    obs = np.append(observed[keep], m - observed[keep].sum())
    exp = np.append(expected[keep], m - expected[keep].sum())
    statistic = float(((obs - exp) ** 2 / exp).sum())
    assert stats.chi2.sf(statistic, obs.size - 1) > 1e-4, statistic
