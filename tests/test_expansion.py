import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from lecam import (
    ValidationError,
    expand,
    expansion_order1,
    expansion_order2,
    first_order_bracket,
    log_ratio_exact,
    residual_scan,
    second_order_bracket,
    validate_params,
)
from lecam import expansion, pmf
from lecam.lattice import full_counts, in_truncated_set, point_in_support
from strategies import params_with_point

BALANCED = validate_params(10, 5, (5, 5))

DOUBLING_FAMILY = [validate_params(N, 8, (N // 2, N // 2)) for N in (16, 32, 64, 128, 256)]


class TestPointExpansion:
    def test_frozen_exact_log_ratio(self):
        # mpmath oracle: 0.23889190828234892437
        assert log_ratio_exact(BALANCED, (2,)) == pytest.approx(
            0.23889190828234892, abs=1e-14
        )

    def test_frozen_truncations(self):
        assert expansion_order1(BALANCED, (2,)) == pytest.approx(0.2, abs=1e-15)
        assert expansion_order2(BALANCED, (2,)) == pytest.approx(0.23, abs=1e-15)

    def test_residual_identities(self):
        r = expand(BALANCED, (2,))
        assert r.residual1 == pytest.approx(r.exact - r.order1, abs=1e-16)
        assert r.residual2 == pytest.approx(r.exact - r.order2, abs=1e-16)
        assert r.order2 - r.order1 == pytest.approx(
            float(second_order_bracket(BALANCED, (2,)) / BALANCED.population**2), abs=1e-15
        )

    def test_off_support_rejected(self):
        with pytest.raises(ValidationError):
            expand(BALANCED, (6,))

    def test_census_ratio_diverges_nowhere(self):
        # n = 1 makes the two laws identical, so the ratio vanishes
        params = validate_params(10, 1, (5, 5))
        for point in ((0,), (1,)):
            assert log_ratio_exact(params, point) == pytest.approx(0.0, abs=1e-14)

    def test_census_point_mass_ratio(self):
        # drawing everything concentrates the without-replacement law on one
        # point, so the log-ratio there is -ln Q(point) > 0
        params = validate_params(10, 10, (5, 5))
        expected = -math.log(math.comb(10, 5) / 2**10)
        value = log_ratio_exact(params, (5,))
        assert value > 0
        assert value == pytest.approx(expected, abs=1e-13)

    def test_symmetric_full_split_first_order(self):
        # n=2, balanced split, k=(1): the k-bracket vanishes and the n-bracket
        # is 1, leaving exactly 1/N
        for population in (10, 12, 40):
            params = validate_params(population, 2, (population // 2, population // 2))
            assert expansion_order1(params, (1,)) == pytest.approx(1 / population, abs=1e-16)


@given(params_with_point(max_count=6, max_draws=6))
def test_exact_log_ratio_matches_oracle(case):
    params, point = case
    expected = float(
        oracles.log_ratio(params.population, params.counts, params.sample_size, point)
    )
    assert log_ratio_exact(params, point) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("population", [2**e for e in range(8, 25, 4)])
def test_exact_log_ratio_matches_oracle_at_large_populations(population):
    params = validate_params(population, 8, (population // 2, population // 2))
    expected = oracles.log_ratio(population, params.counts, 8, (2,))
    assert abs(log_ratio_exact(params, (2,)) - expected) <= 1e-14 * abs(expected)


@given(params_with_point(max_count=6, max_draws=6))
def test_brackets_match_oracle_rationals(case):
    params, point = case
    b1 = oracles.bracket1(params.population, params.counts, params.sample_size, point)
    b2 = oracles.bracket2(params.population, params.counts, params.sample_size, point)
    assert first_order_bracket(params, point) == b1 * params.population
    total = second_order_bracket(params, point)
    assert Fraction(total, params.population**2) == b2


class TestResidualScan:
    def test_generic_point_first_order_rate(self):
        scan = residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=1)
        assert not scan.degenerate
        # frozen slopes: least-squares fits to the 50-digit oracle residuals
        assert scan.fit.slope == pytest.approx(-2.2296892046190716, abs=1e-9)
        assert scan.fit.r_squared > 0.99
        assert [r.quantity for r in scan.records] == ["abs_residual_order1"] * 5

    def test_generic_point_second_order_rate(self):
        scan = residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=2)
        assert scan.fit.slope == pytest.approx(-3.231274578022565, abs=1e-9)
        assert scan.fit.r_squared > 0.99

    def test_mirror_symmetric_point_skips_an_order(self):
        # k=3 is a root of the second bracket (as is its mirror k=5),
        # so the N^-2 correction cancels exactly and the first-order residual
        # already decays at the second-order rate
        assert second_order_bracket(DOUBLING_FAMILY[0], (3,)) == 0
        scan1 = residual_scan(DOUBLING_FAMILY, lambda p: (3,), order=1)
        scan2 = residual_scan(DOUBLING_FAMILY, lambda p: (3,), order=2)
        assert scan1.fit.slope == pytest.approx(scan2.fit.slope, abs=1e-12)
        assert scan1.fit.slope == pytest.approx(-3.2811492344442526, abs=1e-9)

    def test_identical_laws_are_degenerate(self):
        family = [validate_params(N, 1, (N // 2, N // 2)) for N in (16, 32, 64, 128)]
        scan = residual_scan(family, lambda p: (1,), order=1)
        assert scan.degenerate
        assert scan.fit is None

    @pytest.mark.parametrize("params, point", [
        (validate_params(64, 8, (32, 32)), (3,)),
        # a family hypothesis draws for test_mixed_family: polyfit warned on it
        (validate_params(4, 2, (1, 3)), (0,)),
    ])
    def test_one_population_is_degenerate(self, params, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for order in (1, 2):
                scan = residual_scan([params] * 4, lambda p: point, order=order)
                assert scan.degenerate
                assert scan.fit is None

    def test_single_draw_stays_degenerate_at_large_populations(self):
        family = [validate_params(2**e, 1, (2 ** (e - 1),) * 2) for e in range(10, 25, 2)]
        for order in (1, 2):
            scan = residual_scan(family, lambda p: (0,), order=order)
            assert scan.degenerate
            assert scan.fit is None

    def test_small_residuals_are_fitted_at_large_populations(self):
        # criterion 03's family and point carried on to N = 2^20, where the
        # order-1 residual is ~4e-11, far below an absolute 1e-14 cut-off's
        # reach but well above the exact value's rounding
        family = [validate_params(2**e, 8, (2 ** (e - 1),) * 2) for e in range(10, 21)]
        scan = residual_scan(family, lambda p: (2,), order=1)
        assert not scan.degenerate
        assert scan.fit.points_used == len(family)
        assert -2.3 <= scan.fit.slope <= -1.7

    def test_truncation_violation_rejected(self):
        with pytest.raises(ValidationError):
            residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=1, gamma=0.2)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.2, math.nan, math.inf, -math.inf])
    def test_gamma_must_be_interior(self, gamma):
        with pytest.raises(ValidationError):
            residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=1, gamma=gamma)

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            residual_scan([], lambda p: (2,), order=1)

    @pytest.mark.parametrize("order", [1.0, 2.0, "1", None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValidationError, match="integer"):
            residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=order)

    @pytest.mark.parametrize("order, quantity", [(True, "abs_residual_order1"),
                                                 (np.int64(2), "abs_residual_order2")])
    def test_quantity_names_the_integer_order(self, order, quantity):
        scan = residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=order)
        assert [r.quantity for r in scan.records] == [quantity] * 5


def _assert_scan_is_expand_point_by_point(family, points, gamma=0.75):
    """Each record of the batched scan has the bits of ``expand`` at its point."""
    by_member = {id(params): point for params, point in zip(family, points)}
    for order in (1, 2):
        scan = residual_scan(family, lambda p: by_member[id(p)], order=order, gamma=gamma)
        want = [abs(getattr(expand(params, point), f"residual{order}"))
                for params, point in zip(family, points)]
        assert [r.value.hex() for r in scan.records] == [w.hex() for w in want]


class TestBatchedScan:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_criterion_03_family(self, k):
        _assert_scan_is_expand_point_by_point(DOUBLING_FAMILY, [(k,)] * len(DOUBLING_FAMILY))

    def test_d2_family_of_48_populations(self):
        # the benchmark's d=2 scan: pattern 1,1,2, n=6, N = 32..1536
        family = [validate_params(32 * j, 6, (8 * j, 8 * j, 16 * j)) for j in range(1, 49)]
        _assert_scan_is_expand_point_by_point(family, [(1, 2)] * len(family))

    def test_members_of_different_sample_sizes(self):
        family = [validate_params(N, n, (N // 4, 3 * N // 4))
                  for N, n in ((64, 8), (128, 3), (256, 16), (512, 5), (2**20, 40))]
        _assert_scan_is_expand_point_by_point(family, [(2,)] * len(family))

    def test_tables_are_built_in_blocks(self, monkeypatch):
        # a block of two rows: every block boundary keeps each row's bits
        monkeypatch.setattr(pmf, "_TABLE_BLOCK", 2 * 4 * 17)
        family = [validate_params(16 * j, 16, (4 * j, 4 * j, 8 * j)) for j in range(2, 9)]
        _assert_scan_is_expand_point_by_point(family, [(3, 5)] * len(family))

    @given(st.lists(
        params_with_point(max_dim=3, max_count=40, max_draws=8).filter(
            lambda pair: in_truncated_set(*pair, 0.9)),
        min_size=1, max_size=6))
    def test_mixed_family(self, pairs):
        # members of different dimensions, sample sizes and counts, in any order
        _assert_scan_is_expand_point_by_point(*zip(*pairs), gamma=0.9)


# each public entry that reads a point of one experiment
_POINT_GATES = {
    "full_counts": full_counts,
    "point_in_support": point_in_support,
    "in_truncated_set": lambda params, point: in_truncated_set(params, point, 0.75),
    "first_order_bracket": first_order_bracket,
    "second_order_bracket": second_order_bracket,
    "expansion_order1": expansion_order1,
    "expansion_order2": expansion_order2,
    "expand": expand,
    "log_ratio_exact": log_ratio_exact,
    "residual_scan": lambda params, point: residual_scan([params] * 4, lambda p: point, order=1),
}


@pytest.mark.parametrize("params, point", [
    (validate_params(12, 5, (6, 6)), (2, 1)),
    (validate_params(12, 5, (4, 4, 4)), (2,)),
])
@pytest.mark.parametrize("entry", list(_POINT_GATES))
def test_a_point_of_the_wrong_length_is_refused(entry, params, point):
    with pytest.raises(ValidationError, match=f"point has {len(point)} coordinates, "
                                              f"expected {params.dim}"):
        _POINT_GATES[entry](params, point)


@pytest.mark.parametrize("order", [1, 2])
def test_a_scan_builds_only_the_brackets_its_order_needs(monkeypatch, order):
    built = []

    def spy(params, ks, j):
        built.append(j)
        return bracket(params, ks, j)

    bracket = expansion._bracket
    monkeypatch.setattr(expansion, "_bracket", spy)
    residual_scan(DOUBLING_FAMILY, lambda p: (2,), order=order)
    assert sorted(set(built)) == list(range(1, order + 1))
    assert len(built) == order * len(DOUBLING_FAMILY)


def test_expand_builds_each_bracket_and_the_full_counts_once(monkeypatch):
    built, counted = [], []
    bracket, counts = expansion._bracket, expansion.full_counts

    def spy_bracket(params, ks, j):
        built.append(j)
        return bracket(params, ks, j)

    def spy_counts(params, point):
        counted.append(point)
        return counts(params, point)

    monkeypatch.setattr(expansion, "_bracket", spy_bracket)
    monkeypatch.setattr(expansion, "full_counts", spy_counts)
    expand(DOUBLING_FAMILY[2], (2,))
    assert built == [1, 2] and counted == [(2,)]


def test_residuals_shrink_with_population():
    values = [abs(expand(p, (2,)).residual1) for p in DOUBLING_FAMILY]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_oracle_brackets_reproduce_mpmath_expansion():
    # sanity check of the oracle itself on the frozen balanced case
    b1 = oracles.bracket1(10, (5, 5), 5, (2,))
    b2 = oracles.bracket2(10, (5, 5), 5, (2,))
    assert b1 == Fraction(1, 5)
    assert b1 + b2 == Fraction(23, 100)
    exact = oracles.log_ratio(10, (5, 5), 5, (2,))
    assert abs(float(exact) - 0.23889190828234892) < 1e-15
    assert mpmath.isfinite(exact)

