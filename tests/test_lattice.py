import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from lecam import (
    ExperimentParams,
    SupportCapError,
    ValidationError,
    build_gaussian,
    count_vector_matrix,
    count_vector_size,
    data_processing_check,
    enumerate_support,
    hellinger_discrete,
    in_truncated_set,
    point_in_support,
    scaled_params,
    support_cap,
    support_matrix,
    support_size,
    tv_discrete,
    tv_jittered_vs_gaussian,
    tv_pair,
    validate_params,
    weight_ratio,
)
import lecam.lattice as lattice
from lecam.lattice import SUPPORT_CAP_ENV, full_counts
from strategies import experiment_params, params_with_point


class TestValidateParams:
    def test_integer_counts(self):
        params = validate_params(10, 5, [5, 5])
        assert params == ExperimentParams(10, 5, (5, 5))
        assert params.dim == 1
        assert params.weights == (0.5, 0.5)

    def test_fraction_weights(self):
        params = validate_params(12, 4, [Fraction(1, 3)] * 3)
        assert params.counts == (4, 4, 4)

    def test_count_sum_mismatch(self):
        with pytest.raises(ValidationError, match="expected 1"):
            validate_params(10, 5, [5, 6])

    def test_rejects_float_weights(self):
        with pytest.raises(ValidationError):
            validate_params(10, 5, [0.5, 0.5])

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            validate_params(10, 5, [True, 9])

    def test_rejects_nonintegral_scaling(self):
        with pytest.raises(ValidationError):
            validate_params(10, 5, [Fraction(1, 3), Fraction(2, 3)])

    def test_rejects_zero_count(self):
        with pytest.raises(ValidationError):
            validate_params(10, 5, [0, 10])

    @pytest.mark.parametrize("population,draws", [(0, 0), (10, 0), (10, 11), (-5, 2)])
    def test_rejects_bad_sizes(self, population, draws):
        with pytest.raises(ValidationError):
            validate_params(population, draws, [5, 5])

    def test_needs_two_categories(self):
        with pytest.raises(ValidationError):
            validate_params(10, 5, [10])

    @pytest.mark.parametrize("weights", [(2**62, 2**62), (Fraction(1, 2), Fraction(1, 2))])
    def test_rejects_a_population_past_int64(self, weights):
        with pytest.raises(ValidationError, match="largest int64"):
            validate_params(2**63, 4, weights)

    def test_population_below_2_to_the_63_works(self):
        params = validate_params(2**62, 6, (2**61, 2**61))
        assert 0 < tv_discrete(params, "hyper", "multi").value < 1e-17
        assert 0 < hellinger_discrete(params).h_squared < 1e-30
        top = validate_params(2**63 - 1, 6, (2**62, 2**62 - 1))
        assert 0 < tv_discrete(top, "hyper", "multi").value < 1e-17


class TestScaledParams:
    def test_scales_pattern_exactly(self):
        assert scaled_params(64, 4, (1, 1, 2)).counts == (16, 16, 32)

    @pytest.mark.parametrize("pattern", [(1, -1), (0, 2), (1, 1, 0), ()])
    def test_rejects_nonpositive_weights(self, pattern):
        with pytest.raises(ValidationError, match="positive"):
            scaled_params(16, 4, pattern)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValidationError, match="integer counts"):
            scaled_params(10, 4, (1, 1, 2))


class TestSupport:
    def test_one_dim_support(self):
        params = validate_params(10, 5, (5, 5))
        assert enumerate_support(params) == [(k,) for k in range(6)]
        assert support_size(params) == 6

    def test_two_dim_support_matches_oracle(self):
        params = validate_params(12, 4, (4, 4, 4))
        expected = sorted(oracles.support_points((4, 4, 4), 4))
        assert enumerate_support(params) == expected
        assert support_size(params) == len(expected)

    def test_clipped_support(self):
        # draws exceed one category, so that coordinate saturates early
        params = validate_params(6, 5, (2, 4))
        points = enumerate_support(params)
        assert points == [(1,), (2,)]

    def test_small_symmetric_support(self):
        params = validate_params(4, 2, (2, 2))
        assert enumerate_support(params) == [(0,), (1,), (2,)]

    def test_census_with_scarce_last_category(self):
        # drawing everything forces k_1 >= n - count_2 = 1 and k_1 <= count_1 = 1,
        # so the support collapses to a single point
        params = validate_params(3, 3, (1, 2))
        assert enumerate_support(params) == [(1,)]

    def test_two_dim_small_count(self):
        params = validate_params(6, 2, (2, 2, 2))
        assert support_size(params) == 6

    def test_support_matrix_matches_enumeration(self):
        params = validate_params(12, 4, (4, 4, 4))
        mat = support_matrix(params)
        assert [tuple(row) for row in mat] == enumerate_support(params)

    def test_count_vectors(self):
        mat = count_vector_matrix(4, 2)
        assert len(mat) == count_vector_size(4, 2) == math.comb(6, 2)
        assert all(row.sum() <= 4 for row in mat)

    def test_cap_via_env(self, monkeypatch):
        params = validate_params(40, 12, (20, 20))
        monkeypatch.setenv(SUPPORT_CAP_ENV, "5")
        with pytest.raises(SupportCapError) as err:
            enumerate_support(params)
        assert err.value.cap == 5
        assert err.value.required == 13

    @pytest.mark.parametrize("population,draws,counts", [
        (40, 30, (20, 20)),
        (12, 4, (4, 4, 4)),
        (12, 9, (3, 4, 5)),
        (20, 6, (2, 3, 5, 10)),
    ])
    def test_support_under_the_cap_is_not_counted(self, monkeypatch, population, draws, counts):
        # the support lies among the count vectors, so when those fit the
        # cap the O(dim * n) exact count is skipped and the enumeration alone
        # must keep to the support
        def refuse(*args):
            raise AssertionError("the support was counted")

        params = validate_params(population, draws, counts)
        monkeypatch.setattr(lattice, "_bounded_vector_count", refuse)
        got = [tuple(row) for row in support_matrix(params).tolist()]
        assert got == list(oracles.support_points(counts, draws))

    @pytest.mark.parametrize("raw", ["many", "0"])
    def test_cap_env_must_be_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv(SUPPORT_CAP_ENV, raw)
        with pytest.raises(ValidationError, match=SUPPORT_CAP_ENV):
            support_cap()

    @pytest.mark.parametrize("call", [
        pytest.param(support_matrix, id="support_matrix"),
        pytest.param(lambda p: count_vector_matrix(p.sample_size, p.dim), id="count_vector_matrix"),
        pytest.param(lambda p: tv_discrete(p, "hyper", "multi"), id="tv_discrete"),
        pytest.param(hellinger_discrete, id="hellinger_discrete"),
        pytest.param(lambda p: tv_jittered_vs_gaussian(p, "hyper", build_gaussian(p)),
                     id="tv_jittered_vs_gaussian"),
        pytest.param(lambda p: tv_pair(p, "hyper-hyper"), id="tv_pair"),
        pytest.param(lambda p: tv_pair(p, "multi-multi"), id="tv_pair_same_multinomial"),
        pytest.param(data_processing_check, id="data_processing_check"),
    ])
    def test_env_cap_reaches_every_enumeration(self, monkeypatch, call):
        monkeypatch.setenv(SUPPORT_CAP_ENV, "5")
        assert support_cap() == 5
        with pytest.raises(SupportCapError) as err:
            call(validate_params(40, 12, (20, 20)))
        assert err.value.cap == 5

    def test_point_membership(self):
        params = validate_params(10, 5, (5, 5))
        assert point_in_support(params, (3,))
        assert not point_in_support(params, (6,))
        assert not point_in_support(params, (-1,))
        with pytest.raises(ValidationError):
            point_in_support(params, (1, 1))


def _matrix_pin(matrix):
    """First 16 hex digits of the sha256 of a matrix's bytes, its row count and
    whether it is C-ordered."""
    digest = hashlib.sha256(matrix.tobytes()).hexdigest()[:16]
    return digest, len(matrix), matrix.flags.c_contiguous


# (n, d, digest, rows, C-ordered) of count_vector_matrix and (N, n, counts,
# digest, rows, C-ordered) of support_matrix, for d = 1 to 5: the larger ones
# span blocks of leaves (the count vectors include the exact-wide instances
# of bench/workloads.py), the last five of each list are split by the block
# tests.  Made at commit 1bafb11, before the last level of the lattice was
# expanded in blocks, by this file's helper from the repository root:
#   PYTHONPATH=src:tests python -c "import test_lattice as t, lecam as l; \
#     [print(c[:2], t._matrix_pin(l.count_vector_matrix(*c[:2]))) \
#      for c in t.PINNED_COUNT_VECTORS]; \
#     [print(c[:3], t._matrix_pin(l.support_matrix(l.validate_params(*c[:3])))) \
#      for c in t.PINNED_SUPPORTS]"
PINNED_COUNT_VECTORS = [
    (10**5, 1, "4ed88cfb37e95077", 100_001, True),
    (300, 2, "41f36a4bc8044944", 45_451, True),
    (84, 3, "7bd78bd8657ed59b", 105_995, True),
    (60, 4, "41fe6ca4826c826d", 635_376, True),
    (30, 5, "d42680556f15512a", 324_632, True),
    (150, 1, "9bdd2c2c50c27255", 151, True),
    (30, 2, "6cf6555be3376e88", 496, True),
    (10, 3, "72fb9b85ac36fa16", 286, True),
    (6, 4, "0e07bd73c4e87c7a", 210, True),
    (5, 5, "f8ca028cad3281ac", 252, True),
]
PINNED_SUPPORTS = [
    (10**5, 50_000, (40_000, 60_000), "aaf04ce999bbbdc7", 40_001, True),
    (1000, 700, (200, 300, 500), "1a9911e44a365c4d", 40_401, True),
    (200, 40, (10, 30, 60, 100), "5ba352bc37c2dad6", 7161, True),
    (120, 24, (8, 16, 24, 32, 40), "684b65c7484392f7", 16_269, True),
    (90, 20, (5, 10, 15, 20, 20, 20), "56a01bb934a951ca", 39_430, True),
    (500, 150, (100, 400), "861bc235cf300c3c", 101, True),
    (60, 45, (10, 20, 30), "2a1545049c3b73a4", 121, True),
    (40, 12, (3, 7, 10, 20), "2f323e888f36c9c5", 252, True),
    (30, 10, (2, 4, 6, 8, 10), "89cab0072a6891d9", 521, True),
    (24, 9, (1, 2, 3, 4, 6, 8), "fb8f613ccc5a3888", 579, True),
]


def _count_vectors_id(case):
    return f"n{case[0]}-d{case[1]}"


def _support_id(case):
    return f"N{case[0]}-n{case[1]}-d{len(case[2]) - 1}"


@pytest.mark.parametrize("case", PINNED_COUNT_VECTORS, ids=_count_vectors_id)
def test_count_vector_matrices_are_pinned(case):
    assert _matrix_pin(count_vector_matrix(*case[:2])) == case[2:]


@pytest.mark.parametrize("case", PINNED_SUPPORTS, ids=_support_id)
def test_support_matrices_are_pinned(case):
    assert _matrix_pin(support_matrix(validate_params(*case[:3]))) == case[3:]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_pinned_matrices_do_not_depend_on_the_block(monkeypatch, block):
    # the d=1 lattices have one parent, the root, split at every block size
    monkeypatch.setattr(lattice, "_LEAF_BLOCK", block)
    for case in PINNED_COUNT_VECTORS[-5:]:
        assert _matrix_pin(count_vector_matrix(*case[:2])) == case[2:]
    for case in PINNED_SUPPORTS[-5:]:
        assert _matrix_pin(support_matrix(validate_params(*case[:3]))) == case[3:]


class TestCountVectorArguments:
    @pytest.mark.parametrize("sample_size, dim, match", [
        (3, 0, "dim"),
        (3, -1, "dim"),
        (3, 1.0, "dim"),
        (-1, 2, "sample_size"),
        (2.5, 2, "sample_size"),
        ("3", 2, "sample_size"),
    ])
    def test_invalid_arguments_are_validation_errors(self, sample_size, dim, match):
        for call in (count_vector_size, count_vector_matrix):
            with pytest.raises(ValidationError, match=match):
                call(sample_size, dim)

    def test_no_draws_is_the_zero_vector(self):
        assert count_vector_size(0, 3) == 1
        assert count_vector_matrix(0, 3).tolist() == [[0, 0, 0]]
        assert count_vector_matrix(np.int64(2), np.int64(1)).tolist() == [[0], [1], [2]]


class TestSupportSize:
    @pytest.mark.parametrize(
        "counts", [(1, 1), (3, 4, 5), (2, 2, 2, 2), (1, 5, 2, 7), (6, 1, 3, 2, 4)]
    )
    def test_matches_brute_force_at_every_draw_count(self, monkeypatch, counts):
        # draws up to the census, so every flipped count 2n > N is included;
        # a cap at the exact support still counts it
        population = sum(counts)
        for draws in range(population + 1):
            want = sum(1 for _ in oracles.support_points(counts, draws))
            monkeypatch.setenv(SUPPORT_CAP_ENV, str(want))
            assert lattice._bounded_vector_count(counts, draws) == want
            if draws:
                assert support_size(validate_params(population, draws, counts)) == want

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_box_lies_inside_the_support(self, dim):
        # every count vector of up to five categories of at most 4 objects,
        # at every draw count; at d=1 the box is the whole support
        for counts in itertools.product(range(1, 5), repeat=dim + 1):
            for draws in range(sum(counts) + 1):
                want = sum(1 for _ in oracles.support_points(counts, draws))
                box = lattice._box_in_support(counts, draws)
                assert 1 <= box <= want
                assert dim > 1 or box == want

    def test_counts_past_int64_exactly(self):
        # the largest prefix, C(2500 + 7, 7), passes 2**63: Python integers;
        # the oracle is inclusion-exclusion over the counts exceeded
        counts, draws = (1000,) * 8, 2500
        assert math.comb(draws + 7, 7) >= 2**63
        want = sum((-1) ** j * math.comb(8, j) * math.comb(draws - 1001 * j + 7, 7)
                   for j in range(draws // 1001 + 1))
        assert lattice._bounded_vector_count(counts, draws) == want

    def test_table_reaches_the_smaller_counts_not_n(self):
        # 4 points at n = 5 * 10^11: the table covers the two unit counts' sums
        params = validate_params(10**12, 5 * 10**11, (1, 1, 10**12 - 2))
        assert support_size(params) == 4
        assert tv_discrete(params, "hyper", "hyper").error_estimate == 1e-15 * 4 + 1e-15

    def test_table_past_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        # at d=1 the table is the support, 2^39 + 1 points (4 TiB of int64)
        def refuse(*args):
            raise AssertionError("a table was built")

        half = 2**39
        params = validate_params(2 * half, half, (half, half))
        monkeypatch.setattr(lattice.np, "zeros", refuse)
        for count in (lambda: support_size(params),
                      lambda: tv_discrete(params, "hyper", "hyper")):
            with pytest.raises(SupportCapError) as err:
                count()
            assert (err.value.required, err.value.cap) == (half + 1, lattice.DEFAULT_SUPPORT_CAP)


class TestTruncatedSet:
    def test_exact_boundary_inclusive(self):
        params = validate_params(8, 4, (4, 4))
        # gamma * count = 3 exactly, so 3 stays in and 4 falls out
        assert in_truncated_set(params, (3,), 0.75)
        assert not in_truncated_set(params, (4,), 0.75)

    def test_gamma_one_keeps_everything(self):
        params = validate_params(8, 4, (4, 4))
        assert all(in_truncated_set(params, p, 1) for p in enumerate_support(params))

    @pytest.mark.parametrize("gamma", [0, -0.5, 1.5, math.nan, math.inf, -math.inf])
    def test_gamma_range(self, gamma):
        params = validate_params(8, 4, (4, 4))
        with pytest.raises(ValidationError):
            in_truncated_set(params, (1,), gamma)

    def test_fraction_gamma(self):
        params = validate_params(9, 4, (3, 6))
        assert in_truncated_set(params, (2,), Fraction(2, 3))
        assert not in_truncated_set(params, (3,), Fraction(2, 3))

    def test_balanced_split_three_quarters(self):
        # k=(2): max(k_i / p_i) = max(4, 6) = 6 <= 7.5; k=(5): 10 > 7.5
        params = validate_params(10, 5, (5, 5))
        assert in_truncated_set(params, (2,), 0.75)
        assert not in_truncated_set(params, (5,), 0.75)

    @given(params_with_point(max_dim=3, max_count=10**6, max_draws=10**6), st.data())
    def test_integer_test_is_the_fraction_test(self, case, data):
        # gamma on the boundary k_i = gamma c_i, as a Fraction, its nearest
        # float and that float's neighbours, against the rational comparison
        params, point = case
        ks = full_counts(params, point)
        i = data.draw(st.integers(0, params.dim))
        edge = Fraction(max(ks[i], 1), params.counts[i])
        near = float(edge)
        for g in (edge, near, math.nextafter(near, 0), math.nextafter(near, 2)):
            if 0 < g <= 1:
                want = all(Fraction(k) <= Fraction(g) * c for k, c in zip(ks, params.counts))
                assert in_truncated_set(params, point, g) == want

    def test_membership_monotone_in_gamma(self):
        params = validate_params(12, 6, (5, 7))
        gammas = [0.4, 0.55, 0.7, 0.85, 1]
        for point in enumerate_support(params):
            flags = [in_truncated_set(params, point, g) for g in gammas]
            # once a point enters the set it stays in for every larger gamma
            assert flags == sorted(flags)


def test_weight_ratio():
    assert weight_ratio(validate_params(40, 8, (10, 30))) == 3.0


@given(experiment_params())
def test_support_invariants(params):
    points = enumerate_support(params)
    assert len(points) == support_size(params)
    assert points == sorted(points)
    assert len(set(points)) == len(points)
    for point in points:
        assert point_in_support(params, point)
        rest = params.sample_size - sum(point)
        assert 0 <= rest <= params.counts[-1]
        assert all(0 <= k <= c for k, c in zip(point, params.counts))


@given(experiment_params(max_dim=4), st.booleans())
def test_support_matches_oracle(params, census):
    if census:
        params = validate_params(params.population, params.population, params.counts)
    expected = sorted(oracles.support_points(params.counts, params.sample_size))
    mat = support_matrix(params)
    assert mat.dtype == np.int64
    assert mat.shape == (len(expected), params.dim)
    assert [tuple(row) for row in mat.tolist()] == expected
    assert enumerate_support(params) == expected


@given(st.integers(0, 8), st.integers(1, 4))
def test_count_vectors_match_oracle(sample_size, dim):
    expected = sorted(oracles.count_vectors(dim, sample_size))
    mat = count_vector_matrix(sample_size, dim)
    assert mat.dtype == np.int64
    assert mat.shape == (len(expected), dim)
    assert [tuple(row) for row in mat.tolist()] == expected
