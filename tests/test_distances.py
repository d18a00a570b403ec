import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from lecam import (
    GaussianLaw,
    JitteredLaw,
    TV_PAIRS,
    RegimeError,
    SupportCapError,
    ValidationError,
    build_gaussian,
    data_processing_check,
    hellinger_discrete,
    hypergeometric_log_pmf,
    hypergeometric_log_pmf_matrix,
    multinomial_log_pmf_matrix,
    tail_probability_check,
    tv_bound_parts,
    tv_discrete,
    tv_jittered_vs_gaussian,
    tv_monte_carlo,
    tv_pair,
    validate_params,
)
import lecam.distances as distances
import lecam.lattice as lattice
from lecam.lattice import _level_points
import lecam.pmf as pmf
from lecam.pmf import scheffe_levels
from strategies import experiment_params

BALANCED = validate_params(10, 5, (5, 5))
THREE_CAT = validate_params(12, 4, (4, 4, 4))
WIDE = validate_params(64, 8, (32, 32))
SKEWED = validate_params(40, 8, (10, 30))
BALANCED_D2 = validate_params(729, 9, (243, 243, 243))
CUBE_D3 = validate_params(4, 1, (1, 1, 1, 1))


class TestDiscreteTV:
    def test_frozen_balanced(self):
        # exact rational oracle gives 85/504
        tv = tv_discrete(BALANCED, "hyper", "multi")
        assert tv.method == "exact-discrete"
        assert tv.value == pytest.approx(85 / 504, abs=1e-13)
        assert tv.error_estimate < 1e-12

    def test_frozen_three_category(self):
        tv = tv_discrete(THREE_CAT, "hyper", "multi")
        assert tv.value == pytest.approx(68 / 495, abs=1e-13)

    def test_same_law_is_zero(self):
        # exactly: the last instance draws 2n > N, so every row is census-flipped
        for params in (BALANCED, THREE_CAT, validate_params(12, 9, (3, 4, 5))):
            assert tv_discrete(params, "hyper", "hyper").value == 0.0
            assert tv_discrete(params, "multi", "multi").value == 0.0

    def test_same_law_bar_counts_the_lattice_without_building_it(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a lattice was built for a TV of exactly 0")

        monkeypatch.setattr(lattice, "_bounded_levels", refuse)
        for params in (BALANCED, THREE_CAT, validate_params(12, 9, (3, 4, 5))):
            n = params.sample_size
            for law, points in (("multi", oracles.count_vectors(params.dim, n)),
                                ("hyper", oracles.support_points(params.counts, n))):
                size = sum(1 for _ in points)
                assert tv_discrete(params, law, law).error_estimate == 1e-15 * size + 1e-15

    def test_law_aliases(self):
        a = tv_discrete(BALANCED, "hypergeometric", "multinomial")
        b = tv_discrete(BALANCED, "hyper", "multi")
        assert a.value == b.value

    def test_unknown_law_rejected(self):
        with pytest.raises(ValidationError):
            tv_discrete(BALANCED, "hyper", "poisson")

    @given(experiment_params(max_dim=2, max_count=6, max_draws=5))
    @settings(max_examples=20)
    def test_matches_exact_oracle(self, params):
        expected = float(
            oracles.tv_exact(params.population, params.counts, params.sample_size)
        )
        got = tv_discrete(params, "hyper", "multi").value
        assert got == pytest.approx(expected, abs=1e-12)

    def test_within_its_bar_at_a_large_population(self):
        N = 2**24
        params = validate_params(N, 16, (N // 4, 3 * N // 4))
        tv = tv_discrete(params, "hyper", "multi")
        assert abs(tv.value - float(oracles.tv_exact(N, params.counts, 16))) <= tv.error_estimate


# (N, n, counts): d = 1 to 5 with N <= 60, rows with 2n > N (flipped) and
# census rows (n = N) among them, and a single draw, where P = Q.
SCHEFFE_BRUTE = [
    (10, 5, (5, 5)), (60, 17, (7, 53)), (41, 30, (20, 21)), (9, 9, (4, 5)),
    (12, 1, (3, 9)), (12, 4, (4, 4, 4)), (60, 45, (10, 20, 30)), (33, 20, (1, 2, 30)),
    (15, 15, (4, 5, 6)), (40, 12, (10,) * 4), (24, 17, (2, 3, 7, 12)),
    (30, 6, (6,) * 5), (20, 13, (1, 3, 4, 5, 7)), (25, 8, (3, 2, 5, 4, 2, 9)),
    (12, 12, (1, 2, 2, 3, 1, 3)),
]


def _scheffe_kept(params):
    return _level_points(scheffe_levels(params)[0])


@pytest.mark.parametrize("case", SCHEFFE_BRUTE, ids=lambda c: f"N{c[0]}-n{c[1]}-d{len(c[2]) - 1}")
def test_scheffe_set_keeps_every_point_where_p_exceeds_q(case):
    N, n, counts = case
    params = validate_params(N, n, counts)
    kept = set(map(tuple, _scheffe_kept(params).tolist()))
    above = {point for point in oracles.support_points(counts, n)
             if oracles.hyper_prob(N, counts, n, point) > oracles.multi_prob(N, counts, n, point)}
    assert above <= kept
    tv = tv_discrete(params, "hyper", "multi")
    assert abs(tv.value - float(oracles.tv_exact(N, counts, n))) <= tv.error_estimate
    assert tv_discrete(params, "hyper", "hyper").value == 0.0
    assert tv_discrete(params, "multi", "multi").value == 0.0


def test_scheffe_set_is_the_ellipsoid_not_the_lattice():
    # d=3, N=10^6, n=500: 21,084,251 count vectors, over the default cap, and
    # 15,299 points kept.  Pinned to the sum over every count vector at
    # commit 17c4145, with the cap raised, from the repository root:
    #   LECAM_SUPPORT_CAP=30000000 PYTHONPATH=src python -m lecam tv \
    #     --N 1000000 --n 500 --Np 250000,250000,250000,250000 --pair hyper-multi --json
    params = validate_params(10**6, 500, (250_000,) * 4)
    start = time.perf_counter()
    tv = tv_discrete(params, "hyper", "multi")
    elapsed = time.perf_counter() - start
    assert abs(tv.value - 0.00023112963949509843) <= 1e-16
    assert tv.error_estimate == 1e-15 * 21_084_251 + 1e-15
    assert len(_scheffe_kept(params)) == 15_299
    assert elapsed < 0.25, elapsed


def test_log_ratio_tables_are_charged_to_the_cap(monkeypatch):
    # 11 support points, but tables over n + 1 = 999,991 draw counts
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setenv(lattice.SUPPORT_CAP_ENV, "999990")
    monkeypatch.setattr(pmf, "_ratio_increments", refuse)
    with pytest.raises(SupportCapError) as err:
        tv_discrete(validate_params(10**6, 999_990, (500_000, 500_000)), "hyper", "multi")
    assert (err.value.required, err.value.cap) == (999_991, 999_990)


def test_log_ratio_tables_are_built_once(monkeypatch):
    # where 2n <= N, r is the bound's own running sums: no second table is
    # built and the kernel is not called
    params = validate_params(1000, 84, (250,) * 4)
    want = tv_discrete(params, "hyper", "multi")

    def refuse(*args):
        raise AssertionError("r was computed a second time")

    monkeypatch.setattr(pmf, "_ratio_tables", refuse)
    monkeypatch.setattr(pmf, "log_ratio_matrix", refuse)
    monkeypatch.setattr(pmf, "_read_log_ratios", refuse)
    assert tv_discrete(params, "hyper", "multi") == want


def test_flipped_tv_within_its_bar_at_a_large_sample():
    # 11 support points at N=10^6, n=999,990; P read at c - k after 10 draws.
    # oracles.tv_support(10**6, (500_000, 500_000), 999_990), 60 digits
    oracle = 0.991223403675296151611343233408
    params = validate_params(10**6, 999_990, (500_000, 500_000))
    tv = tv_discrete(params, "hyper", "multi")
    error = abs(tv.value - oracle)
    assert error <= tv.error_estimate
    assert error <= 2e-11


# The library call each (pair, method) of tv_pair stands for, at quad_order 4
# and 10^4 draws with seed 5; every other combination must be refused.
_GAUSS = build_gaussian(THREE_CAT)
_JITTERED_MULTI = JitteredLaw(THREE_CAT, "multi")
_ROUTES = {
    ("hyper-multi", "auto"): (tv_discrete, ("hyper", "multi")),
    ("hyper-multi", "exact"): (tv_discrete, ("hyper", "multi")),
    ("hyper-hyper", "auto"): (tv_discrete, ("hyper", "hyper")),
    ("hyper-hyper", "exact"): (tv_discrete, ("hyper", "hyper")),
    ("multi-multi", "auto"): (tv_discrete, ("multi", "multi")),
    ("multi-multi", "exact"): (tv_discrete, ("multi", "multi")),
    ("jitterhyper-jittermulti", "auto"): (tv_discrete, ("hyper", "multi")),
    ("jitterhyper-jittermulti", "exact"): (tv_discrete, ("hyper", "multi")),
    ("jitterhyper-jittermulti", "mc"): (tv_monte_carlo, ("hyper", _JITTERED_MULTI, 10_000, 5)),
    ("jitterhyper-gauss", "auto"): (tv_jittered_vs_gaussian, ("hyper", _GAUSS, 4)),
    ("jitterhyper-gauss", "quad"): (tv_jittered_vs_gaussian, ("hyper", _GAUSS, 4)),
    ("jitterhyper-gauss", "mc"): (tv_monte_carlo, ("hyper", _GAUSS, 10_000, 5)),
    ("jittermulti-gauss", "auto"): (tv_jittered_vs_gaussian, ("multi", _GAUSS, 4)),
    ("jittermulti-gauss", "quad"): (tv_jittered_vs_gaussian, ("multi", _GAUSS, 4)),
    ("jittermulti-gauss", "mc"): (tv_monte_carlo, ("multi", _GAUSS, 10_000, 5)),
}


class TestTvPair:
    @pytest.mark.parametrize("method", ["auto", "exact", "quad", "mc"])
    @pytest.mark.parametrize("pair", TV_PAIRS)
    def test_routes_to_the_direct_call_or_refuses(self, pair, method):
        route = _ROUTES.get((pair, method))
        if route is None:
            with pytest.raises(ValidationError):
                tv_pair(THREE_CAT, pair, method, quad_order=4, sample_count=10_000, seed=5)
            return
        got = tv_pair(THREE_CAT, pair, method, quad_order=4, sample_count=10_000, seed=5)
        fn, args = route
        assert got == fn(THREE_CAT, *args)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValidationError):
            tv_pair(THREE_CAT, "hyper-gauss")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            tv_pair(WIDE, "jitterhyper-gauss", "mc", sample_count=10_000, seed=-2)


class TestHellinger:
    def test_frozen_balanced(self):
        h = hellinger_discrete(BALANCED)
        assert h.h_squared == pytest.approx(0.024427057288868812, abs=1e-13)
        assert h.tv_bound == pytest.approx(2 * math.sqrt(h.h_squared), abs=1e-15)

    def test_single_draw_is_zero(self):
        h = hellinger_discrete(validate_params(10, 1, (5, 5)))
        assert h.h_squared == pytest.approx(0.0, abs=1e-14)
        assert h.tv_bound < 1e-6

    @given(experiment_params(max_dim=2, max_count=6, max_draws=8))
    @settings(max_examples=20)
    def test_matches_exact_oracle(self, params):
        # small counts and up to 8 draws, so 2n > N (census-flipped rows) is common
        expected = float(
            oracles.hellinger_sq(params.population, params.counts, params.sample_size)
        )
        got = hellinger_discrete(params).h_squared
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_exact_oracle_with_census_rows(self):
        for params in (validate_params(12, 9, (3, 4, 5)), validate_params(20, 15, (8, 12))):
            expected = oracles.hellinger_sq(params.population, params.counts, params.sample_size)
            assert hellinger_discrete(params).h_squared == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize("population, draws", [(2**24, 200), (10**6, 400)])
    def test_small_distance_keeps_its_relative_accuracy(self, population, draws):
        # H^2 is 8.8e-12 and 1.0e-8 here: summing q expm1(r/2)^2 does not
        # cancel, where 1 - sum sqrt(pq) kept as few as three digits
        params = validate_params(population, draws, (population // 2, population // 2))
        expected = oracles.hellinger_sq(population, params.counts, draws)
        got = hellinger_discrete(params).h_squared
        assert abs(got - float(expected)) <= 1e-10 * float(expected)

    def test_bounds_order(self):
        # h^2 <= tv <= 2 sqrt(h^2) for these laws
        for params in (BALANCED, THREE_CAT, SKEWED):
            h = hellinger_discrete(params)
            tv = tv_discrete(params, "hyper", "multi").value
            assert h.h_squared - 1e-12 <= tv <= h.tv_bound + 1e-12


def _exact_reprs(population, draws, counts):
    """The reprs of tv_discrete's hyper-multi value and bar and of
    hellinger_discrete's H^2 and TV bound."""
    params = validate_params(population, draws, counts)
    tv, h = tv_discrete(params, "hyper", "multi"), hellinger_discrete(params)
    return tuple(map(repr, (tv.value, tv.error_estimate, h.h_squared, h.tv_bound)))


# (N, n, counts, TV, bar, H^2, TV bound) as reprs: the four exact-wide
# instances of bench/workloads.py, a flipped instance (2n > N) and a d=1
# instance, both longer than a block of leaves, and four small instances
# that the block tests split, the first at d=1.  The bars, H^2 and TV
# bounds were made at commit 1bafb11, before the last level of the lattice
# was expanded in blocks; the TVs when the exact TV became a sum over the
# Scheffe set {P > Q}.  Both by this file's helper (it calls only the
# public functions) from the repository root:
#   PYTHONPATH=src:tests python -c "import test_distances as t; \
#     [print(c[:3], t._exact_reprs(*c[:3])) for c in t.PINNED_EXACT]"
PINNED_EXACT = [
    (1000, 84, (250,) * 4, "0.04040797682807486", "1.05996e-10",
     "0.001426395762515882", "0.07553530995543427"),
    (900, 88, (100, 200, 300, 300), "0.04730948584180183", "1.2148600000000003e-10",
     "0.0019637624932086423", "0.08862871979688396"),
    (250, 60, (50,) * 5, "0.14667278922012975", "6.35377e-10",
     "0.018450782829537233", "0.2716673173536871"),
    (600, 30, (100,) * 6, "0.03070196944350903", "3.24633e-10",
     "0.0007972389643669209", "0.05647084077174417"),
    (1000, 700, (200, 300, 500), "0.41781115127044843", "2.46052e-10",
     "0.1576445751639848", "0.7940896049287758"),
    (10**5, 40_000, (30_000, 70_000), "0.12293645521525436", "4.000200000000001e-11",
     "0.01600492154047952", "0.25302111801570654"),
    (500, 150, (100, 400), "0.08605280320938662", "1.52e-13",
     "0.00785360764370748", "0.17724116501205334"),
    (60, 45, (10, 20, 30), "0.4721990356979383", "1.0820000000000002e-12",
     "0.2170430210727354", "0.9317575244080091"),
    (40, 12, (10,) * 4, "0.15775851117350806", "4.560000000000001e-13",
     "0.022498070906096634", "0.2999871390983062"),
    (30, 6, (6,) * 5, "0.1121442970822282", "2.11e-13",
     "0.011071824012520147", "0.21044547049076773"),
]


def _pinned_id(case):
    return f"N{case[0]}-n{case[1]}-d{len(case[2]) - 1}"


@pytest.mark.parametrize("case", PINNED_EXACT, ids=_pinned_id)
def test_exact_outputs_are_pinned(case):
    assert _exact_reprs(*case[:3]) == case[3:]


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("case", PINNED_EXACT[-4:], ids=_pinned_id)
def test_pinned_exact_outputs_do_not_depend_on_the_block(monkeypatch, block, case):
    # blocks of one leaf, of a few and of a few parents' leaves; the d=1
    # instance's one parent (the root, 151 leaves) is split at every size
    monkeypatch.setattr(lattice, "_LEAF_BLOCK", block)
    assert _exact_reprs(*case[:3]) == case[3:]


def test_exact_tv_memory_is_bounded_by_the_block():
    # 635,376 count vectors at d=4: a leaf-sized array is 5.1 MB, and the
    # fold that made them peaked at 24.9 MB; about 5 MB in blocks of leaves
    params = validate_params(250, 60, (50,) * 5)
    tracemalloc.start()
    try:
        tv = tv_discrete(params, "hyper", "multi")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr(tv.value) == PINNED_EXACT[2][3]
    assert peak < 8 * 2**20, peak


def test_same_law_hypergeometric_counts_its_support_fast():
    # 11 support points at N=10^6, n=999,990, counted at N - n = 10 draws;
    # the pure-Python count over n took over a second
    params = validate_params(10**6, 999_990, (500_000, 500_000))
    start = time.perf_counter()
    tv = tv_discrete(params, "hyper", "hyper")
    elapsed = time.perf_counter() - start
    assert tv.value == 0.0
    assert tv.error_estimate == 1e-15 * 11 + 1e-15
    assert elapsed < 0.25, elapsed


def test_same_law_support_far_past_the_cap_is_refused_fast():
    # a box inside the support, widths 111,111 x 8 and 111,112 sharing the
    # largest count's 10^6, has 2.6e45 points: past the cap, so no exact
    # count over Python ints (8 s) runs
    params = validate_params(10**7, 5 * 10**6, (10**6,) * 10)
    start = time.perf_counter()
    with pytest.raises(SupportCapError) as err:
        tv_discrete(params, "hyper", "hyper")
    elapsed = time.perf_counter() - start
    assert err.value.required == 111_112**8 * 111_113
    assert elapsed < 0.25, elapsed


def _quad_reprs(population, draws, counts, pair, quad_order):
    """The reprs of the quadrature's value and bar: ``tv_pair(..., "quad")``
    for a pair, or data_processing_check's TV before and its bar, after and
    its bar for "dpi"."""
    params = validate_params(population, draws, counts)
    if pair == "dpi":
        dpi = data_processing_check(params, quad_order)
        values = (dpi.tv_before, dpi.error_before, dpi.tv_after, dpi.error_after)
    else:
        tv = tv_pair(params, pair, "quad", quad_order=quad_order)
        values = (tv.value, tv.error_estimate)
    return tuple(map(repr, values))


# (N, n, counts, pair, quad order, reprs): the five quad-kinked operations of
# bench/workloads.py, d=1 at both laws (the second instance flipped, 2n > N),
# the two missed-straddle instances of TestCellIntegrator and d=3 at both
# laws.  Made at commit b4817be, before the closed form's side masses became
# one tail difference each, by this file's helper from the repository root:
#   PYTHONPATH=src:tests python -c "import test_distances as t; \
#     [print(c[:5], t._quad_reprs(*c[:5])) for c in t.PINNED_QUAD]"
PINNED_QUAD = [
    (729, 9, (243, 243, 243), "jitterhyper-gauss", 8,
     ("0.13353567546459744", "6.65569866456027e-13")),
    (729, 9, (243, 243, 243), "jittermulti-gauss", 8,
     ("0.1342716844506523", "8.320398337232463e-13")),
    (729, 9, (243, 243, 243), "dpi", 8,
     ("0.13353567546459744", "6.65569866456027e-13",
      "0.051841480857527565", "1.8912664685318281e-13")),
    (729, 9, (81, 162, 486), "jitterhyper-gauss", 8,
     ("0.19201705277161635", "1.345502864154245e-12")),
    (729, 9, (81, 162, 486), "jittermulti-gauss", 8,
     ("0.19391688935108353", "1.316025541882386e-12")),
    (64, 8, (32, 32), "jitterhyper-gauss", 8,
     ("0.07709449224307435", "3.311383376540963e-14")),
    (64, 8, (32, 32), "jittermulti-gauss", 8,
     ("0.07034351559717217", "3.302073373033444e-14")),
    (20, 15, (8, 12), "jitterhyper-gauss", 8,
     ("0.32032017144138125", "3.368555121548939e-14")),
    (20, 15, (8, 12), "jittermulti-gauss", 8,
     ("0.053665964218581885", "4.370666215938692e-14")),
    (12, 2, (1, 7, 4), "jitterhyper-gauss", 8,
     ("0.2982760774081546", "2.191126518963723e-11")),
    (12, 3, (1, 3, 8), "jitterhyper-gauss", 8,
     ("0.2792704818510967", "4.3236372603775595e-12")),
    (64, 4, (16, 16, 16, 16), "jitterhyper-gauss", 8,
     ("0.31055706113834824", "2.1771018449209224e-12")),
    (64, 4, (16, 16, 16, 16), "jittermulti-gauss", 2,
     ("0.31917429159683475", "0.0035136766610882157")),
]


def _quad_id(case):
    return f"N{case[0]}-n{case[1]}-Np{','.join(map(str, case[2]))}-{case[3]}-q{case[4]}"


@pytest.mark.parametrize("case", PINNED_QUAD, ids=_quad_id)
def test_quadrature_outputs_are_pinned(case):
    # a face section that misses the ellipsoid leaves a NaN cut: never a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _quad_reprs(*case[:5]) == case[5]


@pytest.mark.parametrize("case", [PINNED_QUAD[i] for i in (2, 5, 10, 12)], ids=_quad_id)
def test_pinned_quadrature_outputs_do_not_depend_on_the_block(monkeypatch, case):
    # at 64 evaluations every block above the last axis holds a single row
    monkeypatch.setattr(distances, "_CELL_BLOCK", 64)
    assert _quad_reprs(*case[:5]) == case[5]


class TestGaussianLaw:
    def test_build_moments(self):
        law = build_gaussian(WIDE)
        assert law.mean == pytest.approx([4.0])
        assert law.covariance == pytest.approx(np.array([[2.0]]))

    def test_log_density_matches_scipy(self):
        law = build_gaussian(THREE_CAT)
        xs = np.array([[1.0, 2.0], [0.5, 0.5], [4.0, 0.0]])
        expected = stats.multivariate_normal(law.mean, law.covariance).logpdf(xs)
        assert law.log_density(xs) == pytest.approx(expected, abs=1e-12)

    def test_two_dim_explicit_covariance(self):
        # 9 * (diag(1/3) - (1/3)^2) = [[2,-1],[-1,2]]
        law = build_gaussian(validate_params(18, 9, (6, 6, 6)))
        assert law.mean == pytest.approx([3.0, 3.0])
        assert law.covariance == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_density_peak_one_dim(self):
        # unit variance, so the log-density at the mean is -ln sqrt(2 pi)
        law = build_gaussian(validate_params(8, 4, (4, 4)))
        at_mean = law.log_density(np.array([law.mean]))[0]
        assert at_mean == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_two_dim_matches_hand_inverse(self):
        # cov [[2,-1],[-1,2]]: det 3, inverse (1/3)[[2,1],[1,2]];
        # at offset (1,-1) the quadratic form is 2/3
        law = build_gaussian(validate_params(18, 9, (6, 6, 6)))
        value = law.log_density(np.array([[4.0, 2.0]]))[0]
        expected = -math.log(2 * math.pi) - 0.5 * math.log(3.0) - 1.0 / 3.0
        assert value == pytest.approx(expected, abs=1e-12)

    def test_exchangeable_weights_symmetry(self):
        law = build_gaussian(THREE_CAT)
        xs = np.array([[1.0, 2.5]])
        swapped = xs[:, ::-1].copy()
        assert law.log_density(xs)[0] == pytest.approx(
            law.log_density(swapped)[0], abs=1e-14
        )

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianLaw([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianLaw([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("mean, covariance", [
        ([4.0], [[math.inf]]),
        ([math.inf], [[2.0]]),
        ([math.nan], [[2.0]]),
        ([4.0], [[math.nan]]),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=["inf-variance", "inf-mean", "nan-mean", "nan-variance", "nan-covariance"])
    def test_non_finite_moments_rejected(self, mean, covariance):
        # an infinite variance or mean made Monte Carlo read 1.0 +- 0.0 and
        # the quadrature NaN +- NaN; a NaN covariance was called asymmetric
        with pytest.raises(ValidationError, match="finite"):
            GaussianLaw(mean, covariance)

    @pytest.mark.parametrize("mean, covariance", [
        ([math.inf], [[2.0]]),
        ([4.0], [[math.inf]]),
    ], ids=["mean", "covariance"])
    def test_constructor_rejects_non_finite_fields(self, mean, covariance):
        with pytest.raises(ValidationError, match="finite"):
            GaussianLaw(mean=np.array(mean), covariance=np.array(covariance))

    def test_constructor_derives_the_factor_from_the_covariance(self):
        # a factor passed beside the covariance once went unchecked: covariance
        # [[2.0]] with factor [[1.0]] read TV 0.1702 at (64, 8, (32, 32)), where
        # the stated law gives 0.0771
        with pytest.raises(TypeError):
            GaussianLaw(mean=np.array([4.0]), covariance=np.array([[2.0]]),
                        cholesky_factor=np.array([[1.0]]))
        law = GaussianLaw(mean=np.array([4.0]), covariance=np.array([[2.0]]))
        assert law.cholesky_factor.tolist() == [[math.sqrt(2.0)]]


class TestJitteredLaw:
    def test_density_is_pmf_of_nearest_cell(self):
        law = JitteredLaw(BALANCED, "hyper")
        assert law.log_density(np.array([2.4])) == pytest.approx(
            hypergeometric_log_pmf(BALANCED, (2,)), abs=1e-14
        )
        assert law.log_density(np.array([2.6])) == pytest.approx(
            hypergeometric_log_pmf(BALANCED, (3,)), abs=1e-14
        )

    @pytest.mark.parametrize("which", ["hyper", "multi"])
    def test_density_off_the_support_is_exactly_the_row_kernel(self, which):
        # (30, 4, (3, 5, 22)): rows round to a negative count, past n, past
        # c_0 = 3 (off the hypergeometric support only) and onto the support
        params = validate_params(30, 4, (3, 5, 22))
        x = np.array([[-0.6, 1.2], [1.0, -1.4], [0.2, 4.6], [2.5, 2.5], [4.4, 0.3],
                      [1.2, 0.9], [0.0, 2.0]])
        centers = np.array([[-1, 1], [1, -1], [0, 5], [3, 3], [4, 0], [1, 1], [0, 2]])
        if which == "hyper":
            want = hypergeometric_log_pmf_matrix(params, centers)
        else:
            want = multinomial_log_pmf_matrix(params.sample_size, params.weights, centers)
        got = JitteredLaw(params, which).log_density(x)
        assert np.isneginf(got[:4]).all() and np.isfinite(got[5:]).all()
        assert np.isneginf(got[4]) == (which == "hyper")
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_jitter_preserves_tv(self):
        expected = float(oracles.tv_jittered_pair(64, (32, 32), 8))
        assert tv_pair(WIDE, "jitterhyper-jittermulti").value == pytest.approx(expected, abs=1e-10)

    @given(experiment_params(max_dim=2, max_count=8, max_draws=6))
    @settings(max_examples=15)
    def test_jitter_preserves_tv_random(self, params):
        expected = float(
            oracles.tv_jittered_pair(params.population, params.counts, params.sample_size)
        )
        jittered = tv_pair(params, "jitterhyper-jittermulti")
        assert jittered.value == pytest.approx(expected, abs=1e-10)


@st.composite
def _mixed_families(draw):
    """Laws of one dimension, each hypergeometric, multinomial or both (a
    scan point's two laws), drawing up to the whole population: many flip."""
    dim = draw(st.integers(1, 3))
    laws = []
    for _ in range(draw(st.integers(1, 4))):
        counts = draw(st.lists(st.integers(1, 8), min_size=dim + 1, max_size=dim + 1))
        params = validate_params(sum(counts), draw(st.integers(1, sum(counts))), counts)
        kinds = draw(st.sampled_from(["h", "m", "hm", "mh"]))
        laws += [(params, distances.HYPERGEOMETRIC if k == "h" else distances.MULTINOMIAL)
                 for k in kinds]
    return laws


class TestSupportLogPmfs:
    @staticmethod
    def _check(laws):
        """The one producer's cells and log-pmf, bit for bit the public row
        kernels' and :func:`distances._law_log_pmf`'s, law by law."""
        points, log_pmf = distances._support_log_pmfs(laws)
        want = []
        for (params, which), x in zip(laws, points):
            if which == distances.HYPERGEOMETRIC:
                assert x.tolist() == lattice.support_matrix(params).tolist()
                want.append(hypergeometric_log_pmf_matrix(params, x))
            else:
                assert x.tolist() == lattice.count_vector_matrix(params.sample_size,
                                                                 params.dim).tolist()
                want.append(multinomial_log_pmf_matrix(params.sample_size, params.weights, x))
            assert distances._law_log_pmf(params, which, x).tobytes() == want[-1].tobytes()
        assert log_pmf.tobytes() == np.concatenate(want).tobytes()

    @given(_mixed_families())
    @example([(validate_params(20, 15, (8, 12)), distances.HYPERGEOMETRIC),
              (validate_params(20, 15, (8, 12)), distances.MULTINOMIAL),
              (validate_params(30, 5, (10, 20)), distances.HYPERGEOMETRIC),
              (validate_params(9, 9, (4, 5)), distances.HYPERGEOMETRIC)])
    def test_a_mixed_family_keeps_each_laws_bits(self, laws):
        self._check(laws)

    def test_each_kind_keeps_its_weights_past_2_53(self):
        # counts / N in numpy and Python's correctly rounded weights differ
        # here: a producer with one form for both kinds fails
        params = validate_params(2**55 + 3, 7, (2**54, 2**54 + 3))
        self._check([(params, distances.MULTINOMIAL), (params, distances.HYPERGEOMETRIC)])


class TestMonteCarloRowKernels:
    # count vectors against the draws of a chunk of 10,000: d=2, n=4: 15 and
    # d=4, n=10: 1,001 are tabled; d=4, n=30: 46,376 go through the sampler
    SMALL = validate_params(30, 4, (3, 5, 22))
    TABLED = validate_params(500, 10, (100,) * 5)
    SAMPLED = validate_params(600, 30, (120,) * 5)
    OTHER = {2: validate_params(36, 6, (6, 10, 20)),
             4: validate_params(600, 10, (100, 100, 100, 100, 200))}

    @staticmethod
    def _spy(monkeypatch, name, calls):
        kernel = getattr(distances, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(distances, name, spy)

    def _spy_producer(self, monkeypatch):
        """The rows the producer of log-pmfs reads, per call: (laws, points
        per law, hypergeometric per law)."""
        calls = []
        self._spy(monkeypatch, "_family_log_pmfs", calls)
        return lambda: [(list(family), [x.tolist() for x in points], list(hyper))
                        for family, points, hyper in calls]

    def _density(self, params, target):
        return {"gauss": build_gaussian(params), "same": JitteredLaw(params, "multi"),
                "other": JitteredLaw(self.OTHER[params.dim], "multi")}[target]

    def _routes(self, monkeypatch, params, sample_count, which="hyper"):
        """(sampler calls, enumerations) of one Monte Carlo call."""
        draws, tables = [], []
        self._spy(monkeypatch, "sample_hypergeometric", draws)
        self._spy(monkeypatch, "sample_multinomial", draws)
        self._spy(monkeypatch, "support_matrix", tables)
        self._spy(monkeypatch, "count_vector_matrix", tables)
        result = tv_monte_carlo(params, which, build_gaussian(params), sample_count, seed=3)
        assert result.value > 0.0
        return len(draws), len(tables)

    @pytest.mark.parametrize("which", ["hyper", "multi"])
    @pytest.mark.parametrize("chunk", [1000, 1001])
    def test_the_route_is_the_table_exactly_within_a_chunk(self, monkeypatch, chunk, which):
        # 1,001 count vectors: ten chunks of 1,000 draws each run the sampler,
        # ten of 1,001 draw from the table, enumerated once
        monkeypatch.setattr(distances, "_MC_CHUNK", chunk)
        sampled, tabled = self._routes(monkeypatch, self.TABLED, 10_000, which)
        assert (sampled, tabled) == ((0, 1) if chunk == 1001 else (10, 0))

    @pytest.mark.parametrize("samples", [10_000, 10_011])
    def test_the_route_is_the_table_exactly_within_the_samples(self, monkeypatch, samples):
        # d=2, n=140: 10,011 count vectors, one more than the smaller call draws
        params = validate_params(1000, 140, (300, 300, 400))
        assert distances.count_vector_size(140, 2) == 10_011
        sampled, tabled = self._routes(monkeypatch, params, samples)
        assert (sampled, tabled) == ((0, 1) if samples == 10_011 else (1, 0))

    @pytest.mark.parametrize("cap", [44, 500, 1000, 1001])
    def test_a_lowered_cap_falls_back_to_the_sampler(self, monkeypatch, cap):
        # the sampler's tables need 4 (n + 1) = 44 entries, the table 1,001
        monkeypatch.setenv("LECAM_SUPPORT_CAP", str(cap))
        sampled, tabled = self._routes(monkeypatch, self.TABLED, 10_000)
        assert (sampled, tabled) == ((0, 1) if cap == 1001 else (1, 0))
        mc = tv_pair(self.TABLED, "jitterhyper-jittermulti", "mc", sample_count=10_000, seed=1)
        assert mc.value > 0.0

    @pytest.mark.parametrize("chunk", [None, 4000], ids=["one-chunk", "three-chunks"])
    @pytest.mark.parametrize("target", ["gauss", "same", "other"])
    @pytest.mark.parametrize("params", [SMALL, TABLED], ids=["d2", "d4"])
    def test_each_law_is_tabled_once_per_call(self, monkeypatch, params, target, chunk):
        # one enumeration, and the producer reads the support only: once for
        # the sampled law and, for a lattice target, once for the target
        if chunk:
            monkeypatch.setattr(distances, "_MC_CHUNK", chunk)
        density = self._density(params, target)
        draws, tables = [], []
        self._spy(monkeypatch, "sample_hypergeometric", draws)
        self._spy(monkeypatch, "support_matrix", tables)
        self._spy(monkeypatch, "count_vector_matrix", tables)
        producer = self._spy_producer(monkeypatch)
        tv_monte_carlo(params, "hyper", density, 10_000, seed=3)
        support = lattice.support_matrix(params).tolist()
        assert draws == [] and len(tables) == 1
        want = [([params], [support], [True])]
        if target != "gauss":
            want.append(([density.params], [support], [False]))
        assert producer() == want

    @pytest.mark.parametrize("chunk", [None, 4000], ids=["one-chunk", "three-chunks"])
    @pytest.mark.parametrize("target", ["gauss", "same", "other"])
    def test_each_kernel_runs_once_per_chunk_on_the_draws(self, monkeypatch, target, chunk):
        # no enumeration; per chunk the producer reads the chunk's draws, for
        # a lattice target first, then for the sampled law
        if chunk:
            monkeypatch.setattr(distances, "_MC_CHUNK", chunk)
        density = self._density(self.SAMPLED, target)
        draws, tables = [], []
        sampler = distances.sample_hypergeometric

        def recorded(*args, **kwargs):
            draws.append(sampler(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(distances, "sample_hypergeometric", recorded)
        self._spy(monkeypatch, "support_matrix", tables)
        self._spy(monkeypatch, "count_vector_matrix", tables)
        producer = self._spy_producer(monkeypatch)
        tv_monte_carlo(self.SAMPLED, "hyper", density, 10_000, seed=3)
        assert len(draws) == (3 if chunk else 1) and tables == []
        want = []
        for chunk_draws in draws:
            if target != "gauss":
                want.append(([density.params], [chunk_draws.tolist()], [False]))
            want.append(([self.SAMPLED], [chunk_draws.tolist()], [True]))
        assert producer() == want

    @pytest.mark.parametrize("density", [
        JitteredLaw(OTHER[4], "multi"), build_gaussian(OTHER[4]),
    ], ids=["jittered", "gauss"])
    def test_a_target_of_another_dimension_is_refused(self, density):
        with pytest.raises(ValidationError):
            tv_monte_carlo(self.SMALL, "hyper", density, 10_000, seed=0)


class TestQuadratureTV:
    def test_hyper_matches_mpmath_oracle(self):
        law = build_gaussian(WIDE)
        tv = tv_jittered_vs_gaussian(WIDE, "hyper", law, 8)
        assert tv.method == "cube-quadrature"
        # adaptive mpmath oracle: 0.077094492243074750
        assert tv.value == pytest.approx(0.077094492243074750, abs=5e-7)
        assert abs(tv.value - 0.077094492243074750) <= 5 * tv.error_estimate

    def test_multi_matches_mpmath_oracle(self):
        law = build_gaussian(WIDE)
        tv = tv_jittered_vs_gaussian(WIDE, "multi", law, 8)
        # adaptive mpmath oracle: 0.070343515597171863
        assert tv.value == pytest.approx(0.070343515597171863, abs=5e-7)

    def test_higher_order_tightens(self):
        law = build_gaussian(WIDE)
        coarse = tv_jittered_vs_gaussian(WIDE, "hyper", law, 8)
        fine = tv_jittered_vs_gaussian(WIDE, "hyper", law, 16)
        truth = 0.077094492243074750
        assert abs(fine.value - truth) <= abs(coarse.value - truth) + 1e-10

    def test_two_dim_runs(self):
        law = build_gaussian(THREE_CAT)
        tv = tv_jittered_vs_gaussian(THREE_CAT, "hyper", law, 6)
        assert 0.0 < tv.value < 1.0

    def test_refinement_self_convergence(self):
        params = validate_params(8, 4, (4, 4))
        law = build_gaussian(params)
        coarse = tv_jittered_vs_gaussian(params, "multi", law, 8)
        fine = tv_jittered_vs_gaussian(params, "multi", law, 16)
        assert abs(coarse.value - fine.value) < 1e-8
        assert abs(coarse.value - fine.value) <= coarse.error_estimate

    def test_triangle_inequality_through_jittered_pair(self):
        # TV(jittered hyper, gauss) <= TV of the jittered pair + TV(jittered multi, gauss)
        cases = (
            (WIDE, 8),
            (SKEWED, 8),
            (validate_params(24, 6, (12, 12)), 8),
            (validate_params(12, 4, (4, 4, 4)), 6),
            (validate_params(8, 2, (2, 2, 2, 2)), 6),
        )
        for params, order in cases:
            law = build_gaussian(params)
            lhs = tv_jittered_vs_gaussian(params, "hyper", law, order)
            mid = tv_pair(params, "jitterhyper-jittermulti")
            rhs = tv_jittered_vs_gaussian(params, "multi", law, order)
            combined = lhs.error_estimate + mid.error_estimate + rhs.error_estimate
            assert lhs.value <= mid.value + rhs.value + combined

    def test_order_two_bar_covers_its_error_in_three_dimensions(self):
        # order 2 takes 6 nodes per piece and its bar from 4; the reference's
        # 18 and 12 share no rule with them
        params = validate_params(8, 1, (2, 2, 2, 2))
        law = build_gaussian(params)
        coarse = tv_jittered_vs_gaussian(params, "hyper", law, 2)
        reference = tv_jittered_vs_gaussian(params, "hyper", law, 6)
        gap = abs(coarse.value - reference.value)
        assert gap + reference.error_estimate <= coarse.error_estimate

    @pytest.mark.parametrize("order", [1, 10**9])
    def test_order_validation(self, order):
        # 10^9 is refused before any rule is built: leggauss(3 q) would ask
        # for (3 q)^2 doubles
        law = build_gaussian(WIDE)
        with pytest.raises(ValidationError, match="quad_order"):
            tv_jittered_vs_gaussian(WIDE, "hyper", law, order)

    @pytest.mark.parametrize("params", [WIDE, THREE_CAT], ids=["d1", "d2"])
    def test_order_must_be_an_integer(self, params):
        with pytest.raises(ValidationError, match="quad_order must be an integer"):
            tv_jittered_vs_gaussian(params, "hyper", build_gaussian(params), 8.5)

    def test_dimension_cap(self):
        params = validate_params(25, 6, (5, 5, 5, 5, 5))
        law = build_gaussian(params)
        with pytest.raises(ValidationError):
            tv_jittered_vs_gaussian(params, "hyper", law, 4)


def _slice_reference(c, log_c, a, b, mean, sd, log_scale):
    """The closed form as it stood with every mass, each side's too, through
    a three-way branch on the signs of its ends and one more unit of the bar
    per side mass that straddles the mean; also returns lo, hi and the z's."""
    def normal_mass(z0, z1, t0, t1):
        straddle = (z0 < 0.0) & (z1 > 0.0)
        return np.where(z0 >= 0.0, t0 - t1, np.where(straddle, 1.0 - t0 - t1, t1 - t0)), straddle

    scale = np.exp(log_scale)
    log_peak = log_scale - math.log(sd * math.sqrt(2.0 * math.pi))
    reach = sd * np.sqrt(np.maximum(2.0 * (log_peak - log_c), 0.0))
    lo = np.clip(mean - reach, a, b)
    hi = np.clip(mean + reach, a, b)
    z = (np.stack(np.broadcast_arrays(a, lo, hi, b)) - mean) / sd
    tail = 0.5 * distances._erfc(np.abs(z) * math.sqrt(0.5))
    mass, straddle = normal_mass(z[0::2], z[1::2], tail[0::2], tail[1::2])
    value = c * ((lo - a) + (b - hi) - (hi - lo)) - 2.0 * scale * mass.sum(axis=0)
    spread = (tail * (1.0 + z * z)).sum(axis=0) * (1.0 + np.abs(mean) / sd)
    size = c * (np.abs(a) + np.abs(b)) + 2.0 * scale * (spread + straddle.sum(axis=0))
    return (value, scale * normal_mass(z[0], z[3], tail[0], tail[3])[0], size), lo, hi, z


@st.composite
def _slices(draw):
    """(m,) arrays c, log c, a, b, mean and log scale, and a scalar sd: unit
    cells below, around and above the mean or with the mean on an edge, at
    levels from far below the peak to above it (reach 0)."""
    sd = 10.0 ** draw(st.floats(-3.0, 3.0))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        mean = draw(st.floats(-50.0, 50.0))
        place = draw(st.sampled_from(["free", "mean-at-a", "mean-at-b"]))
        if place == "free":
            a = mean + draw(st.floats(-12.0, 12.0)) * max(sd, 1.0) - 0.5
        else:
            a = mean if place == "mean-at-a" else mean - 1.0
        b = mean if place == "mean-at-b" else a + 1.0
        log_scale = draw(st.floats(-20.0, 0.0))
        log_peak = log_scale - math.log(sd * math.sqrt(2.0 * math.pi))
        log_c = log_peak + draw(st.one_of(st.floats(-40.0, 0.0), st.floats(0.0, 5.0)))
        rows.append((math.exp(log_c), log_c, a, b, mean, log_scale))
    c, log_c, a, b, mean, log_scale = map(np.array, zip(*rows))
    return c, log_c, a, b, mean, sd, log_scale


@settings(max_examples=300)
@given(_slices())
def test_slice_sides_are_one_tail_difference_each(args):
    # the sides' three-way branch and straddle count, written out above, give
    # the same bits: [a, lo] never reaches above the mean nor [hi, b] below it
    c, log_c, a, b, mean, sd, log_scale = args
    expected, lo, hi, z = _slice_reference(*args)
    log_sd = math.log(sd * math.sqrt(2.0 * math.pi))
    for got, want in zip(distances._slice_integrals(*args, log_sd), expected):
        assert got.tobytes() == want.tobytes()
    below, above = lo > a, hi < b
    assert np.all(lo[below] <= mean[below]) and np.all(z[1][below] <= 0.0)
    assert np.all(hi[above] >= mean[above]) and np.all(z[2][above] >= 0.0)


class TestCellIntegrator:
    def test_log_density_calls_are_few(self, monkeypatch):
        # every dimension goes by the closed form along the last axis and
        # rules above it: no density call at all
        calls = []
        original = GaussianLaw.log_density

        def counted(self, x):
            calls.append(len(x))
            return original(self, x)

        monkeypatch.setattr(GaussianLaw, "log_density", counted)
        for params in (CUBE_D3, WIDE, BALANCED_D2):
            tv_jittered_vs_gaussian(params, "hyper", build_gaussian(params), 8)
        assert calls == []

    def test_block_size_does_not_move_values(self, monkeypatch):
        # no cell's integrals depend on the others and every sum over cells
        # is exact, so the blocks cannot move a bit; at 64 evaluations every
        # block above the last axis holds a single row
        cases = ((CUBE_D3, "hyper", 4), (CUBE_D3, "multi", 2), (BALANCED_D2, "hyper", 8),
                 (WIDE, "multi", 8))
        wide = [tv_jittered_vs_gaussian(p, w, build_gaussian(p), o) for p, w, o in cases]
        monkeypatch.setattr(distances, "_CELL_BLOCK", 64)
        narrow = [tv_jittered_vs_gaussian(p, w, build_gaussian(p), o) for p, w, o in cases]
        assert narrow == wide

    @pytest.mark.parametrize(
        "params, expected",
        [
            (validate_params(12, 2, (1, 7, 4)), 0.29827607740805623),
            (validate_params(12, 3, (1, 3, 8)), 0.279270481851076),
        ],
    )
    def test_missed_straddle_instances_match_reference(self, params, expected):
        # independent values: closed form in x2, tanh-sinh in x1 split at the
        # kinks, at 30 digits (bench/reference.py).  On cells (0, 2) and
        # (0, 1) the density's peak lies on an edge, above the cell's
        # constant, while every corner and the center lie below it
        tv = tv_jittered_vs_gaussian(params, "hyper", build_gaussian(params), 8)
        assert abs(tv.value - expected) <= 1e-7
        assert abs(tv.value - expected) <= tv.error_estimate

    def test_quadrature_wakes_no_blas_threads(self):
        # under OpenBLAS's default pool every BLAS call wakes a worker that
        # spins for a while; the integrator makes none, so it runs on one core.
        # The window is a quarter second, not a count of runs: a d=2 run now
        # takes milliseconds, and a spin woken before the window (as the
        # process starts) must not fill it
        script = textwrap.dedent(
            """
            import contextlib, io, resource, time
            from lecam.cli import main
            argv = ["tv", "--pair", "jitterhyper-gauss", "--method", "quad",
                    "--N", "729", "--n", "9", "--Np", "243,243,243"]
            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)
            run()
            start, before = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
            while time.perf_counter() - start < 0.25:
                run()
            wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            print(cpu / wall)
            """
        )
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1.2


def _lattice_masses(params, which):
    """Support points and exact masses of the hypergeometric or multinomial law."""
    N, counts, n = params.population, params.counts, params.sample_size
    if which == "hyper":
        points = list(oracles.support_points(counts, n))
        return points, [oracles.hyper_prob(N, counts, n, k) for k in points]
    points = list(oracles.count_vectors(params.dim, n))
    return points, [oracles.multi_prob(N, counts, n, k) for k in points]


def _skewed(n, ratio):
    """d=1 at N = n^3 with weights in the given ratio, as far as integers allow."""
    N = n**3
    first = max(1, round(N * ratio / (1 + ratio)))
    return validate_params(N, n, (first, N - first))


class TestClosedForm:
    """Closed form along the last axis and rules above it, against the oracles."""

    @pytest.mark.parametrize("params, which", [
        (_skewed(4, 1), "hyper"),
        (_skewed(4, 100), "multi"),
        (_skewed(16, 1 / 100), "hyper"),
        (_skewed(16, 1), "multi"),
        (_skewed(64, 100), "hyper"),
        (_skewed(64, 1 / 100), "multi"),
        (_skewed(128, 1), "hyper"),
        (_skewed(128, 1 / 100), "multi"),
        # the top 24 cells' pmf underflows to 0
        (validate_params(101_000, 200, (1000, 100_000)), "multi"),
    ])
    def test_one_dimension_matches_the_oracle(self, params, which):
        points, masses = _lattice_masses(params, which)
        (mean,), ((var,),) = oracles.gaussian_moments(params.population, params.counts,
                                                      params.sample_size)
        expected = float(oracles.tv_jitter_gauss_1d(masses, mean, var, [k for (k,) in points]))
        tv = tv_jittered_vs_gaussian(params, which, build_gaussian(params), 8)
        assert abs(tv.value - expected) <= tv.error_estimate <= 1e-12

    def test_one_dimension_uses_no_rule(self):
        law = build_gaussian(SKEWED)
        results = {tv_jittered_vs_gaussian(SKEWED, "hyper", law, q) for q in (2, 3, 8, 40)}
        assert len(results) == 1

    @pytest.mark.parametrize("params", [
        validate_params(12, 2, (1, 7, 4)),
        validate_params(12, 3, (1, 3, 8)),
    ])
    def test_two_dimensions_match_a_brute_force_oracle(self, params):
        points, masses = _lattice_masses(params, "hyper")
        moments = oracles.gaussian_moments(params.population, params.counts, params.sample_size)
        expected = float(oracles.tv_jitter_gauss_2d(masses, points, *moments))
        tv = tv_jittered_vs_gaussian(params, "hyper", build_gaussian(params), 8)
        assert abs(tv.value - expected) <= min(tv.error_estimate, 1e-12)

    @pytest.mark.parametrize("counts, which, expected", [
        ((243, 243, 243), "hyper", 0.13353567546459466),
        ((243, 243, 243), "multi", 0.13427168445065013),
        ((81, 162, 486), "hyper", 0.1920170527716167),
        ((81, 162, 486), "multi", 0.19391688935108384),
    ])
    def test_two_dimensions_gap_covers_the_error_at_every_order(self, counts, which, expected):
        # independent values from bench/reference.py (accurate to 1e-16)
        params = validate_params(729, 9, counts)
        law = build_gaussian(params)
        for order in (2, 3, 4, 6, 12, 8):
            tv = tv_jittered_vs_gaussian(params, which, law, order)
            assert abs(tv.value - expected) <= tv.error_estimate
        # at the default order
        assert abs(tv.value - expected) <= 1e-14 and tv.error_estimate <= 1e-11

    @pytest.mark.parametrize("order", [2, 8])
    @pytest.mark.parametrize("params, expected", [
        (CUBE_D3, 0.48794382937296244182),
        (validate_params(60, 4, (6, 12, 18, 24)), 0.33259944316658699817),
    ], ids=["cube", "skewed"])
    def test_three_dimensions_match_the_oracle(self, params, expected, order):
        # oracles.tv_jitter_gauss_3d at 20 digits (`python tests/oracles.py --3d`)
        tv = tv_jittered_vs_gaussian(params, "hyper", build_gaussian(params), order)
        assert abs(tv.value - expected) <= tv.error_estimate


_TINY = 2.0**-1022  # the smallest normal double
_ERFC_EDGES = [0.0, 5e-324, 0.5, 26.55, 27.3, 28.0, 1e300, math.inf]


@pytest.fixture(scope="module")
def erfc_reference():
    """10^5 points of [0, 27.3] and the edge values, with erfc at each as a
    double-double (hi, lo) from 30-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.linspace(0.0, 27.3, 100_001), _ERFC_EDGES])
    hi, lo = np.zeros_like(x), np.zeros_like(x)
    with mpmath.workdps(30):
        # erfc decreases, and erfc(28) already rounds to 0
        assert float(mpmath.erfc(28)) == 0.0
        for i, v in enumerate(x.tolist()):
            if v <= 28.0:
                exact = mpmath.erfc(v)
                hi[i] = float(exact)
                lo[i] = float(exact - hi[i])
    return x, hi, lo


class TestErfcKernel:
    def test_within_its_stated_bound_of_mpmath(self, erfc_reference):
        x, hi, lo = erfc_reference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distances._erfc(x)
        assert not np.isnan(got).any()
        # got - hi is exact this close, so err is the error to the rounding
        err = np.abs((got - hi) - lo)
        normal = hi >= _TINY
        ulps = err[normal] / np.spacing(hi[normal])
        assert ulps.max() <= 6.0, (x[normal][ulps.argmax()], ulps.max())
        assert (err[~normal] <= 2 * 5e-324).all()
        assert (got[x >= 27.3] == 0.0).all()

    def test_zero_where_math_erfc_is_zero(self, erfc_reference):
        x = erfc_reference[0]
        zero = np.array([math.erfc(v) for v in x.tolist()]) == 0.0
        assert zero.sum() > 8
        assert (distances._erfc(x)[zero] == 0.0).all()

    @pytest.mark.parametrize("shape", [(0,), (4, 0), (4, 7)])
    def test_keeps_shape_and_input(self, shape):
        x = np.arange(math.prod(shape), dtype=float).reshape(shape) / 3.0
        before = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distances._erfc(x)
        assert got.shape == shape
        assert np.array_equal(x, before)
        for value, want in zip(x.ravel().tolist(), got.ravel().tolist()):
            assert want == pytest.approx(math.erfc(value), rel=8 * np.finfo(float).eps)

    def test_infinity_gives_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distances._erfc(np.array([[math.inf, 0.0], [1e300, 40.0]]))
        assert got.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("params", [WIDE, BALANCED_D2], ids=["d1", "d2"])
    def test_quadrature_takes_no_scalar_erfc(self, monkeypatch, params):
        # one code path: every tail comes from the kernel
        def scalar_erfc(x):
            raise AssertionError("math.erfc called")

        monkeypatch.setattr(distances.math, "erfc", scalar_erfc)
        assert tv_jittered_vs_gaussian(params, "hyper", build_gaussian(params)).value > 0.0


class _Plain:
    """A density with nothing but ``log_density``: Monte Carlo jitters its draws."""

    def __init__(self, law):
        self.law = law

    def log_density(self, x):
        return self.law.log_density(x)


class TestMonteCarloTV:
    def test_agrees_with_quadrature(self):
        law = build_gaussian(WIDE)
        quad = tv_jittered_vs_gaussian(WIDE, "hyper", law, 8)
        mc = tv_monte_carlo(WIDE, "hyper", law, 400_000, seed=2)
        assert mc.method == "monte-carlo"
        assert abs(mc.value - quad.value) < 4 * mc.error_estimate

    def test_seed_reproducibility(self):
        law = build_gaussian(WIDE)
        a = tv_monte_carlo(WIDE, "hyper", law, 50_000, seed=9)
        b = tv_monte_carlo(WIDE, "hyper", law, 50_000, seed=9)
        c = tv_monte_carlo(WIDE, "hyper", law, 50_000, seed=10)
        assert a.value == b.value
        assert a.value != c.value

    @pytest.mark.parametrize("params, samples", [
        (WIDE, 400_000),
        (BALANCED_D2, 100_000),
        (validate_params(500, 10, (100,) * 5), 100_000),
    ], ids=["d1", "d2", "d4"])
    def test_against_jittered_density(self, params, samples):
        # TV of the jittered pair estimated by MC matches the exact discrete value
        exact = oracles.tv_exact(params.population, params.counts, params.sample_size)
        mc = tv_pair(params, "jitterhyper-jittermulti", "mc", sample_count=samples, seed=4)
        assert mc.method == "monte-carlo"
        assert abs(mc.value - float(exact)) < 4 * mc.error_estimate

    def test_agrees_with_quadrature_at_large_n(self):
        # at n = 1100, p = 1/2 the samplers' old start mass 2^-n underflowed
        # and the estimate read 0 +- 0
        params = validate_params(10**6, 1100, (500_000, 500_000))
        law = build_gaussian(params)
        quad = tv_jittered_vs_gaussian(params, "hyper", law, 8)
        mc = tv_monte_carlo(params, "hyper", law, 100_000, seed=0)
        assert mc.error_estimate > 0.0
        assert abs(mc.value - quad.value) < 3 * mc.error_estimate

    @pytest.mark.parametrize("chunk", [None, 3000], ids=["one-chunk", "several-chunks"])
    @pytest.mark.parametrize("which, other", [("hyper", "multi"), ("multi", "hyper")])
    @pytest.mark.parametrize("params", [WIDE, BALANCED_D2, validate_params(500, 10, (100,) * 5)],
                             ids=["d1", "d2", "d4"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jittered_target_matches_the_jitter_path(self, monkeypatch, seed, params, which, other,
                                                     chunk):
        # a JitteredLaw target reads the pmf at the draws themselves; any
        # other density gets the jittered draws, and this one rounds them back
        if chunk:
            monkeypatch.setattr(distances, "_MC_CHUNK", chunk)
        target = JitteredLaw(params, other)
        want = tv_monte_carlo(params, which, _Plain(target), 10_000, seed)

        def no_jitter(*args):
            raise AssertionError("a jittered lattice target needs no jitter")

        monkeypatch.setattr(distances, "apply_jitter", no_jitter)
        got = tv_monte_carlo(params, which, target, 10_000, seed)
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert got.value > 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jittered_target_of_another_experiment_matches_the_jitter_path(self, seed):
        params = validate_params(500, 10, (100,) * 5)
        target = JitteredLaw(validate_params(600, 10, (100, 100, 100, 100, 200)), "multi")
        want = tv_monte_carlo(params, "hyper", _Plain(target), 20_000, seed)
        got = tv_monte_carlo(params, "hyper", target, 20_000, seed)
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()

    @pytest.mark.parametrize("chunk", [None, 4000], ids=["one-chunk", "three-chunks"])
    @pytest.mark.parametrize("pair, params, samples", [
        ("jitterhyper-gauss", validate_params(10**6, 500, (500_000,) * 2), 100_000),
        ("jittermulti-gauss", validate_params(10**6, 500, (500_000,) * 2), 100_000),
        ("jitterhyper-gauss", validate_params(10**6, 1100, (500_000,) * 2), 100_000),
        ("jitterhyper-jittermulti", WIDE, 10_000),
        ("jittermulti-jitterhyper", SKEWED, 10_000),
    ], ids=["hyper-n500", "multi-n500", "hyper-n1100", "jittered", "jittered-skewed"])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_d1_table_draws_what_the_sampler_draws(self, monkeypatch, seed, pair, params,
                                                   samples, chunk):
        # at d=1 both routes spend one uniform a draw and search one cdf row
        # of the same law, so they draw the same points and report the bits
        if chunk:
            monkeypatch.setattr(distances, "_MC_CHUNK", chunk)
        first, second = pair.split("-")
        which = first.removeprefix("jitter")
        target = (build_gaussian(params) if second == "gauss"
                  else JitteredLaw(params, second.removeprefix("jitter")))
        tabled = tv_monte_carlo(params, which, target, samples, seed)
        # a cap below the support, read by the route's choice only, sends the
        # same call through the sampler
        monkeypatch.setattr(distances, "support_cap", lambda: 1)
        sampled = tv_monte_carlo(params, which, target, samples, seed)
        assert tabled.value.hex() == sampled.value.hex()
        assert tabled.error_estimate.hex() == sampled.error_estimate.hex()

    def test_d4_table_agrees_with_the_exact_tv_over_seeds(self):
        # the mc-draws d=4 pair: 1,001 count vectors, tabled; the mean z-score
        # of 8 independent runs is N(0, 1/8) if each is an unbiased N(0, 1)
        params = validate_params(500, 10, (100,) * 5)
        exact = tv_discrete(params, "hyper", "multi").value
        target = JitteredLaw(params, "multi")
        z = [(mc.value - exact) / mc.error_estimate
             for mc in (tv_monte_carlo(params, "hyper", target, 100_000, seed) for seed in range(8))]
        assert max(map(abs, z)) < 4.0, z
        assert abs(sum(z) / len(z)) < 4.0 / math.sqrt(len(z)), z

    def test_d2_table_agrees_with_the_quadrature_over_seeds(self):
        # the mc-draws d=2 instance: 153 count vectors, tabled
        params = validate_params(4096, 16, (1024, 1024, 2048))
        law = build_gaussian(params)
        quad = tv_jittered_vs_gaussian(params, "hyper", law).value
        z = [(mc.value - quad) / mc.error_estimate
             for mc in (tv_monte_carlo(params, "hyper", law, 100_000, seed) for seed in range(8))]
        assert max(map(abs, z)) < 4.0, z
        assert abs(sum(z) / len(z)) < 4.0 / math.sqrt(len(z)), z

    def test_same_law_is_exactly_zero(self):
        params = validate_params(8, 4, (4, 4))
        mc = tv_monte_carlo(params, "hyper", JitteredLaw(params, "hyper"), 10_000, seed=1)
        assert mc.value == 0.0
        assert mc.error_estimate == 0.0

    def test_error_scales_with_sample_count(self):
        # quadrupling the samples should halve the standard error
        law = build_gaussian(WIDE)
        small = tv_monte_carlo(WIDE, "hyper", law, 10_000, seed=3)
        large = tv_monte_carlo(WIDE, "hyper", law, 40_000, seed=3)
        ratio = small.error_estimate / large.error_estimate
        assert 1.6 <= ratio <= 2.4

    def test_sample_count_floor(self):
        law = build_gaussian(WIDE)
        with pytest.raises(ValidationError):
            tv_monte_carlo(WIDE, "hyper", law, 100, seed=0)

    @pytest.mark.parametrize("call", [
        lambda: tv_monte_carlo(WIDE, "hyper", build_gaussian(WIDE), 1e5, seed=0),
        lambda: tv_pair(WIDE, "jitterhyper-gauss", "mc", sample_count=1e5),
    ], ids=["tv_monte_carlo", "tv_pair"])
    def test_sample_count_must_be_an_integer(self, call):
        with pytest.raises(ValidationError, match="sample_count must be an integer"):
            call()


class TestBoundParts:
    def test_frozen_skewed_case(self):
        parts = tv_bound_parts(SKEWED)
        assert parts.nu == (3, 1)
        # 3^-4 for the rare category, vacuous 1 for the common one
        assert parts.tail_sum == pytest.approx(1 / 81 + 1.0, abs=1e-14)
        assert parts.n2_over_N == pytest.approx(1.6, abs=1e-15)
        assert parts.gaussian_term_scale == pytest.approx(
            math.sqrt(3) / math.sqrt(8), abs=1e-14
        )

    def test_nu_is_exact_ceiling(self):
        # nu = ceil(1/p - 1) without any float rounding
        parts = tv_bound_parts(validate_params(30, 5, (7, 23)))
        assert parts.nu == ((30 - 1) // 7, 1)

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            tv_bound_parts(validate_params(10, 8, (5, 5)))

    def test_boundary_of_regime_allowed(self):
        parts = tv_bound_parts(validate_params(12, 9, (6, 6)))
        assert parts.n2_over_N == pytest.approx(81 / 12, abs=1e-13)

    @pytest.mark.parametrize("draws", [4, 8, 12])
    def test_quarter_weight_tail_algebra(self, draws):
        # p = 1/4 gives nu = 3 and a rare-category summand of 3^(-n/2);
        # the p = 3/4 coordinate contributes a vacuous 1
        parts = tv_bound_parts(validate_params(40, draws, (10, 30)))
        assert parts.tail_sum == pytest.approx(3.0 ** (-draws / 2) + 1.0, abs=1e-14)


class TestTailCheck:
    def test_frozen_skewed_case(self):
        check = tail_probability_check(SKEWED, 0)
        # exact oracle: 81/1708993 against 3^-4
        assert check.empirical == pytest.approx(81 / 1708993, rel=1e-12)
        assert check.bound == pytest.approx(1 / 81, abs=1e-15)
        assert check.empirical <= check.bound

    def test_common_category_vacuous(self):
        check = tail_probability_check(SKEWED, 1)
        assert check.bound == pytest.approx(1.0, abs=1e-14)
        assert check.empirical <= check.bound

    def test_coordinate_range(self):
        with pytest.raises(ValidationError):
            tail_probability_check(SKEWED, 2)

    @pytest.mark.parametrize("coord", [0.0, 1.0, "0", None])
    def test_coordinate_must_be_an_integer(self, coord):
        with pytest.raises(ValidationError, match="integer"):
            tail_probability_check(SKEWED, coord)
        assert tail_probability_check(SKEWED, np.int64(0)) == tail_probability_check(SKEWED, 0)

    def test_approaches_with_replacement_tail_from_below(self):
        # without replacement is the more concentrated scheme, so the exact
        # tail grows with the population toward the binomial limit
        # P(Bin(8, 1/4) >= 7) = 25/65536 and never crosses it
        limit = 25 / 65536
        empiricals = []
        for population in (40, 80, 160):
            params = validate_params(population, 8, (population // 4, 3 * population // 4))
            check = tail_probability_check(params, 0)
            assert check.empirical <= check.bound
            assert check.empirical < limit
            empiricals.append(check.empirical)
        assert empiricals == sorted(empiricals)

    @given(experiment_params(max_dim=2, max_count=12, max_draws=6))
    @settings(max_examples=25)
    def test_nu_matches_bound_parts(self, params):
        if 4 * params.sample_size > 3 * params.population:
            return
        parts = tv_bound_parts(params)
        for coord in range(params.dim + 1):
            assert tail_probability_check(params, coord).nu == parts.nu[coord]

    @given(experiment_params(max_dim=2, max_count=12, max_draws=6))
    @settings(max_examples=25)
    def test_bound_holds_when_regime_does(self, params):
        if 4 * params.sample_size > 3 * params.population:
            return
        for coord in range(params.dim + 1):
            check = tail_probability_check(params, coord)
            assert check.empirical <= check.bound + 1e-14
