import concurrent.futures
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import oracles
from lecam import (
    RegimeError,
    ValidationError,
    apply_jitter,
    apply_round,
    build_gaussian,
    data_processing_check,
    deficiency_upper_bounds,
    lecam_scan,
    make_generator,
    multinomial_log_pmf,
    sample_multinomial,
    scaled_params,
    tv_jittered_vs_gaussian,
    tv_pair,
    validate_params,
)
from lecam import distances, kernels
from lecam.kernels import _map_ordered

WIDE = validate_params(64, 8, (32, 32))
THREE_CAT = validate_params(12, 4, (4, 4, 4))


class TestJitterRound:
    def test_jitter_stays_in_open_cube(self):
        rng = make_generator(0)
        cloud = apply_jitter((3, 1), rng, size=20_000)
        assert cloud.shape == (20_000, 2)
        offsets = cloud - np.array([3.0, 1.0])
        assert (offsets > -0.5).all() and (offsets < 0.5).all()

    @pytest.mark.parametrize("u", [0.0, 1 - 2.0**-53])
    def test_jitter_at_the_extreme_uniforms_stays_in_open_cube(self, u):
        # k + (1/2 - 2**-53) rounds to k + 1/2 for k >= 1, and k - 1/2 is a face too
        class Extreme:
            def random(self, shape):
                return np.full(shape, u)

        points = np.array([[0, 1], [3, 250], [500_000, 0]])
        cloud = apply_jitter(points, Extreme())
        assert (np.abs(cloud - points) < 0.5).all()
        assert (apply_round(cloud) == points).all()

    def test_jitter_is_centered(self):
        rng = make_generator(1)
        cloud = apply_jitter((5,), rng, size=200_000)
        assert cloud.mean() == pytest.approx(5.0, abs=0.005)

    def test_round_inverts_jitter(self):
        rng = make_generator(2)
        points = rng.integers(-50, 50, size=(10_000, 3))
        recovered = apply_round(apply_jitter(points, rng))
        assert (recovered == points).all()

    def test_round_halves_away_from_zero(self):
        assert apply_round((0.5, -0.5, 2.5, -2.5)) == (1, -1, 3, -3)
        assert apply_round((0.49, -0.49)) == (0, 0)

    def test_jitter_is_uniform_within_cube(self):
        rng = make_generator(11)
        cloud = apply_jitter((0,), rng, size=1_000_000)
        bins = np.bincount(((cloud[:, 0] + 0.5) * 10).astype(int), minlength=10)
        result = stats.chisquare(bins)
        assert result.pvalue > 0.001

    def test_round_pushforward_recovers_discrete_law(self):
        # jitter then round is a lossless cycle in distribution, so rounded
        # jittered samples must reproduce the sampling frequencies
        weights = (1 / 3, 2 / 3)
        rng = make_generator(12)
        draws = np.asarray(sample_multinomial(6, weights, rng, size=1_000_000))
        rounded = apply_round(apply_jitter(draws, rng))
        assert rounded.shape == draws.shape
        total = len(rounded)
        for k in range(7):
            prob = math.exp(multinomial_log_pmf(6, weights, (k,)))
            freq = float(np.mean(rounded[:, 0] == k))
            se = math.sqrt(prob * (1 - prob) / total)
            assert abs(freq - prob) < 4 * se


class TestDeficiency:
    def test_matches_jittered_tv(self):
        report = deficiency_upper_bounds(WIDE, quad_order=8)
        law = build_gaussian(WIDE)
        tv = tv_jittered_vs_gaussian(WIDE, "hyper", law, 8)
        assert report.delta_P_to_Q == pytest.approx(tv.value, abs=1e-14)
        assert report.delta_Q_to_P == pytest.approx(tv.value, abs=1e-14)
        assert report.le_cam_upper == max(report.delta_P_to_Q, report.delta_Q_to_P)
        assert report.method == "cube-quadrature"

    def test_within_its_bar_of_the_oracle_at_a_large_population(self):
        # n = 32, N = n^3: the d = 1 le_cam_upper against adaptive mpmath
        # quadrature of the jittered hypergeometric law
        N, n = 32768, 32
        params = validate_params(N, n, (N // 2, N // 2))
        report = deficiency_upper_bounds(params, quad_order=8)
        masses = [oracles.hyper_prob(N, params.counts, n, (k,)) for k in range(n + 1)]
        expected = float(oracles.tv_jitter_gauss_1d(
            masses, Fraction(n, 2), Fraction(n, 4), list(range(n + 1))
        ))
        assert abs(report.le_cam_upper - expected) <= report.error_estimate

    def test_budget_scale(self):
        report = deficiency_upper_bounds(WIDE, quad_order=8)
        assert report.budget == pytest.approx(1 / math.sqrt(8), abs=1e-15)
        skew = validate_params(40, 8, (10, 30))
        report = deficiency_upper_bounds(skew, quad_order=8)
        assert report.budget == pytest.approx(math.sqrt(3) / math.sqrt(8), abs=1e-14)

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            deficiency_upper_bounds(validate_params(10, 8, (5, 5)))

    def test_mc_route(self):
        quad = deficiency_upper_bounds(WIDE, quad_order=8)
        mc = deficiency_upper_bounds(WIDE, tv_method="mc", sample_count=200_000, seed=3)
        assert mc.method == "monte-carlo"
        assert abs(mc.le_cam_upper - quad.le_cam_upper) < 4 * mc.error_estimate

    def test_monotone_along_cubic_population_growth(self):
        reports = [
            deficiency_upper_bounds(
                validate_params(n**3, n, (n**3 // 2, n**3 // 2)), quad_order=8
            )
            for n in (4, 8, 16)
        ]
        for earlier, later in zip(reports, reports[1:]):
            assert (later.le_cam_upper
                    <= earlier.le_cam_upper + earlier.error_estimate + later.error_estimate)

    @pytest.mark.parametrize("population,draws,counts",
                             [(64, 8, (32, 32)), (40, 8, (10, 30))])
    def test_bounded_by_proof_decomposition(self, population, draws, counts):
        # the bound never exceeds the two-hop route through the jittered pair
        params = validate_params(population, draws, counts)
        report = deficiency_upper_bounds(params, quad_order=8)
        law = build_gaussian(params)
        pair = tv_pair(params, "jitterhyper-jittermulti")
        leg = tv_jittered_vs_gaussian(params, "multi", law, 8)
        combined = report.error_estimate + pair.error_estimate + leg.error_estimate
        assert report.le_cam_upper <= pair.value + leg.value + combined


class TestLecamScan:
    def test_rows_match_library_and_flag_outside_regime(self):
        family = [WIDE, validate_params(6, 5, (3, 3))]
        scan = lecam_scan(family, quad_order=8)
        assert [r.quantity for r in scan.records[:5]] == [
            "delta_P_to_Q", "delta_Q_to_P", "le_cam_upper", "budget",
            "tv_jittered_multinomial_gauss",
        ]
        report = deficiency_upper_bounds(WIDE, quad_order=8)
        tv = tv_jittered_vs_gaussian(WIDE, "multi", build_gaussian(WIDE), 8)
        assert [r.value for r in scan.records[:5]] == [
            report.delta_P_to_Q, report.delta_Q_to_P, report.le_cam_upper, report.budget,
            tv.value,
        ]
        flagged = scan.records[5:9]
        assert all(r.method == "flagged:outside-regime" and math.isnan(r.value)
                   for r in flagged)
        assert scan.records[9].method == "cube-quadrature"
        assert scan.fits == {"le_cam_upper": None, "tv_jittered_multinomial_gauss": None}

    def test_points_at_one_sample_size_are_not_fitted(self):
        # four positive points at one n: no slope, and no polyfit warning
        family = [validate_params(N, 8, (N // 2, N // 2)) for N in (64, 128, 256, 512)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = lecam_scan(family, quad_order=8)
        assert all(r.value > 0 for r in scan.records)
        assert scan.fits == {"le_cam_upper": None, "tv_jittered_multinomial_gauss": None}

    def test_fits_slopes_along_cubic_growth(self):
        family = [validate_params(n**3, n, (n**3 // 2, n**3 // 2)) for n in (4, 6, 8, 12)]
        scan = lecam_scan(family, quad_order=8)
        for fit in scan.fits.values():
            assert fit.points_used == 4
            assert -0.6 < fit.slope < -0.4


def _cubic(pattern, ns):
    """The family of ``lecam-scan --Np pattern --n ns``: N = n^3."""
    return [scaled_params(n**3, n, pattern) for n in ns]


# Per dimension, a CLI family and points with N/2 < n <= 3N/4 (read at
# c - k) and past 3N/4 (flagged), in mixed order.
SCAN_FAMILIES = {
    "d1": _cubic((1, 1), (4, 6, 8)) + [
        validate_params(4, 3, (2, 2)), validate_params(6, 5, (3, 3)),
        validate_params(16, 10, (4, 12)), validate_params(10, 8, (5, 5)),
    ],
    "d2": _cubic((1, 1, 2), (2, 4, 6)) + [
        validate_params(8, 5, (2, 2, 4)), validate_params(8, 7, (2, 2, 4)),
        validate_params(12, 9, (3, 3, 6)),
    ],
    "d3": _cubic((1, 1, 1, 1), (2, 4)) + [
        validate_params(8, 5, (2, 2, 2, 2)), validate_params(8, 7, (2, 2, 2, 2)),
    ],
}


def _point_by_point(family, **kwargs):
    """Each point's five (value, error, method) rows from its own calls."""
    rows = []
    for i, params in enumerate(family):
        seeded = dict(kwargs, seed=kwargs.get("seed", 0) + i)
        try:
            report = deficiency_upper_bounds(params, **seeded)
        except RegimeError:
            rows += [("nan", "nan", "flagged:outside-regime")] * 4
        else:
            value, error = report.le_cam_upper.hex(), report.error_estimate.hex()
            rows += [(value, error, report.method)] * 3
            rows.append((report.budget.hex(), "0x0.0p+0", "closed-form"))
        method = seeded.pop("tv_method")
        tv = tv_pair(params, "jittermulti-gauss", method, **seeded)
        rows.append((tv.value.hex(), tv.error_estimate.hex(), tv.method))
    return rows


class TestScanIsPointByPoint:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(SCAN_FAMILIES))
    def test_quadrature_records_are_the_per_point_bits(self, name, jobs):
        family = SCAN_FAMILIES[name]
        scan = lecam_scan(family, quad_order=8, jobs=jobs)
        got = [(r.value.hex(), r.error.hex(), r.method) for r in scan.records]
        assert got == _point_by_point(family, tv_method="quad", quad_order=8)
        assert [(r.population, r.sample_size) for r in scan.records[::5]] == [
            (p.population, p.sample_size) for p in family]

    def test_a_family_of_mixed_dimensions(self):
        family = [SCAN_FAMILIES["d2"][0], SCAN_FAMILIES["d1"][0], SCAN_FAMILIES["d2"][3]]
        scan = lecam_scan(family, quad_order=6)
        got = [(r.value.hex(), r.error.hex(), r.method) for r in scan.records]
        assert got == _point_by_point(family, tv_method="quad", quad_order=6)

    def test_one_pass_of_the_integrator_per_scan(self, monkeypatch):
        passes, quadratures, depth = [], [], [0]
        cell_integrals, cube_quadrature = distances._cell_integrals, distances._cube_quadrature

        def counted_cells(*args):
            passes.append(depth[0])
            depth[0] += 1
            try:
                return cell_integrals(*args)
            finally:
                depth[0] -= 1

        def counted_quadrature(items, quad_order):
            quadratures.append(len(items))
            return cube_quadrature(items, quad_order)

        monkeypatch.setattr(distances, "_cell_integrals", counted_cells)
        monkeypatch.setattr(distances, "_cube_quadrature", counted_quadrature)
        lecam_scan(SCAN_FAMILIES["d2"], quad_order=8)
        # six points, one of them flagged: 2 * 5 + 1 laws, one top-level pass
        assert quadratures == [11]
        assert passes.count(0) == 1 and len(passes) > 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_monte_carlo_records_are_unchanged(self, jobs):
        family = SCAN_FAMILIES["d1"][:2] + SCAN_FAMILIES["d1"][4:6]
        kwargs = dict(tv_method="mc", sample_count=10_000, seed=5)
        scan = lecam_scan(family, jobs=jobs, **kwargs)
        got = [(r.value.hex(), r.error.hex(), r.method) for r in scan.records]
        assert got == _point_by_point(family, **kwargs)

    def test_monte_carlo_builds_one_gaussian_per_point(self, monkeypatch):
        built, runs = [], []
        build, monte_carlo = distances.build_gaussian, distances.tv_monte_carlo

        def counted_build(params):
            built.append(params)
            return build(params)

        def counted_run(params, which, *args):
            runs.append((params, which))
            return monte_carlo(params, which, *args)

        for module in (distances, kernels):
            monkeypatch.setattr(module, "build_gaussian", counted_build)
        monkeypatch.setattr(distances, "tv_monte_carlo", counted_run)
        # three points, the last outside the regime: one Gaussian each, one run per law
        family = SCAN_FAMILIES["d1"][:2] + [validate_params(10, 8, (5, 5))]
        lecam_scan(family, tv_method="mc", sample_count=10_000)
        assert built == family
        assert runs == [(family[0], "hypergeometric"), (family[0], "multinomial"),
                        (family[1], "hypergeometric"), (family[1], "multinomial"),
                        (family[2], "multinomial")]


class TestDataProcessing:
    def test_rounding_cannot_grow_tv(self):
        result = data_processing_check(WIDE, quad_order=8)
        assert result.tv_after <= result.tv_before + result.combined_error
        assert result.slack == pytest.approx(
            result.tv_before - result.tv_after, abs=1e-16
        )
        assert result.combined_error == result.error_before + result.error_after

    def test_two_dimensional_case(self):
        result = data_processing_check(THREE_CAT, quad_order=6)
        assert result.slack >= -result.combined_error

    @pytest.mark.parametrize(
        "population,draws,counts",
        [(16, 4, (8, 8)), (24, 6, (12, 12)), (24, 6, (6, 18)), (18, 4, (6, 6, 6))],
    )
    def test_slack_nonnegative_across_instances(self, population, draws, counts):
        params = validate_params(population, draws, counts)
        result = data_processing_check(params, quad_order=6)
        assert result.slack >= -1e-8

    @pytest.mark.parametrize("population,draws,counts", [
        (16, 4, (8, 8)), (24, 6, (12, 12)), (24, 6, (6, 18)), (32, 8, (16, 16)),
        (40, 10, (20, 20)), (30, 6, (10, 20)), (64, 8, (32, 32)), (27, 6, (9, 18)),
        (1000, 40, (500, 500)), (12, 4, (4, 4, 4)),
    ])
    def test_tv_after_within_its_bar_of_the_oracle(self, population, draws, counts):
        oracle = oracles.tv_rounded_gauss_1d if len(counts) == 2 else oracles.tv_rounded_gauss_2d
        expected = float(oracle(population, counts, draws))
        params = validate_params(population, draws, counts)
        # order 2 takes its bar from the 1-point rule
        for order in (2, 6, 8):
            result = data_processing_check(params, quad_order=order)
            assert abs(result.tv_after - expected) <= result.error_after


def _abs_chunk(chunk):
    return [abs(x) for x in chunk]


def test_pool_never_exceeds_the_item_count(monkeypatch):
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert _map_ordered(_abs_chunk, [-1, -2], jobs=4) == [1, 2]
    assert seen == [2]
    assert _map_ordered(_abs_chunk, [-3], jobs=4) == [3]
    assert seen == [2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_refused(jobs):
    with pytest.raises(ValidationError, match="jobs must be at least 1"):
        _map_ordered(_abs_chunk, [-1, -2], jobs=jobs)


def test_jobs_must_be_an_integer():
    with pytest.raises(ValidationError, match="jobs must be at least 1"):
        lecam_scan([WIDE, WIDE], jobs=1.5)


class _NoPool:
    def __init__(self, max_workers):
        raise AssertionError("a worker started")


@pytest.mark.parametrize("name", ["exact", "bootstrap", "quadrature"])
@pytest.mark.parametrize("call", [
    deficiency_upper_bounds,
    lambda params, **kwargs: lecam_scan([params, params], jobs=2, **kwargs),
], ids=["deficiency_upper_bounds", "lecam_scan"])
def test_bad_method_rejected(call, name, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    with pytest.raises(ValidationError, match=f"{name!r} not available"):
        call(WIDE, tv_method=name)


@pytest.mark.parametrize("call", [
    deficiency_upper_bounds, lambda params, **kwargs: lecam_scan([params], **kwargs),
], ids=["deficiency_upper_bounds", "lecam_scan"])
def test_sample_count_must_be_an_integer(call):
    with pytest.raises(ValidationError, match="sample_count must be an integer"):
        call(WIDE, tv_method="mc", sample_count=1e5)
