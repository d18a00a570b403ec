"""Acceptance gate: ten headline checks, one printed verdict line each.

Each test prints ``[PASS]`` or ``[FAIL]`` with the measured numbers before
asserting, so a full run always shows the whole scoreboard.  Tolerances and
time limits are pinned in the assertions, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np

import oracles
from lecam import (
    build_gaussian,
    count_vector_matrix,
    data_processing_check,
    enumerate_support,
    expansion_order1,
    expansion_order2,
    fit_loglog_slope,
    hypergeometric_log_pmf_matrix,
    hypergeometric_moments,
    log_ratio_exact,
    make_generator,
    multinomial_log_pmf_matrix,
    multinomial_moments,
    residual_scan,
    support_matrix,
    tail_probability_check,
    tv_jittered_vs_gaussian,
    tv_monte_carlo,
    tv_pair,
    validate_params,
)
from lecam.kernels import apply_jitter, apply_round


def report(num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def weight_patterns(dim: int, population: int):
    patterns = set()
    cats = dim + 1
    if population % cats == 0:
        patterns.add((population // cats,) * cats)
    if population - dim >= 1:
        patterns.add((1,) * dim + (population - dim,))
    quarter = population // 4
    if quarter >= 1 and population - dim * quarter >= 1:
        patterns.add((quarter,) * dim + (population - dim * quarter,))
    return sorted(patterns)


def grid_instances():
    instances = []
    for dim in (1, 2, 3):
        for population in (6, 12, 24, 40):
            for draws in (1, 2, 5, 12):
                if draws > population:
                    continue
                for counts in weight_patterns(dim, population):
                    instances.append(validate_params(population, draws, counts))
    return instances


def test_criterion_01_normalization():
    start = time.perf_counter()
    instances = grid_instances()
    assert len(instances) <= 500
    worst = 0.0
    for params in instances:
        logs = hypergeometric_log_pmf_matrix(params, support_matrix(params))
        worst = max(worst, abs(math.fsum(np.exp(logs).tolist()) - 1.0))
        points = count_vector_matrix(params.sample_size, params.dim)
        logs = multinomial_log_pmf_matrix(params.sample_size, params.weights, points)
        worst = max(worst, abs(math.fsum(np.exp(logs).tolist()) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, "normalization", ok,
           f"max |sum - 1| = {worst:.3e} over {len(instances)} instances "
           f"(tol 1e-10, {elapsed:.2f}s)")


def test_criterion_02_single_draw_identity():
    start = time.perf_counter()
    instances = [p for p in grid_instances() if p.sample_size == 1]
    worst = 0.0
    checked = 0
    for params in instances:
        for point in enumerate_support(params):
            worst = max(worst, abs(log_ratio_exact(params, point)))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "single-draw identity", ok,
           f"max |log-ratio| = {worst:.3e} over {checked} support points of "
           f"{len(instances)} single-draw instances (tol 1e-12, {elapsed:.2f}s)")


def test_criterion_03_expansion_rates():
    # The order-1 residual decays like N^-2 only where the second bracket is
    # nonzero; on a root of that bracket (k=3 and its mirror k=5 here) the N^-2
    # term vanishes and the residual already decays like N^-3.  Each point's
    # expected order is read off the rational oracle, not the package.
    start = time.perf_counter()
    reference = validate_params(10, 5, (5, 5))
    exact_ok = (
        abs(expansion_order1(reference, (2,)) - 0.2) <= 1e-12
        and abs(expansion_order2(reference, (2,)) - 0.23) <= 1e-12
        and abs(log_ratio_exact(reference, (2,)) - 0.238892) <= 1e-6
    )
    gamma = 0.75
    draws = 8
    family = [(N, (N // 2, N // 2)) for N in (16, 32, 64, 128, 256)]
    window1, window2 = (-2.3, -1.7), (-3.4, -2.6)
    # gamma-truncated set of the whole family: k_i <= gamma * c_i for every i
    points = [
        k for k in range(draws + 1)
        if all(k_i <= Fraction(gamma) * c_i
               for _, counts in family for k_i, c_i in zip((k, draws - k), counts))
    ]
    vanishes = {}
    for k in points:
        zeros = {oracles.bracket2(N, counts, draws, (k,)) == 0 for N, counts in family}
        assert len(zeros) == 1, f"bracket2 at k={k} vanishes on part of the family only"
        vanishes[k] = zeros.pop()
    assert vanishes.get(3) is True, "k=3 must be a scanned root of the second bracket"
    assert not all(vanishes.values()), "no scanned point has a nonzero second bracket"
    lecam_family = [validate_params(N, draws, counts) for N, counts in family]
    slopes_ok = True
    details = []
    for k in points:
        slopes = []
        for order, (lo, hi) in ((1, window2 if vanishes[k] else window1), (2, window2)):
            scan = residual_scan(lecam_family, lambda p: (k,), order=order, gamma=gamma)
            slope = scan.fit.slope if scan.fit else float("nan")
            hit = lo <= slope <= hi
            slopes_ok = slopes_ok and hit
            slopes.append(f"{slope:.4f} in [{lo},{hi}] {'ok' if hit else 'MISS'}")
        tag = "bracket2=0" if vanishes[k] else "bracket2!=0"
        details.append(f"k={k} ({tag}) order-1 {slopes[0]}, order-2 {slopes[1]}")
    elapsed = time.perf_counter() - start
    ok = exact_ok and slopes_ok and elapsed < 5.0
    report(3, "expansion rates", ok,
           f"exact values {'ok' if exact_ok else 'BAD'}; " + "; ".join(details)
           + f" ({elapsed:.2f}s)")


def test_criterion_04_moments():
    start = time.perf_counter()
    worst = 0.0
    for params in grid_instances():
        points = support_matrix(params).astype(float)
        probs = np.exp(hypergeometric_log_pmf_matrix(params, support_matrix(params)))
        m = hypergeometric_moments(params)
        mean = probs @ points
        centered = points - mean
        cov = (probs[:, None] * centered).T @ centered
        worst = max(worst, float(np.max(np.abs(mean - m.mean))),
                    float(np.max(np.abs(cov - m.covariance))))
        cpoints = count_vector_matrix(params.sample_size, params.dim).astype(float)
        probs = np.exp(multinomial_log_pmf_matrix(
            params.sample_size, params.weights,
            count_vector_matrix(params.sample_size, params.dim)))
        m = multinomial_moments(params.sample_size, params.weights)
        mean = probs @ cpoints
        centered = cpoints - mean
        cov = (probs[:, None] * centered).T @ centered
        worst = max(worst, float(np.max(np.abs(mean - m.mean))),
                    float(np.max(np.abs(cov - m.covariance))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(4, "moment identities", ok,
           f"max |analytic - enumerated| = {worst:.3e} (tol 1e-8, {elapsed:.2f}s)")


JITTER_INSTANCES = [
    (10, 5, (5, 5)), (16, 8, (8, 8)), (24, 6, (12, 12)), (24, 6, (6, 18)),
    (30, 5, (10, 20)), (40, 12, (20, 20)), (13, 4, (6, 7)), (9, 3, (3, 6)),
    (21, 7, (7, 14)), (12, 6, (5, 7)),
    (12, 4, (4, 4, 4)), (9, 3, (3, 3, 3)), (15, 5, (5, 5, 5)), (18, 4, (6, 6, 6)),
    (16, 5, (4, 4, 8)), (20, 6, (5, 5, 10)), (14, 4, (2, 5, 7)), (24, 6, (8, 8, 8)),
    (10, 4, (2, 3, 5)), (27, 6, (9, 9, 9)),
]


def test_criterion_05_jitter_preserves_tv():
    start = time.perf_counter()
    assert len(JITTER_INSTANCES) == 20
    worst = 0.0
    for population, draws, counts in JITTER_INSTANCES:
        params = validate_params(population, draws, counts)
        continuous = float(oracles.tv_jittered_pair(population, counts, draws))
        discrete = tv_pair(params, "jitterhyper-jittermulti").value
        worst = max(worst, abs(continuous - discrete))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report(5, "jitter preserves TV", ok,
           f"max |continuous - discrete| = {worst:.3e} over 20 instances "
           f"(tol 1e-10, {elapsed:.2f}s)")


def test_criterion_06_gaussian_approximation_rate():
    start = time.perf_counter()
    sizes = (4, 16, 64, 256)
    values = []
    for draws in sizes:
        params = validate_params(2 * draws, draws, (draws, draws))
        law = build_gaussian(params)
        values.append(tv_jittered_vs_gaussian(params, "multi", law, 8).value)
    fit = fit_loglog_slope(sizes, values)
    elapsed = time.perf_counter() - start
    ok = -0.65 <= fit.slope <= -0.35 and elapsed < 120.0
    report(6, "with-replacement Gaussian rate", ok,
           f"TV slope vs n = {fit.slope:.4f} target [-0.65,-0.35], "
           f"r^2 = {fit.r_squared:.4f} ({elapsed:.2f}s)")


def test_criterion_07_gap_shrinks_with_population():
    start = time.perf_counter()
    sizes = (4, 8, 16)
    diffs, errors = [], []
    for draws in sizes:
        population = draws**3
        params = validate_params(population, draws, (population // 2, population // 2))
        law = build_gaussian(params)
        hyper = tv_jittered_vs_gaussian(params, "hyper", law, 8)
        multi = tv_jittered_vs_gaussian(params, "multi", law, 8)
        diffs.append(abs(hyper.value - multi.value))
        errors.append(hyper.error_estimate + multi.error_estimate)
    nonincreasing = all(
        later <= earlier + err_earlier + err_later
        for (earlier, later), (err_earlier, err_later)
        in zip(zip(diffs, diffs[1:]), zip(errors, errors[1:]))
    )
    elapsed = time.perf_counter() - start
    ok = nonincreasing and elapsed < 120.0
    report(7, "sampling-model gap shrinks", ok,
           f"|TV(hyper,gauss) - TV(multi,gauss)| = "
           f"{['%.3e' % v for v in diffs]} at n = {list(sizes)}, N = n^3 "
           f"(nonincreasing within error bars {['%.1e' % e for e in errors]}, "
           f"{elapsed:.2f}s)")


def test_criterion_08_tail_bound_holds():
    start = time.perf_counter()
    cases = []
    for counts in ((10, 30), (5, 20), (8, 25), (12, 36), (6, 30), (4, 28),
                   (5, 5, 20), (4, 8, 24), (6, 6, 24), (3, 9, 24),
                   (4, 4, 4, 20), (5, 5, 5, 25)):
        population = sum(counts)
        for draws in (3, 5, 8):
            if 4 * draws > 3 * population:
                continue
            params = validate_params(population, draws, counts)
            for coord, c in enumerate(counts):
                if 3 * c <= population:
                    cases.append((params, coord))
    cases = cases[:40]
    assert len(cases) >= 30
    worst = 0.0
    violations = 0
    for params, coord in cases:
        check = tail_probability_check(params, coord)
        if check.empirical > check.bound:
            violations += 1
        if check.bound > 0:
            worst = max(worst, check.empirical / check.bound)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(8, "tail bound holds", ok,
           f"{violations} violations over {len(cases)} rare-category checks, "
           f"max empirical/bound = {worst:.3f} ({elapsed:.2f}s)")


DPI_INSTANCES = [
    (16, 4, (8, 8)), (24, 6, (12, 12)), (24, 6, (6, 18)), (32, 8, (16, 16)),
    (40, 10, (20, 20)), (30, 6, (10, 20)), (64, 8, (32, 32)), (27, 6, (9, 18)),
    (12, 4, (4, 4, 4)), (18, 4, (6, 6, 6)),
]


def test_criterion_09_kernel_identities():
    start = time.perf_counter()
    rng = make_generator(123)
    points = rng.integers(-1000, 1000, size=(100_000, 3))
    recovered = apply_round(apply_jitter(points, rng))
    identity_ok = bool((recovered == points).all())
    worst_slack = float("inf")
    for population, draws, counts in DPI_INSTANCES:
        params = validate_params(population, draws, counts)
        result = data_processing_check(params, quad_order=6)
        worst_slack = min(worst_slack, result.slack)
    elapsed = time.perf_counter() - start
    ok = identity_ok and worst_slack >= -1e-8 and elapsed < 60.0
    report(9, "kernel identities", ok,
           f"round-of-jitter identity on 100000 points: {identity_ok}; "
           f"min processing slack = {worst_slack:.3e} over {len(DPI_INSTANCES)} "
           f"instances (floor -1e-8, {elapsed:.2f}s)")


def test_criterion_10_mc_agrees_with_quadrature():
    start = time.perf_counter()
    params = validate_params(256, 64, (128, 128))
    law = build_gaussian(params)
    worst_ratio = 0.0
    for which in ("hyper", "multi"):
        quad = tv_jittered_vs_gaussian(params, which, law, 8)
        mc = tv_monte_carlo(params, which, law, 1_000_000, seed=0)
        gap = abs(mc.value - quad.value)
        worst_ratio = max(worst_ratio, gap / mc.error_estimate)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 3.0 and elapsed < 120.0
    report(10, "sampler agrees with quadrature", ok,
           f"max |mc - quad| = {worst_ratio:.2f} standard errors "
           f"(limit 3, 1e6 samples, {elapsed:.2f}s)")
