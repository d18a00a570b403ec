"""Independent reference implementations used to cross-check the package.

Everything here is computed from first principles with exact integerents
(fractions.Fraction, math.comb) or high-precision floats (mpmath), never by
calling into the package under test.  Frozen literals in the test modules
were produced by running ``python tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product

import mpmath

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# exact pmfs on the full count vector (all d+1 coordinates implied)

def hyper_prob(population: int, counts: tuple[int, ...], draws: int,
               point: tuple[int, ...]) -> Fraction:
    """P(first d coordinates = point) for sampling without replacement."""
    full = point + (draws - sum(point),)
    if any(k < 0 or k > c for k, c in zip(full, counts)):
        return Fraction(0)
    num = 1
    for c, k in zip(counts, full):
        num *= math.comb(c, k)
    return Fraction(num, math.comb(population, draws))


def multi_prob(population: int, counts: tuple[int, ...], draws: int,
               point: tuple[int, ...]) -> Fraction:
    """Same marginal for sampling with replacement."""
    full = point + (draws - sum(point),)
    if any(k < 0 for k in full):
        return Fraction(0)
    coeff = math.factorial(draws)
    for k in full:
        coeff //= math.factorial(k)
    value = Fraction(coeff)
    for c, k in zip(counts, full):
        value *= Fraction(c, population) ** k
    return value


def support_points(counts: tuple[int, ...], draws: int):
    """All feasible leading-coordinate vectors for the finite-population law."""
    head = counts[:-1]
    ranges = [range(0, min(c, draws) + 1) for c in head]
    for point in product(*ranges):
        rest = draws - sum(point)
        if 0 <= rest <= counts[-1]:
            yield point


def count_vectors(dim: int, draws: int):
    """All nonnegative d-vectors with sum at most draws."""
    ranges = [range(0, draws + 1) for _ in range(dim)]
    for point in product(*ranges):
        if sum(point) <= draws:
            yield point


def tv_exact(population: int, counts: tuple[int, ...], draws: int) -> Fraction:
    total = Fraction(0)
    dim = len(counts) - 1
    for point in count_vectors(dim, draws):
        total += abs(hyper_prob(population, counts, draws, point)
                     - multi_prob(population, counts, draws, point))
    return total / 2


def tv_jittered_pair(population: int, counts: tuple[int, ...], draws: int) -> Fraction:
    """TV between the two laws after adding Uniform(-1/2, 1/2)^d, integrated
    over the box [-1/2, draws + 1/2]^d.

    The rule is the composite midpoint rule of step 1/2 on every axis, exact
    on constants.  Each node's densities are the pmfs at the lattice point
    nearest to it, so no node sits on a cube face and every panel lies in one
    cube.
    """
    dim = len(counts) - 1
    axis = [Fraction(2 * j - 1, 4) for j in range(2 * draws + 2)]
    weight = Fraction(1, 2**dim)
    total = Fraction(0)
    for node in product(axis, repeat=dim):
        point = tuple(math.floor(x + Fraction(1, 2)) for x in node)
        total += weight * abs(hyper_prob(population, counts, draws, point)
                              - multi_prob(population, counts, draws, point))
    return total / 2


def hellinger_sq(population: int, counts: tuple[int, ...], draws: int) -> mpmath.mpf:
    overlap = mpmath.mpf(0)
    dim = len(counts) - 1
    for point in count_vectors(dim, draws):
        p = hyper_prob(population, counts, draws, point)
        q = multi_prob(population, counts, draws, point)
        overlap += mpmath.sqrt(mpmath.mpf(p.numerator) / p.denominator
                               * mpmath.mpf(q.numerator) / q.denominator)
    return 1 - overlap


def _log_binom(a: int, b: int) -> mpmath.mpf:
    return mpmath.loggamma(a + 1) - mpmath.loggamma(b + 1) - mpmath.loggamma(a - b + 1)


def log_hyper_prob(population: int, counts: tuple[int, ...], draws: int,
                   point: tuple[int, ...]) -> mpmath.mpf:
    """ln of ``hyper_prob`` from 50-digit log-gammas, for populations too large
    for exact fractions to be quick."""
    full = point + (draws - sum(point),)
    with mpmath.workdps(50):
        total = -_log_binom(population, draws)
        for c, k in zip(counts, full):
            total += _log_binom(c, k)
        return +total


def log_multi_prob(population: int, counts: tuple[int, ...], draws: int,
                   point: tuple[int, ...]) -> mpmath.mpf:
    """ln of ``multi_prob`` from 50-digit log-gammas."""
    full = point + (draws - sum(point),)
    with mpmath.workdps(50):
        total = mpmath.loggamma(draws + 1)
        for c, k in zip(counts, full):
            total += k * mpmath.log(mpmath.mpf(c) / population) - mpmath.loggamma(k + 1)
        return +total


def tv_support(population: int, counts: tuple[int, ...], draws: int) -> mpmath.mpf:
    """TV as the sum of (P - Q)^+ over the support of P (Scheffe's identity),
    both pmfs from 60-digit log-gammas, each read once per category and count."""
    with mpmath.workdps(60):
        log_w = [mpmath.log(mpmath.mpf(c) / population) for c in counts]
        log_q0 = mpmath.loggamma(draws + 1)
        log_p0 = -_log_binom(population, draws)
        terms = {}

        def term(i: int, k: int):
            if (i, k) not in terms:
                terms[i, k] = (_log_binom(counts[i], k),
                               k * log_w[i] - mpmath.loggamma(k + 1))
            return terms[i, k]

        total = mpmath.mpf(0)
        for point in support_points(counts, draws):
            full = point + (draws - sum(point),)
            log_p, log_q = log_p0, log_q0
            for i, k in enumerate(full):
                p_term, q_term = term(i, k)
                log_p += p_term
                log_q += q_term
            total += max(mpmath.exp(log_p) - mpmath.exp(log_q), 0)
        return +total


# ---------------------------------------------------------------------------
# log-ratio and its polynomial truncations, exact rational brackets

def log_ratio(population: int, counts: tuple[int, ...], draws: int,
              point: tuple[int, ...]) -> mpmath.mpf:
    p = hyper_prob(population, counts, draws, point)
    q = multi_prob(population, counts, draws, point)
    return mpmath.log(mpmath.mpf(p.numerator) / p.denominator) - \
        mpmath.log(mpmath.mpf(q.numerator) / q.denominator)


def bracket1(population: int, counts: tuple[int, ...], draws: int,
             point: tuple[int, ...]) -> Fraction:
    full = point + (draws - sum(point),)
    total = Fraction(draws * draws - draws, 2)
    for c, k in zip(counts, full):
        total -= Fraction(population, c) * Fraction(k * k - k, 2)
    return total / population


def bracket2(population: int, counts: tuple[int, ...], draws: int,
             point: tuple[int, ...]) -> Fraction:
    def g(t: int) -> Fraction:
        return Fraction(t * (t - 1) * (2 * t - 1), 12)

    full = point + (draws - sum(point),)
    total = g(draws)
    for c, k in zip(counts, full):
        total -= Fraction(population, c) ** 2 * g(k)
    return total / population**2


# ---------------------------------------------------------------------------
# marginal tail of the without-replacement law, exact

def marginal_tail(population: int, counts: tuple[int, ...], draws: int,
                  coord: int, threshold: Fraction) -> Fraction:
    c = counts[coord]
    total = Fraction(0)
    start = int(threshold) + 1
    for j in range(start, min(c, draws) + 1):
        total += Fraction(math.comb(c, j) * math.comb(population - c, draws - j),
                          math.comb(population, draws))
    return total


def tail_bound(population: int, counts: tuple[int, ...], draws: int,
               coord: int) -> mpmath.mpf:
    c = counts[coord]
    nu = (population - 1) // c
    p = Fraction(c, population)
    e1 = Fraction(draws) * nu * p
    e2 = Fraction(draws) * (1 - nu * p)
    base2 = Fraction(population - c, population - nu * c)
    return mpmath.mpf(nu) ** mpmath.mpf(float(-e1)) * \
        mpmath.mpf(base2.numerator) ** mpmath.mpf(float(e2)) / \
        mpmath.mpf(base2.denominator) ** mpmath.mpf(float(e2))


# ---------------------------------------------------------------------------
# one-dimensional jittered-law vs Gaussian TV, adaptive mpmath quadrature

def _phi(x, mean, var):
    return mpmath.exp(-(x - mean) ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)


def tv_jitter_gauss_1d(masses: list[Fraction], mean: Fraction, var: Fraction,
                       lattice: list[int]) -> mpmath.mpf:
    """TV between sum_k masses[k] * Uniform(k +- 1/2) and Normal(mean, var).

    Splits each unit cell at the (at most two) points where the density of
    the normal crosses the cell's constant level, so every mpmath.quad call
    integrates a smooth signed difference.
    """
    mean = mpmath.mpf(mean.numerator) / mean.denominator
    var = mpmath.mpf(var.numerator) / var.denominator
    sigma = mpmath.sqrt(var)
    inside = mpmath.mpf(0)
    covered = mpmath.mpf(0)
    for k, mass in zip(lattice, masses):
        level = mpmath.mpf(mass.numerator) / mass.denominator
        lo, hi = mpmath.mpf(k) - mpmath.mpf("0.5"), mpmath.mpf(k) + mpmath.mpf("0.5")
        cuts = [lo, hi]
        peak = 1 / (sigma * mpmath.sqrt(2 * mpmath.pi))
        if 0 < level < peak:
            off = sigma * mpmath.sqrt(-2 * mpmath.log(level / peak))
            for root in (mean - off, mean + off):
                if lo < root < hi:
                    cuts.append(root)
        cuts.sort()
        for a, b in zip(cuts[:-1], cuts[1:]):
            inside += abs(mpmath.quad(lambda x: level - _phi(x, mean, var), [a, b]))
        covered += mpmath.quad(lambda x: _phi(x, mean, var), [lo, hi])
    return (inside + (1 - covered)) / 2


# ---------------------------------------------------------------------------
# two-dimensional jittered-law vs Gaussian TV, nested mpmath quadrature

def gaussian_moments(population: int, counts: tuple[int, ...], draws: int):
    """Exact mean and covariance of the with-replacement law's first d coordinates."""
    dim = len(counts) - 1
    p = [Fraction(c, population) for c in counts]
    mean = [draws * p[i] for i in range(dim)]
    cov = [[draws * ((p[i] if i == j else 0) - p[i] * p[j]) for j in range(dim)]
           for i in range(dim)]
    return mean, cov


def tv_jitter_gauss_2d(masses: list[Fraction], lattice: list[tuple[int, int]],
                       mean: list[Fraction], cov: list[list[Fraction]]) -> mpmath.mpf:
    """TV between sum_k masses[k] * Uniform(cell k) and a bivariate normal.

    TV = 1/2 [1 + sum_cells int_cell (|c - phi| - phi)], each cell's integral
    by brute force: two nested mpmath.quad calls on the bivariate density
    itself, written with the inverse covariance P.  {phi > c} is the ellipse
    t'Pt < q0 (t = x - mean), so at each x1 the inner x2 integral is split
    at the ellipse's two roots, and the outer x1 integral is split where the
    ellipse ends or crosses the cell's x2 edges; every piece is smooth
    inside.  Works at 20 digits, Gauss-Legendre inside, tanh-sinh outside
    (it takes the square-root kinks at the ellipse's ends).
    """
    with mpmath.workdps(20):
        mu1, mu2 = (mpmath.mpf(v.numerator) / v.denominator for v in mean)
        s11, s12, s22 = (mpmath.mpf(v.numerator) / v.denominator
                         for v in (cov[0][0], cov[0][1], cov[1][1]))
        det = s11 * s22 - s12 * s12
        p11, p12, p22 = s22 / det, -s12 / det, s11 / det
        peak = 1 / (2 * mpmath.pi * mpmath.sqrt(det))
        half = mpmath.mpf(1) / 2
        total = mpmath.mpf(0)
        for (k1, k2), mass in zip(lattice, masses):
            c = mpmath.mpf(mass.numerator) / mass.denominator
            q0 = 2 * mpmath.log(peak / c) if c < peak else None
            lo, hi = k1 - half - mu1, k1 + half - mu1
            a, b = k2 - half - mu2, k2 + half - mu2

            def inner(t, c=c, q0=q0, a=a, b=b):
                def gap(u):
                    phi = peak * mpmath.exp(-(p11 * t * t + 2 * p12 * t * u + p22 * u * u) / 2)
                    return abs(c - phi) - phi

                cuts = [a, b]
                disc = (p12 * t) ** 2 - p22 * (p11 * t * t - q0) if q0 is not None else -1
                if disc > 0:
                    r = mpmath.sqrt(disc)
                    cuts += [u for u in ((-p12 * t - r) / p22, (-p12 * t + r) / p22) if a < u < b]
                return mpmath.quad(gap, sorted(cuts), method="gauss-legendre")

            cuts = {lo, hi}
            if q0 is not None:
                w = mpmath.sqrt(s11 * q0)
                cuts.update((-w, w))
                for u in (a, b):
                    disc = (p12 * u) ** 2 - p11 * (p22 * u * u - q0)
                    if disc >= 0:
                        r = mpmath.sqrt(disc)
                        cuts.update(((-p12 * u - r) / p11, (-p12 * u + r) / p11))
            total += mpmath.quad(inner, sorted(t for t in cuts if lo <= t <= hi))
        return (1 + total) / 2


# ---------------------------------------------------------------------------
# three-dimensional jittered-law vs Gaussian TV, closed form in x3

def _level_crossings(prec, axis, point, q0):
    """Where t'Pt = q0 along coordinate ``axis``, the others held at ``point``.

    ``prec`` is the precision matrix of the marginal on len(point)
    coordinates; the crossings are the roots of a quadratic in t_axis."""
    others = [j for j in range(len(point)) if j != axis]
    a = prec[axis, axis]
    b = sum(prec[axis, j] * point[j] for j in others)
    c = sum(prec[j, k] * point[j] * point[k] for j in others for k in others) - q0
    disc = b * b - a * c
    if disc < 0:
        return []
    root = mpmath.sqrt(disc)
    return [(-b - root) / a, (-b + root) / a]


def tv_jitter_gauss_3d(masses: list[Fraction], lattice: list[tuple[int, int, int]],
                       mean: list[Fraction], cov: list[list[Fraction]]) -> mpmath.mpf:
    """TV between sum_k masses[k] * Uniform(cell k) and a trivariate normal.

    TV = 1/2 [1 + sum_cells int_cell (|c - phi| - phi)].  {phi > c} is the
    ellipsoid t'Pt < q0 (t = x - mean, P the inverse covariance).  Given
    (t1, t2), phi is a scaled normal in t3 of mean m3 = -(P31 t1 + P32 t2) / P33
    and variance 1 / P33, above c on |t3 - m3| < rho, so the t3 integral is
    in closed form: c (b3 - a3) - 2 [c (hi - lo) + mass(a3, lo) + mass(hi, b3)]
    with lo, hi = m3 -+ rho clipped to the cell.  That leaves a nested
    mpmath.quad (tanh-sinh, for the square-root kinks) over (t1, t2), each
    split where its integrand has kinks: t2 where the ellipse in (t2, t3)
    ends or meets a t3 edge, t1 where the ellipsoid, or its section by a
    face or an edge of the cell, ends.  A section by the coordinates F held
    at edges ends where the marginal quadratic form on {t1} and F, whose
    precision is the inverse of that block of the covariance, equals q0.
    Works at 20 digits.
    """
    with mpmath.workdps(20):
        mu = [_mpf(v) for v in mean]
        sigma = mpmath.matrix([[_mpf(v) for v in row] for row in cov])
        prec = mpmath.inverse(sigma)
        peak = 1 / (mpmath.sqrt((2 * mpmath.pi) ** 3 * mpmath.det(sigma)))
        p33 = prec[2, 2]
        sd3 = 1 / mpmath.sqrt(p33)

        def marginal(keep):
            return mpmath.inverse(mpmath.matrix([[sigma[i, j] for j in keep] for i in keep]))

        # (t1, t2) marginal, and the marginals of the outer cuts per set F
        outer_marginals = [(fixed, marginal([0] + fixed)) for fixed in ([], [1], [2], [1, 2])]
        inner_marginals = [([], marginal([0, 1])), ([2], prec)]
        half = mpmath.mpf(1) / 2
        total = mpmath.mpf(0)
        for cell, mass in zip(lattice, masses):
            c = _mpf(mass)
            q0 = 2 * mpmath.log(peak / c) if c < peak else None
            edges = [(k - half - m, k + half - m) for k, m in zip(cell, mu)]
            (lo1, hi1), (lo2, hi2), (a3, b3) = edges

            def normal_mass(t1, t2, lo, hi):
                m3 = -(prec[2, 0] * t1 + prec[2, 1] * t2) / p33
                r = (prec[0, 0] * t1 * t1 + 2 * prec[0, 1] * t1 * t2 + prec[1, 1] * t2 * t2
                     - p33 * m3 * m3)
                scale = peak * mpmath.exp(-r / 2) * mpmath.sqrt(2 * mpmath.pi) * sd3
                return scale * (mpmath.ncdf(hi, m3, sd3) - mpmath.ncdf(lo, m3, sd3))

            def slice_gap(t1, t2, c=c, q0=q0, a3=a3, b3=b3):
                m3 = -(prec[2, 0] * t1 + prec[2, 1] * t2) / p33
                lo = hi = min(max(m3, a3), b3)
                if q0 is not None:
                    r = (prec[0, 0] * t1 * t1 + 2 * prec[0, 1] * t1 * t2 + prec[1, 1] * t2 * t2
                         - p33 * m3 * m3)
                    if q0 > r:
                        rho = mpmath.sqrt((q0 - r) / p33)
                        lo, hi = min(max(m3 - rho, a3), b3), min(max(m3 + rho, a3), b3)
                below = c * (hi - lo) + normal_mass(t1, t2, a3, lo) + normal_mass(t1, t2, hi, b3)
                return c * (b3 - a3) - 2 * below

            def inner(t1, q0=q0, lo2=lo2, hi2=hi2, a3=a3, b3=b3):
                cuts = {lo2, hi2}
                if q0 is not None:
                    for fixed, m in inner_marginals:
                        for e in ((a3, b3) if fixed else (None,)):
                            point = [t1, None] + ([e] if fixed else [])
                            cuts.update(_level_crossings(m, 1, point, q0))
                pts = sorted(t for t in cuts if lo2 <= t <= hi2)
                return mpmath.quad(lambda t2: slice_gap(t1, t2), pts)

            cuts = {lo1, hi1}
            if q0 is not None:
                for fixed, m in outer_marginals:
                    for held in product(*[edges[i] for i in fixed]):
                        cuts.update(_level_crossings(m, 0, [None, *held], q0))
            total += mpmath.quad(inner, sorted(t for t in cuts if lo1 <= t <= hi1))
        return (1 + total) / 2


# ---------------------------------------------------------------------------
# finite-population law vs the Gaussian rounded onto the lattice

def _mpf(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def _tv_rounded(population: int, counts: tuple[int, ...], draws: int, cell_mass) -> mpmath.mpf:
    """1/2 [sum_supp |p_k - m_k| + (1 - sum_supp m_k)]: off the support p is 0,
    and the unit cells tile the space, so their masses add up to the complement."""
    gaps = masses = mpmath.mpf(0)
    for point in support_points(counts, draws):
        mass = cell_mass(point)
        gaps += abs(_mpf(hyper_prob(population, counts, draws, point)) - mass)
        masses += mass
    return (gaps + (1 - masses)) / 2


def tv_rounded_gauss_1d(population: int, counts: tuple[int, ...], draws: int) -> mpmath.mpf:
    """TV between the d=1 finite-population law and the rounded Gaussian of
    matching with-replacement moments, each cell mass a Phi difference."""
    (mean,), ((var,),) = gaussian_moments(population, counts, draws)
    mean, sd = _mpf(mean), mpmath.sqrt(_mpf(var))
    half = mpmath.mpf(1) / 2

    def cell_mass(point):
        (k,) = point
        return mpmath.ncdf(k + half, mean, sd) - mpmath.ncdf(k - half, mean, sd)

    return _tv_rounded(population, counts, draws, cell_mass)


def tv_rounded_gauss_2d(population: int, counts: tuple[int, ...], draws: int) -> mpmath.mpf:
    """The same in d=2: each cell mass integrates, over x1 by mpmath.quad, the
    marginal density times the Phi difference of x2 given x1."""
    (mu1, mu2), ((s11, s12), (_, s22)) = gaussian_moments(population, counts, draws)
    mu1, mu2, s11, s12, s22 = map(_mpf, (mu1, mu2, s11, s12, s22))
    slope, cond_sd = s12 / s11, mpmath.sqrt(s22 - s12 * s12 / s11)
    half = mpmath.mpf(1) / 2

    def cell_mass(point):
        k1, k2 = point

        def slab(x1):
            centre = mu2 + slope * (x1 - mu1)
            return _phi(x1, mu1, s11) * (mpmath.ncdf(k2 + half, centre, cond_sd)
                                         - mpmath.ncdf(k2 - half, centre, cond_sd))

        return mpmath.quad(slab, [k1 - half, k1 + half])

    return _tv_rounded(population, counts, draws, cell_mass)


# ---------------------------------------------------------------------------

def main() -> None:
    f = lambda x: mpmath.nstr(x, 20)

    print("# balanced case: N=10, n=5, counts=(5,5)")
    tv = tv_exact(10, (5, 5), 5)
    print("tv_exact =", tv, "=", f(mpmath.mpf(tv.numerator) / tv.denominator))
    print("hellinger_sq =", f(hellinger_sq(10, (5, 5), 5)))
    print("log_ratio(k=2) =", f(log_ratio(10, (5, 5), 5, (2,))))
    print("bracket1(k=2) =", bracket1(10, (5, 5), 5, (2,)))
    print("bracket1+2(k=2) =", bracket1(10, (5, 5), 5, (2,)) + bracket2(10, (5, 5), 5, (2,)))
    print("prob(k=2) =", hyper_prob(10, (5, 5), 5, (2,)))

    print("# two-category skew: N=40, n=8, counts=(10,30)")
    nu = (40 - 1) // 10
    thr = Fraction(8) * nu * Fraction(10, 40)
    print("tail_threshold =", thr)
    emp = marginal_tail(40, (10, 30), 8, 0, thr)
    print("tail_empirical =", emp, "=", f(mpmath.mpf(emp.numerator) / emp.denominator))
    print("tail_bound =", f(tail_bound(40, (10, 30), 8, 0)))

    print("# three categories: N=12, n=4, counts=(4,4,4)")
    print("hyper_prob(1,2) =", hyper_prob(12, (4, 4, 4), 4, (1, 2)))
    print("multi_prob(1,2) =", multi_prob(12, (4, 4, 4), 4, (1, 2)))
    tv3 = tv_exact(12, (4, 4, 4), 4)
    print("tv_exact =", tv3, "=", f(mpmath.mpf(tv3.numerator) / tv3.denominator))

    print("# jittered multinomial vs normal, N=64 n=8 counts=(32,32)")
    masses = [multi_prob(64, (32, 32), 8, (k,)) for k in range(9)]
    tvq = tv_jitter_gauss_1d(masses, Fraction(4), Fraction(2), list(range(9)))
    print("tv_jitter_multi_gauss =", f(tvq))
    masses = [hyper_prob(64, (32, 32), 8, (k,)) for k in range(9)]
    tvq = tv_jitter_gauss_1d(masses, Fraction(4), Fraction(2), list(range(9)))
    print("tv_jitter_hyper_gauss =", f(tvq))

    print("# clamp mass of Normal(n p, n p) below zero at n=16, p=1/2")
    print("Phi(-sqrt(8)) =", f(mpmath.ncdf(-mpmath.sqrt(8))))

    if "--3d" in sys.argv:  # some minutes per instance
        for population, draws, counts in ((4, 1, (1, 1, 1, 1)), (60, 4, (6, 12, 18, 24))):
            print(f"# jittered hyper vs normal, N={population} n={draws} counts={counts}")
            points = list(support_points(counts, draws))
            masses = [hyper_prob(population, counts, draws, k) for k in points]
            moments = gaussian_moments(population, counts, draws)
            print("tv_jitter_hyper_gauss_3d =", f(tv_jitter_gauss_3d(masses, points, *moments)))


if __name__ == "__main__":
    main()
