"""Compute the benchmark's expected values without importing ``lecam``.

Every value comes from the independent oracles in ``tests/oracles.py`` (exact
fractions and 40-digit mpmath) or, for the two-dimensional jittered-versus-
Gaussian distances, from the integrator below.  Each value is stored with its
accuracy, the bound on |stored value - true value| that the checks add to the
program's own error bar.

Run from the repository root (it takes a few minutes on one core):

    python3 bench/reference.py            # rewrites bench/reference.json
    python3 bench/reference.py --check    # recomputes and compares, writes nothing
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402
import oracles  # noqa: E402
from mpmath import mpf  # noqa: E402

from workloads import EXPANSION_GAMMA, WORKLOADS, instance_lists, op_id  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
ULP = 2.0**-52
# Expected log-log slopes of the expansion residuals, as in acceptance
# criterion 03: N^-2 for order 1, N^-3 for order 2 and for order 1 on a root
# of the second bracket.
WINDOW_N2 = (-2.3, -1.7)
WINDOW_N3 = (-3.4, -2.6)


def _mp(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _rounding(value: float) -> float:
    """Two ulps of the stored double: the only error of an exact reference."""
    return 2.0 * ULP * max(abs(value), 1e-300)


def gaussian_moments(N: int, n: int, counts) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Mean and covariance of the with-replacement law, the Gaussian compared."""
    d = len(counts) - 1
    p = [Fraction(c, N) for c in counts]
    mean = [n * p[i] for i in range(d)]
    cov = [[n * ((p[i] if i == j else 0) - p[i] * p[j]) for j in range(d)] for i in range(d)]
    return mean, cov


def lattice_law(N: int, n: int, counts, which: str):
    """Support cells and their exact masses for 'hyper' or 'multi'."""
    counts = tuple(counts)
    if which == "hyper":
        lattice = list(oracles.support_points(counts, n))
        return lattice, [oracles.hyper_prob(N, counts, n, k) for k in lattice]
    lattice = list(oracles.count_vectors(len(counts) - 1, n))
    return lattice, [oracles.multi_prob(N, counts, n, k) for k in lattice]


def tv_jitter_gauss_2d(masses, lattice, mean, cov) -> tuple[mpf, mpf]:
    """TV between sum_k masses[k] * Uniform(cell k) and a bivariate normal.

    TV = 1/2 [1 + sum_cells int_cell (|c - phi| - phi)], cell by cell.  On
    each cell the inner integral over x2 is in closed form: phi factors into
    the x1 marginal times a normal in x2, the level c crosses it at
    m(x1) +- sqrt(R(x1)), and |c - phi| = (c - phi) + 2 (phi - c)^+.  The
    outer integral over x1 is mpmath's tanh-sinh rule, split wherever the
    integrand has a kink: where the crossing ellipse {phi = c} touches the
    cell's lower or upper edge, and at its leftmost and rightmost points.
    Returns the value and the sum of mpmath's own error estimates.
    """
    mu1, mu2 = (_mp(v) for v in mean)
    s11, s12, s22 = _mp(cov[0][0]), _mp(cov[0][1]), _mp(cov[1][1])
    det = s11 * s22 - s12 * s12
    cond_var = det / s11
    cond_sd = mpmath.sqrt(cond_var)
    slope = s12 / s11
    peak = 1 / (2 * mpmath.pi * mpmath.sqrt(det))
    p11, p12, p22 = s22 / det, -s12 / det, s11 / det  # inverse covariance
    half = mpf(1) / 2
    total = mpf(0)
    err = mpf(0)
    for (k1, k2), mass in zip(lattice, masses):
        c = _mp(mass)
        x_lo, x_hi = k1 - half, k1 + half
        a, b = k2 - half, k2 + half
        # {phi = c} is the ellipse (x - mu)' P (x - mu) = q0
        q0 = -2 * mpmath.log(c / peak) if c < peak else None

        def integrand(x, c=c, a=a, b=b, q0=q0):
            t = x - mu1
            marginal = mpmath.exp(-t * t / (2 * s11)) / mpmath.sqrt(2 * mpmath.pi * s11)
            m = mu2 + slope * t
            mass_ab = marginal * (
                mpmath.ncdf((b - m) / cond_sd) - mpmath.ncdf((a - m) / cond_sd)
            )
            out = c * (b - a) - 2 * mass_ab
            if q0 is not None:
                r2 = cond_var * (q0 - t * t / s11)
                if r2 > 0:
                    r = mpmath.sqrt(r2)
                    lo, hi = max(a, m - r), min(b, m + r)
                    if lo < hi:
                        excess = marginal * (
                            mpmath.ncdf((hi - m) / cond_sd) - mpmath.ncdf((lo - m) / cond_sd)
                        ) - c * (hi - lo)
                        out += 2 * max(excess, 0)
            return out

        cuts = {x_lo, x_hi}
        if q0 is not None:
            w = mpmath.sqrt(s11 * q0)
            cuts.update((mu1 - w, mu1 + w))
            for y in (a, b):
                u = y - mu2
                disc = (p12 * u) ** 2 - p11 * (p22 * u * u - q0)
                if disc >= 0:
                    sq = mpmath.sqrt(disc)
                    cuts.update((mu1 + (-p12 * u - sq) / p11, mu1 + (-p12 * u + sq) / p11))
        cuts = sorted(x for x in cuts if x_lo <= x <= x_hi)
        value, estimate = mpmath.quad(integrand, cuts, error=True)
        total += value
        err += abs(estimate)
    return (1 + total) / 2, err / 2


def tv_gauss(N: int, n: int, counts, which: str) -> dict:
    """TV(jittered 'hyper' or 'multi' law, Gaussian) with its accuracy."""
    lattice, masses = lattice_law(N, n, counts, which)
    mean, cov = gaussian_moments(N, n, counts)
    if len(counts) == 2:
        value = float(oracles.tv_jitter_gauss_1d(masses, mean[0], cov[0][0],
                                                 [k[0] for k in lattice]))
        # Smooth pieces at 40 digits: only the rounding to a double remains.
        return {"tv": value, "accuracy": _rounding(value)}
    # Two precisions: their difference bounds the integrator's own error.
    with mpmath.workdps(20):
        coarse, est_coarse = tv_jitter_gauss_2d(masses, lattice, mean, cov)
    with mpmath.workdps(30):
        fine, est_fine = tv_jitter_gauss_2d(masses, lattice, mean, cov)
    value = float(fine)
    spread = float(abs(fine - coarse) + est_coarse + est_fine)
    return {"tv": value, "accuracy": spread + _rounding(value)}


def tv_exact(N: int, n: int, counts) -> dict:
    value = float(oracles.tv_exact(N, tuple(counts), n))
    return {"tv": value, "accuracy": _rounding(value)}


def expansion_reference(op: dict) -> dict:
    """Exact residuals along the family and the slope window bracket2 selects."""
    pattern, n, k, order = op["pattern"], op["n"], tuple(op["k"]), op["order"]
    residuals = []
    zeros = set()
    for N in op["populations"]:
        counts = tuple(N * w // sum(pattern) for w in pattern)
        full = k + (n - sum(k),)
        if not all(Fraction(ki) <= Fraction(EXPANSION_GAMMA) * c for ki, c in zip(full, counts)):
            raise SystemExit(f"{op_id(op)}: k lies outside the truncated set at N={N}")
        b2 = oracles.bracket2(N, counts, n, k)
        zeros.add(b2 == 0)
        approx = oracles.bracket1(N, counts, n, k) + (b2 if order == 2 else 0)
        residuals.append(float(abs(oracles.log_ratio(N, counts, n, k) - _mp(approx))))
    if len(zeros) != 1:
        raise SystemExit(f"{op_id(op)}: bracket2 vanishes on part of the family only")
    root = zeros.pop()
    window = WINDOW_N3 if (order == 2 or root) else WINDOW_N2
    return {
        "residuals": residuals,
        "accuracy": [_rounding(r) for r in residuals],
        "bracket2_zero": root,
        "slope_window": list(window),
    }


def lecam_scan_reference(op: dict) -> dict:
    rows = []
    pattern = op["counts"]
    for n in op["ns"]:
        N = n**3
        counts = tuple(N * w // sum(pattern) for w in pattern)
        hyper = tv_gauss(N, n, counts, "hyper")
        multi = tv_gauss(N, n, counts, "multi")
        budget = (len(counts) - 1) / math.sqrt(n) * math.sqrt(max(counts) / min(counts))
        rows.append({"N": N, "n": n, "tv_hyper": hyper, "tv_multi": multi,
                     "budget": {"value": budget, "accuracy": _rounding(budget)}})
    return {"rows": rows}


def reference_for(op: dict) -> dict:
    kind = op["kind"]
    if kind in ("tv-quad", "tv-mc"):
        pair = op["pair"]
        if pair == "jitterhyper-jittermulti":
            return tv_exact(op["N"], op["n"], op["counts"])  # jittering keeps TV
        which = "hyper" if pair == "jitterhyper-gauss" else "multi"
        return tv_gauss(op["N"], op["n"], op["counts"], which)
    if kind == "dpi-check":
        return tv_gauss(op["N"], op["n"], op["counts"], "hyper")
    if kind == "tv-exact":
        return tv_exact(op["N"], op["n"], op["counts"])
    if kind == "hellinger":
        value = float(oracles.hellinger_sq(op["N"], tuple(op["counts"]), op["n"]))
        return {"h_squared": value, "accuracy": _rounding(value)}
    if kind == "count-vectors":
        return {"rows": math.comb(op["n"] + op["d"], op["d"])}
    if kind == "expansion-scan":
        return expansion_reference(op)
    if kind == "lecam-scan":
        return lecam_scan_reference(op)
    raise ValueError(f"unknown operation kind {kind!r}")


def compute() -> dict:
    references = {}
    for ops in WORKLOADS.values():
        for op in ops:
            key = op_id(op)
            if key in references:
                continue
            start = time.perf_counter()
            references[key] = reference_for(op)
            print(f"{time.perf_counter() - start:8.1f}s  {key}", file=sys.stderr, flush=True)
    return {"instances": instance_lists(), "references": references}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the committed file")
    args = parser.parse_args(argv)
    text = dumps(compute())
    if args.check:
        same = REFERENCE_FILE.exists() and REFERENCE_FILE.read_text() == text
        print("reference file reproduced" if same else "reference file DIFFERS")
        return 0 if same else 1
    REFERENCE_FILE.write_text(text)
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
