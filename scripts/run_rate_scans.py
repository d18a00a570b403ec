"""Reproduce the headline decay-rate studies and write their CSV tables.

Three studies:
  * expansion residuals along a doubling-population family, orders 1 and 2
  * deficiency upper bounds along n with N = n**3
  * explicit bound pieces for the same family, to show the budget shrinking

Run from the repository root:

    python scripts/run_rate_scans.py --outdir results
"""

from __future__ import annotations

import argparse
from pathlib import Path

from lecam import (
    ScanRecord,
    lecam_scan,
    residual_scan,
    scaled_params,
    tv_bound_parts,
    write_csv,
)

POPULATIONS = (16, 32, 64, 128, 256, 512)
EXPANSION_N = 8
EXPANSION_POINT = (2,)
WEIGHT_PATTERN = (1, 1)
LECAM_SAMPLE_SIZES = (4, 6, 8, 12, 16)
GAMMA = 0.75


def expansion_study() -> list[ScanRecord]:
    family = [scaled_params(N, EXPANSION_N, WEIGHT_PATTERN) for N in POPULATIONS]
    records = []
    for order in (1, 2):
        scan = residual_scan(family, lambda p: EXPANSION_POINT, order=order, gamma=GAMMA)
        records.extend(scan.records)
        if scan.degenerate:
            print(f"order {order}: residuals sit at the rounding floor for this family")
        else:
            print(
                f"order {order}: slope {scan.fit.slope:+.4f} "
                f"(r^2 = {scan.fit.r_squared:.6f})"
            )
    return records


def lecam_study() -> list[ScanRecord]:
    family = [scaled_params(n**3, n, WEIGHT_PATTERN) for n in LECAM_SAMPLE_SIZES]
    scan = lecam_scan(family)  # d=1: the quadrature order is only range-checked
    value = {(r.sample_size, r.quantity): r.value for r in scan.records}
    for n in LECAM_SAMPLE_SIZES:
        print(f"n={n:<4d} N={n**3:<7d} le_cam_upper={value[n, 'le_cam_upper']:.6e} "
              f"budget={value[n, 'budget']:.6e}")
    for quantity, fit in scan.fits.items():
        if fit is None:
            print(f"{quantity} slope vs n: skipped, fewer than 4 usable points")
        else:
            print(f"{quantity} slope vs n: {fit.slope:+.4f} (r^2 = {fit.r_squared:.6f})")
    return list(scan.records)


def bound_pieces_study() -> list[ScanRecord]:
    records = []
    for n in LECAM_SAMPLE_SIZES:
        N = n**3
        params = scaled_params(N, n, WEIGHT_PATTERN)
        parts = tv_bound_parts(params)
        for quantity, value in (
            ("tail_sum", parts.tail_sum),
            ("n2_over_N", parts.n2_over_N),
            ("gaussian_term_scale", parts.gaussian_term_scale),
        ):
            records.append(
                ScanRecord(
                    population=N,
                    sample_size=n,
                    dim=params.dim,
                    weights=params.weights,
                    quantity=quantity,
                    value=value,
                    error=0.0,
                    method="closed-form",
                )
            )
        print(f"n={n:<4d} tail_sum={parts.tail_sum:.3e} n2/N={parts.n2_over_N:.3e} "
              f"gauss_scale={parts.gaussian_term_scale:.3e}")
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    outdir = parser.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)

    print("== expansion residual rates ==")
    write_csv(expansion_study(), outdir / "expansion_residuals.csv")
    print("== deficiency bounds, N = n^3 ==")
    write_csv(lecam_study(), outdir / "lecam_bounds.csv")
    print("== explicit bound pieces ==")
    write_csv(bound_pieces_study(), outdir / "bound_pieces.csv")
    print(f"tables written under {outdir}/")


if __name__ == "__main__":
    main()
