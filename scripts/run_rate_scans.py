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
from dataclasses import dataclass, field
from pathlib import Path

from lecam import (
    ScanRecord,
    lecam_scan,
    residual_scan,
    scaled_params,
    tv_bound_parts,
    write_csv,
)


@dataclass
class Config:
    outdir: Path = Path("results")
    populations: tuple[int, ...] = (16, 32, 64, 128, 256, 512)
    expansion_n: int = 8
    expansion_point: tuple[int, ...] = (2,)
    weight_pattern: tuple[int, ...] = (1, 1)
    lecam_sample_sizes: tuple[int, ...] = (4, 6, 8, 12, 16)
    quad_order: int = 8
    gamma: float = 0.75
    jobs: int = 1
    slopes: dict = field(default_factory=dict)


def expansion_study(config: Config) -> list[ScanRecord]:
    family = [
        scaled_params(N, config.expansion_n, config.weight_pattern) for N in config.populations
    ]
    records = []
    for order in (1, 2):
        scan = residual_scan(
            family,
            lambda p: config.expansion_point,
            order=order,
            gamma=config.gamma,
            jobs=config.jobs,
        )
        records.extend(scan.records)
        if scan.degenerate:
            print(f"order {order}: residuals sit at the rounding floor for this family")
        else:
            config.slopes[f"residual_order{order}"] = scan.fit.slope
            print(
                f"order {order}: slope {scan.fit.slope:+.4f} "
                f"(r^2 = {scan.fit.r_squared:.6f})"
            )
    return records


def lecam_study(config: Config) -> list[ScanRecord]:
    family = [scaled_params(n**3, n, config.weight_pattern) for n in config.lecam_sample_sizes]
    scan = lecam_scan(family, quad_order=config.quad_order, jobs=config.jobs)
    value = {(r.sample_size, r.quantity): r.value for r in scan.records}
    for n in config.lecam_sample_sizes:
        print(f"n={n:<4d} N={n**3:<7d} le_cam_upper={value[n, 'le_cam_upper']:.6e} "
              f"budget={value[n, 'budget']:.6e}")
    for quantity, fit in scan.fits.items():
        if fit is None:
            print(f"{quantity} slope vs n: skipped, fewer than 4 usable points")
        else:
            config.slopes[quantity] = fit.slope
            print(f"{quantity} slope vs n: {fit.slope:+.4f} (r^2 = {fit.r_squared:.6f})")
    return list(scan.records)


def bound_pieces_study(config: Config) -> list[ScanRecord]:
    records = []
    for n in config.lecam_sample_sizes:
        N = n**3
        params = scaled_params(N, n, config.weight_pattern)
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
    parser.add_argument("--quad-order", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    config = Config(outdir=args.outdir, quad_order=args.quad_order, jobs=args.jobs)
    config.outdir.mkdir(parents=True, exist_ok=True)

    print("== expansion residual rates ==")
    write_csv(expansion_study(config), config.outdir / "expansion_residuals.csv")
    print("== deficiency bounds, N = n^3 ==")
    write_csv(lecam_study(config), config.outdir / "lecam_bounds.csv")
    print("== explicit bound pieces ==")
    write_csv(bound_pieces_study(config), config.outdir / "bound_pieces.csv")
    print(f"tables written under {config.outdir}/")


if __name__ == "__main__":
    main()
