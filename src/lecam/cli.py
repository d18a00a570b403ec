"""Command-line front end.

Subcommands cover single-point evaluations (pmf, ratio, tv, bound-parts,
tail-check, dpi-check) and scans with slope summaries (expansion-scan,
lecam-scan).  Each handler only parses, calls the library and prints: ``tv``
hands its --pair and --method to ``distances.tv_pair``, which picks the
route.  Scans write CSV via --out and everything can emit JSON; both
formats carry identical values.  The two scans share one output tail,
``_scan_report``, and every JSON document is encoded by
``records._json_text``.  Exit codes: 0 success, 2 usage, 3 validation,
4 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from typing import Iterable, Sequence

from .distances import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_QUAD_ORDER,
    MAX_QUAD_ORDER,
    TV_PAIRS,
    tail_probability_check,
    tv_bound_parts,
    tv_pair,
)
from .errors import LecamError, SupportCapError, ValidationError
from .expansion import expand, residual_scan
from .kernels import METHOD_FLAGGED, data_processing_check, lecam_scan
from .lattice import ExperimentParams, scaled_params, validate_params
from .numerics import SlopeFit
from .pmf import hypergeometric_log_pmf, multinomial_log_pmf
from .records import _json_float, _json_text, records_to_json, write_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4

_QUAD_ORDER_HELP = (
    f"quadrature order q in [2, {MAX_QUAD_ORDER}] of a jittered-vs-Gaussian TV: the "
    "last axis is in closed form, so in d=1 q is only checked; on every axis above "
    "it each piece of a cell takes 3q nodes, the bar from 2q"
)


class UsageError(Exception):
    """Malformed invocation detected after argparse (empty or short lists)."""


def _int_list(text: str) -> list[int]:
    try:
        items = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return items


def _fmt(x: float) -> str:
    return format(x, ".15g")


def _report(args, doc: dict) -> int:
    """Print ``doc`` as JSON with --json, else one ``name = value`` line per field."""
    if args.json:
        print(_json_text(doc))
        return EXIT_OK
    for name, value in doc.items():
        if isinstance(value, float):
            value = _fmt(value)
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        print(f"{name} = {value}")
    return EXIT_OK


def _build_params(args) -> ExperimentParams:
    return validate_params(sum(args.Np) if args.N is None else args.N, args.n, args.Np)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_pmf(args) -> int:
    params = _build_params(args)
    point = tuple(args.k)
    if args.dist == "hyper":
        logp = hypergeometric_log_pmf(params, point)
    else:
        logp = multinomial_log_pmf(params.sample_size, params.weights, point)
    prob = math.exp(logp) if logp > float("-inf") else 0.0
    return _report(args, {"log_probability": _json_float(logp), "probability": prob})


def _cmd_ratio(args) -> int:
    params = _build_params(args)
    result = expand(params, tuple(args.k))
    fields = ("exact", "order1", "order2", "residual1", "residual2")
    return _report(args, {name: getattr(result, name) for name in fields})


def _slope_line(name: str, fit: SlopeFit) -> str:
    return (
        f"slope({name}) = {_fmt(fit.slope)} "
        f"(intercept={_fmt(fit.intercept)}, r_squared={_fmt(fit.r_squared)}, "
        f"points={fit.points_used})"
    )


def _cmd_expansion_scan(args) -> int:
    populations = args.N
    if len(populations) < 4:
        raise UsageError("expansion-scan needs at least 4 population values in --N")
    family = [scaled_params(N, args.n, args.Np) for N in populations]
    point = tuple(args.k)
    scan = residual_scan(family, lambda p: point, order=args.order, gamma=args.gamma)
    name = f"abs_residual_order{args.order}"
    fits = {} if scan.degenerate else {name: scan.fit}
    summary = (_slope_line(name, scan.fit) if fits else
               "degenerate: fewer than 4 residuals above the rounding floor, "
               "or all at one population")
    text = itertools.chain((f"N={r.population} {r.quantity} = {_fmt(r.value)}"
                            for r in scan.records), [summary])
    return _scan_report(args, scan.records, fits, text, extra={"degenerate": scan.degenerate})


def _cmd_tv(args) -> int:
    params = _build_params(args)
    result = tv_pair(params, args.pair, args.method, args.quad_order, args.samples, args.seed)
    return _report(
        args,
        {"tv": result.value, "method": result.method, "error_estimate": result.error_estimate},
    )


def _cmd_bound_parts(args) -> int:
    params = _build_params(args)
    parts = tv_bound_parts(params)
    return _report(
        args,
        {
            "nu": list(parts.nu),
            "tail_sum": parts.tail_sum,
            "n2_over_N": parts.n2_over_N,
            "gaussian_term_scale": parts.gaussian_term_scale,
        },
    )


def _cmd_tail_check(args) -> int:
    params = _build_params(args)
    coords = [args.coord] if args.coord is not None else list(range(params.dim + 1))
    rows = []
    for coord in coords:
        check = tail_probability_check(params, coord)
        rows.append(
            {
                "coord": coord,
                "nu": check.nu,
                "empirical": check.empirical,
                "bound": check.bound,
                "holds": check.empirical <= check.bound,
            }
        )
    if args.json:
        print(_json_text({"checks": rows}))
    else:
        for row in rows:
            print(
                f"coord = {row['coord']}: nu = {row['nu']}, "
                f"empirical = {_fmt(row['empirical'])}, bound = {_fmt(row['bound'])}, "
                f"holds = {row['holds']}"
            )
    return EXIT_OK


def _cmd_lecam_scan(args) -> int:
    ns = args.n
    if len(ns) == 0:
        raise UsageError("lecam-scan needs a non-empty --n list")
    if args.N is not None:
        if len(args.N) != len(ns):
            raise UsageError("--N list must match the --n list in length")
        populations = args.N
    else:
        populations = [n**3 for n in ns]
    family = [scaled_params(N, n, args.Np) for N, n in zip(populations, ns)]
    scan = lecam_scan(
        family,
        tv_method=args.method,
        quad_order=args.quad_order,
        sample_count=args.samples,
        seed=args.seed,
        jobs=args.jobs,
    )
    fits = {name: fit for name, fit in scan.fits.items() if fit is not None}
    text = itertools.chain(
        (f"n={r.sample_size} N={r.population} {r.quantity} = {_fmt(r.value)}"
         + (f"  [{r.method}]" if r.method == METHOD_FLAGGED else "") for r in scan.records),
        (f"slope({name}) skipped: fewer than 4 usable points, or one n" if fit is None
         else _slope_line(name, fit) for name, fit in scan.fits.items()))
    return _scan_report(args, scan.records, fits, text)


def _scan_report(args, records, fits: dict, text: Iterable[str], extra: dict | None = None) -> int:
    """A scan's tail: its records as CSV to --out, if given, then as JSON
    with --json (``fits`` and ``extra`` beside them), else the lines of
    ``text``, which only text output reads."""
    if args.out:
        write_csv(records, args.out)
    print(records_to_json(records, fits, extra) if args.json else "\n".join(text))
    return EXIT_OK


def _cmd_dpi_check(args) -> int:
    params = _build_params(args)
    result = data_processing_check(params, quad_order=args.quad_order)
    return _report(
        args,
        {
            "tv_before": result.tv_before,
            "tv_after": result.tv_after,
            "slack": result.slack,
            "combined_error": result.combined_error,
            "holds": result.slack >= -result.combined_error,
        },
    )


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state between
    calls, and building it costs milliseconds (each argument's help formatter
    asks for the terminal size)."""
    parser = argparse.ArgumentParser(
        prog="lecam",
        description=(
            "Distances between finite-population sampling experiments and "
            "their Gaussian limits"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n_list=False, N_list=False):
        if N_list:
            sp.add_argument("--N", type=_int_list, default=None,
                            help="population size(s), comma separated")
        else:
            sp.add_argument("--N", type=int, default=None, help="population size")
        if n_list:
            sp.add_argument("--n", type=_int_list, required=True,
                            help="sample size(s), comma separated")
        else:
            sp.add_argument("--n", type=int, required=True, help="sample size")
        sp.add_argument("--Np", type=_int_list, required=True,
                        help="integer category weights, comma separated")
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("pmf", help="evaluate one probability mass")
    add_common(p)
    p.add_argument("--dist", choices=("hyper", "multi"), required=True)
    p.add_argument("--k", type=_int_list, required=True, help="lattice point")
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser("ratio", help="exact log-ratio and its expansions at one point")
    add_common(p)
    p.add_argument("--k", type=_int_list, required=True, help="lattice point")
    p.set_defaults(handler=_cmd_ratio)

    p = sub.add_parser("expansion-scan", help="residual decay rates across populations")
    add_common(p, N_list=True)
    p.add_argument("--k", type=_int_list, required=True, help="lattice point, held fixed")
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--gamma", type=float, default=0.75, help="truncation parameter")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_expansion_scan)

    p = sub.add_parser("tv", help="total variation between a pair of laws")
    add_common(p)
    p.add_argument("--pair", choices=TV_PAIRS, required=True)
    p.add_argument("--method", choices=("auto", "exact", "quad", "mc"), default="auto")
    p.add_argument("--quad-order", dest="quad_order", type=int, default=DEFAULT_QUAD_ORDER,
                   help=_QUAD_ORDER_HELP)
    p.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_tv)

    p = sub.add_parser("bound-parts", help="explicit pieces of the TV upper bound")
    add_common(p)
    p.set_defaults(handler=_cmd_bound_parts)

    p = sub.add_parser("tail-check", help="marginal tail probability vs its bound")
    add_common(p)
    p.add_argument("--coord", type=int, default=None,
                   help="category index (0-based); default checks all")
    p.set_defaults(handler=_cmd_tail_check)

    p = sub.add_parser("lecam-scan", help="deficiency bounds along a growing family")
    add_common(p, n_list=True, N_list=True)
    p.add_argument("--method", choices=("quad", "mc"), default="quad")
    p.add_argument("--quad-order", dest="quad_order", type=int, default=DEFAULT_QUAD_ORDER,
                   help=_QUAD_ORDER_HELP)
    p.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; the points are dealt round-robin into one "
                   "chunk per worker, and the output is identical at any value. Pays on "
                   "Monte Carlo and d=3 scans, costs on d <= 2 quadrature")
    p.set_defaults(handler=_cmd_lecam_scan)

    p = sub.add_parser("dpi-check", help="data-processing inequality after rounding")
    add_common(p)
    p.add_argument("--quad-order", dest="quad_order", type=int, default=DEFAULT_QUAD_ORDER,
                   help=_QUAD_ORDER_HELP + "; the same pass gives the rounded Gaussian's "
                   "masses on the support cells, their bar from the same 2q nodes")
    p.set_defaults(handler=_cmd_dpi_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SupportCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except LecamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
