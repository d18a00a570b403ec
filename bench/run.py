"""Benchmark of lecam: one workload per process, every output checked.

    python3 bench/run.py --workload quad-kinked --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations (``workloads.py``) until
``--seconds`` have passed, checks every output against ``reference.json``
or a property the method must have, and prints, as its last line, one JSON
object with the operations attempted and failed and the metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Times are scaled by the machine's speed, measured around and
during each operation (``calibration.py``).  The BLAS and OpenMP pools are
pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Tiny triangular solves otherwise wake a second BLAS thread that spins and
# doubles the CPU time of the quadrature.  numpy is imported only during
# set-up, after this; child processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (plain data, imports nothing)
from workloads import csv_list  # noqa: E402


def _experiment_args(op: dict) -> list[str]:
    return ["--N", str(op["N"]), "--n", str(op["n"]), "--Np", csv_list(op["counts"])]


class Harness:
    """Imported modules, operations and reference values of one workload."""

    def __init__(self, workload: str, workdir: Path):
        import lecam
        import lecam.cli

        import checks

        self.lecam = lecam
        self.checks = checks
        self.workdir = workdir
        self.ops = workloads.WORKLOADS[workload]
        self.ids = [workloads.op_id(op) for op in self.ops]
        doc = json.loads((HERE / "reference.json").read_text())
        if doc["instances"] != workloads.instance_lists():
            raise SystemExit(
                "bench/reference.json lists other instances than bench/workloads.py; "
                "remake it with: python3 bench/reference.py"
            )
        self.references = doc["references"]
        self.warmups = workloads.WARMUPS[workload]

    # -- running one operation (timed) -------------------------------------

    def cli(self, argv: list[str]) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lecam.cli.main(argv)  # looked up per call: tracing rebinds it
        if code != 0:
            raise RuntimeError(f"lecam {argv[0]} exited with code {code}")
        return json.loads(buf.getvalue())

    def run(self, op: dict, seed: int, tag: str):
        kind = op["kind"]
        lecam = self.lecam
        if kind == "tv-quad":
            return self.cli(["tv", "--pair", op["pair"], "--method", "quad",
                             "--quad-order", str(workloads.QUAD_ORDER),
                             *_experiment_args(op), "--json"])
        if kind == "dpi-check":
            return self.cli(["dpi-check", "--quad-order", str(workloads.QUAD_ORDER),
                             *_experiment_args(op), "--json"])
        if kind == "tv-mc":
            return self.cli(["tv", "--pair", op["pair"], "--method", "mc",
                             "--samples", str(op["samples"]), "--seed", str(seed),
                             *_experiment_args(op), "--json"])
        if kind == "tv-exact":
            return self.cli(["tv", "--pair", op["pair"], "--method", "exact",
                             *_experiment_args(op), "--json"])
        if kind == "hellinger":
            params = lecam.validate_params(op["N"], op["n"], op["counts"])
            return lecam.hellinger_discrete(params)
        if kind == "count-vectors":
            return lecam.count_vector_matrix(op["n"], op["d"])
        path = self.workdir / f"{tag}.csv"
        if kind == "lecam-scan":
            doc = self.cli(["lecam-scan", "--Np", csv_list(op["counts"]), "--n", csv_list(op["ns"]),
                            "--quad-order", str(workloads.QUAD_ORDER),
                            "--json", "--out", str(path)])
        elif kind == "expansion-scan":
            doc = self.cli(["expansion-scan", "--Np", csv_list(op["pattern"]), "--n", str(op["n"]),
                            "--N", csv_list(op["populations"]), "--k", csv_list(op["k"]),
                            "--order", str(op["order"]),
                            "--gamma", str(workloads.EXPANSION_GAMMA),
                            "--json", "--out", str(path)])
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return doc, lecam.read_csv(path)

    # -- checking one output (untimed) -------------------------------------

    def check(self, op: dict, ref: dict, out) -> str | None:
        """None when the output passes every check, else what failed."""
        c = self.checks
        kind = op["kind"]
        if kind in ("tv-quad", "tv-exact"):
            if not c.within(out["tv"], out["error_estimate"], ref["tv"], ref["accuracy"]):
                return _miss(out["tv"], out["error_estimate"], ref["tv"])
            return None
        if kind == "tv-mc":
            if not c.mc_within(out["tv"], out["error_estimate"], ref["tv"], ref["accuracy"]):
                return _miss(out["tv"], out["error_estimate"], ref["tv"])
            return None
        if kind == "dpi-check":
            if not c.dpi_holds(out):
                return f"data-processing inequality fails: {out}"
            if not c.within(out["tv_before"], out["combined_error"], ref["tv"], ref["accuracy"]):
                return _miss(out["tv_before"], out["combined_error"], ref["tv"])
            return None
        if kind == "hellinger":
            bar = c.discrete_bar(self.lecam.count_vector_size(op["n"], len(op["counts"]) - 1))
            if not c.within(out.h_squared, bar, ref["h_squared"], ref["accuracy"]):
                return _miss(out.h_squared, bar, ref["h_squared"])
            return None
        if kind == "count-vectors":
            if not c.count_vectors_ok(out, op["n"], op["d"], ref["rows"]):
                return f"count_vector_matrix({op['n']}, {op['d']}) has shape {out.shape}, not the set"
            return None
        doc, read_back = out
        written = doc["records"]
        if not c.records_identical([_record_dict(r) for r in read_back], written):
            return "CSV read back differs from the records written"
        if kind == "expansion-scan":
            fit = doc.get("slope_fits", {}).get(f"abs_residual_order{op['order']}")
            if fit is None or not c.slope_in_window(fit["slope"], ref["slope_window"]):
                return f"slope {fit and fit['slope']} outside {ref['slope_window']}"
            values = [float(r["value"]) for r in written]
            if not c.residuals_match(values, ref["residuals"]):
                return "residuals differ from the exact ones"
            return None
        return self._check_lecam_scan(ref, written)

    def _check_lecam_scan(self, ref: dict, written: list[dict]) -> str | None:
        c = self.checks
        by_key = {(r["n"], r["quantity"]): r for r in written}
        expect = {
            "le_cam_upper": "tv_hyper",
            "delta_P_to_Q": "tv_hyper",
            "delta_Q_to_P": "tv_hyper",
            "tv_jittered_multinomial_gauss": "tv_multi",
            "budget": "budget",
        }
        if len(written) != len(expect) * len(ref["rows"]):
            return f"{len(written)} records, expected {len(expect) * len(ref['rows'])}"
        for row in ref["rows"]:
            for quantity, ref_key in expect.items():
                rec = by_key.get((row["n"], quantity))
                if rec is None or rec["N"] != row["N"]:
                    return f"no {quantity} record at n={row['n']}"
                target = row[ref_key]
                value = float(rec["value"])
                error = float(rec["error"])
                expected = target.get("tv", target.get("value"))
                if not c.within(value, error, expected, target["accuracy"]):
                    return f"{quantity} at n={row['n']}: " + _miss(value, error, expected)
        return None


def _miss(value: float, error: float, reference: float) -> str:
    return (f"value {value!r} +- {error:.3g} misses the reference {reference!r} "
            f"by {abs(value - reference):.3g}")


def _record_dict(r) -> dict:
    return {"N": r.population, "n": r.sample_size, "d": r.dim, "p": list(r.weights),
            "quantity": r.quantity, "value": r.value, "error": r.error, "method": r.method}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def set_up(workload: str, workdir: Path) -> tuple[Harness, float, float]:
    """Imports, instances, reference values and one small operation of each kind.

    Returns the harness, the set-up's wall time, and that time scaled by the
    calibration passes timed right after it.
    """
    start = time.perf_counter()
    harness = Harness(workload, workdir)
    for i, op in enumerate(harness.warmups):
        harness.run(op, seed=i, tag=f"warmup{i}")
    seconds = time.perf_counter() - start
    import calibration  # imports numpy: not before set-up starts

    harness.calibration = calibration.Calibration()
    return harness, seconds, seconds * calibration.scale(harness.calibration.between())


def probe_setups(workload: str) -> list[float]:
    """Scaled set-up time of fresh processes, one after the other."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def mc_seed(seed: int, round_index: int, op_index: int) -> int:
    """The Monte Carlo stream of one operation: the only use of --seed."""
    return (seed * 1_000_003 + round_index * 1009 + op_index) % (1 << 62)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lecam" / "__init__.py").is_file():
        print(f"lecam sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, _, scaled = set_up(args.workload, workdir)
            print(repr(scaled))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setups = [] if args.trace else probe_setups(args.workload)
    harness, _, own_setup = set_up(args.workload, workdir)
    setups.append(own_setup)
    import calibration

    calib = harness.calibration
    if args.trace:
        import tracing  # numpy-dependent; not imported before set-up starts

        tracer = tracing.Tracer()
        tracer.install()

    # Per operation, per round: scaled wall and CPU time, and unscaled wall time.
    op_walls: list[list[float]] = [[] for _ in harness.ops]
    op_cpus: list[list[float]] = [[] for _ in harness.ops]
    raw_walls: list[list[float]] = [[] for _ in harness.ops]
    attempted = failed = unexpected = 0
    reported: set[str] = set()
    phase_start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - phase_start < args.seconds:
        outputs = []
        before = calib.between()
        for i, op in enumerate(harness.ops):
            seed = mc_seed(args.seed, rounds, i)
            if not args.trace:  # the passes would land inside the spans
                calib.start()
            t0, c0 = time.perf_counter(), _cpu_seconds()
            try:
                out, error = harness.run(op, seed, tag=f"r{rounds}-{i}"), None
            except Exception as exc:  # a crashing operation is a failed one
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0 - calib.spent
            cpu = _cpu_seconds() - c0 - calib.spent
            calib.stop()
            after = calib.between()
            scale = calibration.scale(before + calib.inside + after)
            raw_walls[i].append(wall)
            op_walls[i].append(wall * scale)
            op_cpus[i].append(cpu * scale)
            outputs.append((op, out, error))
            before = after
        for key, (op, out, error) in zip(harness.ids, outputs):
            if error is None:
                error = harness.check(op, harness.references[key], out)
            attempted += 1
            if error is not None:
                failed += 1
                unexpected += "known_fault" not in op
                if key not in reported:
                    reported.add(key)
                    note = "known fault" if "known_fault" in op else "UNEXPECTED"
                    print(f"failed ({note}): {key}: {error}", file=sys.stderr)
        rounds += 1

    # One round's time: each operation's median over the rounds, summed, so
    # that one operation slowed by a neighbour on the machine weighs little.
    op_medians = [statistics.median(t) for t in op_walls]
    round_wall = sum(op_medians)
    round_cpu = sum(statistics.median(t) for t in op_cpus)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (round_wall, "s"),
            "cpu_s": (round_cpu, "s"),
            "op_p50_ms": (statistics.median(op_medians) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracing.per_layer_metrics(tracer.layer_totals(), rounds)
        tracer.write(OUT / f"trace-{args.workload}.csv.gz")  # the latest traced run
    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed"
          + (f" ({unexpected} unexpected)" if unexpected else ""))
    raw_round = sum(statistics.median(t) for t in raw_walls)
    print(f"  one round: {round_wall:.4f} s wall, {round_cpu:.4f} s cpu (scaled); "
          f"{raw_round:.4f} s wall unscaled")
    for key, median in zip(harness.ids, op_medians):
        print(f"    {median * 1000.0:12.3f} ms  {key}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6f} {unit}")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
