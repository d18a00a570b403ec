"""The benchmark's workloads: fixed operation lists, with no import of ``lecam``.

Each workload is a list of operations run in this order once per round.  An
operation is one certified result returned by a ``lecam`` subcommand or
library call.  The lists never depend on the seed: the seed only chooses the
Monte Carlo streams, so every run does the same amount of work per round.
Each list has an odd length, so the median operation time sits inside one
kind of operation instead of between two.  An operation marked
``known_fault`` fails on every run because of a fault in ``lecam``; it is
counted as failed, and any other failure makes the run incorrect.

``reference.py`` reads the same lists to compute the expected values, and
``run.py`` refuses to run when the two disagree.
"""

from __future__ import annotations

QUAD_ORDER = 8
MC_SAMPLES = 100_000
N24 = 1 << 24

# Criterion 03's family (tests/test_acceptance.py): n=8, counts (N/2, N/2).
C03_POPULATIONS = (16, 32, 64, 128, 256)
# A d=2 family with weights (1/4, 1/4, 1/2), 48 points long so that the
# expansion and records layers do measurable work; N stays <= 1536, where the
# log-factorial cancellation is still far below the order-2 residual.
D2_POPULATIONS = tuple(32 * j for j in range(1, 49))
EXPANSION_GAMMA = 0.75


def csv_list(values) -> str:
    """A CLI list argument: values joined by commas."""
    return ",".join(str(v) for v in values)


def op_id(op: dict) -> str:
    """Stable name of an operation; the key of its reference values."""
    kind = op["kind"]
    if kind == "lecam-scan":
        return f"lecam-scan:Np={csv_list(op['counts'])}:n={csv_list(op['ns'])}"
    if kind == "expansion-scan":
        return (
            f"expansion-scan:order={op['order']}:n={op['n']}:Np={csv_list(op['pattern'])}"
            f":k={csv_list(op['k'])}:N={op['populations'][0]}..{op['populations'][-1]}"
            f"x{len(op['populations'])}"
        )
    if kind == "count-vectors":
        return f"count-vectors:n={op['n']}:d={op['d']}"
    name = f"{kind}:N={op['N']}:n={op['n']}:Np={csv_list(op['counts'])}"
    return name + (f":{op['pair']}" if "pair" in op else "")


def _quad(pair, N, n, counts):
    return {"kind": "tv-quad", "pair": pair, "N": N, "n": n, "counts": counts}


def _mc(pair, N, n, counts, samples=MC_SAMPLES):
    return {"kind": "tv-mc", "pair": pair, "N": N, "n": n, "counts": counts,
            "samples": samples}


def _exact_trio(N, n, counts):
    return [
        {"kind": "tv-exact", "pair": "hyper-multi", "N": N, "n": n, "counts": counts},
        {"kind": "hellinger", "N": N, "n": n, "counts": counts},
        {"kind": "count-vectors", "n": n, "d": len(counts) - 1},
    ]


def _expansion(order, n, pattern, k, populations):
    return {"kind": "expansion-scan", "order": order, "n": n, "pattern": pattern,
            "k": k, "populations": populations}


BALANCED_D2 = (729, 9, (243, 243, 243))
SKEWED_D2 = (729, 9, (81, 162, 486))

WORKLOADS: dict[str, list[dict]] = {
    "quad-kinked": [
        _quad("jitterhyper-gauss", *BALANCED_D2),
        _quad("jittermulti-gauss", *BALANCED_D2),
        {"kind": "dpi-check", "N": BALANCED_D2[0], "n": BALANCED_D2[1],
         "counts": BALANCED_D2[2]},
        _quad("jitterhyper-gauss", *SKEWED_D2),
        _quad("jittermulti-gauss", *SKEWED_D2),
    ],
    "scan-wide": [
        {"kind": "lecam-scan", "counts": (1, 1), "ns": (4, 6, 8, 12, 16)},
        {"kind": "lecam-scan", "counts": (1, 1), "ns": (20, 24, 28)},
        {"kind": "lecam-scan", "counts": (1, 1), "ns": (32, 64, 128),
         "known_fault": "le_cam_upper misses the oracle by more than its error bar"},
        *[
            _expansion(order, 8, (1, 1), (k,), C03_POPULATIONS)
            for k in (2, 3, 4, 5, 6)
            for order in (1, 2)
        ],
        _expansion(1, 6, (1, 1, 2), (1, 2), D2_POPULATIONS),
        _expansion(2, 6, (1, 1, 2), (1, 2), D2_POPULATIONS),
    ],
    "mc-draws": [
        _mc("jitterhyper-gauss", 1_000_000, 500, (500_000, 500_000)),
        _mc("jittermulti-gauss", 1_000_000, 500, (500_000, 500_000)),
        _mc("jitterhyper-gauss", 4096, 16, (1024, 1024, 2048)),
        _mc("jitterhyper-jittermulti", 500, 10, (100,) * 5),
        {**_mc("jitterhyper-gauss", 1_000_000, 1100, (500_000, 500_000)),
         "known_fault": "the sampler's start mass underflows and TV reads 0 +- 0"},
    ],
    "exact-wide": [
        *_exact_trio(1000, 84, (250, 250, 250, 250)),
        *_exact_trio(900, 88, (100, 200, 300, 300)),
        *_exact_trio(250, 60, (50,) * 5),
        *_exact_trio(600, 30, (100,) * 6),
        {"kind": "tv-exact", "pair": "hyper-multi", "N": N24, "n": 16,
         "counts": (N24 // 4, 3 * N24 // 4),
         "known_fault": "log-factorial cancellation exceeds tv_discrete's error bar"},
    ],
}

# One small untimed operation of each kind, run during set-up so that lazy
# caches (quadrature rules, imports inside the CLI) are filled before timing.
WARMUPS: dict[str, list[dict]] = {
    "quad-kinked": [
        _quad("jitterhyper-gauss", 4, 1, (1, 1, 2)),
        {"kind": "dpi-check", "N": 4, "n": 1, "counts": (1, 1, 2)},
    ],
    "scan-wide": [
        {"kind": "lecam-scan", "counts": (1, 1), "ns": (4,)},
        _expansion(1, 8, (1, 1), (2,), C03_POPULATIONS[:4]),
    ],
    "mc-draws": [
        # Full-size batches at tiny n: cheap, but they leave the allocator
        # holding arrays of the timed size, as after any earlier operation.
        _mc("jitterhyper-gauss", 64, 4, (32, 32)),
        _mc("jittermulti-gauss", 64, 4, (32, 32)),
        _mc("jitterhyper-jittermulti", 20, 2, (4,) * 5),
    ],
    "exact-wide": [
        {"kind": "tv-exact", "pair": "hyper-multi", "N": 40, "n": 8, "counts": (10,) * 4},
        {"kind": "hellinger", "N": 40, "n": 8, "counts": (10,) * 4},
        {"kind": "count-vectors", "n": 8, "d": 3},
    ],
}


def instance_lists() -> dict[str, list[str]]:
    """The operation ids of every workload, in run order."""
    return {name: [op_id(op) for op in ops] for name, ops in WORKLOADS.items()}
