"""Output checks: each compares one output of ``lecam`` with a value computed
apart from it (``reference.json``) or with a property the method must have.

The functions take plain Python values and import nothing from ``lecam``, so
the tests in ``test_checks.py`` can feed them wrong answers directly.
"""

from __future__ import annotations

import math
import struct

# A Monte Carlo estimate passes when it lies within this many of its own
# standard errors of the reference; at 5 a correct estimator fails about once
# in 1.7 million operations.
MC_SIGMAS = 5.0
# Expansion residuals carry no error bar (the CSV error column is 0).  The
# scan fits log-log slopes to them, which only means something when each
# residual is right to a small fraction of itself.
RESIDUAL_RTOL = 1e-3


def discrete_bar(points: int) -> float:
    """tv_discrete's stated error bar for a sum over this many points.

    hellinger_discrete states none; it is held to the bar tv_discrete states
    for a sum over the same enumeration.
    """
    return 1e-15 * points + 1e-15


def within(value: float, error: float, reference: float, accuracy: float) -> bool:
    """|value - reference| <= the program's error bar + the reference's accuracy."""
    if not (math.isfinite(value) and math.isfinite(error) and error >= 0.0):
        return False
    return abs(value - reference) <= error + accuracy


def mc_within(value: float, stderr: float, reference: float, accuracy: float,
              sigmas: float = MC_SIGMAS) -> bool:
    """A Monte Carlo estimate with a positive standard error, near the reference."""
    if not (math.isfinite(value) and math.isfinite(stderr) and stderr > 0.0):
        return False
    return abs(value - reference) <= sigmas * stderr + accuracy


def slope_in_window(slope: float, window) -> bool:
    lo, hi = window
    return math.isfinite(slope) and lo <= slope <= hi


def residuals_match(values, references, rtol: float = RESIDUAL_RTOL) -> bool:
    """Every scanned residual within rtol of the exact one."""
    if len(values) != len(references):
        return False
    return all(
        math.isfinite(v) and abs(v - r) <= rtol * abs(r)
        for v, r in zip(values, references)
    )


def dpi_holds(doc: dict) -> bool:
    """dpi-check's verdict agrees with its own numbers, and the inequality holds."""
    slack_ok = doc["slack"] >= -doc["combined_error"]
    return doc["holds"] is True and slack_ok and doc["slack"] == doc["tv_before"] - doc["tv_after"]


def count_vectors_ok(matrix, n: int, d: int, rows: int) -> bool:
    """All k >= 0 with sum <= n: `rows` rows, strictly increasing in lex order.

    Strictly increasing consecutive rows are distinct, so together with the
    row count, the bounds and the lexicographic order this pins down the set.
    """
    import numpy as np

    m = np.asarray(matrix)
    if m.shape != (rows, d) or rows != math.comb(n + d, d):
        return False
    if m.min() < 0 or m.sum(axis=1).max() > n:
        return False
    step = m[1:] - m[:-1]
    nonzero = step != 0
    if not nonzero.any(axis=1).all():
        return False
    first = nonzero.argmax(axis=1)
    return bool((step[np.arange(len(step)), first] > 0).all())


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def records_identical(read_back: list[dict], written: list[dict]) -> bool:
    """CSV rows read back equal the records the command emitted, bit for bit."""
    if len(read_back) != len(written):
        return False
    for a, b in zip(read_back, written):
        if (a["N"], a["n"], a["d"], a["quantity"], a["method"]) != (
            b["N"], b["n"], b["d"], b["quantity"], b["method"]
        ):
            return False
        floats_a = [*a["p"], a["value"], a["error"]]
        floats_b = [*b["p"], b["value"], b["error"]]
        if len(floats_a) != len(floats_b):
            return False
        # float() also reads the strings ("nan", "inf") JSON uses for non-finite values
        if not all(_same_float(float(x), float(y)) for x, y in zip(floats_a, floats_b)):
            return False
    return True
