"""Each output check of the benchmark rejects a wrong answer.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import math
from pathlib import Path

import numpy as np

import checks
import workloads

REFERENCES = json.loads((Path(__file__).with_name("reference.json")).read_text())["references"]


def _ref(workload: str, predicate):
    op = next(op for op in workloads.WORKLOADS[workload] if predicate(op))
    return op, REFERENCES[workloads.op_id(op)]


def test_mc_check_rejects_zero_with_zero_error_at_n_1100():
    _, ref = _ref("mc-draws", lambda op: op["n"] == 1100)
    assert ref["tv"] > 0.005
    assert not checks.mc_within(0.0, 0.0, ref["tv"], ref["accuracy"])
    stderr = 5e-5
    assert checks.mc_within(ref["tv"] + stderr, stderr, ref["tv"], ref["accuracy"])


def test_quadrature_check_rejects_a_value_moved_by_ten_error_bars():
    _, ref = _ref("quad-kinked", lambda op: op["kind"] == "tv-quad")
    error = 1.6e-9  # the bar lecam reports on this instance
    assert ref["accuracy"] < error
    assert checks.within(ref["tv"] + 0.5 * error, error, ref["tv"], ref["accuracy"])
    for moved in (ref["tv"] + 10 * error, ref["tv"] - 10 * error):
        assert not checks.within(moved, error, ref["tv"], ref["accuracy"])


def test_csv_check_rejects_a_one_ulp_change():
    written = [
        {"N": 64, "n": 4, "d": 1, "p": [0.5, 0.5], "quantity": "le_cam_upper",
         "value": 0.1234567890123, "error": 1e-12, "method": "cube-quadrature"},
        {"N": 64, "n": 4, "d": 1, "p": [0.5, 0.5], "quantity": "budget",
         "value": "nan", "error": "nan", "method": "flagged:outside-regime"},
    ]
    read_back = [dict(r, value=float(r["value"]), error=float(r["error"])) for r in written]
    assert checks.records_identical(read_back, written)
    nudged = [dict(read_back[0], value=math.nextafter(read_back[0]["value"], 1.0)), read_back[1]]
    assert not checks.records_identical(nudged, written)
    nudged = [dict(read_back[0], p=[0.5, math.nextafter(0.5, 0.0)]), read_back[1]]
    assert not checks.records_identical(nudged, written)


def test_slope_check_rejects_an_order2_residual_decaying_like_n_minus_2():
    op, ref = _ref("scan-wide", lambda op: op["kind"] == "expansion-scan"
                   and op["order"] == 2 and op["k"] == (2,))
    populations = np.asarray(op["populations"], dtype=float)
    good = np.asarray(ref["residuals"])
    bad = good[0] * (populations / populations[0]) ** -2.0
    fit = lambda ys: float(np.polyfit(np.log(populations), np.log(ys), 1)[0])  # noqa: E731
    assert checks.slope_in_window(fit(good), ref["slope_window"])
    assert not checks.slope_in_window(fit(bad), ref["slope_window"])
    assert not checks.residuals_match(bad.tolist(), ref["residuals"])


def test_count_vector_check_rejects_a_repeated_or_misordered_row():
    n, d = 6, 3
    rows = [k for k in np.ndindex(*(n + 1,) * d) if sum(k) <= n]
    good = np.asarray(rows)
    assert checks.count_vectors_ok(good, n, d, math.comb(n + d, d))
    repeated = good.copy()
    repeated[5] = repeated[4]
    assert not checks.count_vectors_ok(repeated, n, d, math.comb(n + d, d))
    swapped = good.copy()
    swapped[[7, 8]] = swapped[[8, 7]]
    assert not checks.count_vectors_ok(swapped, n, d, math.comb(n + d, d))
