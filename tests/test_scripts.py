"""The research script writes the same tables as the CLI scans on its grid and
as the committed ``results/``, and the erfc table's fitting script reproduces
the committed table."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lecam import read_csv
import lecam.distances as distances
from lecam.records import records_equal

ROOT = Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "lecam"]


def run(args, tmp_path):
    # conftest.py puts the package's absolute directory on PYTHONPATH, so the
    # runs find it from tmp_path too
    proc = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_rate_scans_match_cli(tmp_path):
    outdir = tmp_path / "results"
    stdout = run([sys.executable, str(ROOT / "scripts" / "run_rate_scans.py"),
                  "--outdir", str(outdir)], tmp_path)
    assert "le_cam_upper slope vs n:" in stdout

    run(CLI + ["lecam-scan", "--Np", "1,1", "--n", "4,6,8,12,16", "--quad-order", "8",
               "--out", "lecam.csv"], tmp_path)
    assert records_equal(read_csv(outdir / "lecam_bounds.csv"), read_csv(tmp_path / "lecam.csv"))

    expected = []
    for order in (1, 2):
        run(CLI + ["expansion-scan", "--N", "16,32,64,128,256,512", "--n", "8",
                   "--Np", "1,1", "--k", "2", "--order", str(order), "--gamma", "0.75",
                   "--out", f"order{order}.csv"], tmp_path)
        expected += read_csv(tmp_path / f"order{order}.csv")
    assert records_equal(read_csv(outdir / "expansion_residuals.csv"), expected)

    # the committed tables are the ones the script writes now
    for name in ("lecam_bounds.csv", "expansion_residuals.csv", "bound_pieces.csv"):
        assert records_equal(read_csv(ROOT / "results" / name), read_csv(outdir / name)), name


def test_erfc_table_matches_a_fresh_fit(tmp_path, monkeypatch):
    pytest.importorskip("mpmath")
    script = ROOT / "scripts" / "fit_erfc_table.py"
    assert "matches a fresh fit" in run([sys.executable, str(script), "--check"], tmp_path)

    # a table one bit off in one coefficient fails the check
    spec = importlib.util.spec_from_file_location("fit_erfc_table", script)
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    table = distances._ERFC_COEFFS.T.tolist()
    table[7][3] = math.nextafter(table[7][3], math.inf)
    copy = tmp_path / "_erfc_table.py"
    copy.write_text(fit.render(table))
    monkeypatch.setattr(fit, "TABLE_PATH", copy)
    assert fit.main(["--check"]) == 1
