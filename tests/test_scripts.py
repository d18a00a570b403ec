"""The research script writes the same tables as the CLI scans on its grid."""

import subprocess
import sys
from pathlib import Path

from lecam import read_csv
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
