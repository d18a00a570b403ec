import json
import math
import os
import subprocess
import sys

import pytest

from lecam import expand, read_csv, validate_params
from lecam.cli import build_parser, main

CMD = [sys.executable, "-m", "lecam"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=120
    )


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


class TestPmf:
    def test_text_output(self):
        proc = run_cli("pmf", "--dist", "hyper", "--N", "10", "--n", "5",
                       "--Np", "5,5", "--k", "2")
        assert proc.returncode == 0
        got = parse_kv(proc.stdout)
        assert float(got["probability"]) == pytest.approx(25 / 63, rel=1e-12)

    def test_population_defaults_to_weight_sum(self):
        explicit = run_cli("pmf", "--dist", "hyper", "--N", "10", "--n", "5",
                           "--Np", "5,5", "--k", "2")
        implied = run_cli("pmf", "--dist", "hyper", "--n", "5", "--Np", "5,5",
                          "--k", "2")
        assert implied.stdout == explicit.stdout

    def test_multinomial_json(self):
        proc = run_cli("pmf", "--dist", "multi", "--N", "12", "--n", "4",
                       "--Np", "4,4,4", "--k", "1,2", "--json")
        doc = json.loads(proc.stdout)
        assert doc["probability"] == pytest.approx(4 / 27, rel=1e-12)

    def test_off_support_reports_zero(self):
        proc = run_cli("pmf", "--dist", "hyper", "--N", "10", "--n", "5",
                       "--Np", "5,5", "--k", "6")
        assert proc.returncode == 0
        got = parse_kv(proc.stdout)
        assert got["probability"] == "0"
        assert got["log_probability"] == "-inf"


class TestRatio:
    def test_matches_library(self):
        proc = run_cli("ratio", "--N", "10", "--n", "5", "--Np", "5,5",
                       "--k", "2", "--json")
        doc = json.loads(proc.stdout)
        expected = expand(validate_params(10, 5, (5, 5)), (2,))
        assert doc["exact"] == expected.exact
        assert doc["order1"] == expected.order1
        assert doc["order2"] == expected.order2


class TestTv:
    def test_exact_pair(self):
        proc = run_cli("tv", "--pair", "hyper-multi", "--N", "10", "--n", "5",
                       "--Np", "5,5")
        got = parse_kv(proc.stdout)
        assert float(got["tv"]) == pytest.approx(85 / 504, abs=1e-13)
        assert got["method"] == "exact-discrete"

    def test_quad_pair(self):
        proc = run_cli("tv", "--pair", "jitterhyper-gauss", "--N", "64",
                       "--n", "8", "--Np", "32,32")
        got = parse_kv(proc.stdout)
        assert got["method"] == "cube-quadrature"
        assert float(got["tv"]) == pytest.approx(0.077094492243074750, abs=5e-7)

    def test_mc_is_seed_deterministic(self):
        args = ("tv", "--pair", "jittermulti-gauss", "--N", "64", "--n", "8",
                "--Np", "32,32", "--method", "mc", "--samples", "50000",
                "--seed", "11")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_discrete_pair_rejects_quadrature(self):
        proc = run_cli("tv", "--pair", "hyper-multi", "--N", "10", "--n", "5",
                       "--Np", "5,5", "--method", "quad")
        assert proc.returncode == 3

    @pytest.mark.parametrize("pair", ["jitterhyper-gauss"])
    def test_jittered_pair_rejects_exact(self, pair):
        proc = run_cli("tv", "--pair", pair, "--N", "64", "--n", "8",
                       "--Np", "32,32", "--method", "exact")
        assert proc.returncode == 3
        assert f"method 'exact' not available for pair {pair}" in proc.stderr

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_jittered_discrete_pair_is_the_discrete_tv(self, method):
        args = ("--N", "64", "--n", "8", "--Np", "32,32")
        jittered = parse_kv(run_cli("tv", "--pair", "jitterhyper-jittermulti",
                                    "--method", method, *args).stdout)
        discrete = parse_kv(run_cli("tv", "--pair", "hyper-multi", *args).stdout)
        assert jittered["method"] == "exact-discrete"
        assert jittered["tv"] == discrete["tv"]

    def test_jittered_discrete_pair_rejects_quadrature(self):
        proc = run_cli("tv", "--pair", "jitterhyper-jittermulti", "--N", "64",
                       "--n", "8", "--Np", "32,32", "--method", "quad")
        assert proc.returncode == 3
        assert "use one of auto, exact, mc" in proc.stderr


class TestScans:
    def test_expansion_scan_csv_and_json_agree(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli("expansion-scan", "--N", "16,32,64,128", "--n", "8",
                       "--Np", "1,1", "--k", "2", "--out", str(out), "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        records = read_csv(out)
        assert len(records) == len(doc["records"]) == 4
        for rec, jrec in zip(records, doc["records"]):
            assert rec.value == jrec["value"]
            assert rec.error == jrec["error"]
        assert doc["slope_fits"]["abs_residual_order1"]["slope"] == pytest.approx(
            -2.278, abs=0.1
        )

    def test_lecam_scan_is_identical_at_any_jobs(self, tmp_path):
        # each point draws from its own seed, so the pool cannot move a bit
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            proc = run_cli("lecam-scan", "--method", "mc", "--samples", "10000",
                           "--n", "4,8,12,16", "--Np", "1,1", "--jobs", jobs, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, out.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("args", [
        ("lecam-scan", "--n", "4,6", "--Np", "1,1"),
        ("expansion-scan", "--N", "16,32,64,128", "--n", "8", "--Np", "1,1", "--k", "2"),
    ], ids=["lecam-scan", "expansion-scan"])
    def test_unwritable_out_is_usage(self, tmp_path, args):
        out = tmp_path / "missing" / "x.csv"
        proc = run_cli(*args, "--out", str(out), "--json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: cannot write --out: ")
        assert str(out) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_expansion_scan_needs_four_points(self):
        proc = run_cli("expansion-scan", "--N", "16,32", "--n", "8",
                       "--Np", "1,1", "--k", "2")
        assert proc.returncode == 2

    def test_degenerate_family_reported(self):
        proc = run_cli("expansion-scan", "--N", "16,32,64,128", "--n", "1",
                       "--Np", "1,1", "--k", "1")
        assert proc.returncode == 0
        assert "degenerate" in proc.stdout

    def test_one_population_is_reported_degenerate(self):
        proc = run_cli("expansion-scan", "--N", "64,64,64,64", "--n", "8",
                       "--Np", "1,1", "--k", "3", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["degenerate"] is True
        assert not doc.get("slope_fits")

    def test_lecam_scan(self, tmp_path):
        out = tmp_path / "lecam.csv"
        proc = run_cli("lecam-scan", "--n", "4,8", "--Np", "1,1",
                       "--out", str(out), "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        by_qty = {}
        for rec in doc["records"]:
            by_qty.setdefault(rec["quantity"], []).append(rec)
        assert set(by_qty) == {
            "delta_P_to_Q", "delta_Q_to_P", "le_cam_upper", "budget",
            "tv_jittered_multinomial_gauss",
        }
        assert [r["N"] for r in by_qty["le_cam_upper"]] == [64, 512]
        records = read_csv(out)
        assert len(records) == len(doc["records"])

    def test_lecam_scan_flags_out_of_regime_points(self):
        proc = run_cli("lecam-scan", "--n", "5", "--N", "6", "--Np", "1,1",
                       "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        flagged = [r for r in doc["records"] if r["method"] == "flagged:outside-regime"]
        assert {r["quantity"] for r in flagged} == {
            "delta_P_to_Q", "delta_Q_to_P", "le_cam_upper", "budget",
        }
        assert all(r["value"] == "nan" for r in flagged)
        # the with-replacement comparison stays meaningful outside the regime
        tv_rows = [r for r in doc["records"]
                   if r["quantity"] == "tv_jittered_multinomial_gauss"]
        assert len(tv_rows) == 1 and isinstance(tv_rows[0]["value"], float)


class TestSinglePointCommands:
    def test_bound_parts(self):
        proc = run_cli("bound-parts", "--N", "40", "--n", "8", "--Np", "10,30",
                       "--json")
        doc = json.loads(proc.stdout)
        assert doc["nu"] == [3, 1]
        assert doc["tail_sum"] == pytest.approx(1 + 1 / 81, abs=1e-14)
        assert doc["n2_over_N"] == pytest.approx(1.6)
        assert doc["gaussian_term_scale"] == pytest.approx(math.sqrt(3 / 8), abs=1e-14)

    def test_bound_parts_regime_violation(self):
        proc = run_cli("bound-parts", "--N", "10", "--n", "8", "--Np", "5,5")
        assert proc.returncode == 3

    def test_tail_check_all_coords(self):
        proc = run_cli("tail-check", "--N", "40", "--n", "8", "--Np", "10,30",
                       "--json")
        doc = json.loads(proc.stdout)
        assert [row["coord"] for row in doc["checks"]] == [0, 1]
        assert doc["checks"][0]["empirical"] == pytest.approx(81 / 1708993, rel=1e-12)
        assert all(row["holds"] for row in doc["checks"])

    def test_tail_check_single_coord(self):
        proc = run_cli("tail-check", "--N", "40", "--n", "8", "--Np", "10,30",
                       "--coord", "0")
        assert proc.returncode == 0
        assert proc.stdout.count("coord =") == 1

    def test_dpi_check(self):
        proc = run_cli("dpi-check", "--N", "64", "--n", "8", "--Np", "32,32",
                       "--json")
        doc = json.loads(proc.stdout)
        assert doc["holds"] is True
        assert doc["slack"] >= -doc["combined_error"]


class TestExitCodes:
    def test_missing_required_flag_is_usage(self):
        proc = run_cli("pmf", "--dist", "hyper", "--N", "10", "--n", "5",
                       "--Np", "5,5")
        assert proc.returncode == 2

    def test_unknown_subcommand_is_usage(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_malformed_int_list_is_usage(self):
        proc = run_cli("pmf", "--dist", "hyper", "--N", "10", "--n", "5",
                       "--Np", "5,x", "--k", "2")
        assert proc.returncode == 2

    def test_weight_mismatch_is_validation(self):
        proc = run_cli("pmf", "--dist", "hyper", "--N", "10", "--n", "5",
                       "--Np", "5,6", "--k", "2")
        assert proc.returncode == 3
        assert "validation" in proc.stderr

    def test_wrong_point_length_is_validation(self):
        proc = run_cli("ratio", "--N", "10", "--n", "5", "--Np", "5,5",
                       "--k", "1,1")
        assert proc.returncode == 3

    @pytest.mark.parametrize("args", [
        ("lecam-scan", "--n", "4,6", "--Np", "1,-1"),
        ("expansion-scan", "--N", "16,32,64,128", "--n", "4", "--Np", "1,-1", "--k", "1"),
    ])
    def test_pattern_with_nonpositive_weight_is_validation(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert "validation" in proc.stderr

    @pytest.mark.parametrize("command", ["tv", "dpi-check"])
    def test_huge_quad_order_is_validation(self, command):
        # refused before any rule is built, so nothing is allocated
        extra = ("--pair", "jitterhyper-gauss", "--method", "quad") if command == "tv" else ()
        proc = run_cli(command, "--N", "64", "--n", "8", "--Np", "32,32",
                       "--quad-order", str(10**9), *extra)
        assert proc.returncode == 3
        assert "quad_order" in proc.stderr

    @pytest.mark.parametrize("args", [
        ("tv", "--pair", "jitterhyper-gauss", "--N", "64", "--n", "8", "--Np", "32,32",
         "--method", "mc", "--samples", "10000"),
        ("lecam-scan", "--n", "4", "--Np", "1,1", "--method", "mc", "--samples", "10000"),
    ], ids=["tv", "lecam-scan"])
    def test_negative_seed_is_validation(self, args):
        proc = run_cli(*args, "--seed", "-1")
        assert proc.returncode == 3
        assert "seed must be a non-negative integer" in proc.stderr

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_validation(self, jobs):
        proc = run_cli("lecam-scan", "--n", "4,8", "--Np", "1,1", "--jobs", jobs)
        assert proc.returncode == 3
        assert "jobs must be at least 1" in proc.stderr

    def test_expansion_scan_takes_no_jobs(self):
        proc = run_cli("expansion-scan", "--N", "16,32,64,128", "--n", "8", "--Np", "1,1",
                       "--k", "2", "--jobs", "2")
        assert proc.returncode == 2
        assert "unrecognized arguments: --jobs 2" in proc.stderr

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_nonfinite_gamma_is_validation(self, gamma):
        proc = run_cli("expansion-scan", "--N", "16,32,64,128", "--n", "8", "--Np", "1,1",
                       "--k", "2", f"--gamma={gamma}")
        assert proc.returncode == 3
        assert "validation error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_support_cap_env_is_resource_error(self):
        proc = run_cli("tv", "--pair", "hyper-multi", "--N", "40", "--n", "12",
                       "--Np", "20,20", env_extra={"LECAM_SUPPORT_CAP": "5"})
        assert proc.returncode == 4
        assert "cap" in proc.stderr

    @pytest.mark.parametrize("args,advice", [
        (("dpi-check",), False),
        (("tv", "--pair", "jitterhyper-gauss", "--method", "quad"), True),
        (("lecam-scan",), True),
    ], ids=["dpi-check", "tv", "lecam-scan"])
    def test_quadrature_past_three_dimensions_is_validation(self, args, advice):
        proc = run_cli(*args, "--N", "500", "--n", "10", "--Np", "100,100,100,100,100")
        assert proc.returncode == 3
        assert "dimension <= 3" in proc.stderr
        # dpi-check has no Monte Carlo path to advise
        assert ("use the Monte Carlo path" in proc.stderr) == advice

    def test_dpi_support_over_cap_is_resource_error(self):
        proc = run_cli("dpi-check", "--N", "16", "--n", "4", "--Np", "8,8",
                       env_extra={"LECAM_SUPPORT_CAP": "4"})
        assert proc.returncode == 4
        assert "support has 5 points" in proc.stderr

    def test_population_past_int64_is_validation(self):
        half = str(2**62)
        proc = run_cli("tv", "--pair", "hyper-multi", "--N", str(2**63), "--n", "4",
                       "--Np", f"{half},{half}")
        assert proc.returncode == 3
        assert "largest int64" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sampler_tables_over_cap_are_resource_error(self):
        # refused before a table is built: at the default cap this instance
        # asks for 4.47 GiB; a small cap keeps a regression from allocating it
        proc = run_cli("tv", "--N", "1000000000", "--n", "300000000",
                       "--Np", "500000000,500000000", "--pair", "jitterhyper-gauss",
                       "--method", "mc", "--samples", "10000",
                       env_extra={"LECAM_SUPPORT_CAP": "1000"})
        assert proc.returncode == 4
        assert "sampler's table over n = 300000000 has 300000001 points" in proc.stderr

    @pytest.mark.parametrize("pair", ["hyper-hyper", "jitterhyper-gauss"])
    def test_support_count_over_cap_is_resource_error(self, pair):
        # the count's table would be 2^39 + 1 int64 entries, 4 TiB: refused
        # before it is built, under an address-space limit in case it is not
        half = str(2**39)
        limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9,) * 2); "
                   "from lecam.cli import main; sys.exit(main())")
        proc = subprocess.run(
            [sys.executable, "-c", limited, "tv", "--N", str(2**40), "--n", half,
             "--Np", f"{half},{half}", "--pair", pair],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert "support has 549755813889 points" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_four_point_support_at_n_of_half_a_trillion_is_counted(self):
        proc = run_cli("tv", "--N", str(10**12), "--n", str(5 * 10**11),
                       "--Np", f"1,1,{10**12 - 2}", "--pair", "hyper-hyper", "--json")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert (out["tv"], out["error_estimate"]) == (0.0, 1e-15 * 4 + 1e-15)

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("tv", "--help").returncode == 0


class TestParserReuse:
    # a usage error between commands, and defaults (--method, --json) that a
    # leaked namespace would carry from one command into the next
    COMMANDS = [
        ["tv", "--pair", "hyper-multi", "--N", "10", "--n", "5", "--Np", "5,5",
         "--method", "exact", "--json"],
        ["pmf", "--dist", "hyper", "--N", "10", "--n", "5", "--Np", "5,5"],
        ["pmf", "--dist", "multi", "--N", "12", "--n", "4", "--Np", "4,4,4", "--k", "1,2"],
        ["lecam-scan", "--n", "4", "--Np", "1,1", "--json"],
    ]

    @staticmethod
    def _run_all(capsys, fresh):
        outputs = []
        for argv in TestParserReuse.COMMANDS:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            outputs.append((code, *capsys.readouterr()))
        return outputs

    def test_one_parser_serves_every_call_as_fresh_ones_do(self, capsys):
        fresh = self._run_all(capsys, fresh=True)
        build_parser.cache_clear()
        reused = self._run_all(capsys, fresh=False)
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused] == [0, 2, 0, 0]
        assert reused == fresh
