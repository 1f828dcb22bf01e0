"""End-to-end runs of the command-line surface, in process."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dualrisk import (
    EqualProbLottery,
    HarnessReport,
    PairProvenance,
    format_lottery_text,
    rebuild_pair,
)
from dualrisk.cli import main
from dualrisk.dominance import MAX_DEGREE

F = Fraction

GOLDEN = Path(__file__).parent / "golden"

A_TEXT = "0 1/6\n3 5/6\n"
B_TEXT = "1 1/6\n2 1/2\n4 1/3\n"

SP_CONFIG = """\
wealth = 4
loss = 1
epsilon = 1/8
effort = linear: p0=1/2, k=1/2
bounds = 0:1/2
weighting = dualpower:m=3
"""


@pytest.fixture
def lottery_files(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(A_TEXT)
    b.write_text(B_TEXT)
    return str(a), str(b)


def table_dict(stdout: str) -> dict:
    rows = {}
    for line in stdout.strip().splitlines():
        parts = re.split(r"\s{2,}", line.rstrip())
        rows[parts[0]] = tuple(parts[1:])
    return rows


class TestEval:
    def test_table_report(self, lottery_files, capsys):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", "quadratic:beta=1"]) == 0
        rows = table_dict(capsys.readouterr().out)
        assert rows["value"] == ("25/12", "2.08333333333")
        assert rows["mean"] == ("5/2", "2.5")
        assert rows["dual_moment_2"][0] == "25/12"

    def test_csv_report(self, lottery_files, capsys):
        _, b = lottery_files
        assert main(["eval", b, "--weighting", "dualpower:m=2", "--format", "csv"]) == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        rows = {row[0]: row[1:] for row in reader}
        assert rows["quantity"] == ["exact", "decimal"]
        assert rows["value"][0] == "23/12"
        assert rows["dual_moment_2"][0] == "23/12"

    def test_point_mass(self, tmp_path, capsys):
        path = tmp_path / "point.txt"
        path.write_text("5 1\n")
        assert main(["eval", str(path)]) == 0
        rows = table_dict(capsys.readouterr().out)
        assert rows["value"] == ("5", "5")
        assert rows["central_moment_2"][0] == "0"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "absent.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_carries_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 1/2\nbogus\n")
        assert main(["eval", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err

    def test_bad_weighting_spec(self, lottery_files, capsys):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", "sigmoid:m=3"]) == 2

    def test_repeated_weighting_key_exits_two(self, lottery_files, capsys):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", "quadratic:beta=1/2,beta=1"]) == 2
        assert "duplicate parameter 'beta'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["prelec:a=1e400", "tk:gamma=1e400"])
    def test_weighting_parameter_too_large_for_a_float(self, lottery_files, capsys, spec):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", spec]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad weighting spec {spec!r}")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("1 1/2\n2 1/2 # caf\u00e9\n".encode("latin-1"))
        assert main(["eval", str(path)]) == 2
        assert f"error: {path}: not UTF-8" in capsys.readouterr().err

    def test_outcome_beyond_float_range_stays_exact(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("1e400 1\n")
        assert main(["eval", str(path), "--format", "csv"]) == 0
        rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(capsys.readouterr().out))}
        assert rows["value"] == [str(10**400), "1e+400"]
        assert rows["mean"] == rows["dual_moment_4"] == [str(10**400), "1e+400"]
        assert rows["central_moment_2"] == ["0", "0"]

    def test_spread_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("0 1/3\n5e300 2/3\n")
        assert main(["eval", str(path), "--format", "csv"]) == 0
        rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(capsys.readouterr().out))}
        assert rows["mean"][1] == "3.33333333333e+300"
        assert rows["central_moment_2"][1] == "5.55555555556e+600"
        assert rows["central_moment_3"][1] == "-9.25925925926e+900"

    def test_outcome_below_the_normal_float_range(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("1e-400 1/2\n2e-400 1/2\n")
        assert main(["eval", str(path), "--format", "csv"]) == 0
        rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(capsys.readouterr().out))}
        assert rows["mean"][1] == "1.5e-400"
        assert rows["central_moment_2"][1] == "2.5e-801"

    def test_tk_where_both_powers_underflow_exits_two(self, lottery_files, capsys):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", "tk:gamma=2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad weighting spec 'tk:gamma=2000'")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("spec", ["tk:gamma=0.6", "prelec:a=1/2,b=1", "power:k=1/2"])
    def test_float_family_beyond_float_range_is_a_domain_error(self, tmp_path, capsys, spec):
        path = tmp_path / "big.txt"
        path.write_text("1e400 1\n")
        assert main(["eval", str(path), "--weighting", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "within the float range" in captured.err


    @pytest.mark.parametrize("spec", ["power:k=1e400", "dualpower:m=" + "1" + "0" * 400])
    def test_order_past_the_exact_size_bound(self, lottery_files, capsys, spec):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order too large for an exact value")

    @pytest.mark.parametrize("spec", ["power:k=2000", "dualpower:m=2000"])
    def test_large_order_on_two_states(self, lottery_files, capsys, spec):
        a, _ = lottery_files
        assert main(["eval", a, "--weighting", spec, "--format", "csv"]) == 0
        rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(capsys.readouterr().out))}
        assert set(rows["value"][0]) <= set("0123456789/")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int-to-text digit limit in this interpreter",
    )
    def test_exact_cell_past_the_int_text_limit(self, tmp_path, capsys):
        path = tmp_path / "many.txt"
        path.write_text("".join(f"{i}/{i % 7 + 2} {i + 1}/2080\n" for i in range(64)))
        assert main(["eval", str(path), "--weighting", "power:k=2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: exact value too long to print")


class TestDominance:
    def test_dual_check_reports_the_moment_gap(self, lottery_files, capsys):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", "3"]) == 0
        rows = table_dict(capsys.readouterr().out)
        assert rows["holds"] == ("false",)
        assert rows["failed_condition"] == ("dual_moment_2",)

    def test_primal_check_holds(self, lottery_files, capsys):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", "3", "--kind", "primal"]) == 0
        rows = table_dict(capsys.readouterr().out)
        assert rows["holds"] == ("true",)
        assert rows["failed_condition"] == ("-",)

    def test_ekern_variant(self, lottery_files, capsys):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", "3", "--kind", "primal", "--ekern"]) == 0
        assert table_dict(capsys.readouterr().out)["holds"] == ("true",)

    def test_ekern_rejected_for_dual(self, lottery_files, capsys):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", "3", "--kind", "dual", "--ekern"]) == 2

    @pytest.mark.parametrize("kind", ["dual", "primal"])
    def test_degree_past_the_bound_exits_two(self, lottery_files, capsys, kind):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", "100000", "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dominance degree must be <= {MAX_DEGREE}, got 100000\n"

    @pytest.mark.parametrize("kind", ["dual", "primal"])
    def test_degree_at_the_bound_runs(self, lottery_files, capsys, kind):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", str(MAX_DEGREE), "--kind", kind]) == 0
        assert table_dict(capsys.readouterr().out)["degree"] == (str(MAX_DEGREE),)


EXPECTED_PAIRS = {
    ("2", "1,2", "4"): (
        EqualProbLottery((F(3, 4), F(9, 4))),
        EqualProbLottery((F(5, 4), F(7, 4))),
    ),
    ("3", "1,2,4", "6"): (
        EqualProbLottery((F(5, 6), F(7, 3), F(23, 6))),
        EqualProbLottery((F(7, 6), F(5, 3), F(25, 6))),
    ),
    ("4", "1,2,4,7", "4"): (
        EqualProbLottery((F(3, 4), F(11, 4), F(13, 4), F(29, 4))),
        EqualProbLottery((F(5, 4), F(5, 4), F(19, 4), F(27, 4))),
    ),
}


class TestPairgen:
    @pytest.mark.parametrize("order,base,big_m", sorted(EXPECTED_PAIRS))
    def test_worked_examples(self, tmp_path, capsys, order, base, big_m):
        code = main(
            ["pairgen", "--order", order, "--base", base, "--M", big_m, "--outdir", str(tmp_path)]
        )
        assert code == 0
        c, d = EXPECTED_PAIRS[(order, base, big_m)]
        prefix = f"order{order}"
        assert (tmp_path / f"{prefix}_c.txt").read_text() == format_lottery_text(c)
        assert (tmp_path / f"{prefix}_d.txt").read_text() == format_lottery_text(d)
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == [
            str(tmp_path / f"{prefix}_{tag}") for tag in ("c.txt", "d.txt", "provenance.json")
        ]

    def test_provenance_rebuilds_the_pair(self, tmp_path):
        main(["pairgen", "--order", "3", "--base", "1,2,4", "--M", "6", "--outdir", str(tmp_path)])
        prov = PairProvenance.from_json((tmp_path / "order3_provenance.json").read_text())
        pair = rebuild_pair(prov)
        assert pair.c == EXPECTED_PAIRS[("3", "1,2,4", "6")][0]
        assert pair.d == EXPECTED_PAIRS[("3", "1,2,4", "6")][1]

    def test_random_base_is_seed_deterministic(self, tmp_path):
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            main(
                ["pairgen", "--order", "4", "--random", "--seed", "9",
                 "--outdir", str(tmp_path / sub), "--prefix", "p"]
            )
        for name in ("p_c.txt", "p_d.txt", "p_provenance.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_random_pair_matches_its_golden(self, tmp_path, capsys):
        # tests/golden/pairgen holds the files of the Fraction build; CI
        # compares the same command's output with them
        assert main(
            ["pairgen", "--order", "5", "--random", "--n", "9", "--seed", "42", "--outdir", str(tmp_path)]
        ) == 0
        for name in ("order5_c.txt", "order5_d.txt", "order5_provenance.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / "pairgen" / name).read_bytes()

    def test_random_base_needs_a_state(self, tmp_path, capsys):
        assert main(["pairgen", "--order", "3", "--random", "--n", "0", "--outdir", str(tmp_path)]) == 2
        assert "n >= 1" in capsys.readouterr().err

    def test_base_file_input(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("1 1/3\n2 1/3\n4 1/3\n")
        assert main(
            ["pairgen", "--order", "3", "--base", str(base), "--M", "6", "--outdir", str(tmp_path)]
        ) == 0
        expected = EXPECTED_PAIRS[("3", "1,2,4", "6")][1]
        assert (tmp_path / "order3_d.txt").read_text() == format_lottery_text(expected)

    def test_overlarge_amplitude_rejected(self, tmp_path, capsys):
        assert main(
            ["pairgen", "--order", "2", "--base", "1,2", "--M", "1", "--outdir", str(tmp_path)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_parsimonious_pair(self, tmp_path):
        assert main(
            ["pairgen", "--order", "3", "--base", "1,2,3,4,5", "--parsimonious", "--j", "1",
             "--outdir", str(tmp_path)]
        ) == 0
        prov = json.loads((tmp_path / "order3_provenance.json").read_text())
        assert prov["kind"] == "parsimonious"
        c_text = (tmp_path / "order3_c.txt").read_text()
        assert c_text == format_lottery_text(EqualProbLottery(tuple(map(F, range(1, 6)))))

    def test_base_required(self, capsys):
        assert main(["pairgen", "--order", "3"]) == 2

    def test_outdir_under_a_file_is_a_typed_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / "x"
        code = main(["pairgen", "--order", "3", "--base", "1,2,4", "--outdir", str(outdir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {outdir}")

    def test_unwritable_member_file_is_a_typed_error(self, tmp_path, capsys):
        (tmp_path / "order3_c.txt").mkdir()
        code = main(["pairgen", "--order", "3", "--base", "1,2,4", "--outdir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'order3_c.txt'}")


class TestVerify:
    def test_passing_run(self, capsys):
        assert main(["verify", "--theorem", "5", "--trials", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"theorem 5 \(direct, order 2\): trials=2 failures=0 PASS", out)
        assert re.search(r"theorem 5 \(direct, order 5\): trials=2 failures=0 PASS", out)

    def test_deterministic_stdout(self, capsys):
        main(["verify", "--theorem", "2", "--trials", "2", "--seed", "11"])
        first = capsys.readouterr().out
        main(["verify", "--theorem", "2", "--trials", "2", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_failure_writes_replay_records(self, tmp_path, capsys, monkeypatch):
        import dualrisk.harness as harness_module

        def fake_run(theorem, trials, seed):
            failure = {"weighting": "identity", "relation": "ge", "direction": -1, "trial": 0}
            return [HarnessReport(theorem, "direct", 3, trials, (failure,))]

        monkeypatch.setattr(harness_module, "run_theorem", fake_run)
        code = main(
            ["verify", "--theorem", "1", "--trials", "1", "--seed", "0", "--outdir", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "failures=1 FAIL" in captured.out
        replay = tmp_path / "theorem1_failures.json"
        assert str(replay) in captured.err
        payload = json.loads(replay.read_text())
        assert payload["theorem"] == 1
        assert payload["reports"][0]["failures"][0]["direction"] == -1

    def test_unwritable_replay_records_are_a_typed_error(self, tmp_path, capsys, monkeypatch):
        import dualrisk.harness as harness_module

        def fake_run(theorem, trials, seed):
            failure = {"weighting": "identity", "relation": "ge", "direction": -1, "trial": 0}
            return [HarnessReport(theorem, "direct", 3, trials, (failure,))]

        monkeypatch.setattr(harness_module, "run_theorem", fake_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["verify", "--theorem", "1", "--trials", "1", "--outdir", str(blocker)])
        assert code == 2
        assert f"error: cannot write {blocker}" in capsys.readouterr().err

    def test_grid_count_is_not_an_option(self, capsys):
        assert main(["verify", "--theorem", "2", "--trials", "1", "--grid-count", "8"]) == 2
        assert "--grid-count" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        assert main(["verify", "--theorem", "1", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: trials must be >= 1, got {trials}")

    def test_theorem_number_validated(self, capsys):
        assert main(["verify", "--theorem", "9"]) == 2


class TestPaperRepro:
    def test_matches_goldens(self, tmp_path, capsys):
        assert main(["paper-repro", "--outdir", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        names = ("sec22.csv", "sec3.csv", "sec4.csv", "sec5.csv")
        assert printed == [str(tmp_path / name) for name in names]
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_goldens_do_not_depend_on_asserts(self, tmp_path):
        # python -O strips every assert; the CSVs must come out the same
        src = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run(
            [sys.executable, "-O", "-m", "dualrisk.cli", "paper-repro", "--outdir", str(tmp_path)],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        for name in ("sec22.csv", "sec3.csv", "sec4.csv", "sec5.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_outdir_that_is_a_file_is_a_typed_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["paper-repro", "--outdir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {blocker}")

    def test_unwritable_csv_is_a_typed_error(self, tmp_path, capsys):
        (tmp_path / "sec3.csv").mkdir()
        assert main(["paper-repro", "--outdir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"{tmp_path / 'sec22.csv'}\n"
        assert captured.err.startswith(f"error: cannot write {tmp_path / 'sec3.csv'}")

    def test_outdir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DUALRISK_OUTDIR", str(tmp_path))
        assert main(["paper-repro"]) == 0
        capsys.readouterr()
        assert (tmp_path / "sec22.csv").exists()


@pytest.mark.filterwarnings("ignore:value not concave")
class TestSelfProtect:
    def test_solves_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "prob.cfg"
        cfg.write_text(SP_CONFIG)
        assert main(["selfprotect", str(cfg)]) == 0
        rows = table_dict(capsys.readouterr().out)
        assert float(rows["e_star"][0]) >= 0
        assert rows["interior"][0] in ("true", "false")
        assert rows["shift_at_half"] == ("-3/8",)
        assert rows["background_direction"][0] in ("more", "less", "none")

    @pytest.mark.parametrize("spec", ["power:k=1e400", "dualpower:m=10000000", "power:k=10000000"])
    @pytest.mark.parametrize("epsilon", ["1/8", "0"])
    def test_order_past_the_size_bound_exits_two(self, tmp_path, capsys, spec, epsilon):
        cfg = tmp_path / "huge.cfg"
        text = SP_CONFIG.replace("dualpower:m=3", spec).replace("epsilon = 1/8", f"epsilon = {epsilon}")
        cfg.write_text(text)
        assert main(["selfprotect", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order too large for an exact value")

    def test_tk_where_both_powers_underflow_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "tk.cfg"
        cfg.write_text(SP_CONFIG.replace("dualpower:m=3", "tk:gamma=1e5"))
        assert main(["selfprotect", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}:6: bad weighting spec 'tk:gamma=1e5'")
        assert "Traceback" not in captured.err

    def test_no_background_rows_when_epsilon_zero(self, tmp_path, capsys):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text(SP_CONFIG.replace("epsilon = 1/8", "epsilon = 0"))
        assert main(["selfprotect", str(cfg)]) == 0
        rows = table_dict(capsys.readouterr().out)
        assert "background_direction" not in rows
        assert "e_star" in rows

    def test_config_error_exits_two_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SP_CONFIG.replace("loss = 1", "loss = one"))
        assert main(["selfprotect", str(cfg)]) == 2
        assert f"{cfg}:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("wealth = 4", "wealth = 1e400", 1),
            ("effort = linear: p0=1/2, k=1/2", "effort = exponential: p0=1/2, k=1e400", 4),
        ],
    )
    def test_value_too_large_for_a_float(self, tmp_path, capsys, old, new, line):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SP_CONFIG.replace(old, new))
        assert main(["selfprotect", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{line}:")
        assert "too large for a float" in err

    def test_misspelled_effort_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "kink.cfg"
        cfg.write_text(SP_CONFIG.replace("k=1/2", "k=1/2, pmin=1/10"))
        assert main(["selfprotect", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}:4:") and "'pmin'" in captured.err

    @pytest.mark.parametrize(
        "old, new, line, fragment",
        [
            ("loss = 1", "loss = -1", 2, "loss must be >= 0, got -1"),
            ("epsilon = 1/8", "epsilon = -1/8", 3, "background amplitude must be >= 0"),
            ("bounds = 0:1/2", "bounds = 1/2:0", 5, "effort bounds must satisfy 0 <= lo < hi"),
            ("wealth = 4", "wealth = 1", 1, "wealth can go negative"),
            ("bounds = 0:1/2", "bounds = 1:2", 4, "loss probability must stay in (0, 1) and fall"),
        ],
        ids=["negative-loss", "negative-epsilon", "reversed-bounds", "negative-wealth", "flat-probability"],
    )
    def test_problem_error_names_the_line_of_its_key(self, tmp_path, capsys, old, new, line, fragment):
        cfg = tmp_path / "bad.cfg"
        text = SP_CONFIG.replace(old, new)
        if new == "bounds = 1:2":  # wealth to spare, so only the flat clamp is wrong
            text = text.replace("wealth = 4", "wealth = 10")
        cfg.write_text(text)
        assert main(["selfprotect", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}:{line}: {fragment}")

    @pytest.mark.parametrize("epsilon, solves", [("1/8", 2), ("0", 1)])
    def test_each_problem_is_solved_once(self, tmp_path, capsys, monkeypatch, epsilon, solves):
        import dualrisk.applications as applications

        cfg = tmp_path / "prob.cfg"
        cfg.write_text(SP_CONFIG.replace("epsilon = 1/8", f"epsilon = {epsilon}"))
        assert main(["selfprotect", str(cfg)]) == 0
        expected = capsys.readouterr().out
        problems = []
        real = applications.sp_solve

        def counted(sp, w, *args):
            problems.append(sp.epsilon)
            return real(sp, w, *args)

        monkeypatch.setattr(applications, "sp_solve", counted)
        assert main(["selfprotect", str(cfg)]) == 0
        assert capsys.readouterr().out == expected
        assert len(problems) == solves
        assert sorted(problems) == sorted({F(0), F(epsilon)})

    def test_grid_count_is_not_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "prob.cfg"
        cfg.write_text(SP_CONFIG)
        assert main(["selfprotect", str(cfg), "--grid-count", "8"]) == 2

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(SP_CONFIG.encode("utf-16"))
        assert main(["selfprotect", str(cfg)]) == 2
        assert f"error: {cfg}: not UTF-8" in capsys.readouterr().err


class TestParsing:
    def test_unknown_flag(self, capsys):
        assert main(["eval", "x.txt", "--frobnicate"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2


class TestRepeatedInProcessCalls:
    def test_csv_then_plain_eval_prints_a_table(self, lottery_files, capsys):
        a, _ = lottery_files
        assert main(["eval", a, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("quantity,exact,decimal\n")
        assert main(["eval", a]) == 0
        out = capsys.readouterr().out
        assert out.startswith("quantity ")
        assert table_dict(out)["value"] == ("5/2", "2.5")

    def test_usage_error_then_a_valid_call(self, lottery_files, capsys):
        a, b = lottery_files
        assert main(["dominance", a, b, "--degree", "3"]) == 0
        expected = capsys.readouterr().out
        assert main(["dominance", a, b, "--degree", "three", "--kind", "primal"]) == 2
        assert main(["eval", a, "--format", "xml"]) == 2
        capsys.readouterr()
        assert main(["dominance", a, b, "--degree", "3"]) == 0
        assert capsys.readouterr().out == expected


def _fresh(code: str) -> str:
    """Standard output of code run in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    return out.stdout


# the dualrisk modules whose bodies have run: a deferred module keeps its
# lazy subclass of ModuleType until then
EXECUTED = """
import json, sys, types

def executed():
    ours = (n for n, m in sys.modules.items() if n.split(".")[0] == "dualrisk" and type(m) is types.ModuleType)
    return sorted(ours)
"""


def test_cli_import_leaves_numpy_out():
    # every module runs first: importing the CLI alone runs none of them
    code = EXECUTED + """
import dualrisk.cli
from dualrisk import *
assert executed() == sorted(["dualrisk", *(f"dualrisk.{m}" for m in dualrisk._EXPORTS)]), executed()
print(json.dumps(sorted({"numpy", "hypothesis", "mpmath", "oracles"} & set(sys.modules))))
"""
    assert json.loads(_fresh(code)) == []


def test_cli_runs_only_the_modules_a_command_uses(tmp_path):
    path = tmp_path / "a.lot"
    path.write_text("1 1/3\n5/2 2/3\n", encoding="utf-8")
    code = EXECUTED + f"""
import contextlib, io
import dualrisk.cli
print(json.dumps(executed()))
with contextlib.redirect_stdout(io.StringIO()):
    assert dualrisk.cli.main(["eval", {str(path)!r}, "--weighting", "dualpower:m=2"]) == 0
print(json.dumps(executed()))
"""
    at_import, after_eval = map(json.loads, _fresh(code).splitlines())
    assert at_import == ["dualrisk", "dualrisk.cli", "dualrisk.errors"]
    assert "dualrisk.valuation" in after_eval
    unused = {f"dualrisk.{m}" for m in ("applications", "harness", "apportionment", "dominance")}
    assert unused.isdisjoint(after_eval)
