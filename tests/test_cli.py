"""Command-line interface tests: exit codes, formats, determinism."""

import ast
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quasilogic
from conftest import seeded_basis, seeded_state
from quasilogic import cli, hilbert, jordan, logic, survey, verify
from quasilogic.logic import CELLS

ROW_KEYS = [f"{order},{first},{second}" for order in ("AB", "BA") for first, second in CELLS]
# well-formed count files with any counts, some past the group-total limit
count_files = st.lists(
    st.one_of(st.integers(min_value=0, max_value=1000),
              st.integers(min_value=0, max_value=10**25)),
    min_size=8, max_size=8,
).map(lambda counts: "".join(
    ["order,first,second,count\n"] + [f"{key},{n}\n" for key, n in zip(ROW_KEYS, counts)]
).encode())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTruthTable:
    def test_default_matches_goldens(self, capsys):
        code, out, _ = run(capsys, "truth-table")
        assert code == 0
        assert "reference tables matched" in out
        assert "3/2" in out and "-1/2" in out

    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--format", "csv")
        assert code == 0
        assert out.count("a,b_alone,b_after,value") == 3

    def test_csv_files(self, capsys, tmp_path):
        out_dir = tmp_path / "tables"
        code, _, _ = run(capsys, "truth-table", "--format", "csv", "--out", str(out_dir))
        assert code == 0
        for name in ("conjunction", "xor", "inclusive_or"):
            path = out_dir / f"truth_table_{name}.csv"
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "a,b_alone,b_after,value"
            assert len(lines) == 9

    def test_json(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["reference_match"] is True
        assert len(data["tables"]["conjunction"]) == 8


class TestVerify:
    def test_quick_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "2-3", "--trials", "10", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        names = {check["name"] for check in data["checks"]}
        assert "logic.order_swap_all_64_pairs" in names
        assert "hilbert.joint_operational_vs_algebraic" in names
        assert "jordan.formal_reality" in names

    def test_runs_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--dim", "2", "--trials", "5", "--format", "json")
        _, out2, _ = run(capsys, "verify", "--dim", "2", "--trials", "5", "--format", "json")
        assert out1 == out2

    def test_impossible_tolerance_fails_as_tolerance_kind(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "2", "--trials", "5",
            "--tol", "1e-16", "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        failed = [c for c in data["checks"] if not c["passed"]]
        assert failed
        assert all(c["failure_kind"] == "tolerance" for c in failed)

    @pytest.mark.parametrize("seed", [9, 13, 27])
    def test_one_trial_passes_the_negativity_floor(self, capsys, seed):
        """One sampled pair lies above -0.09 here (-0.088 at seed 9); the exact floor holds."""
        code, out, _ = run(capsys, "verify", "--dim", "2", "--trials", "1", "--seed", str(seed),
                           "--format", "json")
        assert code == 0
        checks = {check["name"]: check for check in json.loads(out)["checks"]}
        floor = checks["hilbert.negativity_search_floor"]
        assert floor["passed"] and floor["residual"] == 0.0
        assert "1 question pairs over dims (2,), min cell over states" in floor["detail"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "2", "--trials", "5")
        assert code == 0
        assert "PASS" in out and "all checks passed" in out


class TestDemo:
    def test_text_values(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        assert "-0.100000" in out      # negative cell
        assert "-0.500000" in out      # weak value real part
        assert "0.100000" in out and "0.200000" in out

    def test_json_values(self, capsys):
        code, out, _ = run(capsys, "demo", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["p_a"] == pytest.approx(0.1, abs=1e-12)
        assert data["p_b"] == pytest.approx(0.2, abs=1e-12)
        assert data["p_b_after_nonselective_a"] == pytest.approx(0.5, abs=1e-12)
        assert data["sequential_ab"] == pytest.approx(0.05, abs=1e-12)
        assert data["logical_joint_operational"] == pytest.approx(-0.1, abs=1e-12)
        assert data["weak_value"]["re"] == pytest.approx(-0.5, abs=1e-12)
        assert data["quasi_prob_cells"]["11"] == pytest.approx(-0.1, abs=1e-12)


class TestKd:
    def test_json_sums_to_one(self, capsys):
        code, out, _ = run(capsys, "kd", "--dim", "3", "--seed", "7", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["sum"]["re"] == pytest.approx(1.0, abs=1e-10)
        assert data["sum"]["im"] == pytest.approx(0.0, abs=1e-10)
        assert data["max_gap_to_logical_joint"] < 1e-10
        assert len(data["cells"]) == 9

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "kd", "--dim", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,re,im"
        assert len(lines) == 5

    def test_csv_fields_are_the_json_cells(self, capsys):
        _, csv_out, _ = run(capsys, "kd", "--dim", "5", "--seed", "3", "--format", "csv")
        _, json_out, _ = run(capsys, "kd", "--dim", "5", "--seed", "3", "--format", "json")
        rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        cells = json.loads(json_out)["cells"]
        assert len(rows) == len(cells) == 25
        for (i, j, re, im), cell in zip(rows, cells):
            assert (int(i), int(j), float(re), float(im)) == (
                cell["i"], cell["j"], cell["re"], cell["im"])

    @pytest.mark.parametrize("seed", [0, 5, 123456789])
    @pytest.mark.parametrize("dim", [2, 3, 24, 36, 48, 64])
    def test_json_is_the_indenting_encoders_output(self, capsys, dim, seed):
        # the payload as a list of per-cell dicts, rendered by json.dumps itself
        rho = seeded_state(dim, "mixed", seed)
        basis_a = seeded_basis(dim, seed + 1)
        basis_b = seeded_basis(dim, seed + 2)
        table = hilbert.kd_distribution(rho, basis_a, basis_b, tol=1e-10)
        questions_b = hilbert.rank_one_projectors(basis_b)
        max_gap = 0.0
        for i, question in enumerate(hilbert.rank_one_projectors(basis_a)):
            joints = hilbert.logical_joints(rho.matrix, question, questions_b, "jordan")
            max_gap = max(max_gap, float(abs(table[i].real - joints).max()))
        total = complex(table.sum())
        reference = {
            "config": {"version": quasilogic.__version__, "dims": [dim], "seed": seed,
                       "tol": 1e-10},
            "cells": [
                {"i": i, "j": j, "re": float(table[i, j].real), "im": float(table[i, j].imag)}
                for i in range(dim)
                for j in range(dim)
            ],
            "sum": {"re": total.real, "im": total.imag},
            "min_real_part": float(table.real.min()),
            "max_gap_to_logical_joint": max_gap,
        }
        code, out, _ = run(capsys, "kd", "--dim", str(dim), "--seed", str(seed), "--format", "json")
        expected = json.dumps(reference, indent=2) + "\n"
        # compared by hand: pytest's diff of two outputs this long takes minutes
        lines = zip(out.splitlines(), expected.splitlines())
        first = next((n for n, (got, want) in enumerate(lines, 1) if got != want), None)
        same = out == expected
        assert code == 0
        assert same, f"output differs from json.dumps at line {first}"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ["kd", "--dim", "7", "--seed", "2", "--format", fmt]
        _, stdout, _ = run(capsys, *argv)
        target = tmp_path / "kd.out"
        code, nothing, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and nothing == ""
        assert target.read_bytes() == stdout.encode()

    def test_trials_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kd", "--trials", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 7" in capsys.readouterr().err
        code, out, _ = run(capsys, "kd", "--dim", "2", "--format", "json")
        assert code == 0 and "trials" not in json.loads(out)["config"]

    def test_nan_gap_is_reported(self, capsys, monkeypatch):
        """A NaN joint in one cell reaches max_gap_to_logical_joint, not dropped by a max."""
        table = hilbert.logical_joint_table

        def with_a_nan(*args):
            joints = table(*args)
            joints[1, 2] = np.nan
            return joints

        monkeypatch.setattr(hilbert, "logical_joint_table", with_a_nan)
        code, out, _ = run(capsys, "kd", "--dim", "4", "--format", "json")
        assert code == 0
        assert '"max_gap_to_logical_joint": NaN' in out
        assert math.isnan(json.loads(out)["max_gap_to_logical_joint"])
        code, out, _ = run(capsys, "kd", "--dim", "4")
        assert code == 0
        assert "max |Re cell - logical joint|: nan\n" in out

    def test_largest_dimension_matches_logical_joints(self, capsys):
        code, out, _ = run(capsys, "kd", "--dim", "64", "--format", "json")
        assert code == 0
        assert json.loads(out)["max_gap_to_logical_joint"] <= 1e-10

    @pytest.mark.parametrize("spec", ["2-3", "2,4"])
    def test_multiple_dimensions_rejected(self, capsys, spec):
        code, out, err = run(capsys, "kd", "--dim", spec)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestSurvey:
    def test_bundled_synthetic_fixture(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "survey", str(data_dir / "synthetic_n100.csv"),
            "--trials", "500", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["logical_ab_exact"]["11"] == "2/5"
        assert data["logical_ba_exact"]["11"] == "9/20"
        assert data["xor"]["ab"] == pytest.approx(0.30)
        assert data["xor"]["ba"] == pytest.approx(0.20)

    def test_bundled_clinton_gore_fixture(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "survey", str(data_dir / "clinton_gore_1997.csv"),
            "--trials", "1000", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["qq_test"]["p_value"] > 0.05
        assert data["order_effect_test"]["p_value"] < 0.05
        assert data["labels"] == {"a": "Clinton", "b": "Gore"}

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "survey", str(tmp_path / "nope.csv"))
        assert code == 2
        assert out == ""
        assert "not found" in err

    def test_malformed_file_exits_2_without_output(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("order,first,second,count\nAB,0,0,-1\n")
        code, out, err = run(capsys, "survey", str(bad))
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_svg_and_out_file(self, capsys, tmp_path, data_dir):
        out_file = tmp_path / "report.json"
        svg_file = tmp_path / "chart.svg"
        code, stdout, _ = run(
            capsys, "survey", str(data_dir / "synthetic_n100.csv"),
            "--trials", "200", "--format", "json",
            "--out", str(out_file), "--svg", str(svg_file),
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out_file.read_text())["config"]["version"]
        assert svg_file.read_text().startswith("<svg")

    def test_csv_plot_data(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "survey", str(data_dir / "synthetic_n100.csv"),
            "--trials", "200", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "series,cell,value"
        assert len(out.strip().splitlines()) == 17


class TestJordanVerify:
    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "jordan-verify", "--dim", "2,4", "--trials", "50", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        sweep = data["formal_reality_sweep"]
        assert [entry["dim"] for entry in sweep] == [2, 4]
        for entry in sweep:
            assert set(entry) == {"dim", "trials", "seed", "max_residual", "min_residual", "verdict"}
            assert entry["verdict"] == "consistent"

    def test_each_formal_reality_pair_is_probed_once(self, capsys, monkeypatch):
        calls, pairs = [], []
        stacked = jordan._formal_reality_sums

        def counting_sums(x_squares, y_squares):
            calls.append(len(x_squares))
            pairs.extend(xi.tobytes() + yi.tobytes() for xi, yi in zip(x_squares, y_squares))
            return stacked(x_squares, y_squares)

        monkeypatch.setattr(jordan, "_formal_reality_sums", counting_sums)
        code, _, _ = run(
            capsys, "jordan-verify", "--dim", "2,4", "--trials", "50", "--format", "json"
        )
        assert code == 0
        assert calls == [50, 50]          # one stacked call per dimension
        assert len(pairs) == len(set(pairs)) == 100


class TestInputErrors:
    """Unreadable input and unwritable output exit 2 with one error line."""

    @staticmethod
    def assert_input_error(code, err):
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_non_utf8_survey_file(self, capsys, tmp_path, data_dir):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# label_a = caf\xe9\n" + (data_dir / "synthetic_n100.csv").read_bytes())
        code, out, err = run(capsys, "survey", str(path))
        self.assert_input_error(code, err)
        assert out == "" and "UTF-8" in err

    def test_directory_as_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "survey", str(tmp_path))
        self.assert_input_error(code, err)
        assert out == ""

    def test_count_above_limit(self, capsys, tmp_path, data_dir):
        path = tmp_path / "huge.csv"
        text = (data_dir / "synthetic_n100.csv").read_text()
        path.write_text(text.replace("AB,1,1,40", f"AB,1,1,{10**23}"))
        code, out, err = run(capsys, "survey", str(path))
        self.assert_input_error(code, err)
        assert out == "" and "exceeds the limit" in err

    @pytest.mark.parametrize("argv", [
        ["truth-table", "--out"],
        ["verify", "--dim", "2", "--trials", "5", "--out"],
        ["demo", "--out"],
        ["kd", "--out"],
        ["jordan-verify", "--dim", "2", "--trials", "5", "--out"],
        ["survey", "synthetic_n100.csv", "--trials", "100", "--out"],
        ["survey", "synthetic_n100.csv", "--trials", "100", "--svg"],
    ])
    def test_unwritable_output(self, capsys, tmp_path, data_dir, argv):
        argv = [str(data_dir / arg) if arg.endswith(".csv") else arg for arg in argv]
        code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "out"))
        self.assert_input_error(code, err)

    def test_unwritable_svg_leaves_no_report(self, capsys, data_dir):
        code, out, err = run(capsys, "survey", str(data_dir / "synthetic_n100.csv"),
                             "--svg", "/nonexistent/x.svg")
        self.assert_input_error(code, err)
        assert out == ""

    def test_unwritable_out_leaves_no_svg(self, capsys, tmp_path, data_dir):
        svg = tmp_path / "chart.svg"
        code, out, err = run(capsys, "survey", str(data_dir / "synthetic_n100.csv"),
                             "--trials", "100", "--svg", str(svg),
                             "--out", str(tmp_path / "missing" / "report.txt"))
        self.assert_input_error(code, err)
        assert out == "" and not svg.exists()

    @pytest.mark.parametrize("old, new", [
        ("AB,1,1,40", "AB,1,1," + "7" * 5000),
        ("AB,1,1,40", "AB,1,1," + "9" * 400),
        ("order,first,second,count", "order,first,second,count" + "x" * 5000),
        ("AB,1,1,40", "Q" * 3000 + ",1,1,40"),
    ])
    def test_long_fields_give_one_short_line(self, capsys, tmp_path, data_dir, old, new):
        path = tmp_path / "long.csv"
        path.write_text((data_dir / "synthetic_n100.csv").read_text().replace(old, new))
        code, out, err = run(capsys, "survey", str(path))
        self.assert_input_error(code, err)
        assert out == "" and len(err) < 200
        if new.startswith("AB,1,1,"):
            assert "exceeds the limit" in err and str(2**63 - 1) in err

    @pytest.mark.parametrize("count", ["12.5", "many", "1e3", ""])
    def test_non_integer_counts_say_so(self, capsys, tmp_path, data_dir, count):
        path = tmp_path / "bad.csv"
        path.write_text(
            (data_dir / "synthetic_n100.csv").read_text().replace("AB,1,1,40", f"AB,1,1,{count}"))
        code, out, err = run(capsys, "survey", str(path))
        self.assert_input_error(code, err)
        assert "is not an integer" in err

    @given(st.one_of(st.binary(max_size=300), count_files))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_survey_on_arbitrary_bytes_exits_0_or_2(self, capsys, tmp_path, data):
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        code, _, _ = run(capsys, "survey", str(path))
        assert code in (0, 2)


class TestCallCounts:
    """Deterministic cost counters: stacked work must not turn back into per-item calls."""

    @staticmethod
    def count_calls(monkeypatch, module, names):
        calls = {name: 0 for name in names}
        for name in names:
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_verify_makes_per_dimension_calls(self, capsys, monkeypatch):
        names = ["_validated_densities", "_validated_projectors", "logical_joints",
                 "logical_joint", "validate_density", "validate_projector"]
        calls = self.count_calls(monkeypatch, hilbert, names)
        code, _, _ = run(capsys, "verify", "--dim", "2-8", "--trials", "100", "--format", "json")
        assert code == 0
        dims = 7
        # 700 triples, 700 question pairs and 1000 commuting triples: per-item work
        # makes thousands of these calls.  The samplers validate nothing; the operational
        # joints validate their disturbed states once per block, and the witnesses their
        # rank-one questions
        assert calls["_validated_densities"] + calls["_validated_projectors"] <= 3 * dims + 8
        assert calls["logical_joints"] <= 16 * dims + 10
        assert calls["logical_joint"] <= 2  # the worked example
        assert calls["validate_density"] + calls["validate_projector"] <= 2  # its state and A

    def test_verify_samples_each_dimension_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, verify, ["_sampled_questions"])
        code, _, _ = run(capsys, "verify", "--dim", "2-8", "--trials", "5", "--format", "json")
        assert code == 0
        assert calls["_sampled_questions"] == 7  # shared by the hilbert and jordan suites

    def test_survey_reduces_each_interval_column_once(self, capsys, monkeypatch, data_dir):
        iterations = 700
        shapes = []
        original = survey._percentile_interval

        def percentile_interval(values, *args, **kwargs):
            shapes.append(np.shape(values))
            return original(values, *args, **kwargs)

        monkeypatch.setattr(survey, "_percentile_interval", percentile_interval)
        calls = self.count_calls(monkeypatch, survey, ["_resample", "_marginal_shift"])
        code, _, _ = run(capsys, "survey", str(data_dir / "clinton_gore_1997.csv"),
                         "--trials", str(iterations), "--format", "json")
        assert code == 0
        # one resample, four shared marginal shifts, one interval per column
        assert calls == {"_resample": 1, "_marginal_shift": 4}
        assert shapes == [(iterations,)] * 12

    def test_kd_builds_each_question_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, hilbert, [
            "rank_one_projector", "_validated_projectors", "validate_projector", "logical_joint",
            "logical_joints", "logical_joint_table", "operator_norm"])
        # np.linalg.norm(m, 2) calls the svd of the module that defines it
        linalg = inspect.unwrap(np.linalg.norm).__globals__
        svd, svd_calls = linalg["svd"], []
        monkeypatch.setitem(linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
        code, _, _ = run(capsys, "kd", "--dim", "24", "--format", "json")
        assert code == 0
        assert calls["validate_projector"] == 0 and calls["logical_joint"] == 0
        assert calls["rank_one_projector"] == 0
        assert calls["_validated_projectors"] == 2    # one stack of d questions per basis
        assert calls["logical_joints"] == 0 and calls["logical_joint_table"] == 1  # one table
        # valid input passes every check on its Frobenius norms alone
        assert calls["operator_norm"] == 0 and svd_calls == []

    @pytest.mark.parametrize("command, most", [("verify", 250), ("jordan-verify", 400)])
    def test_max_only_checks_solve_few_members(self, capsys, monkeypatch, command, most):
        """Checks that keep only the worst spectral norm solve few members (10,507 for
        verify and 28,007 for jordan-verify with one singular-value solve per member)."""
        linalg = inspect.unwrap(np.linalg.norm).__globals__
        svd, solved = linalg["svd"], []
        monkeypatch.setitem(linalg, "svd", lambda a, *args, **kwargs: solved.append(
            1 if a.ndim == 2 else len(a)) or svd(a, *args, **kwargs))
        code, _, _ = run(capsys, command, "--format", "json", "--seed", "42")
        assert code == 0
        assert sum(solved) <= most


def test_cli_import_loads_no_scipy(tmp_path):
    """numpy is the only runtime dependency: the CLI must not pull in scipy.

    In the same fresh interpreter, a jordan-verify run must not load
    ``numpy.ma`` either, which ``np.unique`` imports on first use.
    """
    src = str(Path(quasilogic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, quasilogic.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
             "argv = ['jordan-verify', '--dim', '2', '--trials', '5', '--out', sys.argv[1]]; "
             "print(quasilogic.cli.main(argv), 'numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "sweep.json")],
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines() == ["[]", "0 False"]


class TestArgumentHandling:
    def test_bad_dim_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--dim", "1"])
        assert exc.value.code == 2

    def test_negative_trials(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--trials", "-5"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "-5"],
        ["kd", "--seed", "-3"],
        ["jordan-verify", "--seed", "-1"],
        ["survey", "synthetic_n100.csv", "--seed", "-1"],
    ])
    def test_negative_seed_is_an_input_error(self, capsys, data_dir, argv):
        argv = [str(data_dir / arg) if arg.endswith(".csv") else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "jordan-verify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-nan", "1e400"])
    def test_non_finite_tolerance_is_an_input_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--dim", "2", "--trials", "5", f"--tol={tol}"])
        assert exc.value.code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--dim", "2,100", "--trials", "3000"],
        ["verify", "--dim", "1-8"],
        ["jordan-verify", "--dim", "2,100", "--trials", "3000"],
        ["jordan-verify", "--dim", "2-100000000"],
        ["kd", "--dim", "65"],
    ])
    def test_dimension_outside_range_is_rejected_before_any_work(
        self, capsys, monkeypatch, argv
    ):
        calls = []
        samplers = [(hilbert, name) for name in dir(hilbert) if name.startswith("sample_")]
        sweeps = [(verify, name) for name in ("run_all", "jordan_sweep_report", "jordan_suite")]
        for module, name in samplers + sweeps:
            monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "outside supported range [2, 64]" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("argv, repeat", [
        (["verify", "--dim", "2,2"], "dimension 2 repeated in '2,2'"),
        (["verify", "--dim", "2-4,3"], "dimension 3 repeated in '2-4,3'"),
        (["jordan-verify", "--dim", "3,2-4"], "dimension 3 repeated in '3,2-4'"),
        (["kd", "--dim", "5,5"], "dimension 5 repeated in '5,5'"),
    ])
    def test_repeated_dimension_is_an_input_error(self, capsys, argv, repeat):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --dim: {repeat}")

    @pytest.mark.parametrize("argv, message", [
        (["kd", "--dim", "x"], "--dim: expected a dimension, a range or a list such as"
                               " 2, 2-8 or 2,4,6, got 'x'"),
        (["verify", "--dim", "2-x"], "--dim: expected a dimension, a range or a list such as"
                                     " 2, 2-8 or 2,4,6, got '2-x'"),
        (["verify", "--seed", "abc"], "--seed: seed must be an integer, got 'abc'"),
        (["verify", "--trials", "1.5"], "--trials: trials must be an integer, got '1.5'"),
        (["jordan-verify", "--tol", "x"], "--tol: tol must be a number, got 'x'"),
        (["survey", "synthetic_n100.csv", "--trials", "1e4"],
         "--trials: trials must be an integer, got '1e4'"),
    ])
    def test_malformed_value_names_the_option_and_its_form(self, capsys, data_dir, argv, message):
        argv = [str(data_dir / arg) if arg.endswith(".csv") else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument {message}")
        assert "_parse_dims" not in err and "convert" not in err

    @pytest.mark.parametrize("option, value, message", [
        ("--confidence", "1.5", "confidence must be in (0, 1), got 1.5"),
        ("--confidence", "0", "confidence must be in (0, 1), got 0.0"),
        ("--confidence", "nan", "confidence must be in (0, 1), got nan"),
        ("--confidence", "abc", "confidence must be a number, got 'abc'"),
        ("--trials", "50", "trials must be at least 100, got 50"),
        ("--trials", "-3", "trials must be at least 100, got -3"),
        ("--trials", "10000001", "trials must be at most 10000000, got 10000001"),
        ("--trials", "100000000000000000000",
         "trials must be at most 10000000, got 100000000000000000000"),
    ])
    def test_survey_bootstrap_options_are_checked_before_the_file_is_read(
            self, capsys, monkeypatch, data_dir, option, value, message):
        loads = []
        monkeypatch.setattr(survey, "load_counts", lambda *a, **k: loads.append(a))
        with pytest.raises(SystemExit) as exc:
            cli.main(["survey", str(data_dir / "synthetic_n100.csv"), option, value])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"argument {option}: {message}")
        assert loads == []

    def test_survey_trials_limit_is_inclusive(self, data_dir):
        args = cli.build_parser().parse_args(
            ["survey", str(data_dir / "synthetic_n100.csv"), "--trials", "10000000"])
        assert args.trials == cli.MAX_BOOTSTRAP_TRIALS == 10**7

    @staticmethod
    def stub_sampling(monkeypatch):
        """Record every sampler and suite call in place of running it."""
        calls = []
        for name in [name for name in dir(hilbert) if name.startswith("sample_")]:
            monkeypatch.setattr(hilbert, name, lambda *a, _name=name, **k: calls.append(_name))
        monkeypatch.setattr(verify, "run_all", lambda *a, **k: calls.append("run_all") or [])
        monkeypatch.setattr(verify, "jordan_suite", lambda *a, **k: calls.append("suite") or [])
        monkeypatch.setattr(verify, "jordan_sweep_report", lambda *a, **k: calls.append(
            "sweep") or verify.FormalRealitySweep(0, [], np.inf, 0))
        return calls

    @pytest.mark.parametrize("argv, dim, entries", [
        (["verify", "--dim", "2", "--trials", "100000000000000000000"], 2, 4 * 10**20),
        (["jordan-verify", "--dim", "2", "--trials", "100000000000000000000"], 2, 4 * 10**20),
        (["verify", "--dim", "64", "--trials", "4096"], 64, 2**24),
        (["jordan-verify", "--dim", "2-64", "--trials", "1025"], 64, 1025 * 64**2),
        (["verify", "--dim", "8,3", "--trials", "65537"], 8, 65537 * 64),
    ])
    def test_trials_beyond_the_sample_limit_exit_2_before_any_work(
            self, capsys, monkeypatch, argv, dim, entries):
        calls = self.stub_sampling(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: --trials {argv[-1]} at dimension {dim} makes {entries} matrix"
                       " entries per stack; trials * dim**2 may be at most 4194304\n")
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["verify", "--dim", "64", "--trials", "1024"],
        ["jordan-verify", "--dim", "2,64", "--trials", "1024"],
        ["verify", "--dim", "2", "--trials", str(2**20)],
    ])
    def test_trials_at_the_sample_limit_are_accepted(self, capsys, monkeypatch, argv):
        calls = self.stub_sampling(monkeypatch)
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert calls in (["run_all"], ["sweep", "suite"])

    def test_seed_zero_is_accepted(self, capsys):
        code, _, _ = run(capsys, "jordan-verify", "--dim", "2", "--trials", "5", "--seed", "0")
        assert code == 0


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == quasilogic.__version__


LAYERS = (logic, hilbert, jordan, survey, verify)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_layer_all_lists_exactly_its_public_api(layer):
    unresolved = [name for name in layer.__all__ if not hasattr(layer, name)]
    defined = {
        name for name, value in vars(layer).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == layer.__name__
    }
    assert unresolved == []
    assert sorted(defined - set(layer.__all__)) == []
    assert len(set(layer.__all__)) == len(layer.__all__)


def test_package_all_reexports_the_layer_objects():
    for name in quasilogic.__all__:
        if name == "__version__":
            continue
        owners = [layer for layer in LAYERS if name in layer.__all__]
        assert len(owners) == 1, name
        assert getattr(quasilogic, name) is getattr(owners[0], name), name


def test_every_layer_name_has_a_caller_in_the_package_or_the_demos():
    """Each name in a layer's ``__all__`` is loaded, as a name or an attribute, somewhere
    in ``src/quasilogic`` or ``demos`` outside its own top-level definition; so no public
    name exists only for the tests.  ``__all__`` entries and docstrings are strings, and
    the package re-exports are imports, so neither counts."""
    root = Path(__file__).resolve().parent.parent
    loaded = set()
    for path in sorted((root / "src" / "quasilogic").glob("*.py")) + sorted((root / "demos").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            loaded |= {node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(top)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and isinstance(node.ctx, ast.Load)} - {getattr(top, "name", None)}
    assert sorted(name for layer in LAYERS for name in layer.__all__ if name not in loaded) == []


def removed_names(version: str) -> set[str]:
    """The names README's "Since <version>" note lists as removed: each backticked name
    that opens one of its bullets, before the colon, without its arguments."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    note = readme.split(f"\nSince {version}, ")[1].split("\n\n")[0]
    heads = [bullet.split(":")[0] for bullet in note.split("\n- ")[1:]]
    return {name.split("(")[0] for head in heads for name in re.findall(r"`([^`]+)`", head)}


@pytest.mark.parametrize("version, count", [("0.4.0", 16), ("0.5.0", 5), ("0.7.0", 12)])
def test_removed_names_stay_absent(version, count):
    """A method named after its class is gone from that class; any other name from the
    package and every layer."""
    names = removed_names(version)
    assert len(names) == count, sorted(names)
    classes = {name: getattr(layer, name) for layer in LAYERS for name in layer.__all__
               if inspect.isclass(getattr(layer, name))}
    for qualified in names:
        owner, _, name = qualified.rpartition(".")
        for module in [classes[owner]] if owner in classes else (quasilogic,) + LAYERS:
            assert not hasattr(module, name), qualified
            assert name not in getattr(module, "__all__", ()), qualified


RETIRED_PARAMETERS = [
    (hilbert.validate_projector, "max_dim"), (hilbert.validate_density, "max_dim"),
    (hilbert.rank_one_projector, "tol"), (hilbert.rank_one_projectors, "tol"),
    (hilbert.lueders_update, "tol"), (hilbert.lueders_updates, "tol"),
    (hilbert.nonselective_state, "tol"), (hilbert.weak_value, "tol"),
    (jordan.jordan_product, "tol"), (jordan.mapped_conjunction, "tol"),
    (jordan.idempotency_residuals, "tol"), (jordan.formal_reality_residuals, "tol"),
    (survey.parse_counts, "label_a"), (survey.parse_counts, "label_b"),
    (survey.load_counts, "label_a"), (survey.load_counts, "label_b"),
    (survey.ReconstructionReport.to_json, "indent"),
]


@pytest.mark.parametrize("function, parameter", RETIRED_PARAMETERS,
                         ids=[f"{f.__qualname__}-{p}" for f, p in RETIRED_PARAMETERS])
def test_retired_parameters_stay_absent(function, parameter):
    """Parameters no caller set, retired in 0.8.0 (README's "Since 0.8.0" note)."""
    assert parameter not in inspect.signature(function).parameters


def test_jordan_verify_builds_one_generator_per_stream(capsys, monkeypatch):
    built = []
    original = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    code, _, _ = run(capsys, "jordan-verify", "--format", "json")
    assert code == 0
    # the sweep, question and product streams of each of the seven dimensions
    assert len(built) <= 3 * 7


def test_one_process_builds_the_parser_once(capsys, monkeypatch, data_dir):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for argv in (["survey", str(data_dir / "synthetic_n100.csv")],
                 ["verify", "--dim", "2", "--trials", "5"], ["kd", "--dim", "2"]):
        assert run(capsys, *argv)[0] == 0
    # the shared parser still prints what a new one prints
    for argv, expected in ((["--version"], f"quasilogic {quasilogic.__version__}\n"),
                           (["--help"], original().format_help())):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected
    assert len(built) == 1


def without(out: str, fields) -> str:
    """JSON output re-serialised as the CLI writes it, without its version and ``fields``.

    A field is a top-level key, ``config.KEY`` (dropped if present) or
    ``CHECK NAME:KEY`` for a key of one check.
    """
    data = json.loads(out)
    del data["config"]["version"]
    checks = {check["name"]: check for check in data.get("checks", [])}
    for field in fields:
        if field.startswith("config."):
            data["config"].pop(field.removeprefix("config."), None)
        elif ":" in field:
            name, key = field.split(":")
            del checks[name][key]
        else:
            del data[field]
    return json.dumps(data, indent=2) + "\n"


def pinned(out: str, version: str, fields) -> str:
    """What a pin hashes: ``out`` at ``version``, or without its fields that changed since."""
    if fields:
        return without(out, fields)
    return out.replace(f'"version": "{quasilogic.__version__}"', f'"version": "{version}"')


# The fields that 0.3.0 changed in their last bits, where kd and verify read the
# Jordan route, Tr((rho∘A)B) since 0.3.0 (and kd no longer takes --trials).
KD_CHANGED = ("config.trials", "max_gap_to_logical_joint")
CLASSICAL_CHANGED = ("hilbert.classical_triples_nonnegative:residual",
                     "hilbert.classical_triples_nonnegative:detail")
# The field whose residuals 0.6.0 changed in their last bits: the formal-reality sweep
# takes each norm as the largest absolute eigenvalue in place of the largest singular value.
SWEEP_CHANGED = ("formal_reality_sweep",)
# The fields of the check that 0.5.0 made exact: the lowest cell over all states
# of the sampled question pairs in place of a random search's best draw.
NEGATIVITY_CHANGED = ("hilbert.negativity_search_floor:residual",
                      "hilbert.negativity_search_floor:tol",
                      "hilbert.negativity_search_floor:detail")

# sha256 of the output of quasilogic 0.1.0 with its version string, for
# commands that draw nothing from the samplers that changed in 0.2.0; where
# fields are listed, of the output without them and without its version
UNCHANGED_OUTPUTS = [
    (["kd", "--dim", "24", "--seed", "5", "--format", "json"],
     "9abf817672f8c3a91f1deea0a4fd963e7230e81e35344992fdc24d16c2108e80", KD_CHANGED),
    (["demo", "--format", "json"],
     "f6a82446a44f41e996359356a22302b25f7662f3db0826d22dbd490621b23e8d", ()),
    (["survey", "synthetic_n100.csv"],
     "85cf8871739a95e381f77f081d036d393f540aba8513f0b45c530640f2e8571e", ()),
    (["survey", "clinton_gore_1997.csv"],
     "6a9663780868068d1854103d0176113d38c3afb326f2178dd66b6339aaa56f6f", ()),
    (["survey", "synthetic_n100.csv", "--format", "json"],
     "7642a4966d11508758289fd14c879afc640aac32b9facb9a9dde324cc570a3a2", ()),
    (["survey", "clinton_gore_1997.csv", "--format", "json"],
     "fb7b28191e450dc70b630aa4671c4ba43fdca9860242f81a98ab944687a730e2", ()),
]


@pytest.mark.parametrize("argv, digest, fields", UNCHANGED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in UNCHANGED_OUTPUTS])
def test_output_unchanged_since_0_1_0(capsys, data_dir, argv, digest, fields):
    argv = [str(data_dir / arg) if arg.endswith(".csv") else arg for arg in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(pinned(out, "0.1.0", fields).encode()).hexdigest() == digest


# sha256 of sampled output at 0.2.0 with its version string; every float of it
# depends on the samplers and the kernels, so a refactor must leave them alone;
# where fields are listed, of the output without them and without its version
SAMPLED_OUTPUTS = [
    (["verify", "--format", "json"],
     "a0b806dedcb266defec83bd30d8d514226a052acce5db732435f2752acc6dc6c",
     ("hilbert.table_marginality:residual",) + CLASSICAL_CHANGED + NEGATIVITY_CHANGED),
    (["jordan-verify", "--format", "json"],
     "76958b6f8c554dfbcf48747222b55d13919331942c8b4dfa2f4717e5ac22a7f5", SWEEP_CHANGED),
    (["verify", "--dim", "2-4", "--trials", "37", "--seed", "7", "--format", "json"],
     "3f281da4404638352b731bda2419697e902e233fe5c89001f23693a6129b7d2d",
     ("hilbert.joint_operational_vs_algebraic:residual",) + CLASSICAL_CHANGED + NEGATIVITY_CHANGED),
]


@pytest.mark.parametrize("argv, digest, fields", SAMPLED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in SAMPLED_OUTPUTS])
def test_sampled_output_unchanged_since_0_2_0(capsys, argv, digest, fields):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(pinned(out, "0.2.0", fields).encode()).hexdigest() == digest


# sha256 at 0.3.0, with its version string, of the outputs whose fields above changed;
# where fields are listed, of the output without them and without its version
CHANGED_OUTPUTS = [
    (["kd", "--dim", "24", "--seed", "5", "--format", "json"],
     "3552163b0f6b31173dd381e8c8a7b72f4aea7bb773f3dc064f39429fe9106cc3", ()),
    (["verify", "--format", "json"],
     "f63fec87fe048a1aeb84fa8f6a92703d40c02cb8879ed05130e720b1bfcadbbf", NEGATIVITY_CHANGED),
    (["verify", "--dim", "2-4", "--trials", "37", "--seed", "7", "--format", "json"],
     "583bfd29ac6f422a497f4f0e4ef7f319a8857d4e840fcc82f02b83fe33b20d53", NEGATIVITY_CHANGED),
]


@pytest.mark.parametrize("argv, digest, fields", CHANGED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in CHANGED_OUTPUTS])
def test_output_pinned_at_0_3_0(capsys, argv, digest, fields):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(pinned(out, "0.3.0", fields).encode()).hexdigest() == digest


# sha256 at 0.5.0, with its version string, of the outputs whose fields above changed
NEGATIVITY_OUTPUTS = [
    (["verify", "--format", "json"],
     "16e2bb283493b3de10abd507a633c189d6136345e4228a5ead951ce62f0580bb"),
    (["verify", "--dim", "2-4", "--trials", "37", "--seed", "7", "--format", "json"],
     "550d8894bcf829d0341a7c8f7ae2c04c9058813ae70c0b6157c61ee824f3564d"),
]


@pytest.mark.parametrize("argv, digest", NEGATIVITY_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in NEGATIVITY_OUTPUTS])
def test_output_pinned_at_0_5_0(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(pinned(out, "0.5.0", ()).encode()).hexdigest() == digest


# sha256 at 0.6.0, with its version string, of the output whose field above changed
SWEEP_OUTPUTS = [
    (["jordan-verify", "--format", "json"],
     "2a23e7594db3146a8038165164add230931521c9b8722495238bef5d4b2b5c34"),
]


@pytest.mark.parametrize("argv, digest", SWEEP_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in SWEEP_OUTPUTS])
def test_output_pinned_at_0_6_0(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(pinned(out, "0.6.0", ()).encode()).hexdigest() == digest


# sha256 of kd's text output, which holds no version string and is unchanged
# since 0.3.0, and of its CSV output, whose fields are plain floats since 0.3.1
KD_OUTPUTS = [
    (["kd", "--dim", "24", "--seed", "5"],
     "b985507ae676a915b34e4af5c73878bf2484e35b77b9838da31e0a24a0545934"),
    (["kd", "--dim", "24", "--seed", "5", "--format", "csv"],
     "ae2ba5e4c189408c9616afd27211bad69c228a5b57639d2e5eff72cfa80d164c"),
]


@pytest.mark.parametrize("argv, digest", KD_OUTPUTS, ids=[" ".join(argv) for argv, _ in KD_OUTPUTS])
def test_kd_output_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
