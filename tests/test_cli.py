"""Command-line interface tests: exit codes, formats, determinism."""

import argparse
import ast
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
import quasilogic.errors
import pins
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
            joints = hilbert.logical_joints(rho, question, questions_b, "jordan")
            max_gap = max(max_gap, float(abs(table[i].real - joints).max()))
        total = complex(table.sum())
        reference = {
            "config": {"version": quasilogic.__version__, "dims": [dim], "seed": seed},
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

    def test_tol_is_not_an_option(self, capsys):
        """kd checks only the bases it samples itself, so a --tol could only make it exit 2."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["kd", "--tol", "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
        code, out, _ = run(capsys, "kd", "--dim", "2", "--format", "json")
        assert code == 0 and "tol" not in json.loads(out)["config"]

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
        assert err == f"error: kd takes a single dimension, got {list(cli._parse_dims(spec))}\n"


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
        assert out == "" and err == ("error: input is not UTF-8 text: 'utf-8' codec can't decode"
                                     " byte 0xe9 in position 15: invalid continuation byte\n")

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
            assert "exceeds the limit" in err and str(survey.MAX_GROUP_TOTAL) in err

    @pytest.mark.parametrize("count", ["12.5", "many", "1e3", ""])
    def test_non_integer_counts_say_so(self, capsys, tmp_path, data_dir, count):
        path = tmp_path / "bad.csv"
        path.write_text(
            (data_dir / "synthetic_n100.csv").read_text().replace("AB,1,1,40", f"AB,1,1,{count}"))
        code, out, err = run(capsys, "survey", str(path))
        self.assert_input_error(code, err)
        assert "is not an integer" in err

    def test_main_alone_reports_an_input_error(self):
        """A subcommand raises a QuasilogicError or an OSError for bad input, and ``main``
        alone writes the error line and returns EXIT_INPUT_ERROR."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        reporters = {function.name for function in ast.walk(tree)
                     if isinstance(function, ast.FunctionDef)
                     for node in ast.walk(function)
                     if isinstance(node, ast.Name) and node.id == "EXIT_INPUT_ERROR"
                     or isinstance(node, ast.Attribute) and node.attr == "stderr"}
        assert reporters == {"main"}

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
        names = ["_validated_densities", "_validated_projectors", "logical_joint",
                 "validate_density", "validate_projector"]
        calls = self.count_calls(monkeypatch, hilbert, names)
        code, _, _ = run(capsys, "verify", "--dim", "2-8", "--trials", "100", "--format", "json")
        assert code == 0
        # 700 triples, 700 question pairs and 1000 commuting triples: per-item work
        # makes thousands of these calls.  The samplers and the kernels validate nothing
        # (test_verify_builds_no_post_state); the worked example validates its state and A
        assert calls["_validated_densities"] + calls["_validated_projectors"] == 2
        assert calls["logical_joint"] <= 2  # the worked example
        assert calls["validate_density"] + calls["validate_projector"] <= 2  # its state and A

    def test_verify_builds_no_post_state(self, capsys, monkeypatch):
        """The operational joints sum sequential branches: no Lüders update, and no state
        check but the worked example's."""
        calls = self.count_calls(monkeypatch, hilbert, ["nonselective_states", "_validated_densities"])
        code, _, _ = run(capsys, "verify", "--dim", "2-8", "--trials", "100", "--format", "json")
        assert code == 0
        assert calls == {"nonselective_states": 0, "_validated_densities": 1}

    def test_verify_forms_each_table_product_once_per_block(self, capsys, monkeypatch):
        """A Jordan table forms rho∘A and rho∘Ā once per block, not once per cell; the survey
        round trip stacks its sequential probabilities, one call per order and cell
        (test_each_product_is_formed_once_per_block counts them)."""
        tables, symmetrised = hilbert.quasi_prob_tables, hilbert._symmetrised
        count = {"blocks": 0, "products": 0, "inside": False}

        def counting_tables(rho, a, b, method="operational", tol=hilbert.DEFAULT_TOL):
            if method != "jordan":
                return tables(rho, a, b, method, tol)
            n = max(len(m) if np.ndim(m) == 3 else 1 for m in (rho, a, b))
            count["blocks"] += len(hilbert._blocks(n, np.shape(a)[-1], hilbert._BLOCK_ENTRIES))
            count["inside"] = True
            try:
                return tables(rho, a, b, method, tol)
            finally:
                count["inside"] = False

        def counting_symmetrised(x, y):
            count["products"] += count["inside"]
            return symmetrised(x, y)

        monkeypatch.setattr(hilbert, "quasi_prob_tables", counting_tables)
        monkeypatch.setattr(hilbert, "_symmetrised", counting_symmetrised)
        calls = self.count_calls(monkeypatch, hilbert, [
            "model_sequential_probabilities", "nonselective_states"])
        code, _, _ = run(capsys, "verify", "--dim", "2-8", "--trials", "100", "--format", "json")
        assert code == 0
        # 7 dimensions of sampled triples, one or two blocks each, and 4 of commuting triples
        assert count["blocks"] >= 11 and count["products"] <= 2 * count["blocks"]
        assert calls == {"model_sequential_probabilities": 0, "nonselective_states": 0}

    # Calls at verify's and jordan-verify's defaults (--dim 2-8, 100 and 1000 trials), where
    # each dimension is one block of the suites; 0.25.0's verify counts in brackets.
    # Sequential: 7 branches per dimension (9), the round trip's operational table 4 (8)
    # and its two-order tables 8, the worked example's two joints 4 and its two sequential
    # probabilities 2.  Born: the 12 tables' marginals 24, which the sampled triples' joints
    # read (their own 18), the round trip's table 2 (4) and the worked example 2.  The worked
    # example's two joints are the only logical_joints calls (27); the mapped XOR is formed
    # forward and backward once per dimension for both suites (5 per dimension, 4 at
    # 0.26.0), with no xor_expectations (21); products: 28 from tables, 36 from the least
    # cells over states, which the Jordan marginality reads, 4 from the floor witness and 35
    # from the other Jordan-product checks (103, with the Jordan joints; 94 at 0.26.0, with 56
    # from the jordan suite).  The four cell products A_i∘B_j take one call per cell in each
    # of the 9 blocks and in the witness (73 calls at 0.30.0, which formed them in one slower
    # call on stacked copies of the operands).  jordan-verify forms the same four, 5 products
    # of Hermitians and 2 mapped XORs per dimension (8 products at 0.30.0).
    PRODUCTS = {
        "verify": {"sequential_probabilities": 67, "born_probabilities": 28, "logical_joints": 2,
                   "xor_expectations": 0, "_mapped_xor": 14, "_symmetrised": 103},
        "jordan-verify": {"sequential_probabilities": 0, "born_probabilities": 0,
                          "logical_joints": 0, "xor_expectations": 0, "_mapped_xor": 14,
                          "_symmetrised": 63},
    }

    @pytest.mark.parametrize("command", PRODUCTS)
    def test_each_product_is_formed_once_per_block(self, capsys, monkeypatch, command):
        calls = self.count_calls(monkeypatch, hilbert, list(self.PRODUCTS[command]))
        code, _, _ = run(capsys, command, "--dim", "2-8", "--format", "json")
        assert code == 0
        assert calls == self.PRODUCTS[command]

    def test_verify_samples_each_dimension_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, verify, ["_sampled_questions"])
        code, _, _ = run(capsys, "verify", "--dim", "2-8", "--trials", "5", "--format", "json")
        assert code == 0
        assert calls["_sampled_questions"] == 7  # each shared by hilbert and jordan checks

    @pytest.mark.parametrize("svg", [False, True])
    def test_survey_csv_runs_no_bootstrap(self, capsys, monkeypatch, tmp_path, data_dir, svg):
        """CSV and SVG output print point estimates only."""
        calls = self.count_calls(monkeypatch, survey, ["_bootstrap_intervals"])
        chart = ["--svg", str(tmp_path / "chart.svg")] if svg else []
        code, _, _ = run(capsys, "survey", str(data_dir / "clinton_gore_1997.csv"),
                         "--format", "csv", *chart)
        assert code == 0
        assert calls == {"_bootstrap_intervals": 0}

    @pytest.mark.parametrize("form", ["json", "text"])
    def test_survey_builds_each_group_pmf_once(self, capsys, monkeypatch, data_dir, form):
        keys = []
        original = survey._sum_pmf

        def sum_pmf(k_minus, k_zero, k_plus, grids):
            keys.append((k_minus, k_zero, k_plus))
            return original(k_minus, k_zero, k_plus, grids)

        monkeypatch.setattr(survey, "_sum_pmf", sum_pmf)
        calls = self.count_calls(monkeypatch, survey,
                                 ["_inverse_cdf", "_fine_lattice", "_frequency_grid"])
        code, _, _ = run(capsys, "survey", str(data_dir / "clinton_gore_1997.csv"),
                         "--trials", "700", "--format", form)
        assert code == 0
        # ten searches for the twelve intervals, the order differences at (1, 1) and (1, 0)
        # being those at (0, 0) and (0, 1); four pmfs per order group, the others their
        # reversals; one ordering per fine lattice and one frequency grid per FFT size
        assert calls == {"_inverse_cdf": 10, "_fine_lattice": 4, "_frequency_grid": 2}
        assert len(keys) == len(set(keys)) == 8

    @pytest.mark.parametrize("form, tables", [("json", 1), ("text", 1), ("csv", 0)])
    def test_kd_builds_each_question_once(self, capsys, monkeypatch, form, tables):
        calls = self.count_calls(monkeypatch, hilbert, [
            "rank_one_projector", "rank_one_projectors", "_validated_projectors",
            "validate_projector", "logical_joint", "logical_joints", "logical_joint_table",
            "operator_norm", "_norm"])
        # np.linalg.norm(m, 2) calls the svd of the module that defines it
        linalg = inspect.unwrap(np.linalg.norm).__globals__
        svd, svd_calls = linalg["svd"], []
        monkeypatch.setitem(linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
        code, _, _ = run(capsys, "kd", "--dim", "24", "--format", form)
        assert code == 0
        assert calls["validate_projector"] == 0 and calls["logical_joint"] == 0
        assert calls["rank_one_projector"] == 0
        assert calls["_validated_projectors"] == 0    # built from checked vectors
        # one table of one question stack per basis, built only where the gap is printed
        assert calls["logical_joints"] == 0 and calls["logical_joint_table"] == tables
        assert calls["rank_one_projectors"] == 2 * tables
        # valid input passes every check on its Frobenius norms alone
        assert calls["operator_norm"] == calls["_norm"] == 0 and svd_calls == []

    @pytest.mark.parametrize("command, most, most_grams", [
        ("verify", 200, 300), ("jordan-verify", 180, 360)])
    def test_max_only_checks_solve_few_members(self, capsys, monkeypatch, command, most,
                                               most_grams):
        """Checks that keep only the worst spectral norm solve few members and form few Gram
        products (10,507 solves for verify and 28,007 for jordan-verify with one singular-
        value solve per member).  At seed 42, 0.23.0 solved 106 and 92 members and formed
        2,948 and 3,881 Gram products; 0.24.0, which solves the member of the largest
        Frobenius norm before it bounds the others, solves 153 and 139 and forms 236 and 283."""
        linalg = inspect.unwrap(np.linalg.norm).__globals__
        svd, solved = linalg["svd"], []
        monkeypatch.setitem(linalg, "svd", lambda a, *args, **kwargs: solved.append(
            1 if a.ndim == 2 else len(a)) or svd(a, *args, **kwargs))
        gram_norms, grams = hilbert._gram_norms, []
        monkeypatch.setattr(hilbert, "_gram_norms", lambda m: grams.append(len(m)) or gram_norms(m))
        code, _, _ = run(capsys, command, "--format", "json", "--seed", "42")
        assert code == 0
        assert sum(solved) <= most
        assert sum(grams) <= most_grams

    @pytest.mark.parametrize("command, trials, solved_first, most", [
        pytest.param("jordan-verify", 1000, 1, 1_300, id="jordan-verify"),  # d = 2 of 2-8
        pytest.param("verify", 100, 5, 600, id="verify"),  # d = 2-6 of 2-8, at 100 trials
    ])
    def test_formal_reality_sweep_solves_few_sampled_matrices(
            self, capsys, hermitian_solves, command, trials, solved_first, most):
        """The sweep solves a pair sum or a sampled matrix only where it can set a reported
        value.  jordan-verify: 14,007 solves in all at 0.15.0, which solved every matrix;
        7,028 at 0.16.0, which solved every sum; 1,060 at 0.20.0 (1,057 at seeds 1 and 7),
        which bounds the sums at d = 3-8 and carries the least ratio from one dimension to
        the next; 1,062 in 22 calls at 0.21.0, where a solved matrix carries exact bounds;
        1,053 in 21 calls at 0.22.0, whose samples are new (1,056 and 1,054 at seeds 1 and 7).
        verify: 720 before 0.20.0, 517 since, and 514 in 11 calls at 0.22.0."""
        code, _, _ = run(capsys, command, "--format", "json", "--seed", "42")
        assert code == 0
        # each dimension that solves its sums first does so in one call, and d = 2 in the
        # first; every other call solves at most ten matrices
        assert hermitian_solves[0] == trials
        assert [n for n in hermitian_solves if n > 10] == [trials] * solved_first
        assert sum(hermitian_solves) <= most


def fresh_python(probe: str, *argv: str, env: dict | None = None) -> list[str]:
    """stdout lines of ``python -c probe argv...`` in a fresh interpreter on this package,
    with ``env`` added to this process's environment."""
    src = str(Path(quasilogic.__file__).resolve().parent.parent)
    env = os.environ | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe, *argv],
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    return result.stdout.splitlines()


def test_cli_import_loads_no_scipy(tmp_path):
    """numpy is the only runtime dependency: the CLI must not pull in scipy.

    In the same fresh interpreter, a jordan-verify run must not load
    ``numpy.ma`` either, which ``np.unique`` imports on first use.
    """
    probe = ("import sys, quasilogic.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
             "argv = ['jordan-verify', '--dim', '2', '--trials', '5', '--out', sys.argv[1]]; "
             "print(quasilogic.cli.main(argv), 'numpy.ma' in sys.modules)")
    assert fresh_python(probe, str(tmp_path / "sweep.json")) == ["[]", "0 False"]


def test_logic_layer_loads_no_numpy():
    """The logic is exact rational arithmetic: importing the package and its logic layer,
    then running the truth-table demo, leaves numpy unloaded."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "01_truth_tables.py"
    probe = ("import runpy, sys, quasilogic, quasilogic.logic; "
             "print('numpy' in sys.modules); "
             "runpy.run_path(sys.argv[1], run_name='__main__'); "
             "print('numpy' in sys.modules)")
    lines = fresh_python(probe, str(demo))
    assert len(lines) > 2 and (lines[0], lines[-1]) == ("False", "False")


# Runs each argv of the JSON list argv[1] through main in this interpreter and prints, as
# JSON, the numpy and quasilogic modules loaded by the import and then after each run, with
# each run's exit code and stderr lines.
LOADS_PROBE = """
import contextlib, io, json, sys
import quasilogic.cli
loaded = lambda: sorted(m for m in sys.modules if m == "numpy" or m.startswith("quasilogic."))
report = [loaded()]
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = quasilogic.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, err.getvalue().splitlines(), loaded()])
print(json.dumps(report))
"""


def loads(*argvs: list[str]) -> list:
    """LOADS_PROBE's report on ``argvs``, run in order in one fresh interpreter."""
    return json.loads(fresh_python(LOADS_PROBE, json.dumps(argvs))[0])


def test_commands_that_compute_nothing_load_no_numpy(tmp_path, data_dir):
    """Importing the CLI loads no layer; truth-table loads the logic layer alone; and
    --version, a usage error and a survey file that cannot be read or parsed exit before
    numpy loads, each input error with one line."""
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"# label_a = caf\xe9\n" + (data_dir / "synthetic_n100.csv").read_bytes())
    schema = tmp_path / "schema.csv"
    schema.write_text("order,first,second\nAB,0,0\n")
    report = loads(["truth-table"], ["truth-table", "--format", "json"],
                   ["truth-table", "--format", "csv"], ["--version"], ["verify", "--dim", "1"],
                   ["survey", str(tmp_path / "missing.csv")], ["survey", str(latin1)],
                   ["survey", str(schema)])
    assert report[0] == ["quasilogic.cli", "quasilogic.errors"]
    runs = report[1:]
    assert [code for code, _, _ in runs] == [0, 0, 0, 0, 2, 2, 2, 2]
    assert runs[0][2] == ["quasilogic.cli", "quasilogic.errors", "quasilogic.logic"]
    assert runs[-1][2] == ["quasilogic.cli", "quasilogic.errors", "quasilogic.logic",
                           "quasilogic.survey"]
    assert not any("numpy" in modules for _, _, modules in runs)
    for _, err, _ in runs[-3:]:
        assert len(err) == 1 and err[0].startswith("error: ")
    assert "input file not found" in runs[-3][1][0]
    assert "not UTF-8" in runs[-2][1][0] and "expected header" in runs[-1][1][0]


def test_a_command_that_computes_loads_every_layer():
    """kd uses hilbert alone, but loads numpy and all five layers: perfbench/tracing.py reads
    each layer from sys.modules after its warm-up batch, whatever the workload."""
    (code, _, modules), = loads(["kd", "--dim", "2"])[1:]
    assert code == 0
    assert modules == ["numpy"] + [f"quasilogic.{name}" for name in
                                   ("cli", "errors", "hilbert", "jordan", "logic", "survey", "verify")]


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


def test_each_public_object_has_one_import_path():
    """The package exports only its version and binds no layer's public name, and no
    object is listed in two layers' ``__all__``."""
    assert quasilogic.__all__ == ["__version__"]
    public = {name for layer in LAYERS for name in layer.__all__}
    assert sorted(public & set(vars(quasilogic))) == []
    listed = {}
    for layer in LAYERS:
        for name in layer.__all__:
            listed.setdefault(id(getattr(layer, name)), []).append(f"{layer.__name__}.{name}")
    assert [paths for paths in listed.values() if len(paths) > 1] == []


def test_every_layer_name_has_a_caller_in_the_package_or_the_demos():
    """Each name in a layer's ``__all__`` is loaded, as a name or an attribute, somewhere
    in ``src/quasilogic`` or ``demos`` outside its own top-level definition; so no public
    name exists only for the tests.  ``__all__`` entries and docstrings are strings, so
    they do not count."""
    root = Path(__file__).resolve().parent.parent
    loaded = set()
    for path in sorted((root / "src" / "quasilogic").glob("*.py")) + sorted((root / "demos").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            loaded |= {node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(top)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and isinstance(node.ctx, ast.Load)} - {getattr(top, "name", None)}
    assert sorted(name for layer in LAYERS for name in layer.__all__ if name not in loaded) == []


def test_operands_and_cell_order_are_each_decided_in_one_place():
    """``src/quasilogic`` and ``demos`` read no ``.matrix`` and name no ``Projector`` or
    ``DensityState``, so states and questions are plain arrays whose shape ``_operands``
    alone checks; and ``hilbert`` and ``verify`` call no ``reversed(...CELLS)``, so every
    table, kernel and tie-break there follows ``logic.CELLS``."""
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted((root / "src" / "quasilogic").glob("*.py")) + sorted((root / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "matrix"
                    and isinstance(node.ctx, ast.Load)):
                found.append(f"{path.name}:{node.lineno} reads .matrix")
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if names & {"Projector", "DensityState"}:
                found.append(f"{path.name}:{node.lineno} names a retired operand class")
            if (path.name in ("hilbert.py", "verify.py") and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "reversed"
                    and "CELLS" in ast.unparse(node)):
                found.append(f"{path.name}:{node.lineno} reverses the cell order")
    assert found == []


def removed_names(version: str) -> set[str]:
    """The names README's "Since <version>" note lists as removed: each backticked name
    that opens one of its bullets, before the colon, without its arguments."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    note = readme.split(f"\nSince {version}, ")[1].split("\n\n")[0]
    heads = [bullet.split(":")[0] for bullet in note.split("\n- ")[1:]]
    return {name.split("(")[0] for head in heads for name in re.findall(r"`([^`]+)`", head)}


@pytest.mark.parametrize("version, count",
                         [("0.4.0", 16), ("0.5.0", 5), ("0.7.0", 12), ("0.10.0", 36),
                          ("0.14.0", 2), ("0.27.0", 4), ("0.28.0", 5),
                          ("0.31.0", 2)])
def test_removed_names_stay_absent(version, count):
    """A method named after its class is gone from that class; a name qualified by
    ``quasilogic.`` from the package, whose layer may keep it; any other name from the
    package, the errors module and every layer."""
    names = removed_names(version)
    assert len(names) == count, sorted(names)
    classes = {name: getattr(layer, name) for layer in LAYERS for name in layer.__all__
               if inspect.isclass(getattr(layer, name))}
    owners = dict(classes, quasilogic=quasilogic)
    for qualified in names:
        owner, _, name = qualified.rpartition(".")
        for module in [owners[owner]] if owner in owners else (quasilogic, quasilogic.errors, *LAYERS):
            assert not hasattr(module, name), qualified
            assert name not in getattr(module, "__all__", ()), qualified


RETIRED_PARAMETERS = [
    (hilbert.validate_projector, "max_dim"), (hilbert.validate_density, "max_dim"),
    (hilbert.rank_one_projector, "tol"), (hilbert.rank_one_projectors, "tol"),
    (hilbert.nonselective_state, "tol"), (hilbert.nonselective_states, "tol"),
    (hilbert.weak_value, "tol"),
    (hilbert.xor_expectation, "method"), (hilbert.xor_expectation, "tol"),
    (hilbert.xor_expectations, "method"), (hilbert.xor_expectations, "tol"),
    (jordan.jordan_product, "tol"),
    (jordan.idempotency_residuals, "tol"), (jordan.formal_reality_residuals, "tol"),
    (survey.parse_counts, "label_a"), (survey.parse_counts, "label_b"),
    (survey.load_counts, "label_a"), (survey.load_counts, "label_b"),
    (survey.ReconstructionReport.to_json, "indent"),
    (verify.jordan_suite, "questions"),
]


@pytest.mark.parametrize("function, parameter", RETIRED_PARAMETERS,
                         ids=[f"{f.__qualname__}-{p}" for f, p in RETIRED_PARAMETERS])
def test_retired_parameters_stay_absent(function, parameter):
    """Parameters no caller set, retired in 0.8.0 (README's "Since 0.8.0" note),
    ``jordan_suite``'s ``questions``, retired in 0.27.0 when ``run_all`` stopped setting it,
    and the route and tolerance of ``xor_expectation(s)``, retired in 0.28.0 with the
    mapped-operator route."""
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


@pytest.mark.parametrize("pin", pins.PINS, ids=pins.label)
def test_output_pinned(tmp_path, pin):
    host = pins.profile()
    if pins.expected(pin, host) is None:
        pytest.fail(f"no pin for host profile {host}: take it with python tests/take_pins.py",
                    pytrace=False)
    assert pins.digest(pin, pins.output(pin, tmp_path)) == pins.expected(pin, host)


def test_every_pin_has_a_digest_per_profile():
    for pin in pins.PINS:
        assert set(pin.digests) in ({"*"}, set(pins.PROFILES)), pins.label(pin)


def test_every_command_and_format_has_a_pin():
    """Each --format choice of each subcommand, its default included, has a pinned row."""
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    offered = {(name, form) for name, command in commands.items()
               for action in command._actions if action.dest == "format"
               for form in action.choices}
    pinned = set()
    for pin in pins.PINS:
        argv = pin.argv
        form = argv[argv.index("--format") + 1] if "--format" in argv else None
        pinned.add((argv[0], form or commands[argv[0]].get_default("format")))
    assert offered - pinned == set()


@pytest.mark.parametrize("command", ["verify", "jordan-verify"])
def test_verdicts_and_residuals_agree_across_profiles(capsys, command):
    """Under the AVX-only profile, in a fresh interpreter, the output is the host's but for
    each residual, which is within its check's tol of the host's, and each check's detail."""
    code, out, _ = run(capsys, command, "--format", "json")
    assert code == 0
    probe = "import sys, quasilogic.cli; quasilogic.cli.main(sys.argv[1:])"
    host, other = json.loads(out), json.loads("\n".join(
        fresh_python(probe, command, "--format", "json", env=pins.PROFILES["Sandybridge/X86_V2"])))
    for mine, theirs in zip(host["checks"], other["checks"]):
        assert abs(theirs["residual"] - mine["residual"]) <= mine["tol"], mine["name"]
        theirs["residual"], theirs["detail"] = mine["residual"], mine["detail"]
    sweeps = (side.get("formal_reality_sweep", []) for side in (host, other))
    for mine, theirs in zip(*sweeps):
        for key in ("max_residual", "min_residual"):
            assert abs(theirs[key] - mine[key]) <= host["config"]["tol"], (mine["dim"], key)
            theirs[key] = mine[key]
    assert other == host
