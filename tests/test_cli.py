"""CLI surface: scenario files, subcommands, exit codes, determinism."""

import argparse
import csv
import errno
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import het3
from het3 import cli, constructors, errors, frame, geometry, residuals, torsion

SKEW_HEISENBERG_DOC = {
    "structure_constants": [[1, 2, 3, 1.0]],
    "contorsion": {"alpha": 0.5, "beta": 0.0, "gamma": 0.0, "xi": [0.0, 0.0, 1.0]},
    "h": 1.0,
    "phi": [0.0, 0.0, 0.0],
    "kappa": 1.0,
}


def reference_fmt(x):
    """12 significant digits, zero unsigned: the float dump_json writes."""
    return 0.0 if x == 0 else float(f"{x:.12g}")


def fmt_tree(obj):
    """Reference rounding for dump_json: a copy of the tree with every float
    rounded, for json.dumps(..., indent=2)."""
    if isinstance(obj, float):
        return reference_fmt(obj)
    if isinstance(obj, dict):
        return {k: fmt_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [fmt_tree(v) for v in obj]
    return obj


# values at the edges of the float range, for every numeric field in turn
DIAGNOSTIC_VALUES = (1e154, -1e154, 1e200, -1e200, 1e308, -1e308, 1.7e308, 1e-320, -1e-320)


def numeric_leaves(doc, path=()):
    """The key paths of every number in a document, frame indices included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, path + (key,))
        else:
            yield path + (key,)


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_one_error(captured):
    """The shape of every exit-2 run: nothing on stdout, one error line and
    no traceback on stderr."""
    assert captured.out == ""
    assert [line.startswith("error:") for line in captured.err.splitlines()].count(True) == 1
    assert "Traceback" not in captured.err


def nested(depth):
    """A list nested depth deep, innermost empty."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


class TestParseScenario:
    def test_valid_document(self):
        sc = cli.parse_scenario(SKEW_HEISENBERG_DOC)
        assert sc.h == 1.0
        assert sc.kappa == 1.0
        assert sc.model.c[0, 1, 2] == 1.0
        assert sc.model.c[1, 0, 2] == -1.0

    def test_matrix_contorsion(self):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["contorsion"] = {"matrix": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}
        sc = cli.parse_scenario(doc)
        assert sc.contorsion.is_pure_skew_torsion()

    @pytest.mark.parametrize("missing", ["structure_constants", "contorsion", "h", "kappa"])
    def test_missing_field(self, missing):
        doc = {k: v for k, v in SKEW_HEISENBERG_DOC.items() if k != missing}
        with pytest.raises(cli.ScenarioFileError, match=missing):
            cli.parse_scenario(doc)

    def test_one_based_indices(self):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = [[0, 1, 2, 1.0]]
        with pytest.raises(cli.ScenarioFileError, match="1..3"):
            cli.parse_scenario(doc)

    def test_index_order(self):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = [[2, 1, 3, 1.0]]
        with pytest.raises(cli.ScenarioFileError, match="i < j"):
            cli.parse_scenario(doc)

    def test_beta_rejected(self):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["contorsion"] = {"alpha": 0.5, "beta": 0.1, "gamma": 0.0, "xi": [0, 0, 1.0]}
        with pytest.raises(cli.ScenarioFileError, match="compact"):
            cli.parse_scenario(doc)

    @pytest.mark.parametrize("key,value", [("h", 0.0), ("h", -1.0), ("kappa", 0.0), ("kappa", -2.0)])
    def test_positivity(self, key, value):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc[key] = value
        with pytest.raises(cli.ScenarioFileError, match="positive"):
            cli.parse_scenario(doc)


class TestCheck:
    def test_solution_exit_zero(self, tmp_path, capsys):
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        assert cli.main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "SOLUTION" in out

    def test_not_solution_exit_one(self, tmp_path):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["h"] = 0.9
        path = write_doc(tmp_path, doc)
        assert cli.main(["check", path]) == 1

    def test_invalid_file_exit_two(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert cli.main(["check", str(path)]) == 2
        assert cli.main(["check", str(tmp_path / "missing.json")]) == 2

    def test_json_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        assert cli.main(["check", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "SOLUTION"
        assert doc["classification"]["kind"] == "HEISENBERG_TYPE"
        assert set(doc["norms"]) == {
            "einstein", "einstein_skew", "yang_mills", "dilaton", "maxwell",
        }
        assert doc["tolerance"] == 1e-9
        assert doc["residuals"]["trace_identity"] == pytest.approx(0.0, abs=1e-12)
        assert doc["residuals"]["remark_identity"] == pytest.approx(0.0, abs=1e-12)

    def test_validates_once(self, tmp_path, monkeypatch, capsys):
        # check does not go through parse_scenario: it validates once, in
        # full_report
        calls = []
        validate = residuals.validate_scenario

        def counted(sc):
            calls.append(sc)
            return validate(sc)

        monkeypatch.setattr(residuals, "validate_scenario", counted)
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        assert cli.main(["check", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "SOLUTION"
        assert len(calls) == 1

    @pytest.mark.parametrize("run", ["check", "sweep"])
    def test_report_path_skips_the_loop(self, tmp_path, monkeypatch, capsys, run):
        # the Einstein term squares R^D in closed form: no curv_compose call,
        # through the name residuals resolves or through frame
        calls = []
        compose = frame.curv_compose

        def counted(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(frame, "curv_compose", counted)
        monkeypatch.setattr(residuals, "curv_compose", counted, raising=False)
        if run == "check":
            assert cli.main(["check", write_doc(tmp_path, SKEW_HEISENBERG_DOC), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == "SOLUTION"
        else:
            assert len(constructors.sweep_window(1.0, 16)) == 16
        assert calls == []

    def test_tolerance_flag_and_env(self, tmp_path, monkeypatch, capsys):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["h"] = 1.0001  # tiny miss
        path = write_doc(tmp_path, doc)
        assert cli.main(["check", path]) == 1
        assert cli.main(["check", path, "--tol", "1"]) == 0
        monkeypatch.setenv("HET3_TOL", "1")
        assert cli.main(["check", path]) == 0
        monkeypatch.setenv("HET3_TOL", "banana")
        assert cli.main(["check", path]) == 2
        monkeypatch.setenv("HET3_TOL", "banana" * 20000)  # echoed shortened
        assert cli.main(["check", path]) == 2
        assert len(capsys.readouterr().err.splitlines()[-1]) < 200

    @pytest.mark.parametrize(
        "mutation, key, value",
        [
            ("nan_phi", "phi", [float("nan"), 0.0, 0.0]),
            ("kappa_inf", "kappa", float("inf")),
            ("h_not_number", "h", "abc"),
            ("structure_constants_not_list", "structure_constants", 5),
            # JSON numbers past the float range
            pytest.param("h_huge_integer", "h", 10**400, id="h_huge_integer"),
            pytest.param("phi_huge_integer", "phi", [0, 0, 10**400], id="phi_huge_integer"),
            # echoed shortened, not in full
            pytest.param("phi_huge_list", "phi", [0.0] * 100000, id="phi_huge_list"),
            pytest.param("phi_nested", "phi", nested(900), id="phi_nested"),
            pytest.param("h_huge_unknown_key", "h_" + "x" * 100000, 1.0,
                         id="huge_unknown_key"),
        ],
    )
    def test_malformed_value_exit_two(self, tmp_path, capsys, mutation, key, value):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc[key] = value
        path = write_doc(tmp_path, doc, f"{mutation}.json")
        assert cli.main(["check", path]) == 2
        captured = capsys.readouterr()
        assert_one_error(captured)
        assert key.split("_")[0] in captured.err
        assert len(captured.err.replace(path, "").encode()) < 200

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe{}", b'{"h": ' + b"1" * 5000 + b"}",
         b"[" * 995 + b"]" * 995, b"[" * 100000 + b"]" * 100000],
        ids=["not_utf8", "integer_past_digit_limit", "nested_995", "nested_100000"],
    )
    def test_unreadable_document_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert_one_error(captured)
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_nan_jacobi_defect_exit_two(self, tmp_path, capsys, command):
        # opposite overflows in the Jacobi sum give inf - inf = NaN
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = [[2, 3, 1, 1e200], [1, 3, 2, -1e200], [1, 2, 3, 1e200]]
        path = write_doc(tmp_path, doc)
        assert cli.main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Jacobi" in captured.err

    def test_jacobi_overflow_is_named(self, tmp_path, capsys):
        # a unimodular Milnor model whose Jacobi sums overflow the float range
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = [[1, 2, 3, 1e200], [2, 3, 1, 1e200]]
        assert cli.main(["check", write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: structure constants overflow the float range in the Jacobi sums\n"
        )

    @pytest.mark.parametrize("literals", [
        {"alpha": "1e309"}, {"alpha": "Infinity"}, {"gamma": "1e309"}, {"gamma": "Infinity"},
        {"alpha": "1e308", "gamma": "1e308"},  # finite, with a sum past the float range
    ], ids=["alpha_1e309", "alpha_Infinity", "gamma_1e309", "gamma_Infinity", "sum_overflow"])
    def test_non_finite_contorsion_one_line(self, tmp_path, capsys, literals):
        # an infinite coefficient meets the zeros of its grid: one line, no warning
        doc = json.loads(json.dumps(SKEW_HEISENBERG_DOC))
        for field in literals:
            doc["contorsion"][field] = "@" + field
        text = json.dumps(doc)
        for field, literal in literals.items():
            text = text.replace(f'"@{field}"', literal)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: contorsion must be finite (no NaN or inf)\n"

    def test_one_diagnostic_for_every_document_field(self, tmp_path, capsys):
        # every numeric leaf of both document forms, one at a time, at the
        # edges of the float range, plus a skew part that overflows: stderr
        # is empty or one error line, and no warning is raised
        matrix_doc = json.loads(json.dumps(SKEW_HEISENBERG_DOC))
        matrix_doc["contorsion"] = {"matrix": (0.5 * np.eye(3)).tolist()}
        docs = []
        for base in (SKEW_HEISENBERG_DOC, matrix_doc):
            for path in numeric_leaves(base):
                for value in DIAGNOSTIC_VALUES:
                    doc = json.loads(json.dumps(base))
                    *parents, last = path
                    node = doc
                    for key in parents:
                        node = node[key]
                    node[last] = value
                    docs.append(doc)
        skew_overflow = json.loads(json.dumps(matrix_doc))
        skew_overflow["contorsion"]["matrix"] = [
            [1e308, 1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1.0]]
        docs.append(skew_overflow)
        codes = set()
        for doc in docs:
            path = write_doc(tmp_path, doc)
            for argv in (["check", path, "--json"], ["classify", path]):
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    code = cli.main(argv)
                captured = capsys.readouterr()
                context = f"{argv[0]} {json.dumps(doc)}"
                assert [str(w.message) for w in seen] == [], context
                assert code in (0, 1, 2), context
                assert captured.err == "" or (
                    captured.err.startswith("error: ") and captured.err.count("\n") == 1
                ), context
                assert (captured.out == "") == (code == 2), context
                codes.add(code)
        assert codes == {0, 1, 2}

    @pytest.mark.parametrize("command", ["check", "sweep"])
    @pytest.mark.parametrize(
        "flag, env",
        [(["--tol", "nan"], None), (["--tol", "-1"], None), ([], "inf")],
        ids=["tol_nan", "tol_negative", "env_inf"],
    )
    def test_bad_tolerance_exit_two(self, tmp_path, monkeypatch, capsys, command, flag, env):
        if env is not None:
            monkeypatch.setenv("HET3_TOL", env)
        if command == "check":
            argv = ["check", write_doc(tmp_path, SKEW_HEISENBERG_DOC)]
        else:
            argv = ["sweep", "--kappa", "1", "--points", "4"]
        assert cli.main(argv + flag) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", [["--json"], []], ids=["json", "text"])
    def test_overflow_exit_two(self, tmp_path, capsys, flag):
        # finite inputs whose curvature quadratic overflows: an error naming
        # the first non-finite equation, not a NOT_SOLUTION verdict
        doc = {
            "structure_constants": [[1, 2, 2, 1e100], [1, 3, 3, 1e100]],
            "contorsion": {"alpha": 1e100, "beta": 0.0, "gamma": 0.0, "xi": [0.0, 0.0, 1.0]},
            "h": 1e100,
            "kappa": 1e100,
        }
        assert cli.main(["check", write_doc(tmp_path, doc)] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the einstein residual is not finite")
        assert captured.err.count("\n") == 1

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        cli.main(["check", path, "--json"])
        first = capsys.readouterr().out
        cli.main(["check", path, "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestConstruct:
    def test_skew_heisenberg_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sk.json"
        assert cli.main(["construct", "heisenberg-skew", "--kappa", "1", "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "alpha=0.5" in err
        assert "h=1" in err
        assert cli.main(["check", str(out)]) == 0

    def test_hyperbolic_parameters(self, tmp_path, capsys):
        out = tmp_path / "hyp.json"
        code = cli.main(
            ["construct", "hyperbolic", "--kappa", "1", "--scalar", "-6", "-o", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "a=1" in err
        assert "h=3.46410161514" in err
        assert cli.main(["check", str(out)]) == 0

    def test_out_of_window_tiny_kappa(self, capsys):
        # -24/kappa overflows: the hint names no infinite end
        code = cli.main(["construct", "hyperbolic", "--kappa", "1e-308", "--scalar", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "admissible s_g window for kappa=1e-308: s_g < 0" in err
        assert "inf" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "heisenberg-generic", "--kappa", "1", "--scalar=-inf"],
            ["construct", "heisenberg-generic", "--kappa", "1", "--scalar", "-0.5"],
            ["construct", "heisenberg-skew", "--kappa", "0"],
            ["construct", "hyperbolic", "--kappa", "-1", "--scalar", "-6"],
        ],
        ids=["generic_scalar_inf", "generic_degenerate", "skew_kappa_zero",
             "hyperbolic_kappa_negative"],
    )
    def test_window_hint_only_out_of_window(self, capsys, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "admissible" not in err

    def test_nonpositive_kappa(self, capsys):
        assert cli.main(["construct", "heisenberg-skew", "--kappa", "-1"]) == 2
        assert cli.main(["construct", "heisenberg-skew", "--kappa", "0"]) == 2

    def test_degenerate_generic(self, capsys):
        code = cli.main(
            ["construct", "heisenberg-generic", "--kappa", "1", "--scalar", "-0.5", "--sign", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize("kappa", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize(
        "family, kappa_scalar",
        [("heisenberg-generic", -2.0), ("heisenberg-skew", None),
         ("hyperbolic", -6.0), ("boundary", None)],
    )
    def test_small_kappa_roundtrip(self, tmp_path, family, kappa_scalar, kappa):
        # scenario files keep full precision, so an exact solution stays exact
        out = str(tmp_path / "sc.json")
        argv = ["construct", family, f"--kappa={kappa!r}", "-o", out]
        if kappa_scalar is not None:
            argv.append(f"--scalar={kappa_scalar / kappa!r}")
        assert cli.main(argv) == 0
        assert cli.main(["check", out]) == 0

    def test_missing_scalar(self):
        assert cli.main(["construct", "hyperbolic", "--kappa", "1"]) == 2

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["heisenberg-skew", "--kappa", "1", "--scalar", "5"], "--scalar"),
            (["boundary", "--kappa", "1", "--scalar", "-24"], "--scalar"),
            (["hyperbolic", "--kappa", "1", "--scalar", "-6", "--sign", "-1"], "--sign"),
            (["heisenberg-skew", "--kappa", "1", "--sign", "-1"], "--sign"),
            (["heisenberg-generic", "--kappa", "1", "--scalar", "-2"], None),
            (["heisenberg-generic", "--kappa", "1", "--scalar", "-2", "--sign", "1"], None),
            (["heisenberg-generic", "--kappa", "1", "--scalar", "-2", "--sign", "-1"], None),
            (["hyperbolic", "--kappa", "1", "--scalar", "-6"], None),
            (["heisenberg-skew", "--kappa", "1"], None),
            (["boundary", "--kappa", "1"], None),
        ],
        ids=["skew_scalar", "boundary_scalar", "hyperbolic_sign", "skew_sign",
             "generic", "generic_sign_plus", "generic_sign_minus", "hyperbolic", "skew",
             "boundary"],
    )
    def test_options_the_family_reads(self, capsys, argv, unread):
        code = cli.main(["construct", *argv])
        out, err = capsys.readouterr()
        if unread is None:
            assert code == 0 and json.loads(out) and err.startswith(f"family={argv[0]} ")
        else:
            assert code == 2 and out == ""
            assert err == f"error: the {argv[0]} family does not read {unread}\n"

    def test_sign_not_given_is_plus_one(self, capsys):
        runs = []
        for sign in ([], ["--sign", "1"], ["--sign", "-1"]):
            argv = ["construct", "heisenberg-generic", "--kappa", "1", "--scalar", "-2", *sign]
            assert cli.main(argv) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1] != runs[2]

    def test_stdout_output(self, capsys):
        assert cli.main(["construct", "boundary", "--kappa", "1"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["contorsion"]["alpha"] == 0.0
        assert doc["h"] == pytest.approx(6.92820323028)


class TestSweep:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--kappa", "1", "--points", "10", "--csv", str(out)])
        assert code == 0
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "s_g,kappa_s_g,alpha,h,residual_norm,verdict"
        assert len(lines) == 12  # header + 10 rows + trailing LF
        assert lines[-1] == ""
        assert "\r" not in text
        for line in lines[1:11]:
            assert line.endswith("SOLUTION")

    def test_stdout(self, capsys):
        assert cli.main(["sweep", "--kappa", "2", "--points", "4"]) == 0
        out = capsys.readouterr().out
        rows = out.strip().split("\n")[1:]
        for row in rows:
            s = float(row.split(",")[0])
            assert -12.0 < s < 0.0

    def test_explicit_range_includes_markers(self, capsys):
        code = cli.main(
            ["sweep", "--kappa", "1", "--points", "3", "--s-min", "-24", "--s-max", "0"]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows[0].endswith("OUT_OF_WINDOW")
        assert rows[1].endswith("SOLUTION")
        assert rows[2].endswith("OUT_OF_WINDOW")

    def test_negative_exponent_value(self, capsys):
        # a separate "-3e-05" is a value, as "--s-min=-3e-05" is
        base = ["sweep", "--kappa", "1", "--points", "4"]
        assert cli.main(base + ["--s-min=-3e-05"]) == 0
        joined = capsys.readouterr().out
        assert cli.main(base + ["--s-min", "-3e-05"]) == 0
        assert capsys.readouterr().out == joined
        assert joined.count("SOLUTION") == 3

    def test_explicit_range_at_tiny_kappa(self, capsys):
        # -24/kappa overflows, but a given range does not need it
        argv = ["sweep", "--kappa", "1e-308", "--points", "2", "--s-min=1", "--s-max=2"]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows == ["1,1e-308,,,,OUT_OF_WINDOW", "2,2e-308,,,,OUT_OF_WINDOW"]

    def test_csv_bytes(self, tmp_path, capsys):
        # the bytes csv.writer writes for the same rows, with and without
        # empty fields
        argv = ["sweep", "--kappa", "0.37", "--points", "9", "--s-min=-80", "--s-max=1e-3"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        rows = constructors.sweep_window(0.37, 9, s_min=-80, s_max=1e-3)
        assert {row.verdict for row in rows} == {"SOLUTION", "OUT_OF_WINDOW"}
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["s_g", "kappa_s_g", "alpha", "h", "residual_norm", "verdict"])
        for row in rows:
            writer.writerow(
                [f"{row.scalar:.12g}", f"{row.kappa_scalar:.12g}"]
                + ["" if x is None else f"{x:.12g}" for x in (row.alpha, row.h, row.residual_norm)]
                + [row.verdict]
            )
        assert out == ref.getvalue()
        assert cli.main(argv + ["--csv", str(tmp_path / "rows.csv")]) == 0
        assert (tmp_path / "rows.csv").read_bytes() == out.encode()


class TestClassify:
    def test_heisenberg(self, tmp_path, capsys):
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        assert cli.main(["classify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "HEISENBERG_TYPE"
        assert doc["simple_axis"] == pytest.approx([0.0, 0.0, 1.0])

    def test_flat(self, tmp_path, capsys):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = []
        path = write_doc(tmp_path, doc)
        assert cli.main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "FLAT"

    def test_hyperbolic(self, tmp_path, capsys):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = [[1, 2, 2, 1.0], [1, 3, 3, 1.0]]
        path = write_doc(tmp_path, doc)
        assert cli.main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "HYPERBOLIC_TYPE"

    def test_bad_file(self, tmp_path):
        assert cli.main(["classify", str(tmp_path / "nope.json")]) == 2

    def test_overflow_exit_two(self, tmp_path, capsys):
        # a valid model whose Ricci tensor overflows: as check, exit 2 with
        # one error line (a RuntimeWarning is an error under the pytest
        # settings)
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["structure_constants"] = [[1, 2, 3, 1e200]]
        path = write_doc(tmp_path, doc)
        for command in (["classify", path], ["check", path, "--json"]):
            assert cli.main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("error:") == 1
            assert "not finite" in captured.err


class TestParserOnce:
    """main builds the parser on its first call and reuses it after."""

    def test_built_once(self, monkeypatch, capsys):
        calls, build = [], cli.build_parser

        def counting_build_parser():
            calls.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        try:
            for _ in range(3):
                assert cli.main(["sweep", "--kappa", "1", "--points", "2"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_tolerance_does_not_stick(self, tmp_path):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["h"] = 1.0001  # tiny miss
        path = write_doc(tmp_path, doc)
        assert cli.main(["check", path, "--tol", "1"]) == 0
        assert cli.main(["check", path]) == 1

    def test_window_does_not_stick(self, capsys):
        base = ["sweep", "--kappa", "1", "--points", "4"]
        assert cli.main(base) == 0
        default = capsys.readouterr().out
        assert cli.main(base + ["--s-min=-3e-05", "--s-max=-1e-05"]) == 0
        assert capsys.readouterr().out != default
        assert cli.main(base) == 0
        assert capsys.readouterr().out == default

    def test_valid_call_after_parse_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        for bad in (["check"], ["sweep", "--kappa", "1", "--points", "two"], ["nope"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
            assert cli.main(["check", path, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == "SOLUTION"

    def test_handler_replaced_after_first_call(self, tmp_path, monkeypatch):
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        assert cli.main(["check", path]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.paths) or 7)
        assert cli.main(["check", path]) == 7
        assert seen == [[path]]

    @pytest.mark.parametrize("argv, prog", [
        (["sweep", "--kappa", "1", "--points", "2"], "het3 sweep"),
        (["check", "{path}", "--json"], "het3 check"),
        (["check", "{path}", "extra"], "het3 check"),
        (["--version"], "het3"),
        (["nope"], "het3"),
    ])
    def test_one_parse_per_call(self, tmp_path, monkeypatch, capsys, argv, prog):
        # a command's arguments are parsed once, by the command's parser;
        # anything else once, by the top-level parser
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        seen, parse = [], argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            seen.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        try:
            cli.main([arg.replace("{path}", path) for arg in argv])
        except SystemExit:
            pass
        assert seen == [prog]


def reference_main(argv):
    """main with argparse's own dispatch: the top-level parse_args, which
    hands a command's arguments to the command's parser, then the handler."""
    args = cli._parser().parse_args(argv)
    try:
        return getattr(cli, f"cmd_{args.command}")(args)
    except (cli.ScenarioFileError, errors.Het3Error, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return cli.EXIT_ERROR


# argv -> what main must do as argparse's own dispatch does it
DISPATCH_ARGV = {
    "missing_command": [],
    "unknown_command": ["nope", "{path}"],
    "command_case": ["Check", "{path}"],
    "version": ["--version"],
    "help": ["-h"],
    "help_then_command": ["-h", "check"],
    "version_then_command": ["--version", "check", "{path}"],
    "option_before_command": ["--tol", "1", "check", "{path}"],
    "double_dash_before_command": ["--", "check", "{path}"],
    "check_help": ["check", "-h"],
    "sweep_help": ["sweep", "--help"],
    "check_missing_path": ["check"],
    "check_positional": ["check", "{path}", "extra"],
    "construct_positional": ["construct", "boundary", "--kappa", "1", "extra"],
    "sweep_positionals": ["sweep", "--kappa", "1", "--points", "2", "extra", "more"],
    "classify_positional": ["classify", "{path}", "extra"],
    "check_option": ["check", "{path}", "--bogus"],
    "construct_option": ["construct", "boundary", "--kappa", "1", "--bogus=1"],
    "sweep_option": ["sweep", "--kappa", "1", "--points", "2", "-x", "--y"],
    "classify_option": ["classify", "{path}", "--json"],
    "check_version": ["check", "{path}", "--version"],
    "sweep_version": ["sweep", "--kappa", "1", "--points", "2", "--version"],
    "construct_version": ["construct", "--version"],
    "abbreviation": ["sweep", "--kap", "1", "--points", "3"],
    "check_abbreviation": ["check", "{path}", "--js"],
    "ambiguous_abbreviation": ["sweep", "--kappa", "1", "--points", "3", "--s", "-1"],
    "negative_value": ["sweep", "--kappa", "-1e-3", "--points", "2"],
    "negative_scalar": ["construct", "hyperbolic", "--kappa", "1", "--scalar", "-6"],
    "equals_form": ["sweep", "--kappa", "1", "--points", "4", "--s-min=-5"],
    "negative_range": ["sweep", "--kappa", "1", "--points", "4", "--s-min", "-5",
                       "--s-max", "-1"],
    "bad_float": ["sweep", "--kappa", "one", "--points", "2"],
    "bad_int": ["sweep", "--kappa", "1", "--points", "2.5"],
    "bad_sign": ["construct", "heisenberg-generic", "--kappa", "1", "--scalar=-1",
                 "--sign", "2"],
    "bad_family": ["construct", "nope", "--kappa", "1"],
    "missing_required": ["sweep", "--kappa", "1"],
    "missing_value": ["construct", "boundary", "--kappa"],
    "double_dash_path": ["check", "--", "{path}"],
    "double_dash_extra": ["sweep", "--kappa", "1", "--points", "2", "--", "x"],
    "bad_tolerance": ["check", "{path}", "--tol", "0"],
    "check": ["check", "{path}"],
    "check_json": ["check", "{path}", "--tol=1e-6", "--json"],
    "classify": ["classify", "{path}"],
    "construct": ["construct", "heisenberg-generic", "--kappa", "2", "--scalar=-3",
                  "--sign", "-1"],
    "sweep": ["sweep", "--points", "3", "--kappa", "1", "--s-max=-1", "--tol", "1e-6"],
}


@pytest.mark.parametrize("argv", DISPATCH_ARGV.values(), ids=DISPATCH_ARGV.keys())
def test_dispatch_matches_argparse(tmp_path, capsys, argv):
    path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
    argv = [arg.replace("{path}", path) for arg in argv]
    outcomes = []
    for run in (cli.main, reference_main):
        try:
            code = run(list(argv))
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "heisenberg-skew", "--kappa", "inf"],
        ["construct", "boundary", "--kappa", "inf"],
        ["construct", "heisenberg-generic", "--kappa", "1", "--scalar=-inf"],
        ["sweep", "--kappa", "inf", "--points", "2"],
        ["sweep", "--kappa", "1", "--points", "3", "--s-min", "nan"],
        ["sweep", "--kappa", "1", "--points", "3", "--s-max=inf"],
        # finite arguments whose derived values overflow
        ["construct", "heisenberg-generic", "--kappa", "1", "--scalar=-1e308"],
        ["construct", "heisenberg-skew", "--kappa", "1e-320"],
        ["construct", "hyperbolic", "--kappa", "1e-300", "--scalar=-1e301"],
        ["construct", "boundary", "--kappa", "1e-320"],
        ["sweep", "--kappa", "1e-300", "--points", "2"],
        # 48 h^2 / kappa underflows, so alpha^2 < 0
        ["construct", "hyperbolic", "--kappa", "1e200", "--scalar=-1e-200"],
        ["sweep", "--kappa", "1e200", "--points", "2"],
        # -24/kappa overflows, and so does the linspace step
        ["sweep", "--kappa", "1e-308", "--points", "3"],
        ["sweep", "--kappa", "1", "--points", "2", "--s-min=-1e308", "--s-max=1e308"],
    ],
    ids=["skew_kappa_inf", "boundary_kappa_inf", "generic_scalar_minus_inf",
         "sweep_kappa_inf", "sweep_s_min_nan", "sweep_s_max_inf",
         "generic_h_overflow", "skew_scalar_overflow", "hyperbolic_alpha_overflow",
         "boundary_overflow", "sweep_alpha_overflow",
         "hyperbolic_alpha_underflow", "sweep_alpha_underflow",
         "sweep_window_overflow", "sweep_step_overflow"],
)
def test_non_finite_argument_exit_two(capsys, argv):
    # a RuntimeWarning on the way is an error under the pytest settings
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert_one_error(captured)
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "argv, raises, message",
    [
        (["sweep", "--kappa", "1", "--points", "1"], None,
         "error: n_points must be at least 2\n"),
        (["construct", "boundary", "--kappa", "1", "-o", "{tmp}/no_such_dir/sc.json"], None,
         "error: cannot write {tmp}/no_such_dir/sc.json: "),
        (["sweep", "--kappa", "1", "--points", "2", "--csv", "{tmp}/no_such_dir/w.csv"], None,
         "error: cannot write {tmp}/no_such_dir/w.csv: "),
        # the error line, then the window hint
        (["construct", "hyperbolic", "--kappa", "1", "--scalar", "-24"], None,
         "error: kappa*s_g = -24 outside the admissible window (-24, 0)\n"
         "admissible s_g window for kappa=1: (-24, 0)\n"),
        # sweep_window stands in for an allocation past memory
        (["sweep", "--kappa", "1", "--points", "10000000000000"],
         MemoryError("Unable to allocate 72.8 TiB"), "error: Unable to allocate 72.8 TiB\n"),
        (["sweep", "--kappa", "1", "--points", "2"], MemoryError(), "error: out of memory\n"),
    ],
    ids=["sweep_one_point", "construct_unwritable_output", "sweep_unwritable_csv",
         "construct_out_of_window", "sweep_memory_error", "bare_memory_error"],
)
def test_argument_error_exit_two(tmp_path, monkeypatch, capsys, argv, raises, message):
    if raises is not None:
        def sweep_window(*args, **kwargs):
            raise raises
        monkeypatch.setattr(constructors, "sweep_window", sweep_window)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert_one_error(captured)
    assert captured.err.startswith(message.replace("{tmp}", str(tmp_path)))


class FailingStdout:
    """A stdout with no file descriptor whose write, or only its flush, fails
    as on a full disk."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        self._fail("write")
        return len(text)

    def flush(self):
        self._fail("flush")

    def _fail(self, call):
        if call == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# every command that writes its output to stdout, in both output modes
STDOUT_ARGV = [
    ["check", "{path}"],
    ["check", "{path}", "--json"],
    ["classify", "{path}"],
    ["sweep", "--kappa", "1", "--points", "4"],
    ["construct", "boundary", "--kappa", "1"],
]
STDOUT_IDS = ["check", "check_json", "classify", "sweep", "construct"]
STDOUT_ERROR = "error: cannot write stdout: [Errno %d] %s\n" % (
    errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", STDOUT_ARGV, ids=STDOUT_IDS)
def test_stdout_write_error_exit_two(tmp_path, monkeypatch, capsys, argv, failing):
    # a failed write is an input error, not a NOT_SOLUTION verdict
    path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
    monkeypatch.setattr(sys, "stdout", FailingStdout(failing))
    assert cli.main([arg.replace("{path}", path) for arg in argv]) == 2
    assert capsys.readouterr().err == STDOUT_ERROR


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", STDOUT_ARGV, ids=STDOUT_IDS)
def test_full_stdout_process_exit_two(tmp_path, argv):
    # one error line and exit 2, also once the interpreter flushes stdout at
    # exit: with a buffered stdout, as it is by default, a failed flush keeps
    # its bytes, and the flush at exit fails again ("Exception ignored", 120)
    path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
    with open("/dev/full", "w") as full:
        done = run_process([arg.replace("{path}", path) for arg in argv],
                           stdout=full, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (2, STDOUT_ERROR)


def run_process(argv, redirect="", **streams):
    """``python -m het3.cli argv`` in a new process, stdout buffered as by
    default; sh applies ``redirect`` (such as ">&-") to the command."""
    src = os.path.dirname(os.path.dirname(het3.__file__))
    path_list = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "het3.cli"] + argv
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh"] + command
    return subprocess.run(command, env=env, text=True, timeout=60, **streams)


needs_sh = pytest.mark.skipif(shutil.which("sh") is None, reason="no sh")


@needs_sh
@pytest.mark.parametrize("argv", STDOUT_ARGV, ids=STDOUT_IDS)
def test_closed_stdout_process_exit_two(tmp_path, argv):
    # descriptor 1 closed at start: Python sets sys.stdout to None
    path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
    done = run_process([arg.replace("{path}", path) for arg in argv], ">&-",
                       stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (2, "error: cannot write stdout: it is closed\n")


# a stderr that cannot take the error line: closed at start (sys.stderr is
# None), or open for reading only (every write fails)
UNWRITABLE_STDERR = pytest.mark.parametrize(
    "stderr", ["2>&-", "2</dev/null"], ids=["closed", "read_only"])


@needs_sh
@UNWRITABLE_STDERR
@pytest.mark.parametrize("argv, stdout", [
    (["check", "{tmp}/missing.json"], ""),
    (["check", "{tmp}/missing.json"], ">/dev/full"),
    (["check", "{tmp}/scenario.json", "--json"], ">/dev/full"),
], ids=["missing_file", "missing_file_full_stdout", "full_stdout"])
def test_unwritable_stderr_process_exit_two(tmp_path, argv, stdout, stderr):
    # the error line is dropped, and the exit code is still 2
    if stdout and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    write_doc(tmp_path, SKEW_HEISENBERG_DOC)
    done = run_process([arg.replace("{tmp}", str(tmp_path)) for arg in argv],
                       f"{stdout} {stderr}", stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout) == (2, "")


@needs_sh
@UNWRITABLE_STDERR
def test_unwritable_stderr_construct(capsys, stderr):
    # the summary line is dropped, not written to stdout after the scenario
    assert cli.main(["construct", "boundary", "--kappa", "1"]) == 0
    scenario = capsys.readouterr().out
    done = run_process(["construct", "boundary", "--kappa", "1"], stderr,
                       stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout) == (0, scenario)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


class TestDumpJson:
    """dump_json writes the bytes of json.dumps(fmt_tree(doc), indent=2)."""

    CORPUS = [
        {},
        [],
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 5e-324, 1.7976931348623157e308],
        {"x": None, "t": True, "f": False, "n": 0, "big": 10**30, "neg": -7},
        {"verdict": np.str_("SOLUTION"), "kind": np.str_("HEISENBERG_TYPE")},
        {"norms": {"einstein": np.float64(1.2345678901234567e-17), "dilaton": np.float64(-0.0)}},
        {"grid": [[1.0, 2.5, -3.0], [1e12, 1e15, 1e16], [1e-4, 1e-5, 123456789012.345]]},
        {"nested": [[[1.0, [2.0, []]], {"k": [3.0, None]}], (4.0, 5.0)]},
        {"text": "tab\there \"quoted\" \\ \u00e9\u4e2d\U0001f600 \x00\x1f", "\u00e9": "key"},
        {"100%": "50%s", "%d": [1.5, "%%"], "%(x)s": {"%": None}},
    ]

    @pytest.mark.parametrize("doc", CORPUS, ids=range(len(CORPUS)))
    def test_corpus(self, doc):
        assert cli.dump_json(doc) == json.dumps(fmt_tree(doc), indent=2) + "\n"

    def test_random_documents(self):
        rng = np.random.default_rng(8)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, None, True, False, "", "s\u00e9"]

        def leaf():
            if rng.random() < 0.2:
                return specials[rng.integers(len(specials))]
            if rng.random() < 0.2:
                return int(rng.integers(-1000, 1000))
            return float(rng.normal() * 10.0 ** rng.integers(-30, 30))

        def tree(depth):
            kind = rng.integers(3) if depth < 4 else 0
            if kind == 0:
                return leaf()
            n = int(rng.integers(0, 4))
            if kind == 1:
                return [tree(depth + 1) for _ in range(n)]
            return {f"k{i}": tree(depth + 1) for i in range(n)}

        for _ in range(2000):
            doc = tree(0)
            assert cli.dump_json(doc) == json.dumps(fmt_tree(doc), indent=2) + "\n"

    @pytest.mark.parametrize("family", constructors.FAMILIES)
    def test_report_documents(self, family):
        build = cli.FAMILY_TABLE[family][0]
        sc = build(argparse.Namespace(kappa=0.37, scalar=-5.0, sign=1)).scenario
        doc = cli.report_doc(sc, residuals.full_report(sc), constructors.classify(sc))
        assert cli.dump_json(doc) == json.dumps(fmt_tree(doc), indent=2) + "\n"

    def test_not_serializable(self):
        with pytest.raises(TypeError):
            cli.dump_json({"a": object()})


def report_documents():
    """Scenario documents whose reports cover both verdicts and each
    combination of a null remark_identity and a null simple_axis: each
    family at two kappas, a perturbed skew Heisenberg member, and a Milnor
    model with a symmetric, non-skew contorsion."""
    docs = {}
    for family, (build, _) in cli.FAMILY_TABLE.items():
        for kappa in (0.37, 20.0):
            args = argparse.Namespace(kappa=kappa, scalar=-5.0 / kappa, sign=1)
            docs[f"{family}@{kappa}"] = cli.scenario_to_doc(build(args))
    docs["perturbed"] = dict(SKEW_HEISENBERG_DOC, h=1.01)
    docs["milnor"] = {
        "structure_constants": [[2, 3, 1, 1.0], [1, 3, 2, 2.0], [1, 2, 3, 0.5]],
        "contorsion": {"matrix": [[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.1]]},
        "h": 1.0,
        "kappa": 1.0,
    }
    return docs


def test_check_json_is_dump_json_of_report_doc(tmp_path, capsys):
    codes, shapes = set(), set()
    for n, (name, doc) in enumerate(report_documents().items()):
        path = write_doc(tmp_path, doc, f"{n}.json")
        code = cli.main(["check", path, "--json"])
        sc = cli.load_scenario(path)
        report = residuals.full_report(sc)
        doc = cli.report_doc(sc, report, constructors.classify(sc))
        assert capsys.readouterr().out == cli.dump_json(doc), name
        codes.add(code)
        shapes.add((doc["residuals"]["remark_identity"] is None,
                    doc["classification"]["simple_axis"] is None))
    assert codes == {0, 1}
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def reference_float_token(x):
    """The token of x by its definition: the repr of x rounded to 12 digits."""
    if not math.isfinite(x):
        return json.dumps(x)
    if x == 0:
        return "0.0"
    return float.__repr__(float("%.12g" % x))


class TestFloatToken:
    """_float_token skips repr where "%.12g" already is the repr."""

    EDGES = [
        5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-307,
        9.99999999999995e-308, 1e-308, 1.7976931348623157e308, 1e-5, 9.99999999999995e-05,
        1e-4, 0.1, 1 / 3, 1.0, 123.0, 99999999999.95, 1e11, 999999999999.4, 999999999999.5,
        1e12, 1e15, 9999999999999998.0, 1e16, 1.5e16, math.nan, math.inf,
    ]

    @pytest.mark.parametrize("x", EDGES + [-x for x in EDGES] + [0.0, -0.0])
    def test_edges(self, x):
        assert cli._float_token(x) == reference_float_token(x)
        assert cli._float_token(np.float64(x)) == reference_float_token(x)

    def test_random_bits_and_magnitudes(self, rng):
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        scaled = rng.uniform(-1, 1, size=20000) * 10.0 ** rng.uniform(-323, 308, size=20000)
        for x in np.concatenate([bits, scaled]).tolist():
            assert cli._float_token(x) == reference_float_token(x), repr(x)


# (field path, the name its diagnostics use)
NUMBER_FIELDS = [
    (("h",), "h"),
    (("kappa",), "kappa"),
    (("contorsion", "alpha"), "contorsion.alpha"),
    (("contorsion", "beta"), "contorsion.beta"),
    (("contorsion", "gamma"), "contorsion.gamma"),
    (("structure_constants", 0, 3), "structure_constants[0] value"),
]
# (a component of a vector field, the name of the field)
VECTOR_FIELDS = [(("contorsion", "xi", 2), "contorsion.xi"), (("phi", 0), "phi")]


def with_literal(path, literal):
    """SKEW_HEISENBERG_DOC as JSON text with the field at path set to the
    number literal (an integer past the float range cannot be a Python float)."""
    doc = json.loads(json.dumps(SKEW_HEISENBERG_DOC))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@"
    return json.dumps(doc).replace('"@"', literal)


class TestPlainFloats:
    """Scalar fields parse straight to Python floats, as np.array parses them."""

    @pytest.mark.parametrize("value", [2**53 + 1, 2**63, -(2**63), 2**64 + 1, 10**308,
                                       -0.0, 5e-324, 7, 0.1])
    @pytest.mark.parametrize("path, where", NUMBER_FIELDS, ids=[w for _, w in NUMBER_FIELDS])
    def test_parses_as_numpy(self, monkeypatch, path, where, value):
        seen = {}
        number = cli._number

        def spied(v, name):
            seen[name] = number(v, name)
            return seen[name]

        monkeypatch.setattr(cli, "_number", spied)
        try:
            cli.parse_scenario(json.loads(with_literal(path, repr(value))))
        except cli.ScenarioFileError:  # a valid number may still fail a later check
            pass
        expected = float(np.array(value, dtype=float))
        assert type(seen[where]) is float
        assert seen[where] == expected
        assert math.copysign(1.0, seen[where]) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("path", [p for p, _ in NUMBER_FIELDS + VECTOR_FIELDS],
                             ids=[w for _, w in NUMBER_FIELDS + VECTOR_FIELDS])
    def test_past_the_float_range_exit_two(self, tmp_path, capsys, path):
        # an integer literal past the float range reads as the float literal
        # 1e309 (inf) reads: the same exit code, stdout and stderr
        file = tmp_path / "big.json"
        for flag, sign in itertools.product((["--json"], []), ("", "-")):
            runs = []
            for literal in (str(10**309), "1e309"):
                file.write_text(with_literal(path, sign + literal))
                runs.append(run_main(capsys, ["check", str(file)] + flag))
            assert runs[0] == runs[1]
            code, out, err = runs[1]
            assert code == 2 and out == "" and err.startswith("error: ")
            assert err.count("\n") == 1 and "Traceback" not in err


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one main call."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def many_file_documents(tmp_path):
    """Paths of documents for a check of many files, in order, and by kind:
    "valid" (each family at two kappas, perturbed members, a non-skew
    non-solution and a repeated path), "phi_overflow" (a skew member whose
    trace identity overflows: an error with --json only), "unreadable" (a
    malformed and a missing file) and "ricci_overflow" (a Ricci tensor past
    the float range)."""
    docs = report_documents()
    docs["perturbed_generic"] = dict(docs["heisenberg-generic@0.37"], h=1.2)
    docs["perturbed_hyperbolic"] = dict(docs["hyperbolic@20.0"], kappa=21.0)
    kinds = {"valid": [write_doc(tmp_path, doc, f"{name}.json") for name, doc in docs.items()]}
    kinds["valid"].append(kinds["valid"][0])
    kinds["phi_overflow"] = [
        write_doc(tmp_path, dict(SKEW_HEISENBERG_DOC, phi=[1e154, 0.0, 0.0]), "phi.json")]
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    kinds["unreadable"] = [str(malformed), str(tmp_path / "missing.json")]
    kinds["ricci_overflow"] = [write_doc(
        tmp_path, dict(SKEW_HEISENBERG_DOC, structure_constants=[[1, 2, 3, 1e200]]), "ricci.json")]
    valid = kinds["valid"]
    paths = (valid[:3] + kinds["unreadable"] + valid[3:6] + kinds["phi_overflow"]
             + kinds["ricci_overflow"] + valid[6:])
    return paths, kinds


class TestManyFiles:
    """check over many paths writes what each path's own check writes."""

    @pytest.mark.parametrize("flag", [["--json"], []], ids=["json", "text"])
    def test_each_file_alone(self, tmp_path, capsys, flag):
        paths, _ = many_file_documents(tmp_path)
        alone = [run_main(capsys, ["check", path] + flag) for path in paths]
        code, out, err = run_main(capsys, ["check", *paths] + flag)
        assert out == "".join(single_out for _, single_out, _ in alone)
        assert code == max(single_code for single_code, _, _ in alone) == 2
        # one line per bad file, in order, naming the file before its error
        assert err.splitlines() == [
            f"error: {path}: {single_err[len('error: '):-1]}"
            for path, (_, _, single_err) in zip(paths, alone) if single_err
        ]
        assert {c for c, _, _ in alone} == {0, 1, 2}
        assert len(err.splitlines()) == (4 if flag else 3)

    def test_one_report_for_the_valid_files(self, tmp_path, capsys, monkeypatch):
        calls = []
        full_report = residuals.full_report

        def counted(sc, tol):
            calls.append(np.shape(sc.h))
            return full_report(sc, tol=tol)

        monkeypatch.setattr(residuals, "full_report", counted)
        _, kinds = many_file_documents(tmp_path)
        valid = kinds["valid"]
        assert cli.main(["check", *valid, "--json"]) == 1
        assert calls == [(len(valid),)]
        # a file that cannot be parsed stays out of the batch
        calls.clear()
        assert cli.main(["check", *kinds["unreadable"], *valid, "--json"]) == 2
        assert calls == [(len(valid),)]
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["invalid", "ricci_overflow", "phi_overflow"])
    def test_split_around_a_bad_file(self, tmp_path, capsys, monkeypatch, bad):
        # only a batch that raises is split: the file that its error names,
        # which fails validation, has a Ricci tensor past the float range or,
        # with --json, a trace identity past it, is checked alone and the
        # others as one batch
        calls = []  # (files, whether the batch passed) per full_report call
        full_report = residuals.full_report

        def counted(sc, tol):
            try:
                report = full_report(sc, tol=tol)
            except errors.Het3Error:
                calls.append((np.size(sc.h), False))
                raise
            calls.append((np.size(sc.h), True))
            return report

        monkeypatch.setattr(residuals, "full_report", counted)
        sizes = []  # files per scenario built
        scenario = cli._scenario
        monkeypatch.setattr(cli, "_scenario", lambda files: sizes.append(len(files))
                            or scenario(files))
        _, kinds = many_file_documents(tmp_path)
        kinds["invalid"] = [write_doc(tmp_path, dict(SKEW_HEISENBERG_DOC, kappa=-1.0), "bad.json")]
        valid = kinds["valid"] * 8
        paths = valid[:37] + kinds[bad] + valid[37:]
        code, out, err = run_main(capsys, ["check", *paths, "--json"])
        got, built = list(calls), list(sizes)
        assert code == 2 and err.count("error: ") == 1
        assert out == run_main(capsys, ["check", *valid, "--json"])[1]
        # the trace identity is computed from a report that passed
        reported = bad == "phi_overflow"
        assert got == [(len(paths), reported), (1, reported), (len(valid), True)]
        assert built == [len(paths), 1, len(valid)]

    def test_scenario_rows_are_each_documents_own(self):
        # normal forms and given grids in one batch, and each alone: every
        # row, zero signs included, is its document's own scenario, the
        # normal form written here as the compact formula alpha g + gamma xi xi;
        # negative alpha and gamma along -e3 and -e2 give zeros of either sign
        docs = list(report_documents().values()) + [
            dict(SKEW_HEISENBERG_DOC,
                 contorsion={"alpha": alpha, "beta": 0.0, "gamma": gamma, "xi": xi})
            for alpha, gamma in ((-0.5, -0.3), (-0.5, 0.3), (0.5, -0.3))
            for xi in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0])
        ]
        fields = [cli._fields(doc) for doc in docs]
        normal = [f for f in fields if type(f[1]) is not list]
        grids = [f for f in fields if type(f[1]) is list] * 2

        def own(one):
            """(c, A, phi, h, kappa) of one parsed document, built by the library."""
            entries, form, h, kappa, phi = one
            model = geometry.StructureConstants.from_entries(
                [(*key, value) for key, value in entries.items()]
            ) if entries else geometry.abelian()
            a = np.asarray(form) if type(form) is list else (
                form.alpha * frame.IDENTITY + form.gamma * np.outer(form.xi, form.xi))
            return model.c, a, np.asarray(phi), h, kappa

        for batch in (fields, fields[::-1], normal, grids):
            sc = cli._scenario(batch)
            for m, one in enumerate(batch):
                alone = cli._scenario([one])
                for rows in ((sc.model.c[m], sc.contorsion.a[m], sc.phi[m], sc.h[m], sc.kappa[m]),
                             (alone.model.c, alone.contorsion.a, alone.phi, alone.h, alone.kappa)):
                    for got, expected in zip(rows, own(one)):
                        np.testing.assert_array_equal(got, expected)
                        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_single_path_bytes(self, tmp_path, capsys):
        # one path: the error line of each failure class names no file
        _, kinds = many_file_documents(tmp_path)
        malformed, missing = kinds["unreadable"]
        overflow = "is not finite: the scenario overflows the float range"
        errors = {
            malformed: f"{malformed}: invalid JSON at line 1",
            missing: f"cannot read {missing}: [Errno 2] No such file or directory: {missing!r}",
            write_doc(tmp_path, dict(SKEW_HEISENBERG_DOC, kappa=-1.0), "bad.json"):
                "kappa = -1 must be positive",
            kinds["ricci_overflow"][0]: f"the Ricci tensor {overflow}",
        }
        for flag in (["--json"], []):
            for path, message in errors.items():
                assert run_main(capsys, ["check", path] + flag) == (2, "", f"error: {message}\n")
        # text output computes no identity: this one fails with --json only
        assert run_main(capsys, ["check", kinds["phi_overflow"][0], "--json"]) == (
            2, "", f"error: the trace identity residual {overflow}\n")

    def test_batch_that_cannot_be_built(self, tmp_path, capsys, monkeypatch):
        # an error that names no file, a batch whose scenario cannot be
        # built, names every file: each is checked alone, and only the file
        # whose own build fails gets the error line
        _, kinds = many_file_documents(tmp_path)
        valid = kinds["valid"]
        expected = run_main(capsys, ["check", *valid, "--json"])[1]
        bad = write_doc(tmp_path, dict(SKEW_HEISENBERG_DOC, h=0.75), "bad.json")
        scenario = cli._scenario
        sizes = []  # files per scenario built

        def short_of_memory(files):
            sizes.append(len(files))
            if any(f[2] == 0.75 for f in files):
                raise MemoryError
            return scenario(files)

        monkeypatch.setattr(cli, "_scenario", short_of_memory)
        paths = valid[:5] + [bad] + valid[5:]
        assert run_main(capsys, ["check", *paths, "--json"]) == (
            2, expected, f"error: {bad}: out of memory\n")
        assert sizes == [len(paths)] + [1] * len(paths)

    def test_unreadable_stdout_once(self, tmp_path, monkeypatch, capsys):
        # the reports of a batch are one write: one error line if it fails
        path = write_doc(tmp_path, SKEW_HEISENBERG_DOC)
        monkeypatch.setattr(sys, "stdout", FailingStdout("write"))
        assert cli.main(["check", path, path, "--json"]) == 2
        assert capsys.readouterr().err.count("error: cannot write stdout") == 1

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_blocks(self, tmp_path, capsys, monkeypatch, block):
        # files are checked in blocks of CHECK_BLOCK with the same output
        paths, _ = many_file_documents(tmp_path)
        expected = run_main(capsys, ["check", *paths, "--json"])
        monkeypatch.setattr(cli, "CHECK_BLOCK", block)
        assert run_main(capsys, ["check", *paths, "--json"]) == expected


class TestValidatedOnce:
    """Every command validates each batch once, and a failed batch is not
    validated again to find its invalid files."""

    @pytest.mark.parametrize("command", ["check_one", "check_many", "sweep", "classify"])
    def test_once_per_batch(self, tmp_path, capsys, monkeypatch, command):
        calls = []  # the batch shape of each validated scenario
        validate = residuals.validate_scenario
        monkeypatch.setattr(residuals, "validate_scenario",
                            lambda sc: calls.append(np.shape(sc.h)) or validate(sc))
        _, kinds = many_file_documents(tmp_path)
        valid = kinds["valid"]
        argv, code, shape = {
            "check_one": (["check", valid[0], "--json"], 0, ()),
            "check_many": (["check", *valid, "--json"], 1, (len(valid),)),
            "sweep": (["sweep", "--kappa", "1", "--points", "16"], 0, (16,)),
            "classify": (["classify", valid[0]], 0, ()),
        }[command]
        assert run_main(capsys, argv)[0] == code
        assert calls == [shape]

    def test_failed_batch_not_validated_again(self, tmp_path, capsys, monkeypatch):
        # the failed batch, the bad file alone and the rest: three passes of
        # the checks, the bad file read from the failed batch's error
        calls = []
        checks = residuals.structural_checks
        monkeypatch.setattr(residuals, "structural_checks",
                            lambda sc: calls.append(np.size(sc.h)) or checks(sc))
        _, kinds = many_file_documents(tmp_path)
        valid = kinds["valid"]
        bad = write_doc(tmp_path, dict(SKEW_HEISENBERG_DOC, kappa=-1.0), "bad.json")
        paths = valid[:4] + [bad] + valid[4:]
        code, out, err = run_main(capsys, ["check", *paths, "--json"])
        assert calls == [len(paths), 1, len(valid)]
        assert (code, err) == (2, f"error: {bad}: kappa = -1 must be positive\n")
        assert out == run_main(capsys, ["check", *valid, "--json"])[1]


class TestReportLayouts:
    """A report filled into the layout of its shape is dump_json(report_doc)."""

    def test_every_shape_after_every_other(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_LAYOUTS", {})
        docs = report_documents()
        for kappa in (0.05, 3.0):  # more of each shape
            for family, (build, _) in cli.FAMILY_TABLE.items():
                args = argparse.Namespace(kappa=kappa, scalar=-5.0 / kappa, sign=-1)
                docs[f"{family}@{kappa}"] = cli.scenario_to_doc(build(args))
        docs["milnor2"] = dict(docs["milnor"], h=0.5, phi=[0.0, 0.0, 0.0])
        paths = [write_doc(tmp_path, doc, f"{n}.json") for n, doc in enumerate(docs.values())]
        # each shape follows each shape, its own included
        order = paths + paths[::-1] + paths[::2] + paths[1::2]
        shapes = []
        for tol in ("1e-9", "1e-3"):
            expected = []
            for path in order:
                code = cli.main(["check", path, "--json", "--tol", tol])
                sc = cli.load_scenario(path)
                doc = cli.report_doc(sc, residuals.full_report(sc, tol=float(tol)),
                                     constructors.classify(sc))
                text = cli.dump_json(doc)
                assert capsys.readouterr().out == text, (path, tol)
                assert code == (0 if doc["verdict"] == "SOLUTION" else 1)
                expected.append(text)
                shapes.append((doc["residuals"]["remark_identity"] is None,
                               doc["classification"]["simple_axis"] is None))
            # the same reports from one batch
            cli.main(["check", *order, "--json", "--tol", tol])
            assert capsys.readouterr().out == "".join(expected)
        counts = Counter(shapes)
        assert len(counts) == 4 and min(counts.values()) >= 8, counts
        assert set(cli._LAYOUTS) == set(counts)

    def test_percent_in_a_leaf(self, monkeypatch):
        # a % in the text of a layout is not a slot
        monkeypatch.setattr(cli, "_LAYOUTS", {})
        monkeypatch.setattr(cli, "__version__", "1%s%%d")
        sc = cli.parse_scenario(SKEW_HEISENBERG_DOC)
        report, kind = residuals.full_report(sc), constructors.classify(sc)
        expected = cli.dump_json(cli.report_doc(sc, report, kind))
        assert cli._json_report(sc, report, kind, ()) == expected
        assert cli._json_report(sc, report, kind, ()) == expected


class TestTextReport:
    def test_computes_no_identity(self, tmp_path, capsys):
        # the trace identity overflows (2 |phi|^2 = 2e308): an error where a
        # report prints it, while the text verdict reads only finite norms
        path = write_doc(tmp_path, dict(SKEW_HEISENBERG_DOC, phi=[1e154, 0.0, 0.0]))
        code, out, err = run_main(capsys, ["check", path])
        assert code == 1 and err == ""
        assert out.startswith("verdict: NOT_SOLUTION  (tolerance 1e-09)\n")
        assert "  maxwell        1e+154\n" in out
        assert run_main(capsys, ["check", path, "--json"]) == (
            2, "", "error: the trace identity residual is not finite: "
                   "the scenario overflows the float range\n")


@pytest.mark.parametrize("text", [
    b'{"h": 1,\r"x": \r\r oops}', b'{"h": 1,\r\n"x": \r\n oops}', b'{"h": "a\rb"}',
    b'{\r\n"h": 1\r\n}', b"\xef\xbb\xbf{}", b'{"pad": "' + b"a" * 10000 + b'\xff"}',
], ids=["lone_cr", "crlf", "cr_in_string", "crlf_valid", "bom", "late_bad_byte"])
def test_read_is_text_mode(tmp_path, text):
    # the document and its diagnostics as open's text mode reads the file
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    try:
        with open(path, encoding="utf-8") as f:
            expected = json.load(f)
    except ValueError as exc:
        with pytest.raises(cli.ScenarioFileError) as got:
            cli._read(str(path))
        detail = f"line {exc.lineno}" if isinstance(exc, json.JSONDecodeError) else str(exc)
        assert str(got.value).endswith(detail)
    else:
        assert cli._read(str(path)) == expected
