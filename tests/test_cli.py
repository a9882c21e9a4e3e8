"""CLI surface: scenario files, subcommands, exit codes, determinism."""

import json

import pytest

from het3 import cli

SKEW_HEISENBERG_DOC = {
    "structure_constants": [[1, 2, 3, 1.0]],
    "contorsion": {"alpha": 0.5, "beta": 0.0, "gamma": 0.0, "xi": [0.0, 0.0, 1.0]},
    "h": 1.0,
    "phi": [0.0, 0.0, 0.0],
    "kappa": 1.0,
}


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_tolerance_flag_and_env(self, tmp_path, monkeypatch):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc["h"] = 1.0001  # tiny miss
        path = write_doc(tmp_path, doc)
        assert cli.main(["check", path]) == 1
        assert cli.main(["check", path, "--tol", "1"]) == 0
        monkeypatch.setenv("HET3_TOL", "1")
        assert cli.main(["check", path]) == 0
        monkeypatch.setenv("HET3_TOL", "banana")
        assert cli.main(["check", path]) == 2

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
        ],
    )
    def test_malformed_value_exit_two(self, tmp_path, capsys, mutation, key, value):
        doc = dict(SKEW_HEISENBERG_DOC)
        doc[key] = value
        path = write_doc(tmp_path, doc, f"{mutation}.json")
        assert cli.main(["check", path]) == 2
        assert key.split("_")[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe{}", b'{"h": ' + b"1" * 5000 + b"}"],
        ids=["not_utf8", "integer_past_digit_limit"],
    )
    def test_unreadable_document_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

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

    def test_out_of_window(self, capsys):
        code = cli.main(["construct", "hyperbolic", "--kappa", "1", "--scalar", "-24"])
        assert code == 2
        err = capsys.readouterr().err
        assert "(-24, 0)" in err

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

    def test_single_point_rejected(self, capsys):
        assert cli.main(["sweep", "--kappa", "1", "--points", "1"]) == 2


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
    ],
    ids=["skew_kappa_inf", "boundary_kappa_inf", "generic_scalar_minus_inf",
         "sweep_kappa_inf", "sweep_s_min_nan", "sweep_s_max_inf",
         "generic_h_overflow", "skew_scalar_overflow", "hyperbolic_alpha_overflow",
         "boundary_overflow", "sweep_alpha_overflow"],
)
def test_non_finite_argument_exit_two(capsys, argv):
    # a RuntimeWarning on the way is an error under the pytest settings
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err and captured.out == ""


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
