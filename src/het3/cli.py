"""Command line interface: check, construct, sweep, classify.

Scenario files are JSON documents with 1-based frame indices:

    {
      "structure_constants": [[1, 2, 3, 1.0]],     # [i, j, k, value], i < j
      "contorsion": {"alpha": 0.5, "beta": 0.0, "gamma": 0.0,
                     "xi": [0.0, 0.0, 1.0]},
      "h": 1.0,                                    # positive
      "phi": [0.0, 0.0, 0.0],                      # optional, default 0
      "kappa": 1.0                                 # positive
    }

The contorsion may alternatively be {"matrix": [[...], [...], [...]]}
(row-major 3x3), with no other key.  Every number must be a finite JSON
number, not a string or a boolean; a key that docs/scenario.schema.json does
not name is rejected.  Exit codes: 0 = SOLUTION, 1 = NOT_SOLUTION, 2 = input
or parameter error.  The default residual tolerance is 1e-9 and can be
overridden with --tol or the HET3_TOL environment variable; it must be
positive and finite.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, constructors, geometry, residuals, torsion
from .errors import Het3Error, OutOfWindow

# Python 3.13's pattern: older argparse reads "-3e-05" as an option, not a value
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

EXIT_SOLUTION = 0
EXIT_NOT_SOLUTION = 1
EXIT_ERROR = 2


class ScenarioFileError(Exception):
    """Raised on malformed or rejected input: scenario files and the
    tolerance (exit code 2)."""


def fmt(x: float) -> float:
    """Round a float to 12 significant digits for deterministic output."""
    if x == 0:
        return 0.0
    return float(f"{x:.12g}")


def _fmt_tree(obj):
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, dict):
        return {k: _fmt_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt_tree(v) for v in obj]
    return obj


def dump_json(doc) -> str:
    """A report document with every float rounded by ``fmt``."""
    return json.dumps(_fmt_tree(doc), indent=2) + "\n"


def default_tolerance() -> float:
    env = os.environ.get("HET3_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ScenarioFileError(f"HET3_TOL is not a number: {env!r}") from exc
    return residuals.DEFAULT_TOL


def tolerance(flag: float | None) -> float:
    """--tol if given, else HET3_TOL, else the default; positive and finite."""
    tol = flag if flag is not None else default_tolerance()
    if not 0.0 < tol < math.inf:
        raise ScenarioFileError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


def _is_number(value) -> bool:
    """A JSON number; bool is an int in Python, but not a number in JSON."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, shape: tuple) -> bool:
    """Whether value is nested lists of numbers of the given shape."""
    if not shape:
        return _is_number(value)
    return isinstance(value, (list, tuple)) and len(value) == shape[0] and all(
        _numbers(v, shape[1:]) for v in value
    )


def _array(value, where: str, shape: tuple = ()) -> np.ndarray:
    if not _numbers(value, shape):
        what = f"numbers of shape {shape}" if shape else "a number"
        raise ScenarioFileError(f"{where} must be {what}, got {value!r}")
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:  # an integer literal past the float range
        raise ScenarioFileError(f"{where} must be finite (no NaN or inf)") from exc


def _number(value, where: str) -> float:
    return float(_array(value, where))


def _check_fields(obj: dict, required: tuple, optional: tuple, where: str) -> None:
    """Reject a missing field and a field that the schema does not name."""
    for key in required:
        if key not in obj:
            raise ScenarioFileError(f"{where}missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioFileError(f"{where}unknown field {key!r}")


def parse_scenario(doc: dict) -> residuals.SolitonScenario:
    """Parse a scenario JSON document, with field-level diagnostics.

    Accepts the language of docs/scenario.schema.json, and on top of it
    requires i < j, finite numbers and a valid model and contorsion.
    """
    if not isinstance(doc, dict):
        raise ScenarioFileError("scenario document must be a JSON object")
    _check_fields(doc, ("structure_constants", "contorsion", "h", "kappa"), ("phi",), "")
    if not isinstance(doc["structure_constants"], list):
        raise ScenarioFileError("structure_constants must be a list of [i, j, k, value]")
    entries = []
    for n, row in enumerate(doc["structure_constants"]):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ScenarioFileError(
                f"structure_constants[{n}]: expected [i, j, k, value]"
            )
        i, j, k, v = row
        # 2.0 is an integer to the schema, True is not
        if not all(_is_number(x) and x in (1, 2, 3) for x in (i, j, k)):
            raise ScenarioFileError(
                f"structure_constants[{n}]: indices must be integers in 1..3"
            )
        if not i < j:
            raise ScenarioFileError(f"structure_constants[{n}]: requires i < j")
        value = _number(v, f"structure_constants[{n}] value")
        entries.append((int(i) - 1, int(j) - 1, int(k) - 1, value))
    model = geometry.StructureConstants.from_entries(entries)

    ct_doc = doc["contorsion"]
    if not isinstance(ct_doc, dict):
        raise ScenarioFileError("contorsion must be an object")
    if "matrix" in ct_doc:
        _check_fields(ct_doc, ("matrix",), (), "contorsion: ")
        contorsion = torsion.Contorsion(_array(ct_doc["matrix"], "contorsion.matrix", (3, 3)))
    else:
        _check_fields(ct_doc, ("alpha", "beta", "gamma", "xi"), (), "contorsion: ")
        if _number(ct_doc["beta"], "contorsion.beta") != 0.0:
            raise ScenarioFileError(
                "contorsion.beta must be 0: on a compact model the trace "
                "projection delta xi = 2 beta forces beta = 0"
            )
        try:
            params = torsion.ReducibleTorsionParams(
                alpha=_number(ct_doc["alpha"], "contorsion.alpha"),
                beta=0.0,
                gamma=_number(ct_doc["gamma"], "contorsion.gamma"),
                xi=_array(ct_doc["xi"], "contorsion.xi", (3,)),
            )
        except Het3Error as exc:
            raise ScenarioFileError(f"contorsion: {exc}") from exc
        contorsion = torsion.build_reducible(params)

    h = _number(doc["h"], "h")
    kappa = _number(doc["kappa"], "kappa")
    phi = _array(doc.get("phi", [0.0, 0.0, 0.0]), "phi", (3,))
    sc = residuals.SolitonScenario(
        model=model, contorsion=contorsion, h=h, kappa=kappa, phi=phi
    )
    try:
        residuals.validate_scenario(sc)
    except Het3Error as exc:
        raise ScenarioFileError(str(exc)) from exc
    return sc


def load_scenario(path: str) -> residuals.SolitonScenario:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return parse_scenario(doc)


def scenario_to_doc(built: constructors.ConstructedSoliton) -> dict:
    """Serialize a constructed soliton as a scenario file document."""
    sc = built.scenario
    c = sc.model.c
    rows = []
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                if c[i, j, k] != 0.0:
                    rows.append([i + 1, j + 1, k + 1, c[i, j, k]])
    return {
        "structure_constants": rows,
        "contorsion": {
            "alpha": built.alpha,
            "beta": 0.0,
            "gamma": built.gamma,
            "xi": [0.0, 0.0, 1.0],
        },
        "h": built.h,
        "phi": [0.0, 0.0, 0.0],
        "kappa": sc.kappa,
    }


def classification_doc(verdict: constructors.ClassificationVerdict) -> dict:
    return {
        "kind": verdict.kind,
        "ricci_eigenvalues": [float(v) for v in verdict.ricci_eigenvalues],
        "simple_axis": None
        if verdict.simple_axis is None
        else [float(v) for v in verdict.simple_axis],
    }


def report_doc(sc, report, classification) -> dict:
    return {
        "verdict": report.verdict,
        "norms": dict(report.norms),
        "residuals": {
            "einstein_sym": report.einstein_sym.tolist(),
            "einstein_skew": report.einstein_skew.tolist(),
            "yang_mills": report.yang_mills.tolist(),
            "dilaton": report.dilaton,
            "maxwell": report.maxwell.tolist(),
            "trace_identity": report.trace_identity,
            "remark_identity": report.remark_identity,
        },
        "classification": classification_doc(classification),
        "inputs": {
            "h": sc.h,
            "kappa": sc.kappa,
            "phi": sc.phi.tolist(),
        },
        "tolerance": report.tolerance,
        "tool_version": __version__,
    }


def cmd_check(args) -> int:
    tol = tolerance(args.tol)
    sc = load_scenario(args.path)
    report = residuals.full_report(sc, tol=tol)
    classification = constructors.classify(sc)
    doc = report_doc(sc, report, classification)
    if args.json:
        sys.stdout.write(dump_json(doc))
    else:
        print(f"verdict: {report.verdict}  (tolerance {tol:g})")
        for name, value in report.norms.items():
            print(f"  {name:<14s} {value:.12g}")
        print(f"  classification: {classification.kind}")
    return EXIT_SOLUTION if report.is_solution else EXIT_NOT_SOLUTION


# family -> (constructor of the parsed arguments, whether it needs --scalar)
FAMILY_TABLE = {
    constructors.HEISENBERG_GENERIC: (
        lambda args: constructors.construct_generic_reducible(
            args.kappa, args.scalar, sign=args.sign
        ),
        True,
    ),
    constructors.HEISENBERG_SKEW: (
        lambda args: constructors.construct_skew_heisenberg(args.kappa), False
    ),
    constructors.HYPERBOLIC: (
        lambda args: constructors.construct_hyperbolic_skew(args.kappa, args.scalar), True
    ),
    constructors.BOUNDARY: (
        lambda args: constructors.boundary_vanishing_torsion(args.kappa), False
    ),
}


def cmd_construct(args) -> int:
    build, needs_scalar = FAMILY_TABLE[args.family]
    if needs_scalar and args.scalar is None:
        raise ScenarioFileError("--scalar is required for this family")
    try:
        built = build(args)
    except OutOfWindow as exc:
        print(f"error: {exc}", file=sys.stderr)
        low, high = constructors.scalar_window(args.kappa)
        print(f"admissible s_g window for kappa={args.kappa:g}: ({low:g}, {high:g})",
              file=sys.stderr)
        return EXIT_ERROR

    # full precision: json writes each float as its shortest round-trip repr
    payload = json.dumps(scenario_to_doc(built), indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)
    name = "lambda" if built.family.startswith("heisenberg") else "a"
    print(
        f"family={built.family} alpha={fmt(built.alpha):.12g} "
        f"gamma={fmt(built.gamma):.12g} {name}={fmt(built.model_parameter):.12g} "
        f"h={fmt(built.h):.12g} s_g={fmt(built.scalar):.12g}",
        file=sys.stderr,
    )
    return EXIT_SOLUTION


def cmd_sweep(args) -> int:
    tol = tolerance(args.tol)
    if args.points < 2:
        print("error: --points must be at least 2", file=sys.stderr)
        return EXIT_ERROR
    try:
        rows = constructors.sweep_window(
            args.kappa, args.points, s_min=args.s_min, s_max=args.s_max, tol=tol
        )
    except Het3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["s_g", "kappa_s_g", "alpha", "h", "residual_norm", "verdict"])
        for row in rows:
            writer.writerow(
                [
                    f"{row.scalar:.12g}",
                    f"{row.kappa_scalar:.12g}",
                    "" if row.alpha is None else f"{row.alpha:.12g}",
                    "" if row.h is None else f"{row.h:.12g}",
                    "" if row.residual_norm is None else f"{row.residual_norm:.12g}",
                    row.verdict,
                ]
            )

    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="\n") as f:
                emit(f)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        emit(sys.stdout)
    return EXIT_SOLUTION


def cmd_classify(args) -> int:
    sc = load_scenario(args.path)
    verdict = constructors.classify(sc)
    sys.stdout.write(dump_json(classification_doc(verdict)))
    return EXIT_SOLUTION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="het3",
        description="Heterotic soliton residual checker on homogeneous 3D models",
    )
    p.add_argument("--version", action="version", version=f"het3 {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="evaluate all residuals of a scenario file")
    c.add_argument("path")
    c.add_argument("--tol", type=float, default=None,
                   help="residual tolerance (default 1e-9, env HET3_TOL)")
    c.add_argument("--json", action="store_true", help="emit the full JSON report")
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("construct", help="build an exact soliton scenario")
    b.add_argument("family", choices=list(constructors.FAMILIES))
    b.add_argument("--kappa", type=float, required=True)
    b.add_argument("--scalar", type=float, default=None,
                   help="target scalar curvature (negative)")
    b.add_argument("--sign", type=int, choices=[1, -1], default=1,
                   help="root sign for the generic reducible family")
    b.add_argument("-o", "--output", default=None, help="scenario file to write")
    b.set_defaults(func=cmd_construct)

    s = sub.add_parser("sweep", help="sample the hyperbolic scalar-curvature window")
    s.add_argument("--kappa", type=float, required=True)
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--s-min", type=float, default=None)
    s.add_argument("--s-max", type=float, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--csv", default=None, help="CSV output path (default stdout)")
    s.set_defaults(func=cmd_sweep)

    k = sub.add_parser("classify", help="Ricci eigenvalue classification of a scenario")
    k.add_argument("path")
    k.set_defaults(func=cmd_classify)

    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioFileError, Het3Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
