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
or parameter error.  The commands raise, and ``main`` alone reports an error:
one message on stderr and exit code 2, also for JSON nested too deeply, for
an allocation past memory (a sweep of 10^13 points), for a rejected value
of any size (echoed shortened by ``reprlib.repr``) and for a failed write to
stdout.  ``write_output`` is the one writer of output, ``_write_stderr``
of diagnostics; a stdout closed at start is a failed write, and a line that
stderr cannot take is dropped, with the exit code unchanged.  The residual
tolerance DEFAULT_TOL can be overridden with --tol or the HET3_TOL
environment variable; it must be positive and finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import reprlib
import sys
from gettext import gettext
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__, constructors, geometry, residuals, torsion
from .errors import Het3Error

# Python 3.13's pattern: older argparse reads "-3e-05" as an option, not a value
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

EXIT_SOLUTION = 0
EXIT_NOT_SOLUTION = 1
EXIT_ERROR = 2


class ScenarioFileError(Exception):
    """Raised on malformed or rejected input: scenario files and the
    tolerance (exit code 2)."""


def _float_token(x: float) -> str:
    """x rounded to 12 significant digits (zero unsigned), written as
    json.dumps writes a float."""
    if not math.isfinite(x):
        return json.dumps(x)
    if x == 0:
        return "0.0"
    text = "%.12g" % x
    # At 12 significant digits, the shortest repr of float(text) has text's
    # digits, and also its form where text has a point and no exponent, or a
    # negative exponent and a normal value: only then can repr, slow on
    # 12 digits, be skipped.
    if ("." in text and "e" not in text) or ("e-" in text and abs(x) >= 1e-307):
        return text
    return float.__repr__(float(text))


def _emit(obj, indent: str, out: list) -> None:
    """Append ``obj`` as json.dumps(..., indent=2) writes it at depth
    ``indent``, with every float rounded as ``_float_token`` rounds it; a leaf
    that no report holds (bool, int, empty container) goes to json.dumps."""
    if isinstance(obj, float):
        out.append(_float_token(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        head = "[\n" + inner
        for item in obj:
            if isinstance(item, float):  # a grid row: no recursion per entry
                out.append(head + _float_token(item))
            else:
                out.append(head)
                _emit(item, inner, out)
            head = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict) and obj:
        inner = indent + "  "
        head = "{\n" + inner
        for key, value in obj.items():
            if isinstance(value, float):  # a scalar field: no recursion
                out.append(head + _json_str(key) + ": " + _float_token(value))
            else:
                out.append(head + _json_str(key) + ": ")
                _emit(value, inner, out)
            head = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(obj))


def dump_json(doc) -> str:
    """A report document with every float rounded by ``_float_token``, written in
    one walk: the bytes that ``json.dumps`` with ``indent=2`` writes for the
    document with its floats rounded, without its pure-Python indenting
    encoder (CPython's C encoder does not indent)."""
    out: list = []
    _emit(doc, "", out)
    out.append("\n")
    return "".join(out)


def tolerance(flag: float | None) -> float:
    """--tol if given, else HET3_TOL, else DEFAULT_TOL; positive and finite."""
    tol = flag
    if tol is None:
        env = os.environ.get("HET3_TOL")
        try:
            tol = residuals.DEFAULT_TOL if env is None else float(env)
        except ValueError as exc:
            raise ScenarioFileError(f"HET3_TOL is not a number: {reprlib.repr(env)}") from exc
    if not 0.0 < tol < math.inf:
        raise ScenarioFileError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


def _is_number(value) -> bool:
    """A JSON number; bool is an int in Python, but not a number in JSON."""
    return type(value) is float or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def _numbers(value, shape: tuple) -> bool:
    """Whether value is nested lists of numbers of the given shape."""
    if not shape:
        return _is_number(value)
    return isinstance(value, (list, tuple)) and len(value) == shape[0] and all(
        _numbers(v, shape[1:]) for v in value
    )


def _not_finite(where: str) -> ScenarioFileError:
    return ScenarioFileError(f"{where} must be finite (no NaN or inf)")


def _array(value, where: str, shape: tuple) -> np.ndarray:
    if not _numbers(value, shape):
        raise ScenarioFileError(
            f"{where} must be numbers of shape {shape}, got {reprlib.repr(value)}"
        )
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:  # an integer literal past the float range
        raise _not_finite(where) from exc


def _number(value, where: str) -> float:
    """A JSON number as the float that np.array(value, dtype=float) holds."""
    if not _is_number(value):
        raise ScenarioFileError(f"{where} must be a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal past the float range
        raise _not_finite(where) from exc


def _check_fields(obj: dict, required: tuple, optional: tuple, where: str) -> None:
    """Reject a missing field and a field that the schema does not name."""
    for key in required:
        if key not in obj:
            raise ScenarioFileError(f"{where}missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioFileError(f"{where}unknown field {reprlib.repr(key)}")


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
        sc.validate()
    except Het3Error as exc:
        raise ScenarioFileError(str(exc)) from exc
    return sc


def load_scenario(path: str) -> residuals.SolitonScenario:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFileError(f"{path}: JSON nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return parse_scenario(doc)


def _discard(stream) -> None:
    """After a failed write, point the stream's descriptor, if it has one, at
    os.devnull: else the flush at exit fails again (exit status 120)."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor: None, a StringIO
        return
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), fd)


def write_output(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout (flushed) when path is
    None: the one writer of every command's output."""
    where = "stdout" if path is None else path
    if path is None and sys.stdout is None:  # descriptor 1 closed at start
        raise ScenarioFileError("cannot write stdout: it is closed")
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
    except OSError as exc:
        if path is None:
            _discard(sys.stdout)
        raise ScenarioFileError(f"cannot write {where}: {exc}") from exc


def _write_stderr(text: str) -> None:
    """Write text to stderr, or drop it when stderr cannot take it: closed at
    start (None) or on a descriptor that fails the write."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        _discard(sys.stderr)


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
            "xi": constructors.AXIS.tolist(),
        },
        "h": built.h,
        "phi": sc.phi.tolist(),
        "kappa": sc.kappa,
    }


def classification_doc(verdict: constructors.ClassificationVerdict) -> dict:
    return {
        "kind": verdict.kind,
        "ricci_eigenvalues": verdict.ricci_eigenvalues.tolist(),
        "simple_axis": None if verdict.simple_axis is None else verdict.simple_axis.tolist(),
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
    text = dump_json(doc) if args.json else "".join(
        [f"verdict: {report.verdict}  (tolerance {tol:g})\n"]
        + [f"  {name:<14s} {value:.12g}\n" for name, value in report.norms.items()]
        + [f"  classification: {classification.kind}\n"]
    )
    write_output(None, text)
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
    built = build(args)
    # full precision: json writes each float as its shortest round-trip repr
    write_output(args.output, json.dumps(scenario_to_doc(built), indent=2) + "\n")
    name = "lambda" if built.family.startswith("heisenberg") else "a"
    _write_stderr(
        f"family={built.family} alpha={built.alpha:.12g} gamma={built.gamma:.12g} "
        f"{name}={built.model_parameter:.12g} h={built.h:.12g} s_g={built.scalar:.12g}\n"
    )
    return EXIT_SOLUTION


# One CSV line per sweep row, each float as "%.12g": no field can need
# quoting.  An out-of-window row leaves alpha, h and residual_norm empty:
# exactly its None fields.
_SWEEP_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%s\n"
_SWEEP_OUT = "%.12g,%.12g,,,,%s\n"


def cmd_sweep(args) -> int:
    tol = tolerance(args.tol)
    rows = constructors.sweep_window(
        args.kappa, args.points, s_min=args.s_min, s_max=args.s_max, tol=tol
    )
    # one template for the whole sweep, filled by one % from the flat fields
    template = "".join(_SWEEP_OUT if row.alpha is None else _SWEEP_ROW for row in rows)
    fields = tuple(value for row in rows for value in row if value is not None)
    write_output(args.csv, "s_g,kappa_s_g,alpha,h,residual_norm,verdict\n" + template % fields)
    return EXIT_SOLUTION


def cmd_classify(args) -> int:
    verdict = constructors.classify(load_scenario(args.path))
    write_output(None, dump_json(classification_doc(verdict)))
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
    c.add_argument("--tol", type=float, default=None, help=(
        f"residual tolerance (default {residuals.DEFAULT_TOL:g}, env HET3_TOL)"))
    c.add_argument("--json", action="store_true", help="emit the full JSON report")

    b = sub.add_parser("construct", help="build an exact soliton scenario")
    b.add_argument("family", choices=list(constructors.FAMILIES))
    b.add_argument("--kappa", type=float, required=True)
    b.add_argument("--scalar", type=float, default=None,
                   help="target scalar curvature (negative)")
    b.add_argument("--sign", type=int, choices=[1, -1], default=1,
                   help="root sign for the generic reducible family")
    b.add_argument("-o", "--output", default=None, help="scenario file to write")

    s = sub.add_parser("sweep", help="sample the hyperbolic scalar-curvature window")
    s.add_argument("--kappa", type=float, required=True)
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--s-min", type=float, default=None)
    s.add_argument("--s-max", type=float, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--csv", default=None, help="CSV output path (default stdout)")

    k = sub.add_parser("classify", help="Ricci eigenvalue classification of a scenario")
    k.add_argument("path")

    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    # name -> the parser of that command, the one argparse dispatches to
    p.commands = dict(sub.choices)
    return p


# argparse set-up costs ~1 ms, longer than all the rest of a `check`
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` in one pass when argv[0] names a
    command: the rest goes straight to that command's parser, the one the
    top-level parser would hand it to.  Anything else (--version, -h, a
    missing or unknown command) goes through the top-level parser."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:  # reported by the top-level parser, as parse_args reports them
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    # by name at call time, so a handler replaced after the first call is seen
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ScenarioFileError, Het3Error, MemoryError) as exc:
        _write_stderr(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
