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
or parameter error.  The commands raise, and ``main`` reports an error (a
check also reports each failed file; ``_error`` writes both): one message on
stderr and exit code 2, also for JSON nested too deeply, for an allocation
past memory (a sweep of 10^13 points), for a rejected value of any size
(echoed shortened by ``reprlib.repr``) and for a failed write to stdout.
``write_output`` is the one writer of output, ``_write_stderr`` of
diagnostics; a stdout closed at start is a failed write, and a line that
stderr cannot take is dropped, with the exit code unchanged.  The residual
tolerance DEFAULT_TOL can be overridden with --tol or the HET3_TOL
environment variable; it must be positive and finite.

``check PATH [PATH ...]`` checks every file in one batched pass (in blocks
of CHECK_BLOCK files): each document is parsed to plain floats, the valid
ones become one scenario (batch shape (N,), or () for one file, the N = 1
case), and that scenario goes through one full_report, which validates it,
and one classify.  Each file's output is byte for byte what its own check
writes, in the order of the paths, and the exit code is the worst over the
files (2 over 1 over 0).  One path or many take the same path: a file that
fails writes its error line, ``error: PATH: message`` with more than one
path and ``error: message`` with one, and the others still get their
reports.  Only a batch that raises is split, so that each bad file gets its
own error: the files that its error names (``invalid_samples``, set by
every per-sample check, validation and overflow alike) are checked alone
and the rest again as one batch; an error that names none (out of memory)
names every file.  Text output computes neither identity.
Every JSON document is written by json.dumps with indent=2 as a layout,
its float and string leaves replaced by ``%s`` slots, filled by one walk
over those leaves; a report reuses the layout of its shape (remark_identity
null or not, simple_axis null or not), made from the first report of that
shape.

The command line is argparse's (``build_parser``), built once per process.
A well-formed command line after a command's name is read straight from
that command parser's action table (``_read_command``): exact option
strings with their values, one run of positionals, each value through its
option's type and choices, every required option present.  Anything else
(``--version``, ``-h``, an unknown command, an abbreviation, ``--``, a bad
value or a missing option) goes to argparse's own dispatch, the top-level
``parse_args``, so that help, usage and errors are argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import re
import reprlib
import sys
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


# The errors that main, and a check per file, report as one error line with
# exit code 2
_ERRORS = (ScenarioFileError, Het3Error, MemoryError)


def _float_token(x: float) -> str:
    """x rounded to 12 significant digits (zero unsigned), written as
    json.dumps writes a float."""
    if x == 0:
        return "0.0"
    text = "%.12g" % x
    # At 12 significant digits, the shortest repr of float(text) has text's
    # digits, and also its form where text has a point and no exponent, or a
    # negative exponent and a normal value: only then can repr, slow on
    # 12 digits, be skipped.
    if ("." in text and "e" not in text) or ("e-" in text and abs(x) >= 1e-307):
        return text
    if not math.isfinite(x):
        return json.dumps(x)
    return float.__repr__(float(text))


def _skeleton(obj):
    """obj with each float and string leaf replaced by the sentinel "\\0"."""
    if isinstance(obj, (float, str)):
        return "\0"
    if isinstance(obj, dict):
        return {key: _skeleton(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_skeleton(value) for value in obj]
    return obj


def _layout(doc) -> str:
    """The layout of doc's shape: the text that json.dumps with indent=2
    writes for doc, with each float and string token a ``%s`` slot and each
    other ``%`` doubled, so that ``_fill`` writes any document of that shape
    into it.  json writes the sentinel of ``_skeleton`` as ``"\\u0000"``,
    which no key may contain."""
    text = json.dumps(_skeleton(doc), indent=2).replace("%", "%%")
    return text.replace('"\\u0000"', "%s") + "\n"


def _leaf_tokens(items, tokens: list) -> list:
    """Append to tokens the token of each float and string leaf in items,
    in document order, as json.dumps writes it (each float rounded by
    ``_float_token``); return tokens."""
    for value in items:
        if isinstance(value, float):
            # a zero, most of an exact solution's residuals, without the call
            tokens.append("0.0" if value == 0 else _float_token(value))
        elif isinstance(value, str):  # a batch's verdict and kind are numpy strings
            tokens.append(_json_str(value))
        elif isinstance(value, dict):
            _leaf_tokens(value.values(), tokens)
        elif isinstance(value, (list, tuple)):
            _leaf_tokens(value, tokens)
    return tokens


def _fill(layout: str, doc) -> str:
    """doc written into the layout of its shape (``_layout``)."""
    return layout % tuple(_leaf_tokens((doc,), []))


def dump_json(doc) -> str:
    """doc as json.dumps with indent=2 writes it, each float rounded by
    ``_float_token``: json writes the keys, the nesting and every other
    leaf (``_layout``), and the tokens of its float and string leaves fill
    the slots.  No key may contain NUL; the keys of a report and a
    classification are fixed identifiers."""
    return _fill(_layout(doc), doc)


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


def _is_index(value) -> bool:
    """A frame index of the schema: 1, 2 or 3, as an integer or a float."""
    return type(value) is not bool and value in (1, 2, 3)


def _numbers(value, shape: tuple) -> bool:
    """Whether value is nested lists of numbers of the given shape."""
    if not isinstance(value, (list, tuple)) or len(value) != shape[0]:
        return False
    if len(shape) == 1:
        return all(map(_is_number, value))
    return all(_numbers(v, shape[1:]) for v in value)


def _floats(value, where: str, shape: tuple) -> list:
    """A vector (3,) or grid (3, 3) of JSON numbers as lists of plain floats,
    each read as ``_number`` reads it."""
    if not _numbers(value, shape):
        raise ScenarioFileError(
            f"{where} must be numbers of shape {shape}, got {reprlib.repr(value)}"
        )
    if len(shape) == 1:
        return [_number(v, where) for v in value]
    return [[_number(v, where) for v in row] for row in value]


def _number(value, where: str) -> float:
    """A JSON number as a plain float.  An integer is read from its digits,
    as json reads a float literal: the nearest float, or ±inf past the float
    range (as 1e400 is read)."""
    if not _is_number(value):
        raise ScenarioFileError(f"{where} must be a number, got {reprlib.repr(value)}")
    return value if type(value) is float else float(str(value))


def _check_fields(obj: dict, required: tuple, optional: tuple, where: str) -> None:
    """Reject a missing field and a field that the schema does not name."""
    for key in required:
        if key not in obj:
            raise ScenarioFileError(f"{where}missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioFileError(f"{where}unknown field {reprlib.repr(key)}")


def _fields(doc) -> tuple:
    """Parse a scenario document to plain floats, with field-level diagnostics:
    (entries, contorsion, h, kappa, phi), where entries maps each 0-based
    index triple (i, j, k), i < j, to the sum of its values in file order,
    and contorsion is the grid as rows or the checked normal form.

    Accepts the language of docs/scenario.schema.json, and on top of it
    requires i < j and a unit xi; the scenario that ``_scenario`` builds is
    validated as a whole, finiteness included (an integer past the float
    range is ±inf here, as a float literal past it is).
    """
    if not isinstance(doc, dict):
        raise ScenarioFileError("scenario document must be a JSON object")
    _check_fields(doc, ("structure_constants", "contorsion", "h", "kappa"), ("phi",), "")
    if not isinstance(doc["structure_constants"], list):
        raise ScenarioFileError("structure_constants must be a list of [i, j, k, value]")
    entries: dict = {}
    for n, row in enumerate(doc["structure_constants"]):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ScenarioFileError(
                f"structure_constants[{n}]: expected [i, j, k, value]"
            )
        i, j, k, v = row
        # 2.0 is an integer to the schema, True is not
        if not (_is_index(i) and _is_index(j) and _is_index(k)):
            raise ScenarioFileError(
                f"structure_constants[{n}]: indices must be integers in 1..3"
            )
        if not i < j:
            raise ScenarioFileError(f"structure_constants[{n}]: requires i < j")
        value = _number(v, f"structure_constants[{n}] value")
        key = (int(i) - 1, int(j) - 1, int(k) - 1)
        entries[key] = entries.get(key, 0.0) + value

    ct_doc = doc["contorsion"]
    if not isinstance(ct_doc, dict):
        raise ScenarioFileError("contorsion must be an object")
    if "matrix" in ct_doc:
        _check_fields(ct_doc, ("matrix",), (), "contorsion: ")
        contorsion = _floats(ct_doc["matrix"], "contorsion.matrix", (3, 3))
    else:
        _check_fields(ct_doc, ("alpha", "beta", "gamma", "xi"), (), "contorsion: ")
        if _number(ct_doc["beta"], "contorsion.beta") != 0.0:
            raise ScenarioFileError(
                "contorsion.beta must be 0: on a compact model the trace "
                "projection delta xi = 2 beta forces beta = 0"
            )
        try:
            contorsion = torsion.ReducibleTorsionParams(
                alpha=_number(ct_doc["alpha"], "contorsion.alpha"),
                beta=0.0,
                gamma=_number(ct_doc["gamma"], "contorsion.gamma"),
                xi=_floats(ct_doc["xi"], "contorsion.xi", (3,)),
            )
        except Het3Error as exc:
            raise ScenarioFileError(f"contorsion: {exc}") from exc

    h = _number(doc["h"], "h")
    kappa = _number(doc["kappa"], "kappa")
    return entries, contorsion, h, kappa, _floats(doc.get("phi", [0.0, 0.0, 0.0]), "phi", (3,))


def _scenario(files: list) -> residuals.SolitonScenario:
    """The parsed documents (``_fields``) as one scenario, not yet validated:
    one model, one contorsion, and h, kappa and phi.  N documents make a
    batch of shape (N,), and one document batch shape (), the N = 1 case of
    every kernel.  Every sample is bit for bit its document's own scenario."""
    entries, contorsions, h, kappa, phi = zip(*files)
    # a column of per-document values: an array, or the one document's value
    stack = np.array if len(files) > 1 else operator.itemgetter(0)
    # One column per index triple, in the order the documents first name
    # them: each document's sum of its values, or 0.0.  from_entries adds a
    # column into zero rows, where adding the values one by one gives the
    # same bits; a batch with no entry is flat.
    keys = dict.fromkeys(key for document in entries for key in document)
    model = geometry.StructureConstants.from_entries(
        [(*key, stack([document.get(key, 0.0) for document in entries])) for key in keys]
        or [(0, 1, 0, stack([0.0] * len(files)))]
    )
    return residuals.SolitonScenario(
        model=model,
        contorsion=_contorsion(contorsions),
        h=stack(h),
        kappa=stack(kappa),
        phi=stack(phi),
    )


def _contorsion(forms: tuple) -> torsion.Contorsion:
    """The contorsion of the documents as one batch of shape (N,), in their
    order: the checked normal forms through one torsion.reducible, without
    checking their axes again, and each grid given as rows as it is.  One
    document is the N = 1 case, built at batch shape () by ``_scenario``'s
    column rule."""
    stack = np.array if len(forms) > 1 else operator.itemgetter(0)
    normal = [form for form in forms if type(form) is not list]
    if normal:
        a = torsion.reducible(stack([p.alpha for p in normal]), stack([p.gamma for p in normal]),
                              stack([p.xi for p in normal])).a
        built = iter(a if a.ndim > 2 else [a])  # one grid per normal form
    return torsion.Contorsion(stack([form if type(form) is list else next(built)
                                     for form in forms]))


def parse_scenario(doc: dict) -> residuals.SolitonScenario:
    """Parse and validate a scenario JSON document (``_fields``), as a
    scenario of batch shape () (``_scenario``)."""
    sc = _scenario([_fields(doc)])
    try:
        residuals.validate_scenario(sc)
    except Het3Error as exc:
        raise ScenarioFileError(str(exc)) from exc
    return sc


def _read(path: str):
    """The JSON document in the file at path, read as UTF-8 text with
    universal newlines (the newlines of open's text mode), in fewer steps."""
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFileError(f"{path}: JSON nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ScenarioFileError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> residuals.SolitonScenario:
    return parse_scenario(_read(path))


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


def _error(exc: BaseException, path: str | None = None) -> int:
    """Write the error line of exc, naming path if given; EXIT_ERROR."""
    where = "" if path is None else f"{path}: "
    _write_stderr(f"error: {where}{str(exc) or 'out of memory'}\n")
    return EXIT_ERROR


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


def _at(value, n: tuple):
    """Sample n of a batch's value, or a single scenario's value (n = ())."""
    return value[n] if n else value


def _present(value, n: tuple):
    """Sample n of a value that a sample may lack: None where a single
    scenario has None, or a batch has NaN."""
    if value is None:
        return None
    value = _at(value, n)
    return None if n and math.isnan(value.item(0)) else value


def classification_doc(verdict: constructors.ClassificationVerdict, n: tuple = ()) -> dict:
    """The classification of a scenario, or of sample n of a batch."""
    axis = _present(verdict.simple_axis, n)
    return {
        "kind": _at(verdict.kind, n),
        "ricci_eigenvalues": _at(verdict.ricci_eigenvalues, n).tolist(),
        "simple_axis": None if axis is None else axis.tolist(),
    }


def report_doc(sc, report, classification, n: tuple = ()) -> dict:
    """The report document of a scenario, or of sample n of a batch."""
    return {
        "verdict": _at(report.verdict, n),
        "norms": {name: _at(norm, n) for name, norm in report.norms.items()},
        "residuals": {
            "einstein_sym": _at(report.einstein_sym, n).tolist(),
            "einstein_skew": _at(report.einstein_skew, n).tolist(),
            "yang_mills": _at(report.yang_mills, n).tolist(),
            "dilaton": _at(report.dilaton, n),
            "maxwell": _at(report.maxwell, n).tolist(),
            "trace_identity": _at(report.trace_identity, n),
            "remark_identity": _present(report.remark_identity, n),
        },
        "classification": classification_doc(classification, n),
        "inputs": {
            "h": _at(sc.h, n),
            "kappa": _at(sc.kappa, n),
            "phi": _at(sc.phi, n).tolist(),
        },
        "tolerance": report.tolerance,
        "tool_version": __version__,
    }


# Report layouts by shape, (remark_identity null, simple_axis null), each
# made from the first report of its shape
_LAYOUTS: dict = {}


def _json_report(sc, report, classification, n: tuple) -> str:
    """``dump_json(report_doc(sc, report, classification, n))``, with the
    layout of the report's shape made once per process."""
    doc = report_doc(sc, report, classification, n)
    shape = (doc["residuals"]["remark_identity"] is None,
             doc["classification"]["simple_axis"] is None)
    layout = _LAYOUTS.get(shape)
    if layout is None:
        layout = _LAYOUTS[shape] = _layout(doc)
    return _fill(layout, doc)


def _text_report(sc, report, classification, n) -> str:
    """The text report of sample n: its verdict, norms and kind, so that
    neither identity is computed."""
    return "".join(
        [f"verdict: {_at(report.verdict, n)}  (tolerance {report.tolerance:g})\n"]
        + [f"  {name:<14s} {_at(norm, n):.12g}\n" for name, norm in report.norms.items()]
        + [f"  classification: {_at(classification.kind, n)}\n"]
    )


def _check_batch(sc, tol: float, as_json: bool) -> list:
    """(output text, exit code) per sample of a scenario (``_scenario``),
    from one full_report, which validates it, and one classify."""
    report = residuals.full_report(sc, tol=tol)
    classification = constructors.classify(sc)
    render = _json_report if as_json else _text_report
    solved = report.is_solution
    return [
        (render(sc, report, classification, n),
         EXIT_SOLUTION if _at(solved, n) else EXIT_NOT_SOLUTION)
        # each index of the batch shape: the one () of a single scenario
        for n in itertools.product(*map(range, report.worst.shape))
    ]


def _check_split(files: list, tol: float, as_json: bool) -> list:
    """(output text, exit code) per parsed document, or the error to report
    for it: one batch, and only if that raises, each document that the
    batch's error names in its ``invalid_samples`` alone and the others
    again as one batch.  An error that names no document (a batch that
    could not be built) names every one."""
    try:
        return _check_batch(_scenario(files), tol, as_json)
    except _ERRORS as exc:
        if len(files) == 1:
            return [exc]
        invalid = getattr(exc, "invalid_samples", None)
    if invalid is None:
        invalid = np.ones(len(files), dtype=bool)
    parts = [[m] for m in np.flatnonzero(invalid)] + [np.flatnonzero(~invalid)]
    results = [None] * len(files)
    for part in parts:
        if len(part):
            for m, result in zip(part, _check_split([files[m] for m in part], tol, as_json)):
                results[m] = result
    return results


# Files per batch of a check: memory stays bounded at any number of files.
CHECK_BLOCK = 1024


def _check_files(paths: list, tol: float, as_json: bool, named: bool) -> int:
    """Check the files at paths in one batch and write their reports to
    stdout, in order; return the worst exit code.  Each failed file gets an
    error line, which names the file when ``named``.  Only when the batch
    raises is it split (``_check_split``), so that each bad file gets its
    own error."""
    files, failed = [], {}  # the parsed documents; the error at each other position
    for n, path in enumerate(paths):
        try:
            files.append(_fields(_read(path)))
        except _ERRORS as exc:
            failed[n] = exc
    results = iter(_check_split(files, tol, as_json) if files else ())
    code, texts = EXIT_SOLUTION, []
    for n, path in enumerate(paths):
        result = failed[n] if n in failed else next(results)
        if type(result) is tuple:
            texts.append(result[0])
            code = max(code, result[1])
        else:
            code = _error(result, path if named else None)
    if texts:
        write_output(None, "".join(texts))
    return code


def cmd_check(args) -> int:
    tol = tolerance(args.tol)
    paths = args.paths
    return max(
        _check_files(paths[start:start + CHECK_BLOCK], tol, args.json, len(paths) > 1)
        for start in range(0, len(paths), CHECK_BLOCK)
    )


# family -> (constructor of the parsed arguments, the options it reads)
FAMILY_TABLE = {
    constructors.HEISENBERG_GENERIC: (
        lambda args: constructors.construct_generic_reducible(
            args.kappa, args.scalar, sign=args.sign or 1  # --sign not given: +1
        ),
        ("scalar", "sign"),
    ),
    constructors.HEISENBERG_SKEW: (
        lambda args: constructors.construct_skew_heisenberg(args.kappa), ()
    ),
    constructors.HYPERBOLIC: (
        lambda args: constructors.construct_hyperbolic_skew(args.kappa, args.scalar), ("scalar",)
    ),
    constructors.BOUNDARY: (
        lambda args: constructors.boundary_vanishing_torsion(args.kappa), ()
    ),
}


def cmd_construct(args) -> int:
    build, reads = FAMILY_TABLE[args.family]
    for option in ("scalar", "sign"):
        if getattr(args, option) is not None and option not in reads:
            raise ScenarioFileError(f"the {args.family} family does not read --{option}")
    if "scalar" in reads and args.scalar is None:
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
    lines = [_SWEEP_OUT % (row.scalar, row.kappa_scalar, row.verdict) if row.alpha is None
             else _SWEEP_ROW % row for row in rows]
    write_output(args.csv, "s_g,kappa_s_g,alpha,h,residual_norm,verdict\n" + "".join(lines))
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

    c = sub.add_parser("check", help="evaluate all residuals of each scenario file")
    c.add_argument("paths", nargs="+", metavar="path")
    c.add_argument("--tol", type=float, default=None, help=(
        f"residual tolerance (default {residuals.DEFAULT_TOL:g}, env HET3_TOL)"))
    c.add_argument("--json", action="store_true", help="emit the full JSON report")

    b = sub.add_parser("construct", help="build an exact soliton scenario")
    b.add_argument("family", choices=list(constructors.FAMILIES))
    b.add_argument("--kappa", type=float, required=True)
    b.add_argument("--scalar", type=float, default=None,
                   help="target scalar curvature (negative)")
    b.add_argument("--sign", type=int, choices=[1, -1], default=None,
                   help="root sign for the generic reducible family (default 1)")
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


# argparse set-up, once per process: a median 2.0 ms (scripts/startup.py's
# ``parser`` phase, 12 pairs, 2-vCPU Xeon VM, Python 3.11.7)
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _action_table(command: argparse.ArgumentParser) -> tuple:
    """A command parser's argparse action table, as ``_read_command`` reads
    it: its options that store one value and its store_true flags, by option
    string; its positionals; the default of each dest that argparse sets a
    default for; and its required options.  Any other option (``-h``) is
    left out, so that a command line naming it goes to argparse."""
    actions = command._actions
    return (
        {string: action for action in actions
         if (type(action), action.nargs) in ((argparse._StoreAction, None),
                                             (argparse._StoreTrueAction, 0))
         for string in action.option_strings},
        [action for action in actions if not action.option_strings],
        {action.dest: action.default for action in actions
         if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS},
        [action for action in actions if action.required and action.option_strings],
    )


def _value(action: argparse.Action, text: str):
    """text through action's type, checked against its choices, as argparse
    takes a value; ValueError for one argparse rejects."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _read_command(command: argparse.ArgumentParser, argv: list) -> dict | None:
    """The values that ``command`` parses from a well-formed argv, read
    straight from its action table (``_action_table``); None for anything
    else.  Well-formed: exact option strings, each with its value in the next
    token or after ``=`` (a flag without ``=``), and one contiguous run of
    positionals that fits their nargs (None or "+"); every value converted by
    its action's type and in its choices, one that starts with "-" a
    negative number (``_NEGATIVE_NUMBER``), and every required option given.
    Abbreviations, ``--``, ``-h``, an attached short option (``-oPATH``), a
    second run of positionals, a bad value or a missing option all give
    None."""
    options, positionals, defaults, required = _action_table(command)
    values, seen, run, closed = dict(defaults), set(), [], False
    tokens = iter(argv)
    try:
        for token in tokens:
            if token[:1] != "-" or _NEGATIVE_NUMBER.match(token):
                if closed:  # a second run of positionals
                    return None
                run.append(token)
                continue
            closed = bool(run)
            option, equals, text = token.partition("=")
            action = options.get(option)
            if action is None:
                return None
            if action.nargs == 0:
                if equals:
                    return None
                values[action.dest] = action.const
            else:
                if not equals:
                    text = next(tokens, None)
                    if text is None:
                        return None
                if text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
                    return None
                values[action.dest] = _value(action, text)
            seen.add(action)
        nargs = [action.nargs for action in positionals]
        if nargs == ["+"] and run:
            values[positionals[0].dest] = [_value(positionals[0], text) for text in run]
        elif nargs == [None] * len(run):
            for action, text in zip(positionals, run):
                values[action.dest] = _value(action, text)
        else:
            return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return values if seen.issuperset(required) else None


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``.  When argv[0] names a command and
    the rest is a well-formed command line, the command parser's own action
    table gives its values (``_read_command``), without argparse parsing.
    Anything else (--version, -h, a missing or unknown command, an
    abbreviation, ``--``, a bad value or a missing option) goes through
    argparse's own dispatch, which writes its own help, usage and errors."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    values = None if command is None else _read_command(command, argv[1:])
    if values is None:
        return parser.parse_args(argv)
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # by name at call time, so a handler replaced after the first call is seen
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except _ERRORS as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
