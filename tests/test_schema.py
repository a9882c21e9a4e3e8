"""The scenario parser and docs/scenario.schema.json accept the same language.

Every document the schema rejects, the parser rejects (and ``het3 check``
exits 2 on it); every valid document below passes both.  The parser is
stricter than the schema only where the schema cannot speak: finite
numbers, i < j, the Jacobi identity, a unit axis and a vanishing skew part.
"""

import copy
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from het3 import cli

SCHEMA = Draft202012Validator(
    json.loads((Path(__file__).parents[1] / "docs" / "scenario.schema.json").read_text())
)

# the example of the cli module docstring: the skew Heisenberg soliton at kappa = 1
EXAMPLE = {
    "structure_constants": [[1, 2, 3, 1.0]],
    "contorsion": {"alpha": 0.5, "beta": 0.0, "gamma": 0.0, "xi": [0.0, 0.0, 1.0]},
    "h": 1.0,
    "phi": [0.0, 0.0, 0.0],
    "kappa": 1.0,
}
MATRIX = {**EXAMPLE, "contorsion": {"matrix": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}}

CONSTRUCT = {
    "heisenberg-generic": ["--kappa", "1", "--scalar", "-2"],
    "heisenberg-skew": ["--kappa", "1"],
    # the README example
    "hyperbolic": ["--kappa", "1", "--scalar", "-6"],
    "boundary": ["--kappa", "1"],
}


DELETE = object()


def changed(doc, *path_and_value):
    """A deep copy of doc with doc[path[0]][path[1]]... set to value; a
    value of DELETE removes the key."""
    *path, value = path_and_value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


VALID = {
    "example": EXAMPLE,
    "matrix": MATRIX,
    "no_phi": changed(EXAMPLE, "phi", DELETE),
    "integer_numbers": {**EXAMPLE, "h": 1, "kappa": 1},
    # 2.0 is an integer to JSON Schema
    "integral_float_index": changed(EXAMPLE, "structure_constants", 0, 2, 3.0),
}

INVALID = {
    "not_object": [EXAMPLE],
    "bool_frame_index": changed(EXAMPLE, "structure_constants", 0, 0, True),
    "bool_last_index": changed(EXAMPLE, "structure_constants", 0, 2, True),
    "bool_value": changed(EXAMPLE, "structure_constants", 0, 3, True),
    "string_value": changed(EXAMPLE, "structure_constants", 0, 3, "1.0"),
    "index_zero": changed(EXAMPLE, "structure_constants", 0, 0, 0),
    "index_four": changed(EXAMPLE, "structure_constants", 0, 2, 4),
    "fractional_index": changed(EXAMPLE, "structure_constants", 0, 2, 2.5),
    "short_row": changed(EXAMPLE, "structure_constants", 0, [1, 2, 3]),
    "long_row": changed(EXAMPLE, "structure_constants", 0, [1, 2, 3, 1.0, 0.0]),
    "structure_constants_not_list": {**EXAMPLE, "structure_constants": 5},
    "h_string": {**EXAMPLE, "h": "1.0"},
    "h_bool": {**EXAMPLE, "h": True},
    "h_null": {**EXAMPLE, "h": None},
    "h_zero": {**EXAMPLE, "h": 0.0},
    "h_negative": {**EXAMPLE, "h": -1.0},
    "kappa_string": {**EXAMPLE, "kappa": "1"},
    "kappa_zero": {**EXAMPLE, "kappa": 0},
    "unknown_key": {**EXAMPLE, "Phi": [0.0, 0.0, 1.0]},
    "phi_short": {**EXAMPLE, "phi": [0.0, 0.0]},
    "phi_string": {**EXAMPLE, "phi": [0.0, "0", 0.0]},
    "phi_bool": {**EXAMPLE, "phi": [False, 0.0, 0.0]},
    "contorsion_not_object": {**EXAMPLE, "contorsion": [0.5, 0.0, 0.0]},
    "contorsion_extra_key": changed(EXAMPLE, "contorsion", "delta", 0.0),
    "contorsion_missing_alpha": changed(EXAMPLE, "contorsion", "alpha", DELETE),
    "beta_nonzero": changed(EXAMPLE, "contorsion", "beta", 0.1),
    "beta_bool": changed(EXAMPLE, "contorsion", "beta", False),
    "alpha_string": changed(EXAMPLE, "contorsion", "alpha", "0.5"),
    "xi_short": changed(EXAMPLE, "contorsion", "xi", [0.0, 1.0]),
    "xi_bool": changed(EXAMPLE, "contorsion", "xi", [0.0, 0.0, True]),
    "matrix_extra_key": changed(MATRIX, "contorsion", "note", "skew"),
    "matrix_short_row": changed(MATRIX, "contorsion", "matrix", 2, [0, 0.5]),
    "matrix_bool": changed(MATRIX, "contorsion", "matrix", 0, 0, True),
    "matrix_nested_too_deep": changed(MATRIX, "contorsion", "matrix", 0, 0, [0.5]),
    **{
        f"matrix_with_{key}": changed(MATRIX, "contorsion", key, EXAMPLE["contorsion"][key])
        for key in ("alpha", "beta", "gamma", "xi")
    },
    **{f"missing_{key}": changed(EXAMPLE, key, DELETE)
       for key in ("structure_constants", "contorsion", "h", "kappa")},
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_schema_rejects_parser_rejects(tmp_path, capsys, name):
    doc = INVALID[name]
    assert not SCHEMA.is_valid(doc)
    with pytest.raises(cli.ScenarioFileError):
        cli.parse_scenario(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_document_passes_both(tmp_path, name):
    doc = VALID[name]
    SCHEMA.validate(doc)
    cli.parse_scenario(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 0


@pytest.mark.parametrize("family", sorted(CONSTRUCT))
def test_construct_output_passes_both(tmp_path, capsys, family):
    assert cli.main(["construct", family, *CONSTRUCT[family]]) == 0
    doc = json.loads(capsys.readouterr().out)
    SCHEMA.validate(doc)
    cli.parse_scenario(doc)
    path = tmp_path / "constructed.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 0
