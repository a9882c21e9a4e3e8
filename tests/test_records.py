"""The record rule: a record that only holds fields is a NamedTuple; every
other record is a class with an ``__init__``, with ``__slots__`` unless it
caches on itself through ``frame.cached_property``.  No record is frozen,
and no het3 module imports ``dataclasses``."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import het3
from het3 import constructors, frame, geometry, residuals, torsion

MODULES = [importlib.import_module(f"het3.{m.name}") for m in pkgutil.iter_modules(het3.__path__)]

# each record with one value per field, by its field names in order
SCENARIO = constructors.construct_skew_heisenberg(1.0).scenario
OPERATOR = frame.CurvatureOperator(np.eye(3))
FIELD_RECORDS = {
    geometry.CurvatureData: dict(riemann=OPERATOR, ricci=np.eye(3), scalar=3.0),
    torsion.TorsionConnection: dict(base=np.zeros((3, 3, 3)), total=np.ones((3, 3, 3))),
    constructors.ClassificationVerdict: dict(
        kind="FLAT", ricci_eigenvalues=np.zeros(3), simple_axis=None),
    constructors.ConstructedSoliton: dict(
        scenario=SCENARIO, family=constructors.HEISENBERG_SKEW, alpha=0.5, gamma=0.0,
        h=1.0, scalar=-0.5, model_parameter=1.0),
}
# each class that caches on itself, with one value per __init__ parameter
REPORT = residuals.full_report(SCENARIO)
CACHING = {
    residuals.SolitonScenario: dict(model=SCENARIO.model, contorsion=SCENARIO.contorsion,
                                    h=1.0, kappa=2.0, phi=[0, 0, 1]),
    residuals.ResidualReport: dict(
        scenario=SCENARIO, einstein_sym=REPORT.einstein_sym, einstein_skew=REPORT.einstein_skew,
        yang_mills=REPORT.yang_mills, dilaton=REPORT.dilaton, maxwell=REPORT.maxwell,
        norms=REPORT.norms, worst=REPORT.worst, tolerance=1e-9, verdict="SOLUTION"),
    torsion.Contorsion: dict(a=[[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
}
COERCED = {"phi", "a"}
WRAPPERS = {
    frame.CurvatureOperator: dict(entries=np.eye(3)),
    geometry.StructureConstants: dict(c=np.zeros((3, 3, 3))),
    torsion.ReducibleTorsionParams: dict(alpha=0.5, beta=0.0, gamma=-0.3, xi=[0.0, 0.0, 1.0]),
}


def test_no_dataclasses():
    for module in [het3, *MODULES]:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            assert not dataclasses.is_dataclass(cls), cls
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "dataclasses" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", module.__name__


def test_caching_classes():
    found = {
        cls
        for module in MODULES
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and any(isinstance(v, frame.cached_property) for v in vars(cls).values())
    }
    assert found == set(CACHING)
    for cls, values in CACHING.items():
        assert "__slots__" not in vars(cls), cls
        assert list(inspect.signature(cls).parameters) == list(values), cls
        record = cls(**values)
        for name, value in values.items():
            stored = getattr(record, name)
            if name in COERCED:  # as_vec and as_grid: a float array of the value
                assert isinstance(stored, np.ndarray) and stored.dtype == float, (cls, name)
                np.testing.assert_array_equal(stored, value)
            else:
                assert stored is value, (cls, name)
    scenario = residuals.SolitonScenario(SCENARIO.model, SCENARIO.contorsion, 1.0, 1.0)
    assert scenario.phi.dtype == float and scenario.phi.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("cls", FIELD_RECORDS, ids=lambda cls: cls.__name__)
def test_field_records_are_named_tuples(cls):
    values = FIELD_RECORDS[cls]
    assert issubclass(cls, tuple) and cls._fields == tuple(values)
    record = cls(**values)
    for name, value in values.items():
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", WRAPPERS, ids=lambda cls: cls.__name__)
def test_wrappers_define_slots(cls):
    values = WRAPPERS[cls]
    assert cls.__slots__ == tuple(values)
    assert list(inspect.signature(cls).parameters) == list(values)
    record = cls(**values)
    assert not hasattr(record, "__dict__")
    for name, value in values.items():
        np.testing.assert_array_equal(getattr(record, name), value)
