"""The record rule: a frozen dataclass only where an object caches derived
state on itself; every other record a NamedTuple or a ``__slots__`` class."""

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
WRAPPERS = {
    frame.CurvatureOperator: dict(entries=np.eye(3)),
    geometry.StructureConstants: dict(c=np.zeros((3, 3, 3))),
    torsion.ReducibleTorsionParams: dict(alpha=0.5, beta=0.0, gamma=-0.3, xi=[0.0, 0.0, 1.0]),
}


def test_frozen_dataclasses_cache_derived_state():
    found = set()
    for module in MODULES:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            found.add(cls)
            assert cls.__dataclass_params__.frozen, cls
            assert any(isinstance(v, frame.cached_property) for v in vars(cls).values()), cls
    assert found == {residuals.SolitonScenario, residuals.ResidualReport, torsion.Contorsion}


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
