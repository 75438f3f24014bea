"""Unit tests for the public-API snapshot's class describer (tools/check_api_surface.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_api_surface", REPO_ROOT / "tools" / "check_api_surface.py"
)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


class NoArguments:
    def ping(self, times=1):
        return times


class OwnInit:
    def __init__(self, size, label="x"):
        self.size, self.label = size, label

    @property
    def area(self):
        return self.size

    @staticmethod
    def unit():
        return 1

    @classmethod
    def build(cls, size):
        return cls(size)

    def _hidden(self):
        return None


class Inherited(OwnInit):
    pass


def test_class_without_its_own_init_takes_no_arguments():
    record = tool._describe_class(NoArguments)
    assert record["init"] == "()"
    assert record["methods"] == {"ping": "(self, times=1)"}
    with pytest.raises(TypeError):
        NoArguments(2)


def test_own_and_inherited_init_keep_their_signature():
    record = tool._describe_class(OwnInit)
    assert record["init"] == "(self, size, label='x')"
    assert record["methods"] == {
        "area": "<property>",
        "build": "class(cls, size)",
        "unit": "static()",
    }
    assert tool._describe_class(Inherited)["init"] == "(self, size, label='x')"


def test_exceptions_keep_their_any_arguments_record():
    assert tool._describe_class(repro.InvalidParameterError)["init"] == (
        "(self, /, *args, **kwargs)"
    )
    repro.InvalidParameterError("any", "arguments")


@pytest.mark.parametrize(
    "name",
    [
        "AngularMetric",
        "EuclideanMetric",
        "ManhattanMetric",
        "Metric",
        "SerialBackend",
        "ThreadBackend",
        "ProcessBackend",
    ],
)
def test_argument_free_exports_are_recorded_as_such(name):
    cls = getattr(repro, name)
    assert tool._describe_class(cls)["init"] == "()"
    tracked = json.loads((REPO_ROOT / "API_SURFACE.json").read_text())
    assert tracked["repro"][name]["init"] == "()"
    with pytest.raises(TypeError):
        cls(2)
