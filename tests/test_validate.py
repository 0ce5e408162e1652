import dataclasses
import struct

import pytest

from nexusopt import validate
from nexusopt.errors import DegenerateGradient
from nexusopt.validate import validate_theorems


def _fields(result):
    """A CheckResult's fields, with each float as its IEEE-754 bytes."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in dataclasses.astuple(result)]


def test_suites_in_workers_equal_the_serial_report_bitwise(started_pools):
    serial = validate_theorems("all", workers=1)
    assert started_pools == []
    parallel = validate_theorems("all", workers=2)
    assert started_pools == [2]
    assert [_fields(r) for r in parallel] == [_fields(r) for r in serial]


def test_a_suite_error_in_a_worker_reaches_the_caller(monkeypatch, started_pools):
    def degenerate():
        raise DegenerateGradient("x", 3)

    monkeypatch.setitem(validate._SUITE_FNS, "closeness", degenerate)
    with pytest.raises(DegenerateGradient) as err:
        validate_theorems("all", workers=2)
    assert started_pools == [2]
    assert type(err.value) is DegenerateGradient
    assert str(err.value) == "x"
    assert err.value.task_index == 3
