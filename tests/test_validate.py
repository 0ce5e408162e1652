import dataclasses
import functools
import struct

import pytest

from nexusopt import validate
from nexusopt.errors import DegenerateGradient
from nexusopt.validate import CheckResult, validate_theorems


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


def _stub_suite(name, fail_with=None):
    if fail_with is not None:
        raise DegenerateGradient(fail_with)
    return [CheckResult(f"{name}_{i}", "pass", 0.0, 0.0, 0.0) for i in range(2)]


def test_suites_are_dispatched_longest_first_and_joined_in_table_order(monkeypatch, started_pools):
    assert sorted(validate._DISPATCH_ORDER) == sorted(validate._SUITE_FNS)
    assert validate._DISPATCH_ORDER[0] == "generalization"
    handed = []
    real = validate.map_in_workers

    def recording(fn, items, workers):
        handed.append((fn, list(items), workers))
        return real(fn, items, workers)

    monkeypatch.setattr(validate, "map_in_workers", recording)
    for name in validate._SUITE_FNS:
        monkeypatch.setitem(validate._SUITE_FNS, name, functools.partial(_stub_suite, name))
    results = validate_theorems("all", workers=2)
    assert handed == [(validate._run_suite, [(name, None) for name in validate._DISPATCH_ORDER], 2)]
    assert started_pools == [2]
    assert [r.check_name for r in results] == [f"{name}_{i}" for name in validate._SUITE_FNS for i in range(2)]


def test_the_first_failing_suite_in_dispatch_order_raises(monkeypatch):
    # closeness comes before generalization in the table, after it in dispatch order
    for name in ("closeness", "generalization"):
        monkeypatch.setitem(validate._SUITE_FNS, name, functools.partial(_stub_suite, name, fail_with=name))
    for workers in (1, 2):
        with pytest.raises(DegenerateGradient, match="^generalization$"):
            validate_theorems("all", workers=workers)


def test_a_suite_missing_from_the_dispatch_order_is_an_error(monkeypatch):
    monkeypatch.setitem(validate._SUITE_FNS, "unlisted", functools.partial(_stub_suite, "unlisted"))
    with pytest.raises(KeyError, match="unlisted"):
        validate_theorems("all")
