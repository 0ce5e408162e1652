import dataclasses
import functools
import struct

import numpy as np
import pytest

from nexusopt import oracles, validate
from nexusopt.errors import DegenerateGradient
from nexusopt.numerics import norm
from nexusopt.validate import CheckResult, validate_theorems
from reference import alignment_pair_direction


def _fields(result):
    """A CheckResult's fields, with each float as its IEEE-754 bytes."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in dataclasses.astuple(result)]


def test_suites_in_workers_equal_the_serial_report_bitwise(forked_workers):
    serial = validate_theorems("all", workers=1)
    assert forked_workers == []
    parallel = validate_theorems("all", workers=2)
    assert forked_workers == [2]
    assert [_fields(r) for r in parallel] == [_fields(r) for r in serial]


# Each check of `validate --suite all`: its status, the bits of its measured value
# (float.hex) and the edges (lower, upper) of the interval that it passes in, None for an
# open edge. The bits are those of OpenBLAS's SkylakeX kernel, like every other pin in
# the tests. A change to one check edits its own row and leaves the others alone.
VALIDATE_ALL_CHECKS = {
    "second_order_residual_within_bound": ("pass", "0x1.36696fb4c2400p-5", None, 1.0),
    "second_order_residual_slope": ("pass", "0x1.7cb320e78e364p+1", 2.8, 3.2),
    "cossim_gradient_matches_fd": ("pass", "0x1.1bcfa7b7dc074p-23", None, 1e-06),
    "third_order_residual_slope": ("pass", "0x1.00e69df35132cp+2", 3.8, 4.2),
    "third_order_tensor_term_zero_on_quadratics": ("pass", "0x0.0p+0", 0.0, 0.0),
    "closeness_chain_inequalities": ("pass", "0x1.fcda8aec44ec0p-7", -1e-10, None),
    "convergence_per_step_kappa_2": ("pass", "0x1.c5b83f82282c0p-4", None, 0.11111111111211117),
    "convergence_cumulative_kappa_2": ("pass", "-0x1.f1d7152b5b37ep+8", None, -439.4449154662439),
    "convergence_per_step_kappa_5": ("pass", "0x1.c68bf28bb8891p-2", None, 0.4444444444454445),
    "convergence_cumulative_kappa_5": ("pass", "-0x1.1024c6595b76cp+8", None, -162.18604324226578),
    "convergence_per_step_kappa_10": ("pass", "0x1.56ae8c5917637p-1", None, 0.6694214876043058),
    "convergence_cumulative_kappa_10": ("pass", "-0x1.1bc4f1fc591f5p+7", None, -80.26827818386043),
    "quadratic_gap_matches_theory": ("pass", "0x0.0p+0", -1e-12, 1e-12),
    "strongly_convex_bound_holds": ("pass", "-0x1.347b6de74741ap-4", None, 0.0),
    "strongly_convex_bound_tight_at_kappa_1": ("pass", "0x0.0p+0", -1e-12, 1e-12),
    "nsgd_equals_two_step_nexus": ("pass", "0x1.3a59a1adbb257p-48", None, 1e-12),
}


def _hex(value):
    return None if value is None else float.hex(value)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_check_keeps_its_status_measured_bits_and_edges(workers):
    checks = validate_theorems("all", workers=workers)
    got = {c.check_name: (c.status, _hex(c.measured), _hex(c.lower), _hex(c.upper)) for c in checks}
    assert list(got) == list(VALIDATE_ALL_CHECKS)
    for name, (status, measured, lower, upper) in VALIDATE_ALL_CHECKS.items():
        assert got[name] == (status, measured, _hex(lower), _hex(upper)), name


def test_a_suite_error_in_a_worker_reaches_the_caller(monkeypatch, forked_workers):
    def degenerate():
        raise DegenerateGradient("x", 3)

    monkeypatch.setitem(validate._SUITE_FNS, "closeness", degenerate)
    with pytest.raises(DegenerateGradient) as err:
        validate_theorems("all", workers=2)
    assert forked_workers == [2]
    assert type(err.value) is DegenerateGradient
    assert str(err.value) == "x"
    assert err.value.task_index == 3


def test_a_suite_whose_worker_dies_fails_validate_in_one_line(tmp_path, monkeypatch, capsys, kill_this_worker):
    from nexusopt import cli

    monkeypatch.setitem(validate._SUITE_FNS, "closeness", kill_this_worker)
    monkeypatch.setattr(cli, "worker_count", lambda: 2)
    report = tmp_path / "report.json"
    assert cli.main(["validate", "--suite", "all", "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: suite closeness: the worker process running it was killed by SIGKILL\n"
    assert not report.exists()


def _stub_suite(name, fail_with=None):
    if fail_with is not None:
        raise DegenerateGradient(fail_with)
    return [CheckResult(f"{name}_{i}", "pass", 0.0, 0.0, 0.0) for i in range(2)]


def test_suites_are_dispatched_longest_first_and_joined_in_table_order(monkeypatch, forked_workers):
    assert sorted(validate._DISPATCH_ORDER) == sorted(validate._SUITE_FNS)
    assert validate._DISPATCH_ORDER[0] == "second_order"
    handed = []
    real = validate.map_in_workers

    def recording(fn, items, workers, on_death):
        handed.append((fn, list(items), workers, on_death))
        return real(fn, items, workers, on_death)

    monkeypatch.setattr(validate, "map_in_workers", recording)
    for name in validate._SUITE_FNS:
        monkeypatch.setitem(validate._SUITE_FNS, name, functools.partial(_stub_suite, name))
    results = validate_theorems("all", workers=2)
    assert handed == [(validate._run_suite, [(name, None) for name in validate._DISPATCH_ORDER], 2, validate._lost_suite)]
    assert forked_workers == [2]
    assert [r.check_name for r in results] == [f"{name}_{i}" for name in validate._SUITE_FNS for i in range(2)]


def test_the_first_failing_suite_in_dispatch_order_raises(monkeypatch):
    # third_order comes before closeness in the table, after it in dispatch order
    for name in ("third_order", "closeness"):
        monkeypatch.setitem(validate._SUITE_FNS, name, functools.partial(_stub_suite, name, fail_with=name))
    for workers in (1, 2):
        with pytest.raises(DegenerateGradient, match="^closeness$"):
            validate_theorems("all", workers=workers)


def test_a_suite_missing_from_the_dispatch_order_is_an_error(monkeypatch):
    monkeypatch.setitem(validate._SUITE_FNS, "unlisted", functools.partial(_stub_suite, "unlisted"))
    with pytest.raises(KeyError, match="unlisted"):
        validate_theorems("all")


# Each check must be able to fail: a small mutation of the oracle it reads, patched into
# validate's namespace, fails exactly the checks that read that oracle.


def _failing(checks) -> set:
    return {c.check_name for c in checks if not c.passed}


def test_third_order_slope_fails_without_the_third_order_term(monkeypatch):
    monkeypatch.setattr(validate, "third_order_direction", validate.second_order_direction)
    assert _failing(validate.check_third_order()) == {"third_order_residual_slope"}


def test_second_order_checks_fail_on_the_first_order_term_alone(monkeypatch):
    def first_order_only(ts, theta, cfg):
        units = [g / norm(g) for g in (t.grad(theta) for t in ts.tasks)]
        return cfg.gamma * cfg.inner_steps / len(ts) * np.sum(units, axis=0)

    monkeypatch.setattr(validate, "second_order_direction", first_order_only)
    assert _failing(validate.check_second_order()) == {
        "second_order_residual_within_bound",
        "second_order_residual_slope",
    }


def _scaled(monkeypatch, name, factor):
    real = getattr(validate, name)
    monkeypatch.setattr(validate, name, lambda *args: factor * real(*args))


@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_quadratic_gap_check_fails_when_the_gap_formula_is_off_by_1e_9(monkeypatch, factor):
    _scaled(monkeypatch, "quadratic_gap", factor)
    assert _failing(validate.check_generalization()) == {"quadratic_gap_matches_theory"}


@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_kappa_1_bound_check_fails_when_the_bound_is_off_by_1e_9(monkeypatch, factor):
    _scaled(monkeypatch, "general_gap_bound", factor)
    assert _failing(validate.check_generalization()) == {"strongly_convex_bound_tight_at_kappa_1"}


def test_strongly_convex_bound_check_fails_when_the_bound_is_halved(monkeypatch):
    _scaled(monkeypatch, "general_gap_bound", 0.5)
    assert _failing(validate.check_generalization()) == {
        "strongly_convex_bound_holds",
        "strongly_convex_bound_tight_at_kappa_1",
    }


def test_per_step_convergence_checks_fail_when_the_contraction_tightens_by_a_percent(monkeypatch):
    # the cumulative checks compare against their own closed form, not this function
    _scaled(monkeypatch, "convergence_contraction", 0.99)
    assert _failing(validate.check_convergence()) == {
        f"convergence_per_step_kappa_{kappa}" for kappa in (2, 5, 10)
    }


def test_cossim_gradient_check_fails_on_the_inner_loop_pair_direction(monkeypatch):
    # the conflation the oracles docstring warns about: J_i h_j + J_j h_i is not the
    # gradient of the cosine map unless the Hessians commute with the projectors
    monkeypatch.setattr(validate, "cosgrad_analytic", alignment_pair_direction)
    checks = validate.check_second_order()
    assert _failing(checks) == {"cossim_gradient_matches_fd"}
    assert {c.check_name: c for c in checks}["cossim_gradient_matches_fd"].measured > 1.0


def test_nsgd_identity_check_fails_when_the_step_norm_gains_an_epsilon(monkeypatch):
    def nsgd_step(theta, grad, lr):
        return theta - (lr / (norm(grad) + 1e-12)) * grad

    monkeypatch.setattr(oracles, "nsgd_step", nsgd_step)
    (check,) = validate.check_nsgd_identity()
    assert _failing([check]) == {"nsgd_equals_two_step_nexus"}
    assert check.measured > 1e-11


def test_every_convergence_check_fails_when_the_sgd_step_grows_by_half(monkeypatch):
    real = oracles.sgd_step
    monkeypatch.setattr(oracles, "sgd_step", lambda theta, grad, lr: real(theta, grad, 1.5 * lr))
    checks = validate.check_convergence()
    assert _failing(checks) == {
        f"convergence_{kind}_kappa_{kappa}" for kind in ("per_step", "cumulative") for kappa in (2, 5, 10)
    }
    cumulative = [c for c in checks if c.check_name.startswith("convergence_cumulative")]
    assert all(c.measured > c.upper + 100 for c in cumulative)


def test_tensor_term_check_fails_on_a_tensor_contraction_that_is_not_zero_for_a_zero_tensor(monkeypatch):
    # too small to move the cubic slopes, but a zero tensor no longer leaves the expansion's bits
    contraction = oracles._tensor_contraction
    monkeypatch.setattr(oracles, "_tensor_contraction", lambda *args: contraction(*args) + 1e-8)
    checks = validate.check_third_order()
    assert _failing(checks) == {"third_order_tensor_term_zero_on_quadratics"}
    assert {c.check_name: c for c in checks}["third_order_tensor_term_zero_on_quadratics"].measured > 0.0
