import struct
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt.errors import NexusError, NonFiniteValue
from nexusopt.numerics import all_finite, as_params, fd_gradient, fd_hvp, norm, rng_root, rng_substream
from nexusopt.tasks import QuadraticTask


def test_fd_gradient_quadratic_exact():
    f = lambda th: 0.5 * float(th @ th)
    g = fd_gradient(f, np.array([3.0, -1.0]), eps=1e-5)
    assert_allclose(g, [3.0, -1.0], atol=1e-9)


def test_fd_gradient_constant_is_zero():
    g = fd_gradient(lambda th: 4.2, np.array([0.3, -0.7, 2.0]))
    assert_allclose(g, 0.0, atol=1e-12)


def test_fd_gradient_cubic_matches_analytic_derivative():
    # d/dx x^3 = 3 x^2 = 12 at x = 2
    g = fd_gradient(lambda th: float(th[0] ** 3), np.array([2.0]), eps=1e-4)
    assert_allclose(g, [12.0], atol=1e-6)


def test_fd_gradient_rejects_non_finite_probe():
    def f(th):
        return float("nan") if th[0] > 1.0 else 0.0

    with pytest.raises(NonFiniteValue):
        fd_gradient(f, np.array([1.0]), eps=0.5)


def test_fd_hvp_diagonal_quadratic():
    A = np.diag([2.0, 5.0])
    grad_fn = lambda th: A @ th
    hv = fd_hvp(grad_fn, np.zeros(2), np.array([1.0, 0.0]))
    assert_allclose(hv, [2.0, 0.0], atol=1e-9)


def test_fd_hvp_constant_gradient_is_zero():
    hv = fd_hvp(lambda th: np.array([1.0, 2.0]), np.zeros(2), np.array([0.0, 3.0]))
    assert_allclose(hv, 0.0, atol=1e-12)


def test_fd_hvp_matches_cubic_hessian():
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = 1.2
    task = QuadraticTask(np.eye(2), np.zeros(2), 0.0, T)
    theta = np.array([1.0, 1.0])
    v = np.array([1.0, 0.0])
    hv = fd_hvp(task.grad, theta, v)
    assert_allclose(hv, task.hessian_at(theta) @ v, atol=1e-5)


def test_fd_hvp_rejects_zero_direction():
    with pytest.raises(NexusError, match="direction vector has zero norm"):
        fd_hvp(lambda th: th, np.ones(2), np.zeros(2))


@pytest.mark.parametrize("probe_sign", [1.0, -1.0], ids=["plus_probe", "minus_probe"])
def test_fd_hvp_rejects_a_non_finite_gradient_probe(probe_sign):
    def grad_fn(th):
        return np.array([np.inf, 1.0]) if th[0] * probe_sign > 0 else th

    with pytest.raises(NonFiniteValue, match="gradient probe returned non-finite values"):
        fd_hvp(grad_fn, np.zeros(2), np.array([1.0, 0.0]))


def test_substream_determinism():
    a = rng_substream(rng_root(7), "tasks")
    b = rng_substream(rng_root(7), "tasks")
    assert_allclose(a.generator.standard_normal(100), b.generator.standard_normal(100))


def test_substream_labels_are_independent():
    a = rng_substream(rng_root(7), "tasks").generator.standard_normal(100)
    b = rng_substream(rng_root(7), "data").generator.standard_normal(100)
    assert not np.any(a == b)


def test_substream_seeds_are_independent():
    a = rng_substream(rng_root(7), "tasks").generator.standard_normal(100)
    b = rng_substream(rng_root(8), "tasks").generator.standard_normal(100)
    assert not np.any(a == b)


def test_fd_gradient_quadratic_relative_error():
    # central differences on quadratics are exact up to rounding
    rng = rng_root(11)
    for i in range(10):
        gen = rng_substream(rng, f"case/{i}").generator
        d = int(gen.integers(2, 6))
        Q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        A = (Q * gen.uniform(0.5, 3.0, d)) @ Q.T
        task = QuadraticTask(A, gen.standard_normal(d))
        theta = gen.standard_normal(d)
        analytic = task.grad(theta)
        numeric = fd_gradient(task.loss, theta, eps=1e-5)
        assert np.linalg.norm(numeric - analytic) <= 1e-8 * max(np.linalg.norm(analytic), 1.0)


def _norm_cases():
    gen = rng_root(2024).generator
    return {
        "contiguous": gen.standard_normal(7),
        "long": gen.standard_normal(1001),
        "every_other": gen.standard_normal(19)[::2],
        "reversed": gen.standard_normal(9)[::-1],
        "matrix_column": gen.standard_normal((6, 4))[:, 1],
        "length_0": np.empty(0),
        "length_1": np.array([-2.5]),
        "zeros": np.zeros(5),
        "negative_zeros": np.array([-0.0, -0.0, -0.0]),
        "squares_overflow": np.array([1e200, -3.0]),
        "squares_underflow": np.array([1e-200, -1e-190]),
        "nan": np.array([1.0, np.nan, 2.0]),
        "inf": np.array([np.inf, 2.0]),
        "minus_inf": np.array([-1.0, -np.inf]),
        "both_infs": np.array([np.inf, -np.inf]),
        "nan_and_inf": np.array([np.nan, np.inf]),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("case", list(_norm_cases()))
def test_norm_equals_np_linalg_norm_bitwise(case):
    x = _norm_cases()[case]
    value = norm(x)
    assert type(value) is float
    assert struct.pack("<d", value) == struct.pack("<d", float(np.linalg.norm(x)))


def _finiteness_cases():
    with_infs = np.array([1.0, np.inf, 2.0, -np.inf, 3.0])
    cube = np.ones((2, 3, 4))
    cube[1, 2, 3] = np.inf
    return {
        "finite": np.array([1.0, -2.0, 3.5]),
        "nan": np.array([1.0, np.nan]),
        "plus_inf": np.array([np.inf, 0.0]),
        "minus_inf": np.array([0.0, -np.inf]),
        "both_infs": np.array([np.inf, -np.inf]),
        "largest_floats": np.array([1.7e308, -1.7e308]),
        "smallest_subnormal": np.array([5e-324, -5e-324]),
        "negative_zero": np.array([-0.0]),
        "empty": np.empty(0),
        "empty_matrix": np.empty((0, 3)),
        "strided_view_skipping_infs": with_infs[::2],
        "strided_view_with_an_inf": with_infs[1::2],
        "matrix_with_a_nan": np.array([[1.0, 2.0], [np.nan, 3.0]]),
        "finite_matrix": np.arange(6.0).reshape(2, 3),
        "cube_with_an_inf": cube,
        "finite_cube": np.ones((2, 3, 4)),
    }


@pytest.mark.parametrize("case", list(_finiteness_cases()))
def test_all_finite_gives_the_verdict_of_isfinite_all(case):
    x = _finiteness_cases()[case]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = all_finite(x)
    assert type(verdict) is bool
    assert verdict == bool(np.isfinite(x).all())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["plus_inf", "minus_inf", "nan"])
def test_as_params_rejects_each_non_finite_value(bad):
    with pytest.raises(NonFiniteValue, match="parameter vector contains NaN/Inf"):
        as_params([0.0, bad, 1.0])


def test_as_params_accepts_the_largest_floats():
    values = [1.7e308, -1.7e308, 5e-324]
    with np.errstate(all="raise"):
        theta = as_params(values)
    assert theta.dtype == np.float64 and theta.tolist() == values
