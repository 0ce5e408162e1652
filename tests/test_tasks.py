import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt.errors import DimensionMismatch
from nexusopt.numerics import fd_gradient, fd_hvp, rng_root, rng_substream
from nexusopt.tasks import (
    CubicTask,
    QuadraticTask,
    TaskFamily,
    TaskSet,
    losses_and_grads,
    mean_grad,
    random_cubic_task,
    random_spd_matrix,
    sample_family,
    stationary_point,
    task_grads,
    taskset_from_json,
    taskset_to_json,
    tensor_operator_bound,
    train_grad,
    train_loss,
)


def test_quadratic_identity_hessian():
    task = QuadraticTask(np.eye(2), np.zeros(2), offset=1.0)
    theta = np.array([2.0, 0.0])
    assert task.loss(theta) == 3.0
    assert_allclose(task.grad(theta), [2.0, 0.0])
    assert_allclose(task.hvp(theta, np.array([0.0, 1.0])), [0.0, 1.0])


def test_cubic_with_zero_tensor_reduces_to_quadratic():
    rng = rng_root(3)
    A = random_spd_matrix(3, rng)
    center = rng.generator.standard_normal(3)
    quad = QuadraticTask(A, center, 0.7)
    cubic = CubicTask(A, center, 0.7)
    for _ in range(10):
        theta = rng.generator.standard_normal(3)
        assert_allclose(cubic.loss(theta), quad.loss(theta), rtol=1e-15)
        assert_allclose(cubic.grad(theta), quad.grad(theta), rtol=1e-14)


def test_cubic_1d_hand_values():
    # L(x) = x^2/2 + x^3, so L(2) = 2 + 8 = 10 and L'(2) = 2 + 12 = 14
    task = CubicTask(np.array([[1.0]]), np.zeros(1), 0.0, np.full((1, 1, 1), 6.0), 6.0)
    assert_allclose(task.loss(np.array([2.0])), 10.0)
    assert_allclose(task.grad(np.array([2.0])), [14.0])


def test_sample_family_zero_variance():
    family = TaskFamily(np.array([1.0, -2.0]), 0.0, 2.0)
    ts = sample_family(family, 5, rng_root(0))
    for t in ts:
        assert_allclose(t.minimizer, [1.0, -2.0])


def test_sample_family_variance_matches():
    sigma_sq, d, K = 0.5, 4, 10_000
    family = TaskFamily(np.zeros(d), sigma_sq, 1.0)
    ts = sample_family(family, K, rng_root(42))
    sq = np.array([float(np.sum(t.minimizer**2)) for t in ts])
    se = sq.std(ddof=1) / np.sqrt(K)
    assert abs(sq.mean() - sigma_sq) <= 3 * se


def test_sample_family_deterministic():
    family = TaskFamily(np.zeros(3), 1.0, 1.0)
    a = sample_family(family, 4, rng_root(9))
    b = sample_family(family, 4, rng_root(9))
    for ta, tb in zip(a, b):
        assert_allclose(ta.minimizer, tb.minimizer, rtol=0)


def test_train_loss_duplicate_task():
    task = QuadraticTask(np.eye(2), np.ones(2))
    ts = TaskSet([task, task])
    theta = np.array([0.3, -0.4])
    assert_allclose(train_loss(ts, theta), task.loss(theta))


def test_train_loss_two_symmetric_tasks():
    ts = TaskSet([
        QuadraticTask(np.eye(2), np.array([1.0, 0.0])),
        QuadraticTask(np.eye(2), np.array([-1.0, 0.0])),
    ])
    theta = np.zeros(2)
    assert_allclose(train_loss(ts, theta), 0.5)
    assert_allclose(train_grad(ts, theta), 0.0, atol=1e-15)


def test_train_grad_matches_fd():
    rng = rng_root(21)
    for i in range(5):
        sub = rng_substream(rng, str(i))
        tasks = [
            QuadraticTask(random_spd_matrix(3, rng_substream(sub, f"t{k}")), sub.generator.standard_normal(3))
            for k in range(3)
        ]
        ts = TaskSet(tasks)
        theta = sub.generator.standard_normal(3)
        fd = fd_gradient(lambda th: train_loss(ts, th), theta)
        assert np.linalg.norm(fd - train_grad(ts, theta)) <= 1e-7 * max(1.0, np.linalg.norm(fd))


def sequential_train_grad(ts, theta):
    """The training gradient as an in-order sum onto zeros, one task gradient at a time."""
    g = np.zeros(ts.dim)
    for t in ts.tasks:
        g += t.grad(theta)
    return g / len(ts)


def test_task_grads_stacks_each_task_gradient(task_sets):
    for name, ts, theta in task_sets:
        G = task_grads(ts, theta)
        assert G.shape == (len(ts), ts.dim), name
        assert np.array_equal(G, np.stack([t.grad(theta) for t in ts.tasks])), name


def test_loss_and_grad_returns_loss_and_grad_bitwise(task_sets):
    for name, ts, theta in task_sets:
        for t in ts.tasks:
            loss, g = t.loss_and_grad(theta)
            expected = t.grad(theta)
            assert loss == t.loss(theta), name
            assert np.array_equal(g, expected), name
            assert np.array_equal(np.signbit(g), np.signbit(expected)), name


def test_losses_and_grads_give_train_loss_and_task_grads_bitwise(task_sets):
    for name, ts, theta in task_sets:
        losses, G = losses_and_grads(ts, theta)
        assert losses == [t.loss(theta) for t in ts.tasks], name
        assert sum(losses) / len(ts) == train_loss(ts, theta), name
        assert np.array_equal(G, task_grads(ts, theta)), name


def test_train_grad_equals_the_sequential_sum(task_sets):
    for name, ts, theta in task_sets:
        g = train_grad(ts, theta)
        expected = sequential_train_grad(ts, theta)
        assert np.array_equal(g, expected), name
        assert np.array_equal(np.signbit(g), np.signbit(expected)), name


def test_mean_grad_adds_rows_in_task_order():
    # each +1 is lost against 1e16 in order; numpy's pairwise sum of a
    # single column would keep some of them and give 8/12
    G = np.array([1e16] + [1.0] * 8 + [-1e16, 0.0, 0.0]).reshape(12, 1)
    assert mean_grad(G)[0] == 0.0
    assert not np.signbit(mean_grad(np.full((3, 2), -0.0))).any()


def test_stationary_point_symmetric_pair():
    ts = TaskSet([
        QuadraticTask(np.eye(2), np.array([1.0, 0.0])),
        QuadraticTask(np.eye(2), np.array([-1.0, 0.0])),
    ])
    assert_allclose(stationary_point(ts), [0.0, 0.0], atol=1e-14)


def test_stationary_point_weighted_curvatures():
    # (A1 + A2) theta = A1 t1 + A2 t2 -> diag(4,2) theta = (12, 0) -> theta = (3, 0)
    ts = TaskSet([
        QuadraticTask(np.diag([1.0, 1.0]), np.zeros(2)),
        QuadraticTask(np.diag([3.0, 1.0]), np.array([4.0, 0.0])),
    ])
    assert_allclose(stationary_point(ts), [3.0, 0.0], atol=1e-12)


def test_stationary_point_random_sets_are_stationary():
    rng = rng_root(33)
    for i in range(100):
        sub = rng_substream(rng, str(i))
        K = int(sub.generator.integers(2, 6))
        ts = TaskSet([
            QuadraticTask(random_spd_matrix(3, rng_substream(sub, f"A{k}")), sub.generator.standard_normal(3))
            for k in range(K)
        ])
        theta = stationary_point(ts)
        assert np.linalg.norm(train_grad(ts, theta)) <= 1e-10


def test_stationary_point_is_minimum():
    rng = rng_root(34)
    ts = TaskSet([
        QuadraticTask(random_spd_matrix(4, rng_substream(rng, f"A{k}")), rng.generator.standard_normal(4))
        for k in range(3)
    ])
    theta_star = stationary_point(ts)
    base = train_loss(ts, theta_star)
    gen = rng_substream(rng, "probes").generator
    for _ in range(100):
        delta = gen.standard_normal(4)
        delta /= max(np.linalg.norm(delta), 1.0)
        assert train_loss(ts, theta_star + delta) >= base


def test_analytic_derivatives_match_fd_over_random_triples():
    rng = rng_root(55)
    for i in range(50):
        sub = rng_substream(rng, str(i))
        gen = sub.generator
        d = int(gen.integers(2, 5))
        if i % 2 == 0:
            task = QuadraticTask(random_spd_matrix(d, rng_substream(sub, "A")), gen.standard_normal(d))
        else:
            task = random_cubic_task(d, rng_substream(sub, "A"), third_bound=0.4)
        theta = gen.standard_normal(d)
        v = gen.standard_normal(d)
        g_fd = fd_gradient(task.loss, theta)
        assert np.linalg.norm(g_fd - task.grad(theta)) <= 1e-7 * max(1.0, np.linalg.norm(g_fd))
        h_fd = fd_hvp(task.grad, theta, v)
        assert np.linalg.norm(h_fd - task.hvp(theta, v)) <= 1e-6 * max(1.0, np.linalg.norm(h_fd))


def test_weights_fold_into_losses():
    rng = rng_root(77)
    t1 = QuadraticTask(np.eye(2), np.array([1.0, 0.0]), 0.5)
    t2 = QuadraticTask(2 * np.eye(2), np.array([0.0, 1.0]), 0.2)
    ts = TaskSet([t1, t2], weights=[0.25, 1.75])
    theta = rng.generator.standard_normal(2)
    expected = 0.5 * (0.25 * t1.loss(theta) + 1.75 * t2.loss(theta))
    assert_allclose(train_loss(ts, theta), expected, rtol=1e-14)


def test_taskset_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TaskSet([QuadraticTask(np.eye(2), np.zeros(2)), QuadraticTask(np.eye(3), np.zeros(3))])


def test_taskset_json_round_trip():
    rng = rng_root(88)
    ts = TaskSet([
        QuadraticTask(random_spd_matrix(3, rng_substream(rng, "A")), rng.generator.standard_normal(3), 0.3),
        random_cubic_task(3, rng_substream(rng, "B"), third_bound=0.4),
    ])
    restored = taskset_from_json(taskset_to_json(ts))
    theta = rng.generator.standard_normal(3)
    for orig, back in zip(ts.tasks, restored.tasks):
        assert_allclose(back.loss(theta), orig.loss(theta), rtol=0, atol=0)
        assert_allclose(back.grad(theta), orig.grad(theta), rtol=0, atol=0)


def test_tensor_operator_bound_rescaling():
    task = random_cubic_task(3, rng_root(5), third_bound=0.7)
    assert_allclose(tensor_operator_bound(task.third), 0.7, rtol=1e-12)


def test_tensor_operator_bound_exact_for_rank_one():
    rng = rng_root(17)
    for d in (1, 2, 4, 7):
        a = rng.generator.standard_normal(d)
        T = np.einsum("a,b,c->abc", a, a, a)
        assert_allclose(tensor_operator_bound(T), np.linalg.norm(a) ** 3, rtol=1e-12)


def shifted_power_search(T, rng, restarts=256, iters=200):
    """Largest T[u,u,u] found by shifted symmetric power iteration (SS-HOPM), vectorized over restarts.

    Kolda & Mayo 2011: a shift alpha >= 2 max_u |T[., ., u]|, which twice the
    spectral norm of the flattening bounds, makes u <- normalize(T[., u, u] + alpha u)
    climb T[u,u,u] monotonically. T[u,u,u] is odd in u, so the largest value
    found is a lower estimate of sup |T[u,u,u]|.
    """
    d = T.shape[0]
    alpha = 2.0 * np.linalg.norm(T.reshape(d, d * d), 2)
    U = rng.generator.standard_normal((restarts, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    for _ in range(iters):
        W = np.einsum("abc,rb,rc->ra", T, U, U) + alpha * U
        U = W / np.linalg.norm(W, axis=1, keepdims=True)
    return float(np.einsum("abc,ra,rb,rc->r", T, U, U, U).max())


def test_declared_third_bound_is_never_exceeded():
    rng = rng_root(2024)
    exceeded = []
    for d in (2, 3, 5, 8):
        for i in range(10):
            task = random_cubic_task(d, rng_substream(rng, f"{d}/{i}"), third_bound=0.5)
            found = shifted_power_search(task.third, rng_substream(rng, f"search/{d}/{i}"))
            if found > task.third_bound * (1 + 1e-9):
                exceeded.append((d, i, found))
    assert exceeded == []
