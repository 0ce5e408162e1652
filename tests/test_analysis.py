import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt.errors import DegenerateGradient, NexusError
from nexusopt.numerics import norm, rng_root, rng_substream
from nexusopt.tasks import (
    QuadraticTask,
    TaskFamily,
    TaskSet,
    closeness,
    gradient_cosines,
    mean_pairwise_cosine,
    random_cubic_task,
    random_spd_matrix,
    sample_family,
    stationary_point,
    task_grads,
)
from reference import first_order_transfer, flatness_closeness_bound


def test_cosine_matrix_identical_tasks():
    task = QuadraticTask(np.eye(2), np.ones(2))
    S = gradient_cosines(task_grads(TaskSet([task, task]), np.zeros(2)))
    assert_allclose(S, np.ones((2, 2)), atol=1e-14)


def test_cosine_matrix_orthogonal_gradients():
    ts = TaskSet([
        QuadraticTask(np.eye(2), np.array([1.0, 0.0])),
        QuadraticTask(np.eye(2), np.array([0.0, 1.0])),
    ])
    S = gradient_cosines(task_grads(ts, np.zeros(2)))
    assert_allclose(S[0, 1], 0.0, atol=1e-15)
    assert_allclose(np.diag(S), 1.0)


def test_cosine_matrix_matches_brute_force():
    rng = rng_root(1)
    tasks = [
        QuadraticTask(random_spd_matrix(4, rng_substream(rng, f"A{k}")), rng.generator.standard_normal(4))
        for k in range(5)
    ]
    ts = TaskSet(tasks)
    theta = rng.generator.standard_normal(4)
    S = gradient_cosines(task_grads(ts, theta))
    grads = [t.grad(theta) for t in tasks]
    for i in range(5):
        for j in range(5):
            expected = grads[i] @ grads[j] / (np.linalg.norm(grads[i]) * np.linalg.norm(grads[j]))
            assert abs(S[i, j] - expected) <= 1e-12
    assert_allclose(S, S.T, atol=1e-15)
    assert S.min() >= -1.0 - 1e-12 and S.max() <= 1.0 + 1e-12


def per_pair_cosines(ts, theta):
    """Cosine matrix from separately computed task gradients, one dot product per pair."""
    grads = [t.grad(theta) for t in ts.tasks]
    norms = [float(np.linalg.norm(g)) for g in grads]
    S = np.empty((len(ts), len(ts)))
    for i in range(len(ts)):
        for j in range(len(ts)):
            S[i, j] = float(grads[i] @ grads[j]) / (norms[i] * norms[j])
    return S


def test_gradient_cosines_equal_the_per_pair_formula_bitwise(task_sets):
    for name, ts, theta in task_sets:
        expected = per_pair_cosines(ts, theta)
        assert np.array_equal(gradient_cosines(task_grads(ts, theta)), expected), name


def indexed_pair_cosines(G):
    """gradient_cosines as first written: G indexed twice per pair, through @."""
    norms = [norm(g) for g in G]
    S = np.empty((len(G), len(G)))
    for i in range(len(G)):
        for j in range(i, len(G)):
            S[i, j] = S[j, i] = float(G[i] @ G[j]) / (norms[i] * norms[j])
    return S


@pytest.mark.parametrize("layout", ["contiguous", "column_strided", "fortran"])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_gradient_cosines_over_row_views_equal_the_indexed_form_bytewise(K, layout):
    gen = rng_root(77).generator
    for d in (5, 289, 4097):  # 289: the shipped MLP's parameter count
        wide = gen.standard_normal((K, 2 * d))
        G = {"contiguous": wide[:, :d].copy(), "column_strided": wide[:, ::2],
             "fortran": np.asfortranarray(wide[:, :d])}[layout]
        assert gradient_cosines(G).tobytes() == indexed_pair_cosines(G).tobytes(), d


def test_cosine_matrix_degenerate_gradient_names_task():
    task = QuadraticTask(np.eye(2), np.zeros(2))
    other = QuadraticTask(np.eye(2), np.ones(2))
    with pytest.raises(DegenerateGradient) as err:
        gradient_cosines(task_grads(TaskSet([other, task]), np.zeros(2)))
    assert err.value.task_index == 1


def test_closeness_symmetric_pair():
    ts = TaskSet([
        QuadraticTask(np.eye(2), np.array([1.0, 0.0])),
        QuadraticTask(np.eye(2), np.array([-1.0, 0.0])),
    ])
    assert_allclose(closeness(stationary_point(ts), ts), 1.0)


def test_closeness_at_stationary_point_equals_sample_variance():
    # for isotropic equal-curvature tasks the stationary point is the mean of
    # the minimizers, so mean_sq is exactly their (1/K-normalized) variance
    family = TaskFamily(np.zeros(4), 1.5, 2.0)
    ts = sample_family(family, 6, rng_root(44))
    theta_bar = stationary_point(ts)
    mins = np.array([t.minimizer for t in ts.tasks])
    sample_var = float(np.mean(np.sum((mins - mins.mean(axis=0)) ** 2, axis=1)))
    assert abs(closeness(theta_bar, ts) - sample_var) <= 1e-12


def test_closeness_zero_variance_family():
    family = TaskFamily(np.array([0.5, -0.5]), 0.0, 2.0)
    ts = sample_family(family, 4, rng_root(2))
    assert closeness(np.array([0.5, -0.5]), ts) == 0.0


def test_closeness_single_task_at_minimizer():
    task = QuadraticTask(np.eye(3), np.ones(3))
    assert closeness(np.ones(3), TaskSet([task])) == 0.0


def test_closeness_needs_minimizers_for_non_analytic_tasks():
    from nexusopt.mlp import DataSource, MLPSpec, MLPTask

    spec = MLPSpec((2, 2, 1))
    task = MLPTask(spec, DataSource(np.ones((4, 2)), np.zeros((4, 1))))
    with pytest.raises(NexusError, match="task 0 is not a QuadraticTask without a tensor"):
        closeness(np.zeros(spec.n_params), TaskSet([task]))


@pytest.mark.parametrize("third_bound", [0.4, 0.0])
def test_closeness_rejects_a_cubic_task(third_bound):
    rng = rng_root(36)
    ts = TaskSet([
        QuadraticTask(random_spd_matrix(3, rng_substream(rng, "A")), rng.generator.standard_normal(3)),
        random_cubic_task(3, rng_substream(rng, "B"), third_bound),
    ])
    with pytest.raises(NexusError, match="task 1 is not a QuadraticTask without a tensor"):
        closeness(np.zeros(3), ts)


def test_first_order_transfer_self_quadratic():
    task = QuadraticTask(np.eye(2), np.zeros(2))
    ts = TaskSet([task])
    theta = np.array([2.0, -1.0])
    gamma = 0.01
    check = first_order_transfer(theta, ts, task, gamma)
    g_sq = float(task.grad(theta) @ task.grad(theta))
    assert_allclose(check.residual, -0.5 * gamma**2 * g_sq, rtol=1e-10)


def test_first_order_transfer_orthogonal_gradients():
    train_task = QuadraticTask(np.eye(2), np.array([1.0, 0.0]))
    downstream = QuadraticTask(np.eye(2), np.array([0.0, 1.0]))
    ts = TaskSet([train_task])
    check = first_order_transfer(np.zeros(2), ts, downstream, 1e-3)
    assert check.rhs == 0.0
    assert abs(check.lhs) <= 10 * 1e-6


def test_first_order_transfer_residual_scales_quadratically():
    rng = rng_root(5)
    ts = TaskSet([
        QuadraticTask(random_spd_matrix(3, rng_substream(rng, "a")), rng.generator.standard_normal(3)),
        random_cubic_task(3, rng_substream(rng, "b"), third_bound=0.3),
    ])
    downstream = random_cubic_task(3, rng_substream(rng, "c"), third_bound=0.3)
    theta = rng.generator.standard_normal(3)
    gammas = np.array([1e-2, 1e-3, 1e-4])
    residuals = [abs(first_order_transfer(theta, ts, downstream, g).residual) for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(residuals), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_first_order_transfer_residual_scales_quadratically_on_mlp():
    from nexusopt.mlp import DataSource, MLPSpec, MLPTask

    rng = rng_root(51)
    gen = rng.generator
    spec = MLPSpec((3, 5, 1), "tanh")
    tasks = [
        MLPTask(spec, DataSource(gen.standard_normal((32, 3)), gen.standard_normal((32, 1))))
        for _ in range(3)
    ]
    ts = TaskSet(tasks[:2])
    theta = 0.5 * gen.standard_normal(spec.n_params)
    gammas = np.array([1e-2, 1e-3, 1e-4])
    residuals = [abs(first_order_transfer(theta, ts, tasks[2], g).residual) for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(residuals), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_flatness_closeness_hand_example():
    downstream = QuadraticTask(2.0 * np.eye(2), np.array([1.0, 0.0]))
    fb = flatness_closeness_bound(np.zeros(2), downstream)
    assert_allclose(fb.downstream_min_loss, 0.0)
    assert_allclose(fb.closeness_term, 1.0)
    assert_allclose(fb.flatness_term, 2.0)
    assert_allclose(fb.bound, 1.0)
    assert_allclose(downstream.loss(np.zeros(2)), fb.bound, atol=1e-12)


def test_flatness_closeness_at_the_minimizer():
    downstream = QuadraticTask(np.eye(2), np.array([0.5, 0.5]), offset=0.3)
    fb = flatness_closeness_bound(np.array([0.5, 0.5]), downstream)
    assert fb.bound == downstream.loss(downstream.minimizer)


def test_flatness_closeness_exact_for_anisotropic_quadratics():
    rng = rng_root(6)
    for i in range(20):
        sub = rng_substream(rng, str(i))
        downstream = QuadraticTask(random_spd_matrix(3, sub, (0.3, 4.0)), sub.generator.standard_normal(3))
        theta = sub.generator.standard_normal(3)
        fb = flatness_closeness_bound(theta, downstream)
        assert abs(downstream.loss(theta) - fb.bound) <= 1e-10


def test_flatness_closeness_inequality_on_cubics():
    root = rng_root(7)
    for i in range(50):
        rng = rng_substream(root, str(i))
        downstream = random_cubic_task(3, rng, third_bound=0.2)
        theta = downstream.minimizer + 0.3 * rng.generator.standard_normal(3)
        fb = flatness_closeness_bound(theta, downstream)
        assert downstream.loss(theta) <= fb.bound + 1e-12


def test_segment_curvature_rejects_tasks_without_certified_extremes():
    from nexusopt.mlp import DataSource, MLPSpec, MLPTask

    spec = MLPSpec((2, 2, 1))
    task = MLPTask(spec, DataSource(np.ones((4, 2)), np.zeros((4, 1))))
    theta, minimizer = np.ones(spec.n_params), np.zeros(spec.n_params)
    with pytest.raises(TypeError, match="got MLPTask"):
        flatness_closeness_bound(theta, task, minimizer=minimizer)


def test_mean_pairwise_cosine():
    S = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 1.0]])
    assert_allclose(mean_pairwise_cosine(S), 0.0)
    assert np.isnan(mean_pairwise_cosine(np.ones((1, 1))))
