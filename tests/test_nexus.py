import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt.errors import DegenerateGradient
from nexusopt.nexus import NexusConfig, inner_loop, nexus_accum_run, nexus_outer_step
from nexusopt.numerics import rng_root, rng_substream
from nexusopt.optimizers import AdamWState, adamw_step, nsgd_direction, nsgd_step, sgd_step
from nexusopt.tasks import QuadraticTask, TaskSet, random_spd_matrix


def shifted_quadratics(rng, K=3, dim=3):
    gen = rng.generator
    tasks = [
        QuadraticTask(random_spd_matrix(dim, rng_substream(rng, f"A{k}")), gen.standard_normal(dim))
        for k in range(K)
    ]
    return TaskSet(tasks)


class CountedTask:
    """A task that appends to calls on every gradient evaluation."""

    def __init__(self, task, calls):
        self.task, self.calls = task, calls
        self.dim = task.dim

    def grad(self, theta):
        self.calls.append(1)
        return self.task.grad(theta)


def draw_sequence(rng, ts, M):
    return rng.generator.integers(0, len(ts), size=M)


def nsgd_trajectory(theta, ts, gamma, sequence):
    """The points visited by normalized-SGD steps along sequence, start included."""
    points = [np.asarray(theta, dtype=np.float64)]
    for k in sequence:
        points.append(nsgd_step(points[-1], ts[int(k)].grad(points[-1]), gamma))
    return points


def test_single_inner_step_is_scaled_unit_gradient():
    rng = rng_root(1)
    ts = shifted_quadratics(rng, K=2)
    theta = rng.generator.standard_normal(3)
    cfg = NexusConfig(0.05, 1)
    pg = inner_loop(theta, ts, cfg, [1])
    expected = nsgd_direction(ts[1].grad(theta), 0.05)
    assert np.array_equal(pg, expected)


def test_isotropic_single_task_preserves_gradient_ray():
    # normalized steps on an isotropic quadratic walk straight along the gradient
    task = QuadraticTask(2.0 * np.eye(3), np.zeros(3))
    ts = TaskSet([task])
    theta = np.array([1.0, -2.0, 0.5])
    cfg = NexusConfig(0.01, 6)
    pg = inner_loop(theta, ts, cfg, [0] * 6)
    g0 = task.grad(theta)
    cos = pg @ g0 / (np.linalg.norm(pg) * np.linalg.norm(g0))
    assert cos >= 1 - 1e-10


def test_small_gamma_limit_is_sum_of_unit_gradients():
    rng = rng_root(2)
    ts = shifted_quadratics(rng)
    theta = rng.generator.standard_normal(3)
    gamma = 1e-8
    cfg = NexusConfig(gamma, 3)
    seq = [0, 1, 2]
    pg = inner_loop(theta, ts, cfg, seq)
    expected = sum(ts[k].grad(theta) / np.linalg.norm(ts[k].grad(theta)) for k in seq)
    assert np.linalg.norm(pg / gamma - expected) <= 1e-6


def test_pseudo_gradient_equals_start_minus_end():
    rng = rng_root(3)
    ts = shifted_quadratics(rng)
    theta = rng.generator.standard_normal(3)
    cfg = NexusConfig(0.05, 4)
    seq = draw_sequence(rng_substream(rng, "draws"), ts, 4)
    pg = inner_loop(theta, ts, cfg, seq)
    trajectory = nsgd_trajectory(theta, ts, 0.05, seq)
    assert len(trajectory) == 5
    assert_allclose(pg, trajectory[0] - trajectory[-1], atol=1e-15)


def test_outer_sgd_unit_step_lands_on_inner_endpoint():
    rng = rng_root(4)
    ts = shifted_quadratics(rng)
    theta = rng.generator.standard_normal(3)
    cfg = NexusConfig(0.05, 4)
    seq = draw_sequence(rng_substream(rng, "draws"), ts, 4)
    pg = inner_loop(theta, ts, cfg, seq)
    _, theta_next = nexus_outer_step(None, theta, pg, 1.0)
    assert_allclose(theta_next, nsgd_trajectory(theta, ts, 0.05, seq)[-1], atol=1e-14)


def test_zero_pseudo_gradient_is_a_fixed_point():
    theta = np.array([0.7, -0.1])
    state = AdamWState.init(2, weight_decay=0.0)
    _, theta_next = nexus_outer_step(state, theta, np.zeros(2), 0.3)
    assert_allclose(theta_next, theta)


def test_cosine_pseudo_gradient_norm_bounded_by_budget():
    root = rng_root(6)
    for i in range(50):
        rng = rng_substream(root, str(i))
        ts = shifted_quadratics(rng, K=int(rng.generator.integers(1, 5)))
        theta = rng.generator.standard_normal(3)
        K = int(rng.generator.integers(1, 6))
        gamma = float(rng.generator.uniform(0.001, 0.3))
        cfg = NexusConfig(gamma, K)
        pg = inner_loop(theta, ts, cfg, draw_sequence(rng_substream(rng, "draws"), ts, K))
        assert np.linalg.norm(pg) <= K * gamma + 1e-12


def test_degenerate_gradient_propagates_task_index():
    task_ok = QuadraticTask(np.eye(2), np.ones(2))
    ts = TaskSet([task_ok])
    cfg = NexusConfig(0.1, 1, grad_floor=1e-12)
    with pytest.raises(DegenerateGradient) as err:
        inner_loop(task_ok.minimizer, ts, cfg, [0])
    assert err.value.task_index == 0


@pytest.mark.parametrize("variant", ["cosine", "dot"])
def test_given_first_gradient_replaces_only_the_first_evaluation(variant):
    rng = rng_root(8)
    ts = shifted_quadratics(rng, K=3)
    theta = rng.generator.standard_normal(3)
    cfg = NexusConfig(0.05, 4, variant=variant)
    sequence = draw_sequence(rng_substream(rng, "seq"), ts, 4)
    calls = []
    counted = TaskSet([CountedTask(t, calls) for t in ts.tasks])
    expected = inner_loop(theta, counted, cfg, sequence)
    assert len(calls) == 4
    calls.clear()
    given = inner_loop(theta, counted, cfg, sequence, first_grad=ts[sequence[0]].grad(theta))
    assert len(calls) == 3
    assert given.tobytes() == expected.tobytes()


def test_given_first_gradient_is_still_checked_against_the_floor():
    ts = TaskSet([QuadraticTask(np.eye(2), np.ones(2)), QuadraticTask(np.eye(2), np.zeros(2))])
    with pytest.raises(DegenerateGradient) as err:
        inner_loop(np.ones(2), ts, NexusConfig(0.1, 2), [1, 0], first_grad=np.zeros(2))
    assert err.value.task_index == 1


def test_dot_variant_uses_raw_gradients():
    rng = rng_root(7)
    ts = shifted_quadratics(rng, K=2)
    theta = rng.generator.standard_normal(3)
    cfg = NexusConfig(0.05, 1, variant="dot")
    pg = inner_loop(theta, ts, cfg, [0])
    assert_allclose(pg, 0.05 * ts[0].grad(theta), rtol=1e-15)


def test_accum_run_matches_inner_loop_on_fixed_order():
    rng = rng_root(8)
    ts = shifted_quadratics(rng, K=4)
    theta = 0.5 * rng.generator.standard_normal(3)
    cfg = NexusConfig(0.02, 4)
    order = [2, 0, 3, 1]
    pg = inner_loop(theta, ts, cfg, order)
    result = nexus_accum_run(theta, [ts[k] for k in order], cfg, None, outer_lr=1.0)
    assert len(result.pseudo_gradients) == 1
    assert np.array_equal(result.pseudo_gradients[0], pg)


def test_accum_steps_one_matches_nsgd_feed():
    # the accumulation path sums the step vectors like inner_loop, so a
    # one-step window feeds the normalized step to AdamW bit for bit
    rng = rng_root(9)
    ts = shifted_quadratics(rng, K=3)
    theta0 = rng.generator.standard_normal(3)
    order = list(rng.generator.integers(0, 3, size=12))
    cfg = NexusConfig(0.05, 1)
    state = AdamWState.init(3)
    result = nexus_accum_run(theta0, [ts[k] for k in order], cfg, state, outer_lr=0.01)

    theta = theta0.copy()
    state2 = AdamWState.init(3)
    for k in order:
        d = nsgd_direction(ts[k].grad(theta), 0.05)
        state2, theta = adamw_step(state2, theta, d, 0.01)
    assert np.array_equal(result.theta, theta)


def test_accum_run_counts_one_grad_eval_per_minibatch():
    rng = rng_root(10)
    ts = shifted_quadratics(rng, K=2)
    theta = rng.generator.standard_normal(3)
    stream = [ts[i % 2] for i in range(10)]
    cfg = NexusConfig(0.01, 4)
    result = nexus_accum_run(theta, stream, cfg, None, outer_lr=1.0)
    assert result.grad_evals == 10
    # 10 minibatches, windows of 4: two outer steps; the trailing partial window is stepped but makes none
    assert len(result.outer_thetas) == 2


def test_accum_run_degenerate_gradient_names_window_position():
    theta = np.array([1.0, 2.0])
    first = QuadraticTask(np.eye(2), np.zeros(2))
    cfg = NexusConfig(0.1, 2)
    # the second minibatch's minimizer is the point after the first inner step
    after_first = theta - nsgd_direction(first.grad(theta), 0.1)
    with pytest.raises(DegenerateGradient) as err:
        nexus_accum_run(theta, [first, QuadraticTask(np.eye(2), after_first)], cfg, None, outer_lr=1.0)
    assert err.value.task_index == 1
    # a trailing partial window is stepped too: with outer lr 0 it starts at theta
    with pytest.raises(DegenerateGradient) as err:
        nexus_accum_run(theta, [first, first, QuadraticTask(np.eye(2), theta)], cfg, None, outer_lr=0.0)
    assert err.value.task_index == 0


def test_accum_run_accepts_scheduled_outer_lr():
    rng = rng_root(12)
    ts = shifted_quadratics(rng, K=2)
    theta = rng.generator.standard_normal(3)
    stream = [ts[i % 2] for i in range(8)]
    cfg = NexusConfig(0.01, 2)
    lrs = [0.5, 0.0, 0.5, 0.0]
    result = nexus_accum_run(theta, stream, cfg, None, outer_lr=lambda t: lrs[t])
    # zero-lr outer steps leave the parameters unchanged
    assert np.array_equal(result.outer_thetas[0], result.outer_thetas[1])
    assert np.array_equal(result.outer_thetas[2], result.outer_thetas[3])
    assert not np.array_equal(result.outer_thetas[1], result.outer_thetas[2])


def test_k1_bit_identity_holds_for_sgd_outer_too():
    # one-inner-step pseudo-gradients must feed ANY outer optimizer exactly
    # like the normalized step vector itself
    rng = rng_root(13)
    ts = shifted_quadratics(rng, K=3)
    theta_a = rng.generator.standard_normal(3)
    theta_b = theta_a.copy()
    order = rng.generator.integers(0, 3, size=50)
    cfg = NexusConfig(0.04, 1)
    for k in order:
        pg = inner_loop(theta_a, ts, cfg, [int(k)])
        _, theta_a = nexus_outer_step(None, theta_a, pg, 0.7)
        d = nsgd_direction(ts[int(k)].grad(theta_b), 0.04)
        theta_b = sgd_step(theta_b, d, 0.7)
    assert np.array_equal(theta_a, theta_b)


def test_trajectories_replay_deterministically():
    rng_a = rng_root(11)
    rng_b = rng_root(11)
    ts = shifted_quadratics(rng_a)
    ts_b = shifted_quadratics(rng_b)
    theta = np.ones(3)
    cfg = NexusConfig(0.03, 3)
    pa = inner_loop(theta, ts, cfg, draw_sequence(rng_substream(rng_a, "d"), ts, 3))
    pb = inner_loop(theta, ts_b, cfg, draw_sequence(rng_substream(rng_b, "d"), ts_b, 3))
    assert np.array_equal(pa, pb)
