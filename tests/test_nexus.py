import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt.errors import DegenerateGradient
from nexusopt.nexus import NexusConfig, inner_loop
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
    theta_next = sgd_step(theta, pg, 1.0)
    assert_allclose(theta_next, nsgd_trajectory(theta, ts, 0.05, seq)[-1], atol=1e-14)


def test_zero_pseudo_gradient_is_a_fixed_point():
    theta = np.array([0.7, -0.1])
    assert_allclose(sgd_step(theta, np.zeros(2), 0.3), theta)
    state = AdamWState.init(2, weight_decay=0.0)
    _, theta_next = adamw_step(state, theta, np.zeros(2), 0.3)
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


def k1_feeds_match(make_outer):
    """Whether one-inner-step pseudo-gradients and the normalized step vectors
    themselves drive two fresh outer optimizers from make_outer() along
    bit-identical paths."""
    rng = rng_root(13)
    ts = shifted_quadratics(rng, K=3)
    theta_a = rng.generator.standard_normal(3)
    theta_b = theta_a.copy()
    outer_a, outer_b = make_outer(), make_outer()
    order = rng.generator.integers(0, 3, size=50)
    cfg = NexusConfig(0.04, 1)
    for k in order:
        theta_a = outer_a(theta_a, inner_loop(theta_a, ts, cfg, [int(k)]))
        theta_b = outer_b(theta_b, nsgd_direction(ts[int(k)].grad(theta_b), 0.04))
    return np.array_equal(theta_a, theta_b)


def test_k1_bit_identity_holds_for_sgd_outer_too():
    # one-inner-step pseudo-gradients must feed ANY outer optimizer exactly
    # like the normalized step vector itself
    assert k1_feeds_match(lambda: lambda theta, d: sgd_step(theta, d, 0.7))


def test_k1_bit_identity_holds_for_adamw_outer_too():
    def make_adamw():
        state = AdamWState.init(3)

        def step(theta, d):
            nonlocal state
            state, theta = adamw_step(state, theta, d, 0.01)
            return theta

        return step

    assert k1_feeds_match(make_adamw)


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
