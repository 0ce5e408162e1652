import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt.errors import DegenerateGradient, NexusError
from nexusopt.numerics import fd_gradient, rng_root
from nexusopt.optimizers import (
    AdamWState,
    Schedule,
    adamw_step,
    clip_grad,
    nsgd_direction,
    nsgd_step,
    schedule_lr,
    sgd_step,
)
from nexusopt.tasks import QuadraticTask, random_spd_matrix


def test_sgd_basics():
    theta = np.array([1.0, 1.0])
    assert_allclose(sgd_step(theta, np.array([3.0, -2.0]), 0.0), theta)
    assert_allclose(sgd_step(theta, np.array([1.0, 0.0]), 0.5), [0.5, 1.0])


def test_sgd_optimal_rate_contracts():
    # measure each step from a unit displacement so the ratio is never lost to
    # cancellation noise as the distance shrinks
    rng = rng_root(1)
    mu, L = 1.0, 4.0
    gen = rng.generator
    Q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    eigs = np.array([mu, 2.0, L])
    task = QuadraticTask((Q * eigs) @ Q.T, gen.standard_normal(3))
    gamma = 2.0 / (L + mu)
    bound = ((L / mu - 1) / (L / mu + 1)) ** 2
    u = gen.standard_normal(3)
    u /= np.linalg.norm(u)
    for _ in range(50):
        stepped = sgd_step(task.minimizer + u, task.grad(task.minimizer + u), gamma)
        w = stepped - task.minimizer
        assert float(w @ w) <= bound + 1e-12
        u = w / np.linalg.norm(w)


def test_sgd_fd_gradient_gives_same_trajectory():
    rng = rng_root(2)
    task = QuadraticTask(random_spd_matrix(3, rng), rng.generator.standard_normal(3))
    a = rng.generator.standard_normal(3)
    b = a.copy()
    for _ in range(20):
        a = sgd_step(a, task.grad(a), 0.1)
        b = sgd_step(b, fd_gradient(task.loss, b), 0.1)
    assert np.linalg.norm(a - b) <= 1e-9


def test_nsgd_unit_normalization():
    theta = np.zeros(2)
    stepped = nsgd_step(theta, np.array([3.0, 4.0]), 1.0)
    assert_allclose(stepped, [-0.6, -0.8])


def test_nsgd_step_length_is_exact():
    gen = rng_root(3).generator
    for _ in range(100):
        g = gen.standard_normal(4)
        lr = float(gen.uniform(0.01, 2.0))
        d = nsgd_direction(g, lr)
        assert np.linalg.norm(d) == pytest.approx(lr, rel=0, abs=1e-15)


def test_nsgd_degenerate_gradient():
    with pytest.raises(DegenerateGradient):
        nsgd_step(np.zeros(2), np.zeros(2), 0.1)


def test_adamw_zero_grad_fixed_point():
    state = AdamWState.init(2, weight_decay=0.0)
    theta = np.array([0.4, -0.2])
    for _ in range(10):
        state, theta = adamw_step(state, theta, np.zeros(2), 0.1)
    assert_allclose(theta, [0.4, -0.2])


def test_adamw_first_step_hand_trace():
    # m_hat = 1, v_hat = 1, update = -lr / (1 + eps)
    state = AdamWState.init(1, beta1=0.9, beta2=0.95, eps=1e-10, weight_decay=0.0)
    state, theta = adamw_step(state, np.zeros(1), np.ones(1), lr=0.25)
    assert_allclose(theta, [-0.25 / (1 + 1e-10)], rtol=1e-15)
    assert state.t == 1


def test_adamw_scale_free_direction():
    rng = rng_root(4)
    gen = rng.generator
    grads = [gen.standard_normal(3) for _ in range(40)]
    sa = AdamWState.init(3)
    sb = AdamWState.init(3)
    ta = np.zeros(3)
    tb = np.zeros(3)
    for g in grads:
        sa, ta = adamw_step(sa, ta, g, 0.05)
        sb, tb = adamw_step(sb, tb, 10.0 * g, 0.05)
    assert np.linalg.norm(ta - tb) <= 1e-6


def test_adamw_decoupled_weight_decay():
    state = AdamWState.init(1, weight_decay=0.5)
    state, theta = adamw_step(state, np.array([2.0]), np.zeros(1), lr=0.1)
    # zero gradient: only the decay term -lr*wd*theta acts
    assert_allclose(theta, [2.0 - 0.1 * 0.5 * 2.0])


def test_wsd_schedule_shape():
    s = Schedule("wsd", base_lr=0.2, total_steps=100, warmup_steps=10, decay_steps=20)
    assert schedule_lr(s, 0) == 0.0
    assert schedule_lr(s, 10) == 0.2
    assert schedule_lr(s, 50) == 0.2
    assert schedule_lr(s, 100) == 0.0
    # continuity and non-negativity
    values = [schedule_lr(s, t) for t in range(101)]
    assert min(values) >= 0.0
    diffs = np.abs(np.diff(values))
    assert diffs.max() <= 0.2 / 10 + 1e-15


def test_constant_schedule():
    s = Schedule("constant", base_lr=0.3, total_steps=10)
    assert all(schedule_lr(s, t) == 0.3 for t in range(11))


def test_cosine_schedule_midpoint():
    s = Schedule("cosine", base_lr=0.4, total_steps=110, warmup_steps=10)
    assert schedule_lr(s, 10) == pytest.approx(0.4)
    assert schedule_lr(s, 60) == pytest.approx(0.2)
    assert schedule_lr(s, 110) == pytest.approx(0.0, abs=1e-16)


def test_schedule_step_out_of_range():
    s = Schedule("constant", base_lr=0.1, total_steps=5)
    with pytest.raises(NexusError, match=r"step 6 outside \[0, 5\]"):
        schedule_lr(s, 6)
    with pytest.raises(NexusError, match=r"step -1 outside \[0, 5\]"):
        schedule_lr(s, -1)


def test_clip_grad():
    g = np.array([0.3, 0.4])
    assert_allclose(clip_grad(g, 1.0), g)
    big = np.array([0.0, 4.0])
    clipped = clip_grad(big, 1.0)
    assert_allclose(np.linalg.norm(clipped), 1.0)
    gen = rng_root(5).generator
    for _ in range(20):
        g = gen.standard_normal(3)
        c = clip_grad(g, 0.5)
        cos = g @ c / (np.linalg.norm(g) * np.linalg.norm(c))
        assert cos == pytest.approx(1.0, abs=1e-12)
