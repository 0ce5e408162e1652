import dataclasses
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt import oracles, validate
from nexusopt.errors import DegenerateGradient, NexusError
from nexusopt.nexus import NexusConfig, inner_loop
from nexusopt.numerics import fd_gradient, rng_root, rng_substream
from nexusopt.oracles import (
    CurvatureBounds,
    SmoothnessConstants,
    alignment_pair_direction,
    closeness_bound_check,
    common_minimizer_taskset,
    convergence_contraction,
    cosgrad_analytic,
    expected_pseudo_gradient_exact,
    gamma2_coefficient_from_enumeration,
    general_gap_bound,
    lipschitz_constants,
    measure_sgd_contraction,
    monte_carlo_generalization_gap,
    nsgd_nexus_identity_check,
    quadratic_gap,
    quadratic_smoothness_constants,
    random_probe_point,
    random_quadratic_taskset,
    second_order_direction,
    second_order_error_bound,
    third_order_direction,
)
from nexusopt.oracles import _locals, _second_derivative
from nexusopt.tasks import (
    QuadraticTask,
    TaskFamily,
    TaskSet,
    random_cubic_task,
    stationary_point,
    train_grad,
)


def monte_carlo_pseudo_gradient(ts, theta, cfg, rng, n_draws):
    """Monte-Carlo estimate of E[pseudo-gradient] over i.i.d. uniform index
    sequences drawn from ``rng``; returns (mean, per-coordinate SE)."""
    samples = np.empty((n_draws, ts.dim))
    for i in range(n_draws):
        samples[i] = inner_loop(theta, ts, cfg, rng.generator.integers(0, len(ts), size=cfg.inner_steps))
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_draws)
    return mean, se


def test_cosgrad_parallel_gradients_vanish():
    task = QuadraticTask(np.array([[2.0, 0.7], [0.7, 1.5]]), np.zeros(2))
    out = cosgrad_analytic(task, task, np.array([1.0, -0.5]))
    assert_allclose(out, 0.0, atol=1e-15)


def test_cosgrad_matches_fd_and_is_symmetric():
    rng = rng_root(1)
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))

    def cossim(x):
        gi, gj = ts[0].grad(x), ts[1].grad(x)
        return float(gi @ gj) / (np.linalg.norm(gi) * np.linalg.norm(gj))

    analytic = cosgrad_analytic(ts[0], ts[1], theta)
    fd = fd_gradient(cossim, theta, eps=1e-6)
    assert np.linalg.norm(analytic - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))
    assert_allclose(analytic, cosgrad_analytic(ts[1], ts[0], theta), rtol=0, atol=0)


def test_cosgrad_on_mlp_tasks_via_fd_hvps():
    from nexusopt.mlp import DataSource, MLPSpec, MLPTask

    rng = rng_root(2)
    gen = rng.generator
    spec = MLPSpec((3, 4, 1), "tanh")
    tasks = [
        MLPTask(spec, DataSource(gen.standard_normal((32, 3)), gen.standard_normal((32, 1))))
        for _ in range(2)
    ]
    theta = 0.5 * gen.standard_normal(spec.n_params)

    def cossim(x):
        gi, gj = tasks[0].grad(x), tasks[1].grad(x)
        return float(gi @ gj) / (np.linalg.norm(gi) * np.linalg.norm(gj))

    analytic = cosgrad_analytic(tasks[0], tasks[1], theta)
    fd = fd_gradient(cossim, theta, eps=1e-5)
    assert np.linalg.norm(analytic - fd) <= 1e-3 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("case", ["same", "mixed"])
def test_second_derivative_matches_fd_of_unit_gradient(case):
    rng = rng_root(3)
    task = random_cubic_task(3, rng, third_bound=0.5)
    theta = random_probe_point(TaskSet([task]), rng_substream(rng, "p"))
    u = rng.generator.standard_normal(3)
    u /= np.linalg.norm(u)

    def unit_grad(x):
        g = task.grad(x)
        return g / np.linalg.norm(g)

    if case == "same":
        s = 1e-5
        fd = (unit_grad(theta + s * u) - 2 * unit_grad(theta) + unit_grad(theta - s * u)) / s**2
        analytic = _second_derivative(_locals(TaskSet([task]), theta, 1e-12, curvature=True)[0], u, u)
    else:
        # the (h_b, h_c), b != c contractions of the gamma^3 term
        v = rng.generator.standard_normal(3)
        v /= np.linalg.norm(v)
        s = 1e-4
        fd = (
            unit_grad(theta + s * u + s * v)
            - unit_grad(theta + s * u - s * v)
            - unit_grad(theta - s * u + s * v)
            + unit_grad(theta - s * u - s * v)
        ) / (4 * s**2)
        analytic = _second_derivative(_locals(TaskSet([task]), theta, 1e-12, curvature=True)[0], u, v)
    assert np.linalg.norm(analytic - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))


def test_second_order_direction_k1_is_unit_gradient():
    rng = rng_root(4)
    ts = random_quadratic_taskset(3, 1, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.01, 1)
    g = ts[0].grad(theta)
    assert_allclose(second_order_direction(ts, theta, cfg), 0.01 * g / np.linalg.norm(g), rtol=1e-15)


def test_second_order_direction_k2_coefficient_is_one_eighth():
    rng = rng_root(5)
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.05, 2)
    units = np.zeros(3)
    for t in ts.tasks:
        g = t.grad(theta)
        units += g / np.linalg.norm(g)
    pair_sum = np.zeros(3)
    for i in range(2):
        for j in range(2):
            pair_sum += alignment_pair_direction(ts[i], ts[j], theta)
    expected = 0.05 * (2 / 2) * units - 0.05**2 * (1.0 / 8.0) * pair_sum
    assert_allclose(second_order_direction(ts, theta, cfg), expected, rtol=1e-12)


def test_second_order_direction_identical_isotropic_tasks():
    task = QuadraticTask(2.0 * np.eye(3), np.zeros(3))
    ts = TaskSet([task, task])
    theta = np.array([1.0, 0.0, -1.0])
    cfg = NexusConfig(0.01, 2)
    g = task.grad(theta)
    expected = 2 * 0.01 * g / np.linalg.norm(g)
    assert_allclose(second_order_direction(ts, theta, cfg), expected, atol=1e-15)


def test_expected_pseudo_gradient_k1_is_deterministic_step():
    rng = rng_root(6)
    ts = random_quadratic_taskset(2, 1, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.02, 1)
    pg = inner_loop(theta, ts, cfg, [0])
    assert_allclose(expected_pseudo_gradient_exact(ts, theta, cfg), pg, rtol=0, atol=0)


def test_enumeration_cap():
    rng = rng_root(7)
    ts = random_quadratic_taskset(2, 5, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    with pytest.raises(NexusError, match="sequences exceed cap "):
        expected_pseudo_gradient_exact(ts, theta, NexusConfig(0.01, 5))


def test_enumeration_agrees_with_monte_carlo():
    rng = rng_root(8)
    ts = random_quadratic_taskset(3, 3, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.05, 3)
    exact = expected_pseudo_gradient_exact(ts, theta, cfg)
    mc_mean, mc_se = monte_carlo_pseudo_gradient(ts, theta, cfg, rng_substream(rng, "mc"), 10_000)
    assert np.all(np.abs(mc_mean - exact) <= 4 * mc_se + 1e-12)


def test_second_order_error_bound_values():
    c = SmoothnessConstants(1.0, 1.0, 0.0)
    assert_allclose(second_order_error_bound(c, 2, 0.1), (1 / 6) * 4 * 8 * 1e-3)
    assert second_order_error_bound(c, 2, 0.0) == 0.0
    assert_allclose(second_order_error_bound(c, 4, 0.1) / second_order_error_bound(c, 2, 0.1), 8.0)


def test_error_bounds_are_monotone():
    gen = rng_root(9).generator
    for _ in range(50):
        g_min = float(gen.uniform(0.2, 2.0))
        L = float(gen.uniform(0.5, 4.0))
        rho = float(gen.uniform(0.0, 1.0))
        K = int(gen.integers(1, 6))
        gamma = float(gen.uniform(0.001, 0.5))
        c = SmoothnessConstants(g_min, L, rho)
        base = second_order_error_bound(c, K, gamma)
        assert second_order_error_bound(SmoothnessConstants(g_min, L + 0.5, rho), K, gamma) >= base
        assert second_order_error_bound(c, K + 1, gamma) >= base
        assert second_order_error_bound(c, K, gamma * 1.5) >= base


def test_second_order_error_bound_holds_with_inner_steps_other_than_task_count():
    # the bound's step count is M, the inner steps; validate's sets all have M = n
    root = rng_root(10130)
    ratios = []
    for idx in range(40):
        rng = rng_substream(root, f"inner_steps/{idx}")
        n, M, dim = 2 + idx % 2, 1 + idx % 5, (2, 5)[(idx // 2) % 2]
        ts = random_quadratic_taskset(dim, n, rng)
        theta = random_probe_point(ts, rng_substream(rng, "probe"))
        for gamma in (0.1, 0.03, 0.01):
            cfg = NexusConfig(gamma, M)
            try:
                consts = quadratic_smoothness_constants(ts, theta, M * gamma)
            except DegenerateGradient:
                continue  # no gradient floor over the reachable ball, so no bound
            resid = np.linalg.norm(expected_pseudo_gradient_exact(ts, theta, cfg) - second_order_direction(ts, theta, cfg))
            ratios.append(resid / second_order_error_bound(consts, M, gamma))
    assert len(ratios) >= 110
    assert max(ratios) <= 1.0


def test_lipschitz_constants():
    c = SmoothnessConstants(1.0, 2.0, 0.0)
    L1, L2 = lipschitz_constants(c)
    assert L1 == 2.0
    assert L2 == 12.0
    c_rho = SmoothnessConstants(1.0, 2.0, 1.0)
    assert lipschitz_constants(c_rho)[1] == (3 * 4 + 1) / 1.0


def test_normalized_gradient_is_l1_lipschitz_empirically():
    root = rng_root(10)
    for i in range(100):
        rng = rng_substream(root, str(i))
        ts = random_quadratic_taskset(3, 1, rng)
        task = ts[0]
        theta = random_probe_point(ts, rng_substream(rng, "p"))
        delta = 1e-3 * rng.generator.standard_normal(3)
        lam_max = float(np.linalg.eigvalsh(task.hessian).max())
        g_min = min(
            float(np.linalg.norm(task.grad(theta + t * delta))) for t in np.linspace(0, 1, 64)
        )
        L1 = lam_max / g_min

        def unit(x):
            g = task.grad(x)
            return g / np.linalg.norm(g)

        displacement = np.linalg.norm(unit(theta + delta) - unit(theta))
        assert displacement <= L1 * np.linalg.norm(delta) * (1 + 1e-6)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_third_order_tensor_term_zero_for_quadratics(M):
    # a zero tensor runs every tensor contraction and leaves the expansion's bits as they are
    rng = rng_root(11)
    ts = random_quadratic_taskset(3, 2, rng)
    zero = TaskSet([dataclasses.replace(t, third=np.zeros((3, 3, 3))) for t in ts.tasks])
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.01, M)
    assert third_order_direction(zero, theta, cfg).tobytes() == third_order_direction(ts, theta, cfg).tobytes()


def test_third_order_direction_beats_second_order_on_cubics():
    rng = rng_root(12)
    ts = TaskSet([random_cubic_task(3, rng_substream(rng, str(j)), 0.5) for j in range(2)])
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    gammas = [1e-1, 1e-2, 1e-3]
    r2, r3 = [], []
    for g in gammas:
        cfg = NexusConfig(g, 2)
        exact = expected_pseudo_gradient_exact(ts, theta, cfg)
        r2.append(np.linalg.norm(exact - second_order_direction(ts, theta, cfg)))
        r3.append(np.linalg.norm(exact - third_order_direction(ts, theta, cfg)))
    slope2 = np.polyfit(np.log(gammas), np.log(r2), 1)[0]
    slope3 = np.polyfit(np.log(gammas), np.log(r3), 1)[0]
    assert 2.8 <= slope2 <= 3.2
    assert 3.8 <= slope3 <= 4.2


def test_third_order_direction_k3():
    rng = rng_root(13)
    ts = TaskSet([random_cubic_task(2, rng_substream(rng, str(j)), 0.4) for j in range(3)])
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    gammas = [1e-1, 1e-2, 1e-3]
    r3 = []
    for g in gammas:
        cfg = NexusConfig(g, 3)
        exact = expected_pseudo_gradient_exact(ts, theta, cfg)
        r3.append(np.linalg.norm(exact - third_order_direction(ts, theta, cfg)))
    slope3 = np.polyfit(np.log(gammas), np.log(r3), 1)[0]
    assert 3.8 <= slope3 <= 4.2


def test_third_order_direction_evaluates_each_task_once(monkeypatch):
    calls = {"grad": 0, "hessian_at": 0}

    def counted(name):
        method = getattr(QuadraticTask, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    rng = rng_root(22)
    ts = TaskSet([random_cubic_task(5, rng_substream(rng, str(j)), 0.5) for j in range(3)])
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    for name in calls:
        monkeypatch.setattr(QuadraticTask, name, counted(name))
    third_order_direction(ts, theta, NexusConfig(0.05, 3))
    assert calls["grad"] <= 3
    assert calls["hessian_at"] <= 3


def test_dot_second_order_direction_evaluates_each_gradient_once(monkeypatch):
    rng = rng_root(22)
    ts = TaskSet([random_cubic_task(5, rng_substream(rng, str(j)), 0.5) for j in range(3)])
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.05, 3, variant="dot")
    s = np.sum([t.grad(theta) for t in ts.tasks], axis=0)
    grad_sum = np.zeros(5)
    pairs = np.zeros(5)
    for t in ts.tasks:
        grad_sum += t.grad(theta)
        pairs += t.hvp(theta, s)
    expected = 0.05 * (3 / 3) * grad_sum - 0.05**2 * (3 * 2 / (2.0 * 3**2)) * pairs
    grad = QuadraticTask.grad
    calls = []
    monkeypatch.setattr(QuadraticTask, "grad", lambda self, x: calls.append(1) or grad(self, x))
    assert np.array_equal(second_order_direction(ts, theta, cfg), expected)
    assert len(calls) == 3


def test_closeness_chain_hand_example():
    ts = TaskSet([
        QuadraticTask(np.eye(2), np.array([1.0, 0.0])),
        QuadraticTask(np.eye(2), np.array([-1.0, 0.0])),
    ])
    report = closeness_bound_check(ts)
    assert_allclose(report.closeness, 1.0)
    assert_allclose(report.inner_product_bound, 1.0)
    assert_allclose(report.cossim_bound, 2.0)
    assert_allclose(report.first_slack, 0.0, atol=1e-12)
    assert_allclose(report.second_slack, 1.0)


def test_closeness_chain_identical_tasks_all_zero():
    task = QuadraticTask(np.eye(2), np.ones(2))
    report = closeness_bound_check(TaskSet([task, task]))
    assert report.closeness == 0.0
    assert report.inner_product_bound == 0.0
    assert report.cossim_bound == 0.0


def closeness_reference(ts):
    """The chain with both norms recomputed for every ordered pair: the formula closeness_bound_check caches."""
    theta = stationary_point(ts)
    assert float(np.linalg.norm(train_grad(ts, theta))) <= 1e-9
    K = len(ts)
    grads, dists, curvs = [], [], []
    for t in ts.tasks:
        grads.append(t.grad(theta))
        delta = theta - t.minimizer
        dist = float(np.linalg.norm(delta))
        dists.append(dist)
        if dist > 1e-15:
            u = delta / dist
            curvs.append(float(u @ t.hessian @ u))
    lam = min(curvs) if curvs else np.inf
    G = max(float(np.linalg.norm(g)) for g in grads)
    closeness_val = float(np.mean(np.asarray(dists) ** 2))
    cross = 0.0
    one_minus_cos = 0.0
    for i in range(K):
        for j in range(K):
            if i == j:
                continue
            dot = float(grads[i] @ grads[j])
            cross += -dot
            ni, nj = float(np.linalg.norm(grads[i])), float(np.linalg.norm(grads[j]))
            if ni > 0 and nj > 0:
                one_minus_cos += 1.0 - dot / (ni * nj)
    middle = cross / (K * lam**2) if np.isfinite(lam) else 0.0
    right = G**2 * one_minus_cos / (K * lam**2) if np.isfinite(lam) else 0.0
    return [closeness_val, middle, right]


def test_closeness_chain_equals_the_per_pair_formula_bitwise():
    # the 100 sets of validate.check_closeness, K = 2, 4, 8
    root = rng_root(5150)
    for idx in range(100):
        ts = random_quadratic_taskset(2 + idx % 4, (2, 4, 8)[idx % 3], rng_substream(root, f"set/{idx}"))
        report = dataclasses.astuple(closeness_bound_check(ts))
        expected = closeness_reference(ts)
        assert [struct.pack("<d", v) for v in report] == [struct.pack("<d", v) for v in expected], idx


def test_closeness_check_fails_when_the_cross_term_flips_sign(monkeypatch):
    # cross += dot instead of cross += -dot negates the inner-product bound exactly
    def flipped(ts):
        report = closeness_bound_check(ts)
        return dataclasses.replace(report, inner_product_bound=-report.inner_product_bound)

    assert validate.check_closeness()[0].passed
    monkeypatch.setattr(validate, "closeness_bound_check", flipped)
    (result,) = validate.check_closeness()
    assert result.check_name == "closeness_chain_inequalities"
    assert not result.passed


def test_closeness_chain_rejects_non_stationary_points(monkeypatch):
    ts = TaskSet([QuadraticTask(np.eye(2), np.ones(2)), QuadraticTask(np.eye(2), -np.ones(2))])
    monkeypatch.setattr(oracles, "stationary_point", lambda ts: np.array([5.0, 5.0]))
    with pytest.raises(NexusError, match=r"> 1e-9 at stationary_point\(ts\)"):
        closeness_bound_check(ts)


def test_quadratic_gap_values():
    assert_allclose(quadratic_gap(2.0, 4, 0.5), 0.25)
    assert quadratic_gap(1.0, 3, 0.0) == 0.0


def test_general_gap_bound_consistency_at_kappa_one():
    a, K, sig = 1.7, 5, 0.8
    cb = CurvatureBounds(a, a)
    assert_allclose(general_gap_bound(cb, K, sig), quadratic_gap(a, K, sig), rtol=1e-15)


def test_general_bound_dominates_quadratic_gap():
    gen = rng_root(14).generator
    for _ in range(50):
        a = float(gen.uniform(0.2, 3.0))
        K = int(gen.integers(1, 10))
        sig = float(gen.uniform(0.0, 2.0))
        assert general_gap_bound(CurvatureBounds(a, a), K, sig) >= quadratic_gap(a, K, sig) - 1e-15


def test_monte_carlo_gap_matches_formula():
    family = TaskFamily(np.zeros(3), 0.7, 1.3)
    mean, se = monte_carlo_generalization_gap(family, 4, 20_000, rng_root(15))
    assert abs(mean - quadratic_gap(1.3, 4, 0.7)) <= 3 * se


def test_convergence_contraction_values():
    assert_allclose(convergence_contraction(1.0, 3.0, 0.5), 0.25)
    assert convergence_contraction(2.0, 2.0, 1 / 2.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(NexusError, match=r"gamma must lie in \(0, 0\.5\], got 0\.6"):
        convergence_contraction(1.0, 3.0, 0.6)
    with pytest.raises(ValueError):
        convergence_contraction(3.0, 1.0, 0.1)


def test_measured_contraction_respects_factor():
    rng = rng_root(16)
    ts = common_minimizer_taskset(4, 4, 1.0, 5.0, rng)
    theta0 = ts[0].minimizer + rng.generator.standard_normal(4)
    gamma = 2.0 / 6.0
    ratios = measure_sgd_contraction(ts, theta0, gamma, 200, rng_substream(rng, "path"))
    factor = convergence_contraction(1.0, 5.0, gamma)
    assert ratios.max() <= factor + 1e-12


def test_nsgd_identity_is_exact():
    rng = rng_root(17)
    ts = random_quadratic_taskset(3, 2, rng)
    theta0 = random_probe_point(ts, rng_substream(rng, "p"))
    div = nsgd_nexus_identity_check(theta0, ts, 0.05, 50, rng_substream(rng, "order"))
    assert div <= 1e-12


def test_nsgd_identity_single_task():
    task = QuadraticTask(np.eye(2), np.zeros(2))
    ts = TaskSet([task])
    div = nsgd_nexus_identity_check(np.array([3.0, 4.0]), ts, 0.01, 20, rng_root(18))
    assert div <= 1e-13


def test_dot_variant_interaction_scales_quadratically():
    rng = rng_root(19)
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.05, 2, variant="dot")
    c2 = gamma2_coefficient_from_enumeration(ts, theta, cfg)
    c2_scaled = gamma2_coefficient_from_enumeration(TaskSet(ts.tasks, [10.0] * len(ts)), theta, cfg)
    ratio = np.linalg.norm(c2_scaled) / np.linalg.norm(c2)
    assert abs(ratio - 100.0) <= 1.0


def test_cosine_variant_is_scale_invariant():
    rng = rng_root(20)
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(1e-3, 2)
    c2 = gamma2_coefficient_from_enumeration(ts, theta, cfg)
    c2_scaled = gamma2_coefficient_from_enumeration(TaskSet(ts.tasks, [10.0] * len(ts)), theta, cfg)
    assert np.linalg.norm(c2_scaled - c2) <= 1e-8


@pytest.mark.parametrize("variant", ["cosine", "dot"])
def test_gamma2_coefficient_of_one_inner_step_is_zero(variant):
    # one inner step is linear in gamma: the fit at the default two nodes finds no gamma^2 term
    rng = rng_root(22)
    ts = random_quadratic_taskset(3, 3, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    cfg = NexusConfig(0.05, 1, variant=variant)
    c1 = expected_pseudo_gradient_exact(ts, theta, cfg) / cfg.gamma
    c2 = gamma2_coefficient_from_enumeration(ts, theta, cfg)
    assert c2.shape == (3,)
    assert np.linalg.norm(c2) <= 1e-9 * np.linalg.norm(c1)


def test_gamma2_coefficient_rejects_a_single_node():
    rng = rng_root(22)
    ts = random_quadratic_taskset(3, 2, rng)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        gamma2_coefficient_from_enumeration(ts, np.ones(3), NexusConfig(0.05, 1), nodes=[0.05])


def test_region_constants_are_safe_bounds():
    rng = rng_root(21)
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "p"))
    radius = 0.05
    consts = quadratic_smoothness_constants(ts, theta, radius)
    gen = rng_substream(rng, "ball").generator
    for _ in range(200):
        u = gen.standard_normal(3)
        u *= radius * gen.uniform() / np.linalg.norm(u)
        for t in ts.tasks:
            gnorm = float(np.linalg.norm(t.grad(theta + u)))
            assert consts.grad_lower <= gnorm + 1e-12


@pytest.mark.parametrize("third_bound", [0.4, 0.0])
def test_quadratic_smoothness_constants_reject_a_cubic_task(third_bound):
    rng = rng_root(37)
    ts = TaskSet([random_quadratic_taskset(3, 1, rng)[0], random_cubic_task(3, rng_substream(rng, "B"), third_bound)])
    with pytest.raises(TypeError, match="quadratic_smoothness_constants expects quadratic tasks"):
        quadratic_smoothness_constants(ts, np.ones(3), 0.01)


def test_closeness_bound_check_evaluates_each_task_gradient_once(monkeypatch):
    ts = random_quadratic_taskset(3, 4, rng_root(24))
    calls = []
    grad = QuadraticTask.grad

    def counted(self, theta):
        calls.append(self)
        return grad(self, theta)

    monkeypatch.setattr(QuadraticTask, "grad", counted)
    closeness_bound_check(ts)
    assert [id(t) for t in calls] == [id(t) for t in ts.tasks]  # one call per task, in task order


@pytest.mark.parametrize(
    "oracle",
    [
        lambda ts, theta: second_order_direction(ts, theta, NexusConfig(0.01, 3)),
        lambda ts, theta: third_order_direction(ts, theta, NexusConfig(0.01, 3)),
        lambda ts, theta: cosgrad_analytic(ts[0], ts[1], theta),
        lambda ts, theta: alignment_pair_direction(ts[0], ts[1], theta),
    ],
    ids=["second_order_direction", "third_order_direction", "cosgrad_analytic", "alignment_pair_direction"],
)
def test_degenerate_gradient_in_an_oracle_names_its_task(oracle):
    ts = random_quadratic_taskset(3, 3, rng_root(25))
    # task 1's gradient is exactly zero at its own minimizer
    with pytest.raises(DegenerateGradient, match="^gradient norm 0 below floor ") as err:
        oracle(ts, ts[1].minimizer.copy())
    assert err.value.task_index == 1
