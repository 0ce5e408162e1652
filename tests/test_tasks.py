import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt import tasks as task_module
from nexusopt.errors import DimensionMismatch
from nexusopt.numerics import fd_gradient, fd_hvp, rng_root, rng_substream
from nexusopt.tasks import (
    QuadraticTask,
    TaskFamily,
    TaskSet,
    losses_and_grads,
    mean_grad,
    random_cubic_task,
    random_spd_matrix,
    sample_family,
    stationary_point,
    symmetrize_tensor,
    task_grads,
    taskset_from_json,
    taskset_to_json,
    tensor_operator_bound,
    train_grad,
)


def train_loss(ts, theta):
    """L_train, the plain average of the task losses, summed in task order."""
    return sum(t.loss(theta) for t in ts.tasks) / len(ts)


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
    cubic = QuadraticTask(A, center, 0.7, np.zeros((3, 3, 3)))
    for _ in range(10):
        theta = rng.generator.standard_normal(3)
        assert_allclose(cubic.loss(theta), quad.loss(theta), rtol=1e-15)
        assert_allclose(cubic.grad(theta), quad.grad(theta), rtol=1e-14)


def test_cubic_1d_hand_values():
    # L(x) = x^2/2 + x^3, so L(2) = 2 + 8 = 10 and L'(2) = 2 + 12 = 14
    task = QuadraticTask(np.array([[1.0]]), np.zeros(1), 0.0, np.full((1, 1, 1), 6.0))
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


@pytest.mark.parametrize("third_bound", [0.4, 0.0])
def test_stationary_point_rejects_a_cubic_task(third_bound):
    # a zero tensor still makes a cubic; only a task without one is a quadratic
    rng = rng_root(35)
    ts = TaskSet([
        QuadraticTask(random_spd_matrix(3, rng_substream(rng, "A")), rng.generator.standard_normal(3)),
        random_cubic_task(3, rng_substream(rng, "B"), third_bound),
    ])
    with pytest.raises(TypeError, match="stationary_point expects quadratic tasks"):
        stationary_point(ts)


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
        # both kinds are stationary at minimizer, so flatness_closeness_bound needs no search
        assert np.array_equal(task.grad(task.minimizer), np.zeros(d))


def test_weights_fold_into_losses():
    rng = rng_root(77)
    t1 = QuadraticTask(np.eye(2), np.array([1.0, 0.0]), 0.5)
    t2 = QuadraticTask(2 * np.eye(2), np.array([0.0, 1.0]), 0.2)
    ts = TaskSet([t1, t2], weights=[0.25, 1.75])
    theta = rng.generator.standard_normal(2)
    expected = 0.5 * (0.25 * t1.loss(theta) + 1.75 * t2.loss(theta))
    assert_allclose(train_loss(ts, theta), expected, rtol=1e-14)


def test_weights_within_allclose_tolerance_still_fold():
    q = QuadraticTask(np.eye(2), np.array([1.0, -1.0]), 0.5)
    ts = TaskSet([q, q], weights=[1.000009, 1.0])
    theta = np.array([0.3, 2.0])
    assert ts[0].hessian[0, 0] == 1.000009
    assert_allclose(ts[0].loss(theta), 1.000009 * q.loss(theta), rtol=1e-15)
    assert ts[0].loss(theta) != q.loss(theta)
    assert ts[1].hessian[0, 0] == 1.0
    assert ts[1].loss(theta) == q.loss(theta)


def _exactly_at_tolerance(atol):
    """A b > 0 with |0 - b| == atol + 1e-5 * |b| in floating point: the pair (0, b) sits on np.isclose's boundary."""
    b = atol / (1.0 - 1e-5)
    for _ in range(64):
        b = np.nextafter(b, 0.0)
    for _ in range(128):
        if b == atol + 1e-5 * b:
            return b
        b = np.nextafter(b, 1.0)
    raise AssertionError(f"no float sits exactly on the boundary for atol {atol}")


def _entry_pairs(atol):
    """(a entry, b entry, np.allclose's decision or None where the row only has to agree with it)."""
    bound = _exactly_at_tolerance(atol)
    inf, nan = np.inf, np.nan
    return {
        "equal": (0.5, 0.5, True),
        "at_atol": (atol, 0.0, True),
        "ulp_over_atol": (np.nextafter(atol, 1.0), 0.0, False),
        "at_tolerance": (0.0, bound, True),
        "ulp_over_tolerance": (0.0, np.nextafter(bound, 1.0), False),
        "relative": (1.0 + 9.99e-6, 1.0, True),
        "nan_in_a": (nan, 1.0, False),
        "nan_in_b": (1.0, nan, False),
        "both_nan": (nan, nan, False),
        "equal_infs": (inf, inf, True),
        "equal_minus_infs": (-inf, -inf, True),
        "opposite_infs": (inf, -inf, False),
        "inf_in_a": (inf, 1.0, False),
        "inf_in_b": (1.0, inf, False),
        "overflowing_difference": (1.7e308, -1.7e308, None),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("atol", [1e-12, 1e-10])
def test_symmetry_predicate_decides_what_allclose_decides(atol):
    for name, (x, y, expected) in _entry_pairs(atol).items():
        a, b = np.array([[1.0, x], [2.0, -3.0]]), np.array([[1.0, y], [2.0, -3.0]])
        decision = np.allclose(a, b, atol=atol)
        if expected is not None:
            assert decision is expected, name
        assert task_module._allclose(a, b, atol) is decision, name


def _outcome(build):
    try:
        build()
    except Exception as exc:  # the error type and message are part of the decision
        return type(exc).__name__, str(exc)
    return "accepted"


def _hessian_rows():
    def m(x, y, diag=(2.0, 3.0)):
        return np.array([[diag[0], x], [y, diag[1]]])

    inf, nan = np.inf, np.nan
    return {
        "symmetric": m(0.5, 0.5),
        "at_tolerance": m(1e-12, 0.0),
        "ulp_over_tolerance": m(np.nextafter(1e-12, 1.0), 0.0),
        "asymmetric": m(0.5, 0.4),
        "nan": m(nan, nan),
        "equal_infs": m(inf, inf),
        "opposite_infs": m(inf, -inf),
        "inf_on_diagonal": m(0.0, 0.0, (inf, 3.0)),
        "not_positive_definite": m(0.0, 0.0, (2.0, -1.0)),
    }


def _tensor_rows():
    def t(value, other=0.0):
        # T[0,0,1] = value and T[0,1,0] = other, every other entry 0: a transpose that swaps
        # two entries of the orbit of (0,0,1) sets value against other or 0
        T = np.zeros((2, 2, 2))
        T[0, 0, 1], T[0, 1, 0] = value, other
        return T

    over = np.nextafter(1e-10, 1.0)
    inf, nan = np.inf, np.nan
    T_nan, T_inf = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
    T_nan[0, 0, 0], T_inf[0, 0, 0] = nan, inf
    return {
        "symmetric": symmetrize_tensor(rng_root(5).generator.standard_normal((2, 2, 2))),
        "at_tolerance": t(1e-10),
        "ulp_over_tolerance": t(over),
        "asymmetric": t(1e-3, 0.0),
        "nan": T_nan,
        "equal_infs": T_inf,
        "opposite_infs": t(inf, -inf),
    }


def _with_np_allclose(monkeypatch, build):
    """The outcome of build() when the tasks check symmetry with np.allclose, as they used to."""
    with monkeypatch.context() as m:
        m.setattr(task_module, "_allclose", lambda a, b, atol: np.allclose(a, b, atol=atol))
        return _outcome(build)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", list(_hessian_rows()))
def test_hessian_symmetry_check_matches_allclose(monkeypatch, row):
    A = _hessian_rows()[row]
    build = lambda: QuadraticTask(A, np.zeros(2))
    outcome = _outcome(build)
    assert outcome == _with_np_allclose(monkeypatch, build)
    if row in ("symmetric", "at_tolerance"):
        assert outcome == "accepted"
    if row in ("ulp_over_tolerance", "asymmetric", "nan", "opposite_infs"):
        assert outcome == ("ValueError", "Hessian must be symmetric")
    if row in ("equal_infs", "inf_on_diagonal"):
        assert outcome == ("ValueError", "Hessian must be finite")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", list(_tensor_rows()))
def test_cubic_tensor_symmetry_check_matches_allclose(monkeypatch, row):
    T = _tensor_rows()[row]
    build = lambda: QuadraticTask(np.eye(2), np.zeros(2), 0.0, T)
    outcome = _outcome(build)
    assert outcome == _with_np_allclose(monkeypatch, build)
    if row in ("symmetric", "at_tolerance"):
        assert outcome == "accepted"
    if row in ("ulp_over_tolerance", "asymmetric", "nan", "opposite_infs"):
        assert outcome == ("ValueError", "third tensor must be symmetric under index permutations")
    if row == "equal_infs":
        assert outcome == ("ValueError", "third tensor must be finite")


@pytest.mark.parametrize("third", [None, np.zeros((2, 2, 2))], ids=["quadratic", "cubic"])
def test_hessian_and_minimizer_of_different_sizes_are_rejected(third):
    with pytest.raises(DimensionMismatch, match="Hessian and minimizer dimensions differ"):
        QuadraticTask(np.eye(3), np.zeros(2), 0.0, third)


def test_taskset_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TaskSet([QuadraticTask(np.eye(2), np.zeros(2)), QuadraticTask(np.eye(3), np.zeros(3))])


def test_taskset_json_round_trip():
    rng = rng_root(88)
    ts = TaskSet([
        QuadraticTask(random_spd_matrix(3, rng_substream(rng, "A")), rng.generator.standard_normal(3), 0.3),
        random_cubic_task(3, rng_substream(rng, "B"), third_bound=0.4),
    ])
    text = taskset_to_json(ts)
    restored = taskset_from_json(text)
    theta = rng.generator.standard_normal(3)
    for orig, back in zip(ts.tasks, restored.tasks):
        assert_allclose(back.loss(theta), orig.loss(theta), rtol=0, atol=0)
        assert_allclose(back.grad(theta), orig.grad(theta), rtol=0, atol=0)
    # a file that still stores the cubic's third_bound loads the same tasks
    doc = json.loads(text)
    doc["tasks"][1]["third_bound"] = 0.4
    assert taskset_to_json(taskset_from_json(json.dumps(doc))) == text


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
            bound = tensor_operator_bound(task.third)
            assert_allclose(bound, 0.5, rtol=1e-12)
            found = shifted_power_search(task.third, rng_substream(rng, f"search/{d}/{i}"))
            if found > bound * (1 + 1e-9):
                exceeded.append((d, i, found))
    assert exceeded == []


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
def test_quadratic_task_rejects_a_non_finite_offset(offset):
    with pytest.raises(ValueError, match="offset must be finite"):
        QuadraticTask(np.eye(2), np.zeros(2), offset)


@pytest.mark.parametrize("keys", [("0,1,2", "2,1,0"), ("2,1,0", "0,1,2")])
def test_two_tensor_keys_for_one_entry_are_rejected_in_either_order(keys):
    doc = {"kind": "cubic", "hessian": np.eye(3).reshape(-1).tolist(), "minimizer": [0.0] * 3,
           "third": dict(zip(keys, (0.1, 0.5)))}
    with pytest.raises(ValueError, match=f"third tensor keys '{keys[0]}' and '{keys[1]}' name the same entry"):
        task_module.task_from_dict(doc)
