import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nexusopt import mlp
from nexusopt.errors import DimensionMismatch, NexusError, NonFiniteValue
from nexusopt.mlp import (
    DataSource,
    MLPSpec,
    MLPTask,
    make_synthetic_sources,
    mlp_forward,
)
from nexusopt.numerics import fd_gradient, rng_root, rng_substream


def random_task(rng, widths=(3, 5, 2), n=16, activation="tanh", weight=1.0):
    gen = rng.generator
    spec = MLPSpec(widths, activation)
    x = gen.standard_normal((n, widths[0]))
    y = gen.standard_normal((n, widths[-1]))
    return MLPTask(spec, DataSource(x, y), weight), spec


def test_flatten_round_trip_is_bit_exact():
    spec = MLPSpec((4, 7, 3))
    theta = rng_root(1).generator.standard_normal(spec.n_params)
    again = spec.flatten(spec.unflatten(theta))
    assert np.array_equal(theta, again)
    assert spec.n_params == 4 * 7 + 7 + 7 * 3 + 3


def test_tanh_net_zero_params_zero_targets():
    spec = MLPSpec((3, 4, 2), "tanh")
    x = rng_root(2).generator.standard_normal((8, 3))
    task = MLPTask(spec, DataSource(x, np.zeros((8, 2))))
    theta = np.zeros(spec.n_params)
    assert task.loss(theta) == 0.0
    assert_allclose(task.grad(theta), 0.0, atol=1e-15)


def hidden_preactivations(spec, theta, x):
    """Pre-activations of every hidden layer, by an independent forward pass."""
    arrays = spec.unflatten(theta)
    h, out = x, []
    for layer in range(len(spec.layer_widths) - 2):
        z = h @ arrays[2 * layer] + arrays[2 * layer + 1]
        out.append(z)
        h = {"tanh": np.tanh(z), "relu": np.maximum(z, 0.0), "identity": z}[spec.activation]
    return out


FD_EPS = 1e-6


@pytest.mark.parametrize("weight", [1.0, 2.5])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_grad_matches_fd_on_random_configs(activation, depth, weight):
    # the fundamental backprop correctness gate; depth counts hidden layers
    root = rng_root(31)
    checked = 0
    for i in range(20):
        rng = rng_substream(root, f"cfg/{i}")
        gen = rng.generator
        widths = (
            (int(gen.integers(2, 5)),)
            + tuple(int(gen.integers(2, 7)) for _ in range(depth))
            + (int(gen.integers(1, 4)),)
        )
        task, spec = random_task(rng, widths, n=int(gen.integers(4, 20)), activation=activation, weight=weight)
        theta = 0.7 * gen.standard_normal(spec.n_params)
        analytic = task.grad(theta)
        # loss_and_grad shares grad's backprop: the same bits, kinks included
        loss, grad = task.loss_and_grad(theta)
        assert loss == task.loss(theta)
        assert np.array_equal(grad, analytic) and np.array_equal(np.signbit(grad), np.signbit(analytic))
        if activation == "relu":
            # central differences straddling a kink measure no derivative
            nearest_kink = min(np.abs(z).min() for z in hidden_preactivations(spec, theta, task.source.inputs))
            if nearest_kink <= 10 * FD_EPS:
                continue
        numeric = fd_gradient(task.loss, theta, eps=FD_EPS)
        denom = max(np.linalg.norm(numeric), 1e-10)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5
        checked += 1
    assert checked >= 18  # the kink filter must not hollow out the gate


def test_relu_kink_is_where_fd_disagrees():
    # the case the relu gradcheck drops: pre-activation exactly 0, where the
    # backprop subgradient is 0 and central differences average the two slopes
    spec = MLPSpec((1, 1, 1), "relu")
    x = np.array([[2.0]])
    task = MLPTask(spec, DataSource(x, np.zeros((1, 1))))
    theta = np.array([1.0, -2.0, 3.0, 0.5])  # w1, b1, w2, b2: pre = 2 - 2 = 0
    assert np.abs(hidden_preactivations(spec, theta, x)[0]).min() <= 10 * FD_EPS
    assert np.array_equal(task.grad(theta), [0.0, 0.0, 0.0, 1.0])
    numeric = fd_gradient(task.loss, theta, eps=FD_EPS)
    assert_allclose(numeric[0], 3.0, rtol=1e-4)  # half the right slope 2 * 0.5 * 3 * 2


def test_weight_scales_loss_and_grad():
    rng = rng_root(4)
    task, spec = random_task(rng)
    theta = rng.generator.standard_normal(spec.n_params)
    heavy = task.scaled(2.5)
    assert_allclose(heavy.loss(theta), 2.5 * task.loss(theta), rtol=1e-15)
    assert_allclose(heavy.grad(theta), 2.5 * task.grad(theta), rtol=1e-14)


def test_duplicating_samples_is_invariant():
    rng = rng_root(5)
    task, spec = random_task(rng, n=6)
    theta = rng.generator.standard_normal(spec.n_params)
    doubled = MLPTask(task.spec, DataSource(
        np.vstack([task.source.inputs, task.source.inputs]),
        np.vstack([task.source.targets, task.source.targets]),
    ))
    assert_allclose(doubled.loss(theta), task.loss(theta), rtol=1e-15)
    assert_allclose(doubled.grad(theta), task.grad(theta), rtol=1e-13, atol=1e-16)


def test_sample_order_is_irrelevant():
    rng = rng_root(6)
    task, spec = random_task(rng, n=9)
    theta = rng.generator.standard_normal(spec.n_params)
    perm = rng.generator.permutation(9)
    shuffled = MLPTask(spec, DataSource(task.source.inputs[perm], task.source.targets[perm]), task.weight)
    assert_allclose(shuffled.loss(theta), task.loss(theta), rtol=1e-14)
    assert_allclose(shuffled.grad(theta), task.grad(theta), rtol=1e-12, atol=1e-16)


def test_hvp_rejects_zero_direction():
    rng = rng_root(7)
    task, spec = random_task(rng)
    with pytest.raises(NexusError, match="direction vector has zero norm"):
        task.hvp(np.zeros(spec.n_params), np.zeros(spec.n_params))


def test_hvp_is_symmetric_bilinear_form():
    rng = rng_root(8)
    task, spec = random_task(rng)
    gen = rng.generator
    theta = 0.5 * gen.standard_normal(spec.n_params)
    for _ in range(5):
        u = gen.standard_normal(spec.n_params)
        v = gen.standard_normal(spec.n_params)
        uhv = float(u @ task.hvp(theta, v))
        vhu = float(v @ task.hvp(theta, u))
        assert abs(uhv - vhu) <= 1e-4 * max(abs(uhv), abs(vhu), 1.0)


def test_linear_model_hvp_matches_gauss_newton():
    # single linear layer: predictions x W + b, so the Hessian of the MSE is
    # constant in theta and equals the Gauss-Newton form
    rng = rng_root(9)
    gen = rng.generator
    spec = MLPSpec((3, 2), "identity")
    n = 12
    x = gen.standard_normal((n, 3))
    y = gen.standard_normal((n, 2))
    task = MLPTask(spec, DataSource(x, y))

    def analytic_hvp(v):
        Vw = v[:6].reshape(3, 2)
        vb = v[6:]
        dyhat = x @ Vw + vb
        scale = 2.0 / (n * 2)
        return np.concatenate([(scale * x.T @ dyhat).reshape(-1), scale * dyhat.sum(axis=0)])

    for theta_scale in (0.0, 1.0, 3.0):
        theta = theta_scale * gen.standard_normal(spec.n_params)
        v = gen.standard_normal(spec.n_params)
        assert_allclose(task.hvp(theta, v), analytic_hvp(v), rtol=1e-6, atol=1e-8)


def test_relu_hand_case():
    # widths (1,1,1), relu hidden: y = w2 * relu(w1 x + b1) + b2
    spec = MLPSpec((1, 1, 1), "relu")
    x = np.array([[2.0]])
    y = np.array([[0.0]])
    task = MLPTask(spec, DataSource(x, y))
    theta = np.array([1.0, 0.5, 3.0, 0.0])  # w1, b1, w2, b2
    # hidden = relu(2.5) = 2.5, pred = 7.5, loss = 56.25
    assert_allclose(task.loss(theta), 56.25)
    # dL/dpred = 2*7.5 = 15; grads: w2: 15*2.5, b2: 15, w1: 15*3*2, b1: 15*3
    assert_allclose(task.grad(theta), [90.0, 45.0, 37.5, 15.0])


def test_shared_teachers_align_gradients():
    rng = rng_root(100)
    sources, _ = make_synthetic_sources(4, 6, 1, 1024, shared_fraction=1.0, rng=rng)
    spec = MLPSpec((6, 6, 1), "tanh")
    tasks = [MLPTask(spec, s) for s in sources]
    theta = 0.5 * rng_substream(rng, "probe").generator.standard_normal(spec.n_params)
    grads = [t.grad(theta) for t in tasks]
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            cos = grads[i] @ grads[j] / (np.linalg.norm(grads[i]) * np.linalg.norm(grads[j]))
            assert cos >= 0.99


def test_independent_teachers_have_orthogonal_parameters():
    root = rng_root(11)
    cosines = []
    for trial in range(40):
        rng = rng_substream(root, f"trial/{trial}")
        teacher_spec = MLPSpec((6, 6, 1), "tanh")
        a = teacher_spec.init_params(rng_substream(rng, "a"))
        b = teacher_spec.init_params(rng_substream(rng, "b"))
        cosines.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    cosines = np.array(cosines)
    se = cosines.std(ddof=1) / np.sqrt(len(cosines))
    assert abs(cosines.mean()) <= 3 * se


def test_make_synthetic_sources_deterministic():
    a_sources, a_held = make_synthetic_sources(3, 4, 2, 16, 0.5, rng_root(12))
    b_sources, b_held = make_synthetic_sources(3, 4, 2, 16, 0.5, rng_root(12))
    for sa, sb in zip(a_sources + [a_held], b_sources + [b_held]):
        assert np.array_equal(sa.inputs, sb.inputs)
        assert np.array_equal(sa.targets, sb.targets)


def test_held_out_source_differs_from_training_sources():
    sources, held = make_synthetic_sources(3, 4, 1, 16, 0.5, rng_root(13))
    for s in sources:
        assert not np.array_equal(s.targets, held.targets)


def test_forward_matches_task_internal_path():
    rng = rng_root(14)
    task, spec = random_task(rng, n=5)
    theta = rng.generator.standard_normal(spec.n_params)
    pred = mlp_forward(spec, theta, task.source.inputs)
    expected_loss = float(np.mean((pred - task.source.targets) ** 2))
    assert_allclose(task.loss(theta), expected_loss, rtol=1e-15)


def reference_loss_and_grad(task, theta):
    """The closed-form backprop as first written: np.mean for the loss, column
    sums by .sum(axis=0), the transposed weight view and 1 - h**2 for tanh'."""
    spec, weight = task.spec, task.weight
    arrays = [theta[start:stop].reshape(shape) for start, stop, shape in spec.layout]
    hs = [task.source.inputs]
    n_layers = len(spec.layer_widths) - 1
    for layer in range(n_layers):
        h = hs[-1] @ arrays[2 * layer]
        h += arrays[2 * layer + 1]
        if layer < n_layers - 1:
            if spec.activation == "tanh":
                np.tanh(h, out=h)
            elif spec.activation == "relu":
                np.maximum(h, 0.0, out=h)
        hs.append(h)
    err = hs.pop()
    err -= task.source.targets
    loss = float(weight * np.mean(err**2))
    delta = err
    delta *= weight * (2.0 / err.size)
    flat = np.empty(spec.n_params)
    grads = [flat[start:stop].reshape(shape) for start, stop, shape in spec.layout]
    for layer in reversed(range(len(hs))):
        np.matmul(hs[layer].T, delta, out=grads[2 * layer])
        delta.sum(axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            h = hs[layer]
            delta = delta @ arrays[2 * layer].T
            if spec.activation == "tanh":
                delta *= 1.0 - h**2
            elif spec.activation == "relu":
                delta *= h > 0.0
    return loss, flat


def assert_equal_to_the_reference_backprop_bitwise(activation, widths, n):
    rng = rng_root(4711)
    task, spec = random_task(rng_substream(rng, "task"), widths, n, activation, weight=1.7)
    for trial in range(3):
        theta = rng_substream(rng, f"theta/{trial}").generator.standard_normal(spec.n_params)
        ref_loss, ref_grad = reference_loss_and_grad(task, theta)
        loss, grad = task.loss_and_grad(theta)
        # bytes, so that signed zeros must agree too
        assert grad.tobytes() == ref_grad.tobytes()
        assert task.grad(theta).tobytes() == ref_grad.tobytes()
        assert loss == ref_loss == task.loss(theta)


@pytest.mark.parametrize("n", [1, 2, 33, 512])
@pytest.mark.parametrize("widths", [(3, 1, 2, 1), (4, 6, 1), (5, 2, 3), (2, 1), (8, 16, 8, 1)])
@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_loss_and_grad_equal_the_reference_backprop_bitwise(activation, widths, n):
    assert_equal_to_the_reference_backprop_bitwise(activation, widths, n)


# shapes where a faster BLAS form gives other bits than the plain expression:
# delta @ W.T.copy() through a 32x32 weight at few rows, a form the pass no
# longer has, so these cases guard delta @ W.T through the view; and the first
# layer folded into one matmul with a ones column at d_in = 1, at 16 inputs
# into 3 units, and at 1024 rows into 64 units
FAST_FORMS_DIFFER = [
    ((8, 32, 32, 1), 2),
    ((8, 32, 32, 1), 7),
    ((8, 32, 32, 1), 33),
    ((1, 4, 1), 2),
    ((1, 4, 1), 512),
    ((16, 3, 1), 2),
    ((16, 3, 1), 512),
    ((16, 64, 1), 1024),
]


@pytest.mark.parametrize("widths, n", FAST_FORMS_DIFFER, ids=[
    "-".join(map(str, widths)) + f"-n{n}" for widths, n in FAST_FORMS_DIFFER
])
@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_loss_and_grad_equal_the_reference_backprop_bitwise_where_fast_forms_differ(activation, widths, n):
    assert_equal_to_the_reference_backprop_bitwise(activation, widths, n)


def test_a_folded_plan_builds_its_read_only_ones_column_input_once_on_first_use(monkeypatch):
    builds = []
    with_ones = mlp._with_ones
    monkeypatch.setattr(mlp, "_with_ones", lambda x: builds.append(x) or with_ones(x))
    # the fold forced on, so that this holds whatever shapes the BLAS keeps the bits at
    monkeypatch.setattr(mlp, "_fold_keeps_bits", lambda *shape: True)
    sources, _ = make_synthetic_sources(1, 4, 1, 16, 0.5, rng_root(15))
    spec = MLPSpec((4, 6, 1))
    task = MLPTask(spec, sources[0])
    theta = spec.init_params(rng_root(16))
    assert builds == []
    task.grad(theta)
    task.loss_and_grad(theta)
    task.loss(theta)
    assert len(builds) == 1 and builds[0] is task.source.inputs
    x1 = task._plan.x
    assert x1.tobytes() == np.hstack([task.source.inputs, np.ones((task.source.n, 1))]).tobytes()
    assert not x1.flags.writeable
    with pytest.raises(ValueError):
        x1[0, 0] = 0.0


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_weight_must_be_finite_and_non_negative(weight):
    task, _ = random_task(rng_root(17))
    with pytest.raises(ValueError):
        MLPTask(task.spec, task.source, weight)
    with pytest.raises(ValueError):
        task.scaled(weight)


def test_tasks_are_frozen_and_sources_hold_read_only_copies():
    gen = rng_root(18).generator
    x, y = gen.standard_normal((6, 3)), gen.standard_normal((6, 2))
    source = DataSource(x, y)
    task = MLPTask(MLPSpec((3, 4, 2)), source)
    with pytest.raises(FrozenInstanceError):
        task.weight = 2.0
    with pytest.raises(FrozenInstanceError):
        source.inputs = x
    for held in (source.inputs, source.targets):
        with pytest.raises(ValueError):
            held[0, 0] = 0.0
    # the caller's arrays stay writeable, and writing them changes no source
    x[0, 0] += 1.0
    y[0, 0] += 1.0
    assert source.inputs[0, 0] != x[0, 0] and source.targets[0, 0] != y[0, 0]


@pytest.mark.parametrize("widths", [(3, 5, 2), (2, 1), (8, 16, 8, 1)])
def test_returned_gradients_and_theta_outlive_the_next_evaluation(widths):
    rng = rng_root(19)
    task, spec = random_task(rng, widths, n=33)
    gen = rng.generator
    theta, other = gen.standard_normal(spec.n_params), gen.standard_normal(spec.n_params)
    kept_theta = theta.copy()
    grad = task.grad(theta)
    loss, grad_too = task.loss_and_grad(theta)
    kept = grad.tobytes()
    for evaluate in (task.grad, task.loss_and_grad, task.loss):
        evaluate(other)
        assert grad.tobytes() == grad_too.tobytes() == kept, evaluate.__name__
    assert grad is not grad_too
    assert theta.tobytes() == kept_theta.tobytes()
    assert task.loss(theta) == loss and task.grad(theta).tobytes() == kept


def test_every_evaluation_still_checks_theta():
    task, spec = random_task(rng_root(20))
    bad = np.zeros(spec.n_params)
    bad[3] = np.nan
    for evaluate in (task.grad, task.loss_and_grad, task.loss):
        with pytest.raises(NonFiniteValue):
            evaluate(bad)
        with pytest.raises(DimensionMismatch):
            evaluate(np.zeros(spec.n_params + 1))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
def test_a_copied_task_evaluates_as_its_original(clone):
    # the plan's views must stay views of its own buffers in a copy
    rng = rng_root(21)
    task, spec = random_task(rng, (8, 16, 8, 1), n=512)
    gen = rng.generator
    theta, other = gen.standard_normal(spec.n_params), gen.standard_normal(spec.n_params)
    task.grad(other)  # the plan is built before the copy
    twin = clone(task)
    assert twin.loss_and_grad(theta)[1].tobytes() == task.loss_and_grad(theta)[1].tobytes()
    assert twin.loss(other) == task.loss(other)
