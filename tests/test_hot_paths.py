"""No per-evaluation path enters numpy's Python-level wrappers.

``ndarray.all``, ``.sum``, ``.min`` and ``.max`` reach numpy/_core/_methods.py,
and ``np.zeros_like`` is a Python function too; each costs more than its
arithmetic on the package's small vectors. The calls below run on every
inner step, gradient, loss, HVP and oracle fixture, so a profile hook records
every Python frame they enter and the test names any such wrapper.
"""

import os
import sys

import numpy as np
import pytest

from nexusopt.mlp import MLPSpec, MLPTask, make_synthetic_sources
from nexusopt.nexus import NexusConfig, inner_loop
from nexusopt.numerics import fd_hvp, rng_root, rng_substream
from nexusopt.tasks import QuadraticTask, TaskSet, random_spd_matrix, symmetrize_tensor

_METHODS = os.path.join("numpy", "_core", "_methods.py")


def _wrappers_entered(call) -> set:
    """The numpy wrapper functions whose frames call() enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.endswith(_METHODS):
                entered.add(f"_methods.{code.co_name}")
            elif code.co_name == "zeros_like":
                entered.add("zeros_like")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return entered


def _mlp_set():
    # one output column, so the last bias gradient takes the single-column reduction
    rng = rng_root(91)
    spec = MLPSpec((4, 8, 1), "tanh")
    sources, _ = make_synthetic_sources(3, 4, 1, 16, 0.5, rng_substream(rng, "data"))
    ts = TaskSet([MLPTask(spec, source) for source in sources])
    theta = rng_substream(rng, "theta").generator.standard_normal(spec.n_params)
    for task in ts:
        task.grad(theta)  # builds the task's plan once, outside the measured calls
    return ts, theta


def _quadratic_parts():
    rng = rng_root(92)
    A = random_spd_matrix(5, rng_substream(rng, "A"))
    gen = rng.generator
    return A, gen.standard_normal(5), symmetrize_tensor(gen.standard_normal((5, 5, 5)))


def _calls():
    ts, theta = _mlp_set()
    task = ts[0]
    A, minimizer, third = _quadratic_parts()
    quad = TaskSet([QuadraticTask(A, minimizer), QuadraticTask(2.0 * A, -minimizer)])
    v = np.linspace(-1.0, 1.0, theta.shape[0])
    cfg = NexusConfig(gamma=0.1, inner_steps=8)
    return {
        "mlp_grad": lambda: task.grad(theta),
        "mlp_loss": lambda: task.loss(theta),
        "mlp_loss_and_grad": lambda: task.loss_and_grad(theta),
        "mlp_inner_loop": lambda: inner_loop(theta, ts, cfg, [0, 1, 2, 0, 1, 2, 0, 1]),
        "quadratic_inner_loop": lambda: inner_loop(np.zeros(5), quad, cfg, [0, 1, 0, 1, 0, 1, 0, 1]),
        "fd_hvp": lambda: fd_hvp(task.grad, theta, v),
        "quadratic_task": lambda: QuadraticTask(A, minimizer, 0.5),
        "cubic_task": lambda: QuadraticTask(A, minimizer, 0.5, third),
    }


@pytest.mark.parametrize("name", list(_calls()))
def test_a_per_evaluation_path_enters_no_numpy_wrapper(name):
    entered = _wrappers_entered(_calls()[name])
    assert not entered, f"{name} entered {sorted(entered)}"
