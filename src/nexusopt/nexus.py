"""The dual-loop gradient approximator.

One outer step runs inner steps from the current parameters -- normalized SGD
steps for the cosine variant, raw-gradient steps for the dot ablation -- and
hands the accumulated displacement, the pseudo-gradient, to the outer
optimizer as if it were a gradient.

``inner_loop`` is the only code that takes inner steps. It steps on the tasks
of an explicit index sequence and returns the pseudo-gradient as a plain
array; the caller chooses the sequence (the harness draws it i.i.d. from its
task stream or walks the tasks round-robin, the oracles enumerate or sample
it).

Sign convention: the pseudo-gradient is start minus end of the inner
trajectory, accumulated as the sum of the individual step vectors. The sum
form equals the endpoint difference in exact arithmetic and keeps a
one-inner-step trajectory bit-identical to feeding normalized gradients
straight to the outer optimizer. An outer plain-SGD step with lr 1 therefore
lands on the inner endpoint.

The gradient-accumulation adaptation runs the inner loop over windows of a
minibatch stream: one inner step per minibatch, and every inner_steps
minibatches the window's pseudo-gradient feeds the outer optimizer, after
which the next window starts from the new parameters. Its forward/backward
count equals standard training on the same stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .numerics import as_params
from .optimizers import (
    DEFAULT_GRAD_FLOOR,
    AdamWState,
    adamw_step,
    nsgd_direction,
    sgd_step,
)

VARIANTS = ("cosine", "dot")


@dataclass(frozen=True)
class NexusConfig:
    gamma: float
    inner_steps: int
    variant: str = "cosine"
    grad_floor: float = DEFAULT_GRAD_FLOOR

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def inner_loop(theta: np.ndarray, ts, cfg: NexusConfig, sequence) -> np.ndarray:
    """One inner step on ts[k] for each k in ``sequence``; returns the
    pseudo-gradient, the sum of the step vectors d of the steps theta <- theta - d.

    The length of ``sequence``, not ``cfg.inner_steps``, sets the number of
    steps. A DegenerateGradient from a cosine step carries k as its task index.
    """
    current = as_params(theta)
    ghat = np.zeros_like(current)
    for k in sequence:
        k = int(k)
        g = ts[k].grad(current)
        if cfg.variant == "cosine":
            d = nsgd_direction(g, cfg.gamma, cfg.grad_floor, task_index=k)
        else:
            d = cfg.gamma * g
        current = current - d
        ghat = ghat + d
    return ghat


def nexus_outer_step(opt_state, theta: np.ndarray, ghat: np.ndarray, lr: float):
    """Feed a pseudo-gradient to the outer optimizer exactly as if it were a gradient.

    ``opt_state`` of None means plain SGD; an AdamWState means decoupled AdamW.
    Returns (new_opt_state, new_theta).
    """
    if opt_state is None:
        return None, sgd_step(theta, ghat, lr)
    if isinstance(opt_state, AdamWState):
        return adamw_step(opt_state, theta, ghat, lr)
    raise TypeError(f"unsupported outer optimizer state: {type(opt_state).__name__}")


@dataclass
class AccumRunResult:
    """Trajectory of the gradient-accumulation adaptation."""

    theta: np.ndarray
    outer_thetas: list = field(default_factory=list)
    pseudo_gradients: list = field(default_factory=list)
    grad_evals: int = 0
    outer_state: object = None


def nexus_accum_run(
    model_theta: np.ndarray,
    minibatch_stream,
    cfg: NexusConfig,
    outer_state,
    outer_lr=0.0,
) -> AccumRunResult:
    """Inner-model gradient accumulation over a stream of minibatch tasks.

    The stream is cut into windows of ``cfg.inner_steps`` minibatches. Each
    window runs through ``inner_loop`` from the current parameters, one inner
    step per minibatch, and its pseudo-gradient feeds one outer step. A
    trailing partial window is still stepped and counted in ``grad_evals``
    but produces no outer step. A DegenerateGradient names the minibatch's
    position in its window as the task index. ``outer_lr`` may be a float or
    a callable of the outer step index.
    """
    theta = as_params(model_theta).copy()
    result = AccumRunResult(theta, outer_state=outer_state)
    stream = iter(minibatch_stream)
    while window := list(itertools.islice(stream, cfg.inner_steps)):
        ghat = inner_loop(theta, window, cfg, range(len(window)))
        result.grad_evals += len(window)
        if len(window) < cfg.inner_steps:
            break
        lr = outer_lr(len(result.outer_thetas)) if callable(outer_lr) else outer_lr
        result.outer_state, theta = nexus_outer_step(result.outer_state, theta, ghat, lr)
        result.pseudo_gradients.append(ghat)
        result.outer_thetas.append(theta.copy())
    result.theta = theta
    return result
