"""The dual-loop gradient approximator.

One outer step runs K sequential inner steps from the current parameters --
normalized SGD steps for the cosine variant, raw-gradient steps for the dot
ablation -- and hands the accumulated displacement to the outer optimizer as
if it were a gradient.

Sign convention: the pseudo-gradient is start minus end of the inner
trajectory, accumulated as the sum of the individual step vectors. The sum
form equals the endpoint difference in exact arithmetic and keeps a
one-inner-step trajectory bit-identical to feeding normalized gradients
straight to the outer optimizer. An outer plain-SGD step with lr 1 therefore
lands on the inner endpoint.

The gradient-accumulation adaptation drives the same inner step over a
minibatch stream: one inner step per minibatch, and every inner_steps
minibatches the summed step vectors feed the outer optimizer, after which the
inner copy restarts from the new parameters. Its forward/backward count equals
standard training on the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .numerics import RngStream, as_params
from .optimizers import (
    DEFAULT_GRAD_FLOOR,
    AdamWState,
    adamw_step,
    nsgd_direction,
    sgd_step,
)

SAMPLING_MODES = ("iid_uniform", "fixed_sequence")
VARIANTS = ("cosine", "dot")


@dataclass(frozen=True)
class NexusConfig:
    gamma: float
    inner_steps: int
    sampling: str = "iid_uniform"
    variant: str = "cosine"
    grad_floor: float = DEFAULT_GRAD_FLOOR

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class PseudoGradient:
    """Inner-loop displacement plus (optionally) the visited points."""

    value: np.ndarray
    inner_trajectory: list | None = None


def inner_step_vector(task, theta: np.ndarray, cfg: NexusConfig, task_index: int | None = None) -> np.ndarray:
    """One inner update vector d such that the step is theta <- theta - d."""
    g = task.grad(theta)
    if cfg.variant == "cosine":
        return nsgd_direction(g, cfg.gamma, cfg.grad_floor, task_index=task_index)
    return cfg.gamma * g


def inner_loop(
    theta: np.ndarray,
    ts,
    cfg: NexusConfig,
    rng: RngStream | None = None,
    sequence=None,
    record_trajectory: bool = False,
) -> PseudoGradient:
    """Run K inner steps and return the pseudo-gradient (start minus end).

    iid_uniform sampling draws task indices uniformly with replacement from
    ``rng``; fixed_sequence consumes the provided index ``sequence`` (length
    inner_steps).
    """
    theta = as_params(theta)
    if cfg.sampling == "iid_uniform":
        if rng is None:
            raise ValueError("iid_uniform sampling requires an rng stream")
        indices = rng.generator.integers(0, len(ts), size=cfg.inner_steps)
    else:
        if sequence is None:
            raise ValueError("fixed_sequence sampling requires an explicit index sequence")
        indices = list(sequence)
        if len(indices) != cfg.inner_steps:
            raise ValueError(f"sequence length {len(indices)} != inner_steps {cfg.inner_steps}")
    ghat = np.zeros_like(theta)
    trajectory = [theta.copy()] if record_trajectory else None
    current = theta
    for m in range(cfg.inner_steps):
        k = int(indices[m])
        d = inner_step_vector(ts[k], current, cfg, task_index=k)
        current = current - d
        ghat = ghat + d
        if record_trajectory:
            trajectory.append(current.copy())
    return PseudoGradient(ghat, trajectory)


def nexus_outer_step(opt_state, theta: np.ndarray, ghat, lr: float):
    """Feed a pseudo-gradient to the outer optimizer exactly as if it were a gradient.

    ``opt_state`` of None means plain SGD; an AdamWState means decoupled AdamW.
    Returns (new_opt_state, new_theta). Tests check with it that the outer step
    sees only the displacement's value, as the paper's outer loop requires.
    """
    value = ghat.value if isinstance(ghat, PseudoGradient) else as_params(ghat)
    theta = as_params(theta)
    if value.shape != theta.shape:
        raise DimensionMismatch(f"pseudo-gradient shape {value.shape} != theta shape {theta.shape}")
    if opt_state is None:
        return None, sgd_step(theta, value, lr)
    if isinstance(opt_state, AdamWState):
        return adamw_step(opt_state, theta, value, lr)
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
    """Inner-model gradient accumulation over a minibatch stream.

    ``minibatch_stream`` yields tasks (or (task, step) pairs; the step index is
    ignored in favor of an internal count). Every minibatch applies one inner
    step; each time ``cfg.inner_steps`` minibatches complete, the sum of their
    step vectors (the same sum form as ``inner_loop``) becomes the
    pseudo-gradient for one outer step, and the inner copy restarts from the
    new parameters. A trailing partial window produces no outer step.
    ``outer_lr`` may be a float or a callable of the outer step index.
    """
    theta = as_params(model_theta).copy()
    result = AccumRunResult(theta, outer_state=outer_state)
    inner, ghat, window = theta, np.zeros_like(theta), 0
    for item in minibatch_stream:
        task = item[0] if isinstance(item, tuple) else item
        d = inner_step_vector(task, inner, cfg)
        result.grad_evals += 1
        inner = inner - d
        ghat = ghat + d
        window += 1
        if window == cfg.inner_steps:
            lr = outer_lr(len(result.outer_thetas)) if callable(outer_lr) else outer_lr
            result.outer_state, theta = nexus_outer_step(result.outer_state, theta, ghat, lr)
            result.pseudo_gradients.append(ghat)
            result.outer_thetas.append(theta.copy())
            inner, ghat, window = theta, np.zeros_like(theta), 0
    result.theta = theta
    return result
