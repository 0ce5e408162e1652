"""Base optimizers and learning-rate schedules.

All steps are pure functions: state in, state out. AdamW is the decoupled
variant (weight decay applied to the parameters, not the gradient) with bias
correction at the current step count. Defaults follow the usual pretraining
settings: betas (0.9, 0.95), eps 1e-10. Gradient clipping is opt-in: the
harness clips only when optimizer.clip_norm > 0, and its default 0 disables it.

Normalized SGD refuses gradients below a norm floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGradient, StepOutOfRange
from .numerics import as_params, check_same_dim, norm

DEFAULT_GRAD_FLOOR = 1e-12
SCHEDULE_KINDS = ("constant", "cosine", "wsd")


def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    theta = as_params(theta)
    grad = as_params(grad)
    check_same_dim(theta, grad)
    return theta - lr * grad


def nsgd_direction(
    grad: np.ndarray,
    lr: float,
    floor: float = DEFAULT_GRAD_FLOOR,
    task_index: int | None = None,
) -> np.ndarray:
    """The update vector lr * grad/||grad||; shared by nsgd_step and the inner loop.

    Keeping one code path here is what makes a one-inner-step trajectory
    bit-identical to feeding normalized gradients straight to the outer
    optimizer.
    """
    grad = as_params(grad)
    grad_norm = norm(grad)
    if grad_norm < floor:
        raise DegenerateGradient(f"gradient norm {grad_norm:g} below floor {floor:g}", task_index)
    return (lr / grad_norm) * grad


def nsgd_step(
    theta: np.ndarray,
    grad: np.ndarray,
    lr: float,
    floor: float = DEFAULT_GRAD_FLOOR,
) -> np.ndarray:
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    theta = as_params(theta)
    grad = as_params(grad)
    check_same_dim(theta, grad)
    return theta - nsgd_direction(grad, lr, floor)


@dataclass(frozen=True)
class AdamWState:
    """Moment accumulators plus hyperparameters; t counts completed steps."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-10
    weight_decay: float = 0.0

    @classmethod
    def init(cls, dim: int, beta1: float = 0.9, beta2: float = 0.95, eps: float = 1e-10, weight_decay: float = 0.0):
        return cls(np.zeros(dim), np.zeros(dim), 0, beta1, beta2, eps, weight_decay)


def adamw_step(state: AdamWState, theta: np.ndarray, grad: np.ndarray, lr: float) -> tuple:
    """Decoupled AdamW update; returns (new_state, new_theta)."""
    theta = as_params(theta)
    grad = as_params(grad)
    check_same_dim(theta, grad)
    check_same_dim(theta, state.m)
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    theta_new = theta - lr * (m_hat / (np.sqrt(v_hat) + state.eps)) - lr * state.weight_decay * theta
    return replace(state, m=m, v=v, t=t), theta_new


def clip_grad(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale to norm <= max_norm, preserving direction."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    grad = as_params(grad)
    grad_norm = norm(grad)
    if grad_norm <= max_norm:
        return grad
    return grad * (max_norm / grad_norm)


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule over [0, total_steps].

    kinds:
      constant -- base_lr everywhere
      cosine   -- linear warmup to base_lr, then base_lr * (1 + cos(pi*progress)) / 2
      wsd      -- linear warmup, constant plateau, linear decay to 0 over the
                  final decay_steps
    """

    kind: str
    base_lr: float
    total_steps: int
    warmup_steps: int = 0
    decay_steps: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.base_lr < 0:
            raise ValueError("base_lr must be >= 0")
        if self.total_steps < 0 or self.warmup_steps < 0 or self.decay_steps < 0:
            raise ValueError("step counts must be >= 0")
        if self.warmup_steps + self.decay_steps > self.total_steps and self.kind == "wsd":
            raise ValueError("warmup_steps + decay_steps exceed total_steps")


def schedule_lr(s: Schedule, step: int) -> float:
    if step < 0 or step > s.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {s.total_steps}]")
    if s.kind == "constant":
        return s.base_lr
    if s.warmup_steps > 0 and step < s.warmup_steps:
        return s.base_lr * step / s.warmup_steps
    if s.kind == "cosine":
        span = max(s.total_steps - s.warmup_steps, 1)
        progress = (step - s.warmup_steps) / span
        return s.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    # wsd
    decay_start = s.total_steps - s.decay_steps
    if step <= decay_start or s.decay_steps == 0:
        return s.base_lr
    return s.base_lr * (s.total_steps - step) / s.decay_steps
