"""The dual-loop gradient approximator.

One outer step runs inner steps from the current parameters -- normalized SGD
steps for the cosine variant, raw-gradient steps for the dot ablation -- and
hands the accumulated displacement, the pseudo-gradient, to the outer
optimizer as if it were a gradient.

``inner_loop`` is the only code that takes inner steps. It steps on the tasks
of an explicit index sequence and returns the pseudo-gradient as a plain
array; the caller chooses the sequence (the harness draws it i.i.d. from its
task stream or walks the tasks round-robin, the oracles enumerate or sample
it) and feeds the result to an outer optimizer of ``optimizers``
(``sgd_step``, ``adamw_step``) in place of a gradient.

Sign convention: the pseudo-gradient is start minus end of the inner
trajectory, accumulated as the sum of the individual step vectors. The sum
form equals the endpoint difference in exact arithmetic and keeps a
one-inner-step trajectory bit-identical to feeding normalized gradients
straight to the outer optimizer. An outer plain-SGD step with lr 1 therefore
lands on the inner endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_params
from .optimizers import DEFAULT_GRAD_FLOOR, nsgd_direction

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


def inner_loop(theta: np.ndarray, ts, cfg: NexusConfig, sequence, first_grad=None) -> np.ndarray:
    """One inner step on ts[k] for each k in ``sequence``; returns the
    pseudo-gradient, the sum of the step vectors d of the steps theta <- theta - d.

    The length of ``sequence``, not ``cfg.inner_steps``, sets the number of
    steps. ``first_grad``, when given, is the gradient of ts[sequence[0]] at
    theta, already computed by the caller; the first step uses it instead of
    evaluating it again, and a cosine step still checks it against the floor.
    A DegenerateGradient from a cosine step carries k as its task index.
    Run over a window of minibatch tasks with ``sequence = range(len(window))``,
    it is the gradient-accumulation form, with one gradient evaluation per
    minibatch as in standard training.
    """
    current = as_params(theta)
    ghat = np.zeros(current.shape[0])
    for i, k in enumerate(sequence):
        k = int(k)
        g = first_grad if i == 0 and first_grad is not None else ts[k].grad(current)
        if cfg.variant == "cosine":
            d = nsgd_direction(g, cfg.gamma, cfg.grad_floor, task_index=k)
        else:
            d = cfg.gamma * g
        current = current - d
        ghat += d
    return ghat
