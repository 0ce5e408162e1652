"""Reference functions that the tests check the theory with, and that no
program code calls.

* ``first_order_transfer``: the downstream-loss decrease after one GD step
  against its first-order prediction, for the claim that gradient alignment
  drives transfer.
* ``flatness_closeness_bound``: the flatness/closeness expansion of the
  downstream loss (A10). Curvature quantities along a segment are directional
  (the curvature of the one-dimensional restriction), which is what makes the
  expansion an exact equality for quadratic downstream losses. Quadratics
  evaluate it in closed form and cubics at the segment endpoints (the
  directional curvature is affine along the segment); other tasks have no
  certified segment extremes and are rejected.
* ``gamma2_coefficient_from_enumeration``: the gamma^2 coefficient of the
  exact expected pseudo-gradient, for the dot variant's scale pathology (A11).
* ``lipschitz_constants``: L1 and L2 of the normalized-gradient field.
* ``alignment_pair_direction``: J_i h_j + J_j h_i, the pair term that the
  ``nexusopt.oracles`` docstring defines; it calls the oracles' private
  ``_locals`` and ``_jacobian_apply``.
* ``monte_carlo_generalization_gap`` and ``monte_carlo_anisotropic_gap``:
  sampled (mean, SE) estimates of the downstream generalization gap, for the
  isotropic family and for a shared anisotropic Hessian, that the tests hold
  ``expected_gap_exact`` against.

A function that gains a program caller moves back into ``src/nexusopt``
together with that caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from nexusopt.errors import NexusError
from nexusopt.nexus import NexusConfig
from nexusopt.numerics import RngStream, as_params, norm
from nexusopt.optimizers import DEFAULT_GRAD_FLOOR
from nexusopt.oracles import SmoothnessConstants, _jacobian_apply, _locals, expected_pseudo_gradient_exact
from nexusopt.tasks import QuadraticTask, TaskFamily, TaskSet, train_grad


def _directional_curvature(task, xi: np.ndarray, u: np.ndarray) -> float:
    return float(u @ task.hvp(xi, u))


def _segment_curvatures(task, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Directional curvatures u^T H(xi) u at the points xi of the segment [a, b]
    where the extremes lie; only quadratic and cubic tasks have such points."""
    if not isinstance(task, QuadraticTask):
        raise TypeError(f"segment curvature extremes need a QuadraticTask, got {type(task).__name__}")
    if task.third is None:
        return np.array([_directional_curvature(task, a, u)])
    # affine in the segment parameter, extremes at the endpoints
    return np.array([_directional_curvature(task, a, u), _directional_curvature(task, b, u)])


class TransferCheck(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def first_order_transfer(theta: np.ndarray, ts: TaskSet, downstream, gamma: float) -> TransferCheck:
    """Downstream-loss decrease after one GD step on the training set vs. the
    first-order prediction gamma * <grad L_train, grad L_downstream>; tests check
    with it the paper's claim that gradient alignment drives transfer."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    theta = as_params(theta, ts.dim)
    g_train = train_grad(ts, theta)
    lhs = downstream.loss(theta) - downstream.loss(theta - gamma * g_train)
    rhs = gamma * float(g_train @ downstream.grad(theta))
    return TransferCheck(lhs, rhs, lhs - rhs)


@dataclass
class FlatnessClosenessBound:
    downstream_min_loss: float
    closeness_term: float
    flatness_term: float
    bound: float


def flatness_closeness_bound(theta_train: np.ndarray, downstream, minimizer=None) -> FlatnessClosenessBound:
    """Bound the downstream loss by min loss + closeness * flatness / 2.

    Flatness is the maximum directional curvature of the downstream loss along
    the segment from its minimizer to theta_train; with that reading the bound
    is an exact equality whenever the downstream loss is quadratic.
    """
    theta_train = as_params(theta_train)
    if minimizer is not None:
        theta_star = as_params(minimizer, len(theta_train))
    elif isinstance(downstream, QuadraticTask):
        theta_star = downstream.minimizer
    else:
        raise NexusError("supply a located minimizer for non-analytic downstream tasks")
    delta = theta_train - theta_star
    dist = norm(delta)
    min_loss = downstream.loss(theta_star)
    if dist <= 1e-15:
        return FlatnessClosenessBound(min_loss, 0.0, 0.0, min_loss)
    u = delta / dist
    flatness = float(_segment_curvatures(downstream, theta_star, theta_train, u).max())
    closeness_term = dist**2
    return FlatnessClosenessBound(min_loss, closeness_term, flatness, min_loss + 0.5 * closeness_term * flatness)


def lipschitz_constants(c: SmoothnessConstants) -> tuple:
    """(L1, L2): Lipschitz constants of the normalized gradient and of its Jacobian."""
    L1 = c.hessian_bound / c.grad_lower
    L2 = (3.0 * c.hessian_bound**2 + c.hessian_lipschitz * c.grad_lower) / c.grad_lower**2
    return L1, L2


def alignment_pair_direction(task_i, task_j, theta: np.ndarray) -> np.ndarray:
    """J_i h_j + J_j h_i: the per-pair alignment direction produced by the
    inner-loop dynamics (diagonal pairs i == j included by callers); tests
    check the (K-1)/(4K) coefficient of second_order_direction against it."""
    theta = as_params(theta)
    loc_i, loc_j = _locals(TaskSet([task_i, task_j]), theta, DEFAULT_GRAD_FLOOR)
    return _jacobian_apply(loc_i, theta, loc_j.h) + _jacobian_apply(loc_j, theta, loc_i.h)


def gamma2_coefficient_from_enumeration(
    ts: TaskSet, theta: np.ndarray, cfg: NexusConfig, nodes=None
) -> np.ndarray:
    """Extract the gamma^2 coefficient of E[pseudo-gradient] from exact enumerations.

    For the dot variant on quadratics the expectation is a degree-M polynomial
    in gamma with zero constant term, so interpolation at M distinct nodes is
    exact; for the cosine variant the same extraction carries an O(gamma)
    contamination, which is itself invariant under loss rescaling. The fit
    needs a gamma^2 column, so it takes at least two nodes; the default is
    max(M, 2) evenly spaced nodes up to cfg.gamma. With M = 1 the expectation
    is linear in gamma and the coefficient is 0 up to rounding.
    """
    n_nodes = max(cfg.inner_steps, 2)
    if nodes is None:
        nodes = [cfg.gamma * (k + 1) / n_nodes for k in range(n_nodes)]
    nodes = np.asarray(nodes, dtype=np.float64)
    if len(nodes) < n_nodes:
        raise ValueError(f"need at least {n_nodes} nodes to fit the gamma^1..gamma^{n_nodes} polynomial")
    values = [expected_pseudo_gradient_exact(ts, theta, replace(cfg, gamma=float(g))) for g in nodes]
    V = np.vander(nodes, N=len(nodes) + 1, increasing=True)[:, 1:]  # columns gamma^1 .. gamma^len
    coeffs, *_ = np.linalg.lstsq(V, np.asarray(values), rcond=None)
    return coeffs[1]


def monte_carlo_generalization_gap(
    family: TaskFamily, K: int, n_draws: int, rng: RngStream
) -> tuple:
    """Monte-Carlo estimate of the downstream gap; returns (mean, SE).

    Each draw samples fresh training minimizers and one downstream minimizer,
    places the trained parameter at the training stationary point (the mean of
    the minimizers for the isotropic family), and measures downstream loss
    minus training loss.
    """
    d, a = family.dim, family.curvature
    scale = np.sqrt(family.variance / d)
    gen = rng.generator
    train_mins = family.basin_mean + scale * gen.standard_normal((n_draws, K, d))
    down_mins = family.basin_mean + scale * gen.standard_normal((n_draws, d))
    theta_bar = train_mins.mean(axis=1)
    c_train = 0.5 * a * np.mean(np.sum((theta_bar[:, None, :] - train_mins) ** 2, axis=2), axis=1)
    down = 0.5 * a * np.sum((theta_bar - down_mins) ** 2, axis=1)
    gaps = down - c_train
    return float(gaps.mean()), float(gaps.std(ddof=1) / np.sqrt(n_draws))


def monte_carlo_anisotropic_gap(
    A: np.ndarray, basin_mean: np.ndarray, sigma_sq: float, K: int, n_draws: int, rng: RngStream
) -> tuple:
    """Same measurement with a shared anisotropic SPD Hessian."""
    basin_mean = as_params(basin_mean)
    d = basin_mean.shape[0]
    scale = np.sqrt(sigma_sq / d)
    gen = rng.generator
    train_mins = basin_mean + scale * gen.standard_normal((n_draws, K, d))
    down_mins = basin_mean + scale * gen.standard_normal((n_draws, d))
    theta_bar = train_mins.mean(axis=1)

    def quad(diff):
        return 0.5 * np.einsum("...a,ab,...b->...", diff, A, diff)

    c_train = np.mean(quad(theta_bar[:, None, :] - train_mins), axis=1)
    gaps = quad(theta_bar - down_mins) - c_train
    return float(gaps.mean()), float(gaps.std(ddof=1) / np.sqrt(n_draws))
