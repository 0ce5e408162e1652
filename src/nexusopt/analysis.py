"""Measurement protocol: gradient-similarity matrices, parameter closeness,
first-order transfer, and the flatness/closeness expansion of the downstream
loss.

Curvature quantities along a segment are directional (the curvature of the
one-dimensional restriction), which is what makes the expansion an exact
equality for quadratic downstream losses. Quadratics evaluate it in closed
form and cubics at the segment endpoints (the directional curvature is affine
along the segment); other tasks have no certified segment extremes and are
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NexusError
from .numerics import as_params, norm
from .optimizers import DEFAULT_GRAD_FLOOR, checked_norm
from .tasks import QuadraticTask, TaskSet, is_quadratic, train_grad


def gradient_cosines(G: np.ndarray) -> np.ndarray:
    """K x K cosine matrix of the rows of a (K, d) per-task gradient matrix.

    Each entry is its own dot product over the two norms; a single G @ G.T
    may sum in another order and move the entries in the last bits. The rows
    are taken as views once, and ``rows[i].dot(rows[j])`` is the ddot that
    ``G[i] @ G[j]`` calls, with the same bits for every G whose strides are
    positive, without indexing G twice per pair. The dot product and the
    product of norms commute exactly, so the lower triangle mirrors the upper one.
    """
    rows = list(G)
    norms = [checked_norm(g, DEFAULT_GRAD_FLOOR, k) for k, g in enumerate(rows)]
    K = len(rows)
    S = np.empty((K, K))
    for i in range(K):
        for j in range(i, K):
            S[i, j] = S[j, i] = float(rows[i].dot(rows[j])) / (norms[i] * norms[j])
    return S


def mean_pairwise_cosine(S: np.ndarray) -> float:
    """Mean of the off-diagonal entries; nan for a single task."""
    K = S.shape[0]
    if K < 2:
        return float("nan")
    mask = ~np.eye(K, dtype=bool)
    return float(S[mask].mean())


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


def closeness(theta: np.ndarray, ts: TaskSet) -> float:
    """Mean squared distance between theta and each task's minimizer; every task must be a quadratic."""
    theta = as_params(theta, ts.dim)
    dists = []
    for k, t in enumerate(ts.tasks):
        if not is_quadratic(t):
            raise NexusError(f"task {k} is not a QuadraticTask without a tensor, so it has no analytic minimizer")
        dists.append(norm(theta - t.minimizer))
    return float(np.mean(np.asarray(dists) ** 2))


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
