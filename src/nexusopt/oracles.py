"""Analytic ground truth for the theorem suite.

Exact expected pseudo-gradients by sequence enumeration, closed-form
similarity gradients, Taylor expansions of the inner-loop expectation,
error-bound constants, generalization-gap formulas with the exact expected
gap they are checked against, and convergence contractions. The expansions
are public as the two- and three-term directions; their first-order term and
normalized-gradient derivatives are private helpers. Every oracle makes one
gradient evaluation per task per point, a row of one ``task_grads`` matrix,
checked against the floor by training's ``checked_norm``; at third order it
takes each task's Hessian and tensor once per call too, and its pair and
triple contractions reuse those values.

Two distinct "similarity gradient" objects appear and are easy to conflate:

* ``cosgrad_analytic`` is the gradient of the scalar map
  theta -> CosSim(grad L_i(theta), grad L_j(theta)). Writing h_i for the unit
  gradient, P_i for the projector h_i h_i^T and H_i for the Hessian, it is
  H_i (I - P_i) h_j / ||g_i||  +  H_j (I - P_j) h_i / ||g_j||  -- the Hessian
  acts on the *projected* unit gradient. It matches finite differences and
  vanishes identically for parallel gradients.

* The alignment pair direction is J_i h_j + J_j h_i with
  J_i = (I - P_i) H_i / ||g_i|| the Jacobian of the normalized-gradient field
  (projection applied *after* the Hessian product). This is the quantity the
  inner loop's second-order dynamics actually produce, diagonal pairs
  included; it coincides with ``cosgrad_analytic`` when the Hessians commute
  with the gradient projectors (isotropic curvature), but not in general. The
  oracles need it only summed over pairs; the tests' reference gives one pair.

The expansion oracles below use the second form because they must reproduce
the exact enumeration to the stated order; the first form is kept for
verifying the similarity-gradient formula itself against finite differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGradient, NexusError
from .nexus import NexusConfig, inner_loop
from .numerics import RngStream, as_params, norm
from .optimizers import DEFAULT_GRAD_FLOOR, checked_norm, nsgd_step, sgd_step
from .tasks import (
    QuadraticTask,
    TaskSet,
    closeness,
    is_quadratic,
    mean_grad,
    random_spd_matrix,
    stationary_point,
    task_grads,
)

ENUMERATION_CAP = 256


# --------------------------------------------------------------------------
# Smoothness constants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessConstants:
    """Region-dependent constants: gradient lower bound, Hessian bound and
    Hessian Lipschitz constant."""

    grad_lower: float
    hessian_bound: float
    hessian_lipschitz: float = 0.0

    def __post_init__(self):
        if not 0 < self.grad_lower:
            raise ValueError("need 0 < grad_lower")
        if self.hessian_bound <= 0 or self.hessian_lipschitz < 0:
            raise ValueError("invalid smoothness constants")


@dataclass(frozen=True)
class CurvatureBounds:
    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if not 0 < self.lambda_min <= self.lambda_max:
            raise ValueError("need 0 < lambda_min <= lambda_max")

    @property
    def kappa(self) -> float:
        return self.lambda_max / self.lambda_min


def quadratic_smoothness_constants(ts: TaskSet, theta: np.ndarray, radius: float) -> SmoothnessConstants:
    """Exact constants for quadratic tasks over the ball of given radius around theta.

    The ball covers every point an inner loop of total step budget ``radius``
    can visit. The gradient lower bound uses
    ||A(x - t)|| >= ||A(theta - t)|| - lambda_max(A) * radius, which is a valid
    (possibly conservative) lower bound; Hessians are constant so rho = 0.
    """
    theta = as_params(theta, ts.dim)
    if not all(is_quadratic(t) for t in ts.tasks):
        raise TypeError("quadratic_smoothness_constants expects quadratic tasks")
    g_lower = np.inf
    h_bound = 0.0
    for t, g in zip(ts.tasks, task_grads(ts, theta)):
        lam_max = float(np.linalg.eigvalsh(t.hessian).max())
        g_lower = min(g_lower, norm(g) - lam_max * radius)
        h_bound = max(h_bound, lam_max)
    if g_lower <= 0:
        raise DegenerateGradient(f"gradient lower bound {g_lower:g} not positive over the probed region")
    return SmoothnessConstants(g_lower, h_bound, 0.0)


def second_order_error_bound(c: SmoothnessConstants, inner_steps: int, gamma: float) -> float:
    """Bound on the gap between the exact expected pseudo-gradient and its
    two-term expansion: (1/6) * (4L^2 + rho*G_min)/G_min^2 * M^3 gamma^3, with M
    the number of inner steps (not the number of tasks)."""
    return (
        (4.0 * c.hessian_bound**2 + c.hessian_lipschitz * c.grad_lower) / c.grad_lower**2
        * inner_steps**3 * gamma**3 / 6.0
    )


# --------------------------------------------------------------------------
# Normalized-gradient field derivatives
# --------------------------------------------------------------------------


class _Local(NamedTuple):
    """A task's gradient norm n, unit gradient h and, at third order, Hessian H and tensor T at theta."""

    task: object
    n: float
    h: np.ndarray
    H: np.ndarray | None = None
    T: np.ndarray | None = None


def _locals(ts: TaskSet, theta: np.ndarray, floor: float, curvature: bool = False) -> list:
    """One _Local per task, from the rows of one task_grads matrix; a row below the floor names its task."""
    G = task_grads(ts, theta)
    norms = [checked_norm(g, floor, k) for k, g in enumerate(G)]
    curv = [(t.hessian_at(theta), t.third) if curvature else () for t in ts.tasks]
    return [_Local(t, n, g / n, *extra) for t, g, n, extra in zip(ts.tasks, G, norms, curv)]


def _proj(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x - (h @ x) * h


def _jacobian_apply(loc: _Local, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v, J the Jacobian of theta -> grad L / ||grad L||, by H @ v if the record holds H."""
    Hv = loc.task.hvp(theta, v) if loc.H is None else loc.H @ v
    return _proj(loc.h, Hv) / loc.n


def _tensor_contraction(loc: _Local, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """proj(T[u, v]) / ||g||: the tensor's part of the second derivative of the unit gradient."""
    return _proj(loc.h, np.einsum("abc,b,c->a", loc.T, u, v)) / loc.n


def _second_derivative(loc: _Local, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    H, h, n = loc.H, loc.h, loc.n
    Hu, Hv = H @ u, H @ v
    out = -((h @ Hv) * _proj(h, Hu) + (h @ Hu) * _proj(h, Hv)) / n**2
    out = out - h * float(v @ H @ _proj(h, Hu)) / n**2
    if loc.T is not None:
        out = out + _tensor_contraction(loc, u, v)
    return out


def cosgrad_analytic(task_i, task_j, theta: np.ndarray) -> np.ndarray:
    """Gradient of CosSim(grad L_i, grad L_j) with respect to theta.

    Needs only Hessian-vector products, so it works for any task kind
    (finite-difference HVPs for the MLP). Symmetric in (i, j); identically
    zero when the two gradients are parallel.
    """
    theta = as_params(theta)
    loc_i, loc_j = _locals(TaskSet([task_i, task_j]), theta, DEFAULT_GRAD_FLOOR)
    proj_j = _proj(loc_i.h, loc_j.h)
    proj_i = _proj(loc_j.h, loc_i.h)
    term_i = task_i.hvp(theta, proj_j) / loc_i.n if norm(proj_j) > 0 else np.zeros(theta.shape[0])
    term_j = task_j.hvp(theta, proj_i) / loc_j.n if norm(proj_i) > 0 else np.zeros(theta.shape[0])
    return term_i + term_j


# --------------------------------------------------------------------------
# Exact expectation and its Taylor expansions
# --------------------------------------------------------------------------


def expected_pseudo_gradient_exact(ts: TaskSet, theta: np.ndarray, cfg: NexusConfig) -> np.ndarray:
    """Exact E[pseudo-gradient] by enumerating every index sequence.

    All n^M sequences of M inner steps over n tasks are equally likely under
    i.i.d. uniform sampling; each is run deterministically and the results are
    averaged in a fixed order, so the output is bit-reproducible.
    """
    theta = as_params(theta, ts.dim)
    n, M = len(ts), cfg.inner_steps
    count = n**M
    if count > ENUMERATION_CAP:
        raise NexusError(f"{n}^{M} = {count} sequences exceed cap {ENUMERATION_CAP}")
    total = np.zeros(ts.dim)
    for seq in itertools.product(range(n), repeat=M):
        total += inner_loop(theta, ts, cfg, seq)
    return total / count


def _first_order(ts: TaskSet, cfg: NexusConfig, vectors: list) -> np.ndarray:
    total = np.zeros(ts.dim)
    for v in vectors:
        total += v
    return cfg.gamma * (cfg.inner_steps / len(ts)) * total


def _jacobian_sum(locs: list, theta: np.ndarray) -> np.ndarray:
    """sum_a J_a s with s = sum_b h_b: the cosine pair sum over all ordered pairs."""
    s = np.sum([loc.h for loc in locs], axis=0)
    total = np.zeros(len(theta))
    for loc in locs:
        total += _jacobian_apply(loc, theta, s)
    return total


def second_order_direction(ts: TaskSet, theta: np.ndarray, cfg: NexusConfig) -> np.ndarray:
    """Two-term expansion of the expected pseudo-gradient.

    With M inner steps over n tasks the interaction weight is M(M-1)/(4 n^2)
    against the symmetrized pair sum -- for M = n = K this is the familiar
    (K-1)/(4K). The pair sum runs over all ordered pairs including i == j
    (repeated draws of the same task are perfectly correlated, and their
    contribution does not vanish); see the module docstring for why the pair
    direction is J_i h_j + J_j h_i rather than the similarity-map gradient.
    The dot variant's pair sum is sum_{i,j} H_i g_j. Both variants take the
    two terms from one gradient evaluation per task.
    """
    theta = as_params(theta, ts.dim)
    if cfg.variant == "cosine":
        locs = _locals(ts, theta, cfg.grad_floor)
        return _second_order(ts, cfg, _first_order(ts, cfg, [loc.h for loc in locs]), _jacobian_sum(locs, theta))
    G = task_grads(ts, theta)
    s = np.sum(G, axis=0)
    pairs = np.zeros(ts.dim)
    for t in ts.tasks:
        pairs += t.hvp(theta, s)
    return _second_order(ts, cfg, _first_order(ts, cfg, G), pairs)


def _second_order(ts: TaskSet, cfg: NexusConfig, first: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    n, M = len(ts), cfg.inner_steps
    weight = M * (M - 1) / (2.0 * n**2)
    return first - cfg.gamma**2 * weight * pairs


def third_order_direction(ts: TaskSet, theta: np.ndarray, cfg: NexusConfig) -> np.ndarray:
    """Three-term expansion: second_order_direction plus gamma^3 times the exact
    gamma^3 coefficient of the expected pseudo-gradient (cosine variant).

    The coefficient has three pieces: nested Jacobian products J_a J_b h_c over
    strictly ordered triples, and second-derivative contractions Q_a[h_b, h_c]
    split by whether the two earlier draws coincide (they are perfectly
    correlated when they do, which is why the diagonal and off-diagonal pieces
    carry different weights). The two lower terms share one record per task and
    the pair sum with it.
    """
    if cfg.variant != "cosine":
        raise ValueError("third_order_direction is defined for the cosine variant")
    theta = as_params(theta, ts.dim)
    n, M = len(ts), cfg.inner_steps
    locs = _locals(ts, theta, cfg.grad_floor, curvature=True)
    units = [loc.h for loc in locs]
    js = _jacobian_sum(locs, theta)
    third = np.zeros(ts.dim)
    c_diag = M * (M - 1) / (4.0 * n**2)
    for loc in locs:
        for h in units:
            third += c_diag * _second_derivative(loc, h, h)
    c_off = M * (M - 1) * (M - 2) / (6.0 * n**3)
    if c_off > 0:
        # the nested-Jacobian triple sum factorizes through s = sum_c h_c
        for loc in locs:
            third += c_off * _jacobian_apply(loc, theta, js)
            for hb in units:
                for hc in units:
                    third += c_off * _second_derivative(loc, hb, hc)
    return _second_order(ts, cfg, _first_order(ts, cfg, units), js) + cfg.gamma**3 * third


# --------------------------------------------------------------------------
# Closeness chain, generalization gaps, convergence
# --------------------------------------------------------------------------


@dataclass
class ClosenessChainReport:
    closeness: float
    inner_product_bound: float
    cossim_bound: float

    @property
    def first_slack(self) -> float:
        return self.inner_product_bound - self.closeness

    @property
    def second_slack(self) -> float:
        return self.cossim_bound - self.inner_product_bound


def closeness_bound_check(ts: TaskSet) -> ClosenessChainReport:
    """Evaluate the closeness / inner-product / cosine-similarity chain at the
    stationary point of a quadratic task set.

    One task_grads matrix gives the stationarity residual, each gradient norm
    and each unordered pair's dot product (a dot product is the same bits in
    either order); the sums still run over the ordered pairs, so they round as
    they always did.
    """
    theta = stationary_point(ts)
    grads = task_grads(ts, theta)
    resid = norm(mean_grad(grads))
    if resid > 1e-9:
        raise NexusError(f"|train gradient| = {resid:g} > 1e-9 at stationary_point(ts)")
    K = len(ts)
    curvs = []
    for t in ts.tasks:
        delta = theta - t.minimizer
        dist = norm(delta)
        if dist > 1e-15:
            u = delta / dist
            curvs.append(float(u @ t.hessian @ u))
    lam = min(curvs) if curvs else np.inf
    norms = [norm(g) for g in grads]
    dots = {(i, j): float(grads[i] @ grads[j]) for i, j in itertools.combinations(range(K), 2)}
    cross = 0.0
    one_minus_cos = 0.0
    for i, j in itertools.permutations(range(K), 2):
        dot = dots[min(i, j), max(i, j)]
        cross += -dot
        if norms[i] > 0 and norms[j] > 0:  # zero-gradient pairs contribute nothing: the common-minimizer case
            one_minus_cos += 1.0 - dot / (norms[i] * norms[j])
    middle = cross / (K * lam**2) if np.isfinite(lam) else 0.0
    right = max(norms) ** 2 * one_minus_cos / (K * lam**2) if np.isfinite(lam) else 0.0
    return ClosenessChainReport(closeness(theta, ts), middle, right)


def quadratic_gap(a: float, K: int, sigma_sq: float) -> float:
    """Expected downstream generalization gap for the isotropic quadratic family."""
    if a <= 0 or K < 1 or sigma_sq < 0:
        raise ValueError("need a > 0, K >= 1, sigma_sq >= 0")
    return a * sigma_sq / K


def general_gap_bound(cb: CurvatureBounds, K: int, sigma_sq: float) -> float:
    """Strongly-convex generalization bound lambda_max (kappa^2 + 1) / (2K) * sigma^2."""
    if K < 1 or sigma_sq < 0:
        raise ValueError("need K >= 1, sigma_sq >= 0")
    return cb.lambda_max * (cb.kappa**2 + 1.0) / (2.0 * K) * sigma_sq


def expected_gap_exact(A: np.ndarray, K: int, sigma_sq: float) -> float:
    """Exact expected downstream gap for K training tasks sharing the SPD Hessian A.

    The family: the K training minimizers t_1..t_K and the downstream one t_0
    are i.i.d. t_j = mu + s*z_j with z_j ~ N(0, I_d) and s^2 = sigma_sq / d, so
    sigma_sq is their total variance. The trained parameter is the training
    stationary point, which for tasks sharing A is the mean theta_bar of
    t_1..t_K, and the gap is the downstream loss there minus the training loss:
    0.5 (theta_bar - t_0)^T A (theta_bar - t_0) minus the mean over k of
    0.5 (theta_bar - t_k)^T A (theta_bar - t_k).

    Let u be the coefficient row of theta_bar - t_0 over (t_0, .., t_K), and
    v_k that of theta_bar - t_k. Each row sums to 0, so mu cancels, and with z
    the stacked draws the gap is 0.5 s^2 z^T (Q kron A) z with
    Q = u u^T - (1/K) sum_k v_k v_k^T. Since E[z^T M z] = tr(M), the expected
    gap is 0.5 s^2 tr(Q kron A) = 0.5 s^2 tr(Q) tr(A), with
    tr(Q) = ||u||^2 - (1/K) sum_k ||v_k||^2 = 2/K. For A = aI it is a*sigma_sq/K.
    """
    A = np.asarray(A, dtype=np.float64)
    if K < 1 or sigma_sq < 0:
        raise ValueError("need K >= 1, sigma_sq >= 0")
    theta_bar = np.full(K + 1, 1.0 / K)
    theta_bar[0] = 0.0  # theta_bar's coefficient row over (t_0, .., t_K)
    sq_norms = theta_bar @ theta_bar - 2.0 * theta_bar + 1.0  # ||theta_bar - t_j||^2: ||u||^2, then ||v_k||^2
    trace_q = float(sq_norms[0] - sq_norms[1:].sum() / K)
    return 0.5 * (sigma_sq / A.shape[0]) * trace_q * float(np.trace(A))


def convergence_contraction(mu: float, L: float, gamma: float) -> float:
    """Per-step squared-distance contraction factor 1 - 2*gamma*mu*L/(L+mu)."""
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if not 0 < gamma <= 2.0 / (L + mu):
        raise NexusError(f"gamma must lie in (0, {2.0 / (L + mu):g}], got {gamma}")
    return 1.0 - 2.0 * gamma * mu * L / (L + mu)


def measure_sgd_contraction(
    ts: TaskSet, theta0: np.ndarray, gamma: float, steps: int, rng: RngStream
) -> np.ndarray:
    """Per-step squared-distance ratios of task-sampled plain SGD toward the
    common minimizer (the raw-gradient inner dynamics the convergence theorem
    analyzes).

    The quadratic update map is linear in the displacement, so each step is
    taken from the renormalized displacement direction: the ratios are those
    of the real trajectory, but immune to the double-precision floor that a
    couple hundred optimal-rate contractions would otherwise hit (the raw
    distance underflows past machine precision after roughly 35 steps).
    """
    theta_star = ts.tasks[0].minimizer
    for t in ts.tasks:
        if norm(t.minimizer - theta_star) > 1e-12:
            raise ValueError("tasks must share a common minimizer")
    theta0 = as_params(theta0, ts.dim)
    u = theta0 - theta_star
    u_norm = norm(u)
    if u_norm == 0.0:
        return np.zeros(steps)
    u = u / u_norm
    ratios = np.empty(steps)
    for m in range(steps):
        k = int(rng.generator.integers(0, len(ts)))
        stepped = sgd_step(theta_star + u, ts[k].grad(theta_star + u), gamma)
        w = stepped - theta_star
        ratios[m] = float(w @ w)
        wnorm = norm(w)
        if wnorm == 0.0:
            ratios[m + 1 :] = 0.0
            break
        u = w / wnorm
    return ratios


def nsgd_nexus_identity_check(
    theta0: np.ndarray, ts: TaskSet, gamma: float, n_pairs: int, rng: RngStream
) -> float:
    """Max parameter divergence between 2*n_pairs normalized-SGD steps and
    n_pairs two-inner-step outer iterations with a unit-step plain-SGD outer,
    consuming the same task order."""
    theta0 = as_params(theta0, ts.dim)
    order = rng.generator.integers(0, len(ts), size=2 * n_pairs)
    theta_nsgd = theta0.copy()
    theta_nexus = theta0.copy()
    cfg = NexusConfig(gamma, 2)
    max_div = 0.0
    for p in range(n_pairs):
        pair = order[2 * p : 2 * p + 2]
        for k in pair:
            theta_nsgd = nsgd_step(theta_nsgd, ts[int(k)].grad(theta_nsgd), gamma)
        theta_nexus = sgd_step(theta_nexus, inner_loop(theta_nexus, ts, cfg, pair), 1.0)
        max_div = max(max_div, norm(theta_nsgd - theta_nexus))
    return max_div


# --------------------------------------------------------------------------
# Instance generators shared by the validation suites and tests
# --------------------------------------------------------------------------


def random_quadratic_taskset(dim: int, K: int, rng: RngStream) -> TaskSet:
    gen = rng.generator
    return TaskSet([QuadraticTask(random_spd_matrix(dim, rng), gen.standard_normal(dim)) for _ in range(K)])


def random_probe_point(ts: TaskSet, rng: RngStream) -> np.ndarray:
    """A point where every task gradient norm is at least 0.3, from at most 64 draws."""
    gen = rng.generator
    for _ in range(64):
        theta = gen.standard_normal(ts.dim)
        if min(norm(g) for g in task_grads(ts, theta)) >= 0.3:
            return theta
    raise DegenerateGradient("could not find a probe point with gradient norms >= 0.3")


def common_minimizer_taskset(dim: int, K: int, mu: float, L: float, rng: RngStream) -> TaskSet:
    """Quadratics sharing one minimizer, eigenvalues spanning exactly [mu, L]."""
    gen = rng.generator
    theta_star = gen.standard_normal(dim)
    tasks = []
    for _ in range(K):
        Q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
        eigs = gen.uniform(mu, L, size=dim)
        eigs[0], eigs[-1] = mu, L
        tasks.append(QuadraticTask((Q * eigs) @ Q.T, theta_star.copy()))
    return TaskSet(tasks)
