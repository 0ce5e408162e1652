"""Analytic task families: quadratic and cubic losses with exact derivatives.

A task is anything exposing ``loss``, ``grad``, ``loss_and_grad``, ``hvp`` and
a ``dim`` attribute. ``loss_and_grad`` returns the same bits as ``loss`` and
``grad`` from one evaluation; ``losses_and_grads`` calls it once per task. The
one analytic class here, ``QuadraticTask``, additionally exposes its Hessian,
its minimizer and an optional third-derivative tensor ``third``, which the
theorem oracles rely on. Without the tensor (None) the task is a quadratic;
with one, a zero tensor included, it is a cubic, which the quadratic-only code
(``is_quadratic``) rejects. The tensor's certified bound is derived from the
tensor itself (``tensor_operator_bound``), never stored beside it.

Mixture weights are folded multiplicatively into the task objects at
``TaskSet`` construction (a weighted quadratic is again a quadratic), so all
downstream code sees a plain average over tasks.

Training and the oracles measure a task set here too: a ``task_grads`` matrix,
its mean, the mean cosine of its rows, and the ``closeness`` of a point to the
minimizers of a quadratic set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NexusError
from .numerics import RngStream, all_finite, as_params, norm
from .optimizers import DEFAULT_GRAD_FLOOR, checked_norm


def _allclose(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """np.allclose(a, b, atol=atol) at its default rtol 1e-5, without its per-call overhead.

    This is np.isclose's own rule, finite or not: within tolerance where b is
    finite, else exactly equal (equal infs are close, NaN is not). The mask is
    counted as all_finite counts, without ndarray.all's Python wrapper.
    """
    close = ((np.abs(a - b) <= atol + 1e-5 * np.abs(b)) & np.isfinite(b)) | (a == b)
    return bool(np.count_nonzero(close) == close.size)


def _check_spd(A: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"Hessian must be square, got shape {A.shape}")
    if not _allclose(A, A.T, 1e-12):
        raise ValueError("Hessian must be symmetric")
    if not all_finite(A):  # equal infs pass the symmetry check, and eigvalsh turns them into NaN
        raise ValueError("Hessian must be finite")
    smallest = np.linalg.eigvalsh(A)[0]  # eigvalsh returns the eigenvalues in ascending order
    if smallest <= 0:
        raise ValueError(f"Hessian must be positive definite, min eigenvalue {smallest:g}")


def symmetrize_tensor(T: np.ndarray) -> np.ndarray:
    """Average a d*d*d tensor over all 6 index permutations."""
    return (
        T
        + T.transpose(0, 2, 1)
        + T.transpose(1, 0, 2)
        + T.transpose(1, 2, 0)
        + T.transpose(2, 0, 1)
        + T.transpose(2, 1, 0)
    ) / 6.0


def tensor_operator_bound(T: np.ndarray) -> float:
    """Certified upper bound on sup |T[u,u,u]| over unit u: the spectral norm of T's d x d^2 flattening.

    T[u,u,u] = u^T T_(1) (u kron u) with |u kron u| = 1, so it bounds every tensor and is
    exact for rank-one a*a*a; the exact sup is NP-hard in general (Hillar & Lim 2013).
    """
    d = T.shape[0]
    return float(np.linalg.norm(T.reshape(d, d * d), 2))


@dataclass
class QuadraticTask:
    """Loss 0.5*(theta-minimizer)^T A (theta-minimizer) + offset, A symmetric positive definite,
    plus (1/6) * T[delta,delta,delta] when a third-derivative tensor T is given.

    T is symmetric; its bound sup |T[u,u,u]| is not stored but derived from it,
    as ``tensor_operator_bound(T)``, which ``random_cubic_task`` rescales to the
    requested value. Without T (None) every tensor term is skipped, so a
    quadratic keeps its bits: adding a zero term would turn -0.0 into +0.0. A
    zero T takes the terms.
    """

    hessian: np.ndarray
    minimizer: np.ndarray
    offset: float = 0.0
    third: np.ndarray | None = None

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=np.float64)
        self.minimizer = as_params(self.minimizer)
        _check_spd(self.hessian)
        d = self.minimizer.shape[0]
        if self.hessian.shape[0] != d:
            raise DimensionMismatch("Hessian and minimizer dimensions differ")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")
        if self.third is None:
            return
        self.third = np.asarray(self.third, dtype=np.float64)
        if self.third.shape != (d, d, d):
            raise DimensionMismatch(f"third tensor must have shape {(d, d, d)}, got {self.third.shape}")
        if not _allclose(self.third, symmetrize_tensor(self.third), 1e-10):
            raise ValueError("third tensor must be symmetric under index permutations")
        if not all_finite(self.third):  # an inf on the diagonal passes the symmetry check
            raise ValueError("third tensor must be finite")

    @property
    def dim(self) -> int:
        return self.minimizer.shape[0]

    def loss(self, theta: np.ndarray) -> float:
        return self._loss(as_params(theta, self.dim) - self.minimizer)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self._grad(as_params(theta, self.dim) - self.minimizer)

    def loss_and_grad(self, theta: np.ndarray) -> tuple:
        delta = as_params(theta, self.dim) - self.minimizer
        return self._loss(delta), self._grad(delta)

    def _loss(self, delta: np.ndarray) -> float:
        value = 0.5 * float(delta @ self.hessian @ delta)
        if self.third is not None:
            value += float(np.einsum("abc,a,b,c->", self.third, delta, delta, delta)) / 6.0
        return value + self.offset

    def _grad(self, delta: np.ndarray) -> np.ndarray:
        if self.third is None:
            return self.hessian @ delta
        return self.hessian @ delta + 0.5 * np.einsum("abc,b,c->a", self.third, delta, delta)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = as_params(v, self.dim)
        if self.third is None:
            return self.hessian @ v
        return self.hessian_at(theta) @ v

    def hessian_at(self, theta: np.ndarray) -> np.ndarray:
        if self.third is None:
            return self.hessian.copy()
        delta = as_params(theta, self.dim) - self.minimizer
        return self.hessian + np.einsum("abc,c->ab", self.third, delta)

    def scaled(self, alpha: float) -> "QuadraticTask":
        """Fold a multiplicative loss weight into the task. Requires alpha > 0 to stay SPD."""
        if alpha <= 0:
            raise ValueError(f"weight must be positive for an SPD quadratic, got {alpha}")
        third = None if self.third is None else alpha * self.third
        return QuadraticTask(alpha * self.hessian, self.minimizer.copy(), alpha * self.offset, third)


def is_quadratic(task) -> bool:
    """True for a QuadraticTask without a third-derivative tensor: its minimizer is
    global, and a set of such tasks has a closed-form stationary point."""
    return isinstance(task, QuadraticTask) and task.third is None


def random_cubic_task(dim: int, rng: RngStream, third_bound: float = 0.5) -> QuadraticTask:
    """Random SPD quadratic part plus a random symmetric tensor rescaled to the requested certified bound."""
    gen = rng.generator
    A = random_spd_matrix(dim, rng, (0.8, 3.0))
    minimizer = gen.standard_normal(dim)
    T = symmetrize_tensor(gen.standard_normal((dim, dim, dim)))
    if third_bound == 0.0:
        T = np.zeros((dim, dim, dim))
    else:
        current = tensor_operator_bound(T)
        if current > 0:
            T = T * (third_bound / current)
    return QuadraticTask(A, minimizer, 0.0, T)


def random_spd_matrix(dim: int, rng: RngStream, eig_range: tuple[float, float] = (0.5, 3.0)) -> np.ndarray:
    """SPD matrix with eigenvalues sampled uniformly in eig_range, random orthogonal frame."""
    gen = rng.generator
    Q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    lo, hi = eig_range
    eigs = gen.uniform(lo, hi, size=dim)
    return (Q * eigs) @ Q.T


@dataclass
class TaskFamily:
    """Isotropic quadratic family: minimizers scatter around basin_mean with total variance `variance`."""

    basin_mean: np.ndarray
    variance: float
    curvature: float
    depth: float = 0.0

    def __post_init__(self):
        self.basin_mean = as_params(self.basin_mean)
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if self.curvature <= 0:
            raise ValueError(f"curvature must be > 0, got {self.curvature}")

    @property
    def dim(self) -> int:
        return self.basin_mean.shape[0]

    def sample_minimizer(self, rng: RngStream) -> np.ndarray:
        # Per-coordinate std sigma/sqrt(d) so E||theta* - mu||^2 equals the family variance.
        d = self.dim
        scale = np.sqrt(self.variance / d)
        return self.basin_mean + scale * rng.generator.standard_normal(d)

    def sample_task(self, rng: RngStream) -> QuadraticTask:
        A = self.curvature * np.eye(self.dim)
        return QuadraticTask(A, self.sample_minimizer(rng), self.depth)


def _checked_weights(weights, K: int) -> np.ndarray:
    """weights as a float array, after checking that they are K finite, non-negative numbers."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (K,):
        raise DimensionMismatch("one weight per task required")
    if not all_finite(weights) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    return weights


@dataclass
class TaskSet:
    """K tasks plus the (already folded) mixture weights; L_train is the plain average."""

    tasks: list
    weights: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.tasks) < 1:
            raise ValueError("a task set needs at least one task")
        dims = {t.dim for t in self.tasks}
        if len(dims) != 1:
            raise DimensionMismatch(f"tasks disagree on dimension: {sorted(dims)}")
        if self.weights is None:
            self.weights = np.ones(len(self.tasks))
        else:
            self.weights = _checked_weights(self.weights, len(self.tasks))
            if np.any(self.weights != 1.0):
                self.tasks = [t.scaled(w) for t, w in zip(self.tasks, self.weights)]

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, k: int):
        return self.tasks[k]

    @property
    def dim(self) -> int:
        return self.tasks[0].dim


def losses_and_grads(ts: TaskSet, theta: np.ndarray) -> tuple:
    """(list of K task losses, (K, d) task_grads matrix) from one loss_and_grad call per task."""
    losses = []
    G = np.empty((len(ts), ts.dim))
    for k, t in enumerate(ts.tasks):
        loss, G[k] = t.loss_and_grad(theta)
        losses.append(loss)
    return losses, G


def task_grads(ts: TaskSet, theta: np.ndarray) -> np.ndarray:
    """(K, d) matrix whose row k is the gradient of task k at theta."""
    return np.array([t.grad(theta) for t in ts.tasks])


def mean_grad(G: np.ndarray) -> np.ndarray:
    """Mean of the rows of a task_grads matrix: the training gradient.

    Rows are added one by one in task order onto zeros, so the result does not
    depend on how numpy would order a reduction over the matrix.
    """
    g = np.zeros(G.shape[1])
    for row in G:
        g += row
    return g / len(G)


def train_grad(ts: TaskSet, theta: np.ndarray) -> np.ndarray:
    return mean_grad(task_grads(ts, theta))


def mean_pairwise_cosine(G: np.ndarray) -> float:
    """Mean cosine between distinct rows of a (K, d) per-task gradient matrix; nan for a single task.

    Every row's norm is checked first, in row order. Each cosine is its own dot
    product over the two norms; a single G @ G.T may sum in another order and
    move it in the last bits. The rows are taken as views once, and
    ``rows[i].dot(rows[j])`` is the ddot that ``G[i] @ G[j]`` calls, with the
    same bits for every G whose strides are positive. Each cosine is taken
    once and written twice into C, which holds row by row the off-diagonal
    entries of the K x K cosine matrix, so the mean sums them in that order.
    """
    rows = list(G)
    norms = [checked_norm(g, DEFAULT_GRAD_FLOOR, k) for k, g in enumerate(rows)]
    K = len(rows)
    if K < 2:
        return float("nan")
    C = np.empty((K, K - 1))
    for i in range(K):
        for j in range(i + 1, K):
            C[i, j - 1] = C[j, i] = float(rows[i].dot(rows[j])) / (norms[i] * norms[j])
    return float(C.mean())


def closeness(theta: np.ndarray, ts: TaskSet) -> float:
    """Mean squared distance between theta and each task's minimizer; every task must be a quadratic."""
    theta = as_params(theta, ts.dim)
    dists = []
    for k, t in enumerate(ts.tasks):
        if not is_quadratic(t):
            raise NexusError(f"task {k} is not a QuadraticTask without a tensor, so it has no analytic minimizer")
        dists.append(norm(theta - t.minimizer))
    return float(np.mean(np.asarray(dists) ** 2))


def sample_family(family: TaskFamily, K: int, rng: RngStream) -> TaskSet:
    """K i.i.d. isotropic quadratics with shared curvature and depth."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return TaskSet([family.sample_task(rng) for _ in range(K)])


def stationary_point(ts: TaskSet) -> np.ndarray:
    """Solve sum_k A_k (theta - theta*_k) = 0 for a set of quadratic-part tasks.

    Exact for quadratics; callers wanting stationary points of cubic/MLP sets
    should run a descent instead.
    """
    A_sum = np.zeros((ts.dim, ts.dim))
    rhs = np.zeros(ts.dim)
    for t in ts.tasks:
        if not is_quadratic(t):
            raise TypeError("stationary_point expects quadratic tasks")
        A_sum += t.hessian
        rhs += t.hessian @ t.minimizer
    try:
        theta = np.linalg.solve(A_sum, rhs)
    except np.linalg.LinAlgError as exc:  # cannot occur under the SPD precondition; guarded anyway
        raise NexusError("summed Hessian is singular") from exc
    return theta


# --- JSON serialization -------------------------------------------------
#
# Matrices are stored row-major; third-derivative tensors store only the
# canonical i<=j<=k entries (symmetry canonicalization). Weights recorded at
# construction are kept as provenance; the serialized tasks are already
# weight-folded, so round-tripping does not fold twice. A reader ignores keys
# it does not use, so files that still store a ``third_bound`` load.


def _tensor_to_canonical(T: np.ndarray) -> dict:
    d = T.shape[0]
    entries = {}
    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                v = T[i, j, k]
                if v != 0.0:
                    entries[f"{i},{j},{k}"] = float(v)
    return entries


def _tensor_from_canonical(entries: dict, d: int) -> np.ndarray:
    T = np.zeros((d, d, d))
    keys = {}
    for key, v in entries.items():
        i, j, k = (int(s) for s in key.split(","))
        if not all(0 <= x < d for x in (i, j, k)):  # a negative index would wrap
            raise ValueError(f"third tensor index {key!r} out of range for dimension {d}")
        first = keys.setdefault(tuple(sorted((i, j, k))), key)
        if first != key:  # the later key would otherwise win, so the tensor would depend on key order
            raise ValueError(f"third tensor keys {first!r} and {key!r} name the same entry")
        for perm in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            T[perm] = v
    return T


def task_to_dict(task) -> dict:
    if not isinstance(task, QuadraticTask):
        raise TypeError(f"cannot serialize task of type {type(task).__name__}")
    doc = {
        "kind": "quadratic",
        "hessian": task.hessian.reshape(-1).tolist(),
        "minimizer": task.minimizer.tolist(),
        "offset": task.offset,
    }
    if task.third is not None:
        doc.update(kind="cubic", third=_tensor_to_canonical(task.third))
    return doc


def task_from_dict(doc: dict):
    d = len(doc["minimizer"])
    A = np.asarray(doc["hessian"], dtype=np.float64).reshape(d, d)
    minimizer = np.asarray(doc["minimizer"], dtype=np.float64)
    if doc["kind"] == "quadratic":
        return QuadraticTask(A, minimizer, float(doc.get("offset", 0.0)))
    if doc["kind"] == "cubic":
        T = _tensor_from_canonical(doc.get("third", {}), d)
        return QuadraticTask(A, minimizer, float(doc.get("offset", 0.0)), T)
    raise ValueError(f"unknown task kind {doc['kind']!r}")


def taskset_to_json(ts: TaskSet) -> str:
    doc = {
        "tasks": [task_to_dict(t) for t in ts.tasks],
        "folded_weights": ts.weights.tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def taskset_from_json(text: str) -> TaskSet:
    doc = json.loads(text)
    tasks = [task_from_dict(t) for t in doc["tasks"]]
    ts = TaskSet(tasks)
    if "folded_weights" in doc:
        # the file's tasks are already folded, so the weights are only recorded
        ts.weights = _checked_weights(doc["folded_weights"], len(ts))
    return ts
