"""Deterministic vector arithmetic, seeded RNG streams, and finite-difference oracles.

Parameter vectors are plain 1-D float64 numpy arrays throughout the package;
``as_params`` is the single validation/conversion choke point. ``all_finite``
is the one finiteness rule for arrays, there and everywhere else in the
package. Everything here is 64-bit: the theorem-oracle tolerances elsewhere are
calibrated to that.

RNG streams are counter-based (Philox) and splittable: a child stream is keyed
by a SHA-256 hash of the parent's path plus a label, so substreams are
reproducible regardless of draw interleaving and distinct labels never collide
in practice.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NexusError, NonFiniteValue


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x, an array of any shape, is finite, as a Python bool.

    It gives the verdict of ndarray.all over np.isfinite's mask without the
    per-call overhead of that method's Python wrapper, and it never warns: it
    does no arithmetic on x's values."""
    return bool(np.count_nonzero(np.isfinite(x)) == x.size)


def as_params(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking the dimension."""
    theta = np.asarray(values, dtype=np.float64)
    if theta.ndim != 1:
        theta = theta.reshape(-1)
    if dim is not None and theta.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {theta.shape[0]}")
    if not all_finite(theta):
        raise NonFiniteValue("parameter vector contains NaN/Inf")
    return theta


def norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)) for a 1-D float64 vector, bit for bit, without its Python dispatch.

    np.linalg.norm takes the square root of x.ravel(order="K").dot(...) for such
    a vector; the ravel makes a strided view contiguous, so the dot product sums
    in the same order here.
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _philox_key(token: str) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


@dataclass
class RngStream:
    """A named, splittable random stream.

    ``token`` is the full derivation path ("<seed>" for a root stream,
    "<seed>/label/sublabel" for children). Identical tokens always reproduce
    identical draw sequences; the generator itself is the only mutable part
    and is owned by exactly one consumer.
    """

    token: str
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.generator = np.random.Generator(np.random.Philox(key=_philox_key(self.token)))


def rng_root(seed: int) -> RngStream:
    """Root stream for a run; all other streams derive from it by label."""
    return RngStream(str(int(seed)))


def rng_substream(parent: RngStream, label: str) -> RngStream:
    """Deterministic child stream; distinct labels give unrelated streams."""
    return RngStream(f"{parent.token}/{label}")


def fd_gradient(f: Callable[[np.ndarray], float], theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one probe pair per coordinate."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    theta = as_params(theta)
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        probe = np.zeros(theta.shape[0])
        probe[i] = eps
        hi = f(theta + probe)
        lo = f(theta - probe)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteValue(f"function returned non-finite value near coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def fd_hvp(grad_fn: Callable[[np.ndarray], np.ndarray], theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector product; exact for quadratic grad_fn up to rounding.

    The step balances truncation against rounding in the gradient differences.
    """
    theta = as_params(theta)
    v = as_params(v, len(theta))
    vnorm = norm(v)
    if vnorm == 0.0:
        raise NexusError("direction vector has zero norm")
    eps = 1e-5 * (1.0 + norm(theta)) / vnorm
    hi = np.asarray(grad_fn(theta + eps * v), dtype=np.float64)
    lo = np.asarray(grad_fn(theta - eps * v), dtype=np.float64)
    if not (all_finite(hi) and all_finite(lo)):
        raise NonFiniteValue("gradient probe returned non-finite values")
    return (hi - lo) / (2.0 * eps)
