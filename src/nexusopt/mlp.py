"""Tiny MLP regression tasks on synthetic multi-source data.

The network is fully connected with a linear output layer; hidden activations
are tanh (default), relu, or identity. Losses are weighted mean squared error
per data source, giving a smooth non-quadratic landscape at desk scale.
One forward pass (``_layer_outputs``) serves prediction, loss and gradient:
``loss_and_grad`` takes both from a single pass. Gradients are closed-form
backprop over its cached layer outputs; the forward and backward passes add
biases and apply activations and their derivatives in place. The backward
pass avoids numpy calls that cost more than their arithmetic at this scale,
and keeps the bits of the plain expressions (``x @ W1 + b1``,
``np.mean(err**2)``, ``delta.sum(axis=0)``, ``delta @ W.T``, ``1 - h**2``); a
test compares it bitwise with that reference.

Each task builds its evaluation plan (``MLPTask._plan``) once, on first use:
its input matrix, one parameter buffer and one gradient buffer with their
views laid out by ``MLPSpec.layout``, its targets and the scale of
dLoss/dprediction. Every ``loss``, ``grad`` and ``loss_and_grad`` call checks
theta, copies it into the parameter buffer, runs the one forward pass on the
plan's views and, for a gradient, the backward pass into the gradient views,
and returns a copy of the gradient buffer. So a returned gradient is the
caller's, but a task's buffers make it unsafe to evaluate from two threads at
once (the program starts none). Tasks and sources are frozen, and a source
holds read-only copies of its arrays, so that nothing cached from them goes
stale.

One faster BLAS form gives those bits at some shapes and not at others,
because OpenBLAS picks its kernel by size: the first layer as one matmul of
``[x | 1]`` (``DataSource.inputs_with_ones``) against the ``[W1; b1]`` block of
theta, forward and backward. A plan takes it, for the loss as well as the
gradient, only where a probe has shown it gives the plain expressions' bits
at its shape (``_fold_keeps_bits``); elsewhere it takes the plain
expressions. Hessian-vector products use central differences of those exact
gradients (tolerance 1e-4 wherever they are consumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .numerics import RngStream, all_finite, as_params, fd_hvp, rng_substream

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class MLPSpec:
    """Layer widths input..output plus the hidden activation."""

    layer_widths: tuple
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @cached_property
    def n_params(self) -> int:
        return self.layout[-1][1]

    @cached_property
    def layout(self) -> tuple:
        """(start, stop, shape) of each weight matrix and bias vector in the flat parameter vector."""
        out, pos = [], 0
        for fan_in, fan_out in zip(self.layer_widths[:-1], self.layer_widths[1:]):
            out.append((pos, pos + fan_in * fan_out, (fan_in, fan_out)))
            pos += fan_in * fan_out
            out.append((pos, pos + fan_out, (fan_out,)))
            pos += fan_out
        return tuple(out)

    @cached_property
    def folded_layout(self) -> tuple:
        """``layout`` with W1's rows and then b1 as one (fan_in + 1, units)
        block, and None in b1's place."""
        (start, _, (fan_in, units)), (_, stop, _) = self.layout[:2]
        return ((start, stop, (fan_in + 1, units)), None) + self.layout[2:]

    def unflatten(self, theta: np.ndarray) -> list:
        """Views of theta, one per weight matrix and bias vector."""
        return _views(as_params(theta, self.n_params), self.layout)

    def flatten(self, arrays: list) -> np.ndarray:
        return np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays])

    def init_params(self, rng: RngStream) -> np.ndarray:
        """Per-layer 1/sqrt(fan_in) weight scale, zero biases."""
        gen = rng.generator
        arrays = []
        for fan_in, fan_out in zip(self.layer_widths[:-1], self.layer_widths[1:]):
            arrays.append(gen.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
            arrays.append(np.zeros(fan_out))
        return self.flatten(arrays)


@dataclass(frozen=True)
class DataSource:
    """One synthetic source: inputs and regression targets, kept as read-only
    float64 copies, so that nothing cached from them goes stale and the
    caller's own arrays stay writeable."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        for name in ("inputs", "targets"):
            array = np.array(getattr(self, name), dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise DimensionMismatch("inputs and targets must be 2-D (n x dim)")
        if self.inputs.shape[0] != self.targets.shape[0] or self.inputs.shape[0] < 1:
            raise DimensionMismatch("inputs and targets must share n >= 1 rows")
        if not (all_finite(self.inputs) and all_finite(self.targets)):
            raise ValueError("data source contains non-finite entries")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @cached_property
    def inputs_with_ones(self) -> np.ndarray:
        """``[inputs | 1]``, read-only, built on first use: the first layer's
        weights and bias against it are one matmul."""
        out = _with_ones(self.inputs)
        out.flags.writeable = False
        return out


def _with_ones(x: np.ndarray) -> np.ndarray:
    out = np.empty((x.shape[0], x.shape[1] + 1))
    out[:, :-1] = x
    out[:, -1] = 1.0
    return out


# a probe compares at least this many entries of each output of the fold
_PROBE_ENTRIES = 256
# its own generator, outside the runs' Philox streams, so a probe draws
# nothing from a run and gives the same verdict whenever it happens
_PROBE_SEED = 4242


@cache
def _fold_keeps_bits(n: int, fan_in: int, units: int) -> bool:
    """Whether the first layer by ``[x | 1]`` and the ``[W1; b1]`` block gives
    the bits of ``x @ W1 + b1``, ``x.T @ delta`` and ``delta.sum(axis=0)`` for
    n rows through a (fan_in, units) weight. Probed once per shape and process,
    since the verdict depends only on the shape and the BLAS this process loaded.

    A single row always takes the plain expressions: numpy hands it to gemv,
    whose summation order follows the operands' layout."""
    if n == 1:
        return False
    gen = np.random.default_rng(_PROBE_SEED)
    # enough draws to compare _PROBE_ENTRIES entries of db1, the smallest output
    for _ in range(-(-_PROBE_ENTRIES // units)):
        x = gen.standard_normal((n, fan_in))
        block = gen.standard_normal((fan_in + 1, units))
        delta = gen.standard_normal((n, units))
        h = x @ block[:-1]
        h += block[-1]
        x1 = _with_ones(x)
        grad = x1.T @ delta
        fast = (x1 @ block, grad[:-1], grad[-1])
        plain = (h, x.T @ delta, delta.sum(axis=0))
        if any(a.tobytes() != b.tobytes() for a, b in zip(fast, plain)):
            return False
    return True


def _views(flat: np.ndarray, layout: tuple) -> list:
    """A view of flat per layout entry, and None for a None entry."""
    return [None if entry is None else flat[entry[0]:entry[1]].reshape(entry[2]) for entry in layout]


def _layer_outputs(spec: MLPSpec, arrays: list, x: np.ndarray) -> list:
    """The input followed by each layer's output (post-activation; the last is linear).

    A bias of None means that layer's weight carries it as its last row, and
    its input as a ones column."""
    hs = [np.asarray(x, dtype=np.float64)]
    n_layers = len(spec.layer_widths) - 1
    for layer in range(n_layers):
        h = hs[-1] @ arrays[2 * layer]
        if arrays[2 * layer + 1] is not None:
            h += arrays[2 * layer + 1]
        if layer < n_layers - 1:
            if spec.activation == "tanh":
                np.tanh(h, out=h)
            elif spec.activation == "relu":
                np.maximum(h, 0.0, out=h)
        hs.append(h)
    return hs


def mlp_forward(spec: MLPSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Network predictions for inputs x (n x input width)."""
    return _layer_outputs(spec, spec.unflatten(theta), x)[-1]


class _Plan(NamedTuple):
    """What every evaluation of one task reads: its input matrix, a parameter
    and a gradient buffer with their layout views, its targets, and the scale
    of dLoss/dprediction. Where ``_fold_keeps_bits`` allows the fold, x is
    ``[x | 1]`` and b1's views are None."""

    x: np.ndarray
    params: np.ndarray
    arrays: list
    grad: np.ndarray
    grads: list
    targets: np.ndarray
    scale: float


@dataclass(frozen=True)
class MLPTask:
    """Weighted MSE of an MLP on one data source."""

    spec: MLPSpec
    source: DataSource
    weight: float = 1.0

    def __post_init__(self):
        if self.spec.layer_widths[0] != self.source.inputs.shape[1]:
            raise DimensionMismatch("input width does not match data source")
        if self.spec.layer_widths[-1] != self.source.targets.shape[1]:
            raise DimensionMismatch("output width does not match data source")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError(f"weight must be finite and non-negative, got {self.weight}")

    def __getstate__(self):
        # a copy or an unpickled task would hold copies of the plan's views,
        # no longer views of its buffers: it builds its own plan instead
        return {key: value for key, value in self.__dict__.items() if key != "_plan"}

    @property
    def dim(self) -> int:
        return self.spec.n_params

    @cached_property
    def _plan(self) -> _Plan:
        spec, source = self.spec, self.source
        if _fold_keeps_bits(source.n, *spec.layer_widths[:2]):
            # W1 and b1 as one block of theta and of the gradient: against
            # [x | 1], one matmul adds the bias and one more writes [dW1; db1]
            x, layout = source.inputs_with_ones, spec.folded_layout
        else:
            x, layout = source.inputs, spec.layout
        params, grad = np.empty(spec.n_params), np.empty(spec.n_params)
        scale = self.weight * (2.0 / source.targets.size)
        return _Plan(x, params, _views(params, layout), grad, _views(grad, layout), source.targets, scale)

    def loss(self, theta: np.ndarray) -> float:
        return self._mse(self._forward(theta)[-1])

    def _mse(self, err: np.ndarray) -> float:
        # the bits of weight * np.mean(err**2), without the per-call overhead of
        # np.mean or of ndarray.sum's Python wrapper, which calls np.add.reduce
        return float(self.weight * (np.add.reduce(np.square(err), axis=None) / err.size))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self._backprop(theta, with_loss=False)[1]

    def loss_and_grad(self, theta: np.ndarray) -> tuple:
        """(loss(theta), grad(theta)) from one forward pass."""
        return self._backprop(theta, with_loss=True)

    def _forward(self, theta: np.ndarray) -> list:
        """The layer outputs at theta from the plan's parameter views, with the
        targets taken from the last: its entries are the prediction errors."""
        plan = self._plan
        np.copyto(plan.params, as_params(theta, plan.params.size))
        hs = _layer_outputs(self.spec, plan.arrays, plan.x)
        hs[-1] -= plan.targets
        return hs

    def _backprop(self, theta: np.ndarray, with_loss: bool) -> tuple:
        """(loss or None, gradient): the one gradient path, written into the
        plan's gradient views and returned as a copy of its buffer."""
        plan, activation = self._plan, self.spec.activation
        hs = self._forward(theta)
        err = hs.pop()
        loss = self._mse(err) if with_loss else None
        # delta is dLoss/d(pre-activation) of the current layer, whose input is hs[layer]
        delta = err
        delta *= plan.scale
        grads = plan.grads
        for layer in reversed(range(len(hs))):
            np.matmul(hs[layer].T, delta, out=grads[2 * layer])
            bias_grad = grads[2 * layer + 1]  # None: folded into the weight's gradient
            # einsum adds the rows one by one, as .sum(axis=0) does on more than
            # one column but with less overhead; a single column is contiguous,
            # so .sum pairwise-sums it and einsum would not. np.add.reduce is
            # what .sum calls, without its Python wrapper
            if bias_grad is not None and delta.shape[1] > 1:
                np.einsum("ij->j", delta, out=bias_grad)
            elif bias_grad is not None:
                np.add.reduce(delta, axis=0, out=bias_grad)
            if layer > 0:
                h = hs[layer]  # not read again: tanh' overwrites it
                delta = delta @ plan.arrays[2 * layer].T
                if activation == "tanh":
                    np.square(h, out=h)
                    np.subtract(1.0, h, out=h)
                    delta *= h
                elif activation == "relu":
                    delta *= h > 0.0
        return loss, plan.grad.copy()

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        return fd_hvp(self.grad, theta, v)

    def scaled(self, alpha: float) -> "MLPTask":
        return MLPTask(self.spec, self.source, self.weight * alpha)


def make_synthetic_sources(
    K: int,
    d_in: int,
    d_out: int,
    n_per_source: int,
    shared_fraction: float,
    rng: RngStream,
) -> tuple:
    """K data sources plus one held-out source from blended teacher networks.

    Teacher parameters for source k are
    ``shared_fraction * shared + (1 - shared_fraction) * individual_k``;
    the held-out source draws a fresh individual component with the same
    shared part, modeling a downstream task from the same distribution.
    """
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(f"shared_fraction must lie in [0, 1], got {shared_fraction}")
    teacher_spec = MLPSpec((d_in, max(d_in, d_out), d_out), "tanh")
    shared = teacher_spec.init_params(rng_substream(rng, "teacher_shared"))

    def build(label: str) -> DataSource:
        sub = rng_substream(rng, label)
        indiv = teacher_spec.init_params(rng_substream(sub, "teacher"))
        teacher = shared_fraction * shared + (1.0 - shared_fraction) * indiv
        inputs = rng_substream(sub, "inputs").generator.standard_normal((n_per_source, d_in))
        targets = mlp_forward(teacher_spec, teacher, inputs)
        return DataSource(inputs, targets)

    sources = [build(f"source/{k}") for k in range(K)]
    held_out = build("source/held_out")
    return sources, held_out

