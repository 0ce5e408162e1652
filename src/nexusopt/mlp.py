"""Tiny MLP regression tasks on synthetic multi-source data.

The network is fully connected with a linear output layer; hidden activations
are tanh (default), relu, or identity. Losses are weighted mean squared error
per data source, giving a smooth non-quadratic landscape at desk scale.
One forward pass (``_layer_outputs``) serves prediction, loss and gradient:
``loss_and_grad`` takes both from a single pass. Gradients are closed-form
backprop over its cached layer outputs, written into views of one flat vector
laid out by ``MLPSpec.layout`` (computed once per spec); the forward and
backward passes add biases and apply activations and their derivatives in
place. The backward pass avoids numpy calls that cost more than their
arithmetic at this scale, and keeps the bits of the plain expressions
(``x @ W1 + b1``, ``np.mean(err**2)``, ``delta.sum(axis=0)``, ``delta @ W.T``,
``1 - h**2``); a test compares it bitwise with that reference.

One faster BLAS form gives those bits at some shapes and not at others,
because OpenBLAS picks its kernel by size: the first layer as one matmul of
``[x | 1]`` (``DataSource.inputs_with_ones``) against the ``[W1; b1]`` block of
theta, forward and backward. The pass takes it at a shape only where a probe
has shown it gives the plain expressions' bits there (``_fold_keeps_bits``);
elsewhere it takes the plain expressions. Hessian-vector products use central
differences of those exact gradients (tolerance 1e-4 wherever they are consumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatch
from .numerics import RngStream, as_params, fd_hvp, rng_substream

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


@dataclass
class DataSource:
    """One synthetic source: inputs and regression targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise DimensionMismatch("inputs and targets must be 2-D (n x dim)")
        if self.inputs.shape[0] != self.targets.shape[0] or self.inputs.shape[0] < 1:
            raise DimensionMismatch("inputs and targets must share n >= 1 rows")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
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


@dataclass
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
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    @property
    def dim(self) -> int:
        return self.spec.n_params

    def loss(self, theta: np.ndarray) -> float:
        err = mlp_forward(self.spec, theta, self.source.inputs) - self.source.targets
        return self._mse(err)

    def _mse(self, err: np.ndarray) -> float:
        # the bits of weight * np.mean(err**2), without np.mean's per-call overhead
        return float(self.weight * (np.square(err).sum() / err.size))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self._backprop(theta, with_loss=False)[1]

    def loss_and_grad(self, theta: np.ndarray) -> tuple:
        """(loss(theta), grad(theta)) from one forward pass."""
        return self._backprop(theta, with_loss=True)

    def _backprop(self, theta: np.ndarray, with_loss: bool) -> tuple:
        """(loss or None, gradient): the one gradient path, written into views of one flat vector.

        The first layer is folded only at shapes where ``_fold_keeps_bits`` has
        shown that it gives the plain expressions' bits."""
        spec, source = self.spec, self.source
        if _fold_keeps_bits(source.n, *spec.layer_widths[:2]):
            # W1 and b1 as one block of theta and of the gradient: against
            # [x | 1], one matmul adds the bias and one more writes [dW1; db1]
            x, layout = source.inputs_with_ones, spec.folded_layout
        else:
            x, layout = source.inputs, spec.layout
        arrays = _views(as_params(theta, spec.n_params), layout)
        flat = np.empty(spec.n_params)
        grads = _views(flat, layout)
        hs = _layer_outputs(spec, arrays, x)
        err = hs.pop()
        err -= source.targets
        loss = self._mse(err) if with_loss else None
        # delta is dLoss/d(pre-activation) of the current layer, whose input is hs[layer]
        delta = err
        delta *= self.weight * (2.0 / err.size)
        for layer in reversed(range(len(hs))):
            np.matmul(hs[layer].T, delta, out=grads[2 * layer])
            bias_grad = grads[2 * layer + 1]  # None: folded into the weight's gradient
            # einsum adds the rows one by one, as .sum(axis=0) does on more than
            # one column but with less overhead; a single column is contiguous,
            # so .sum pairwise-sums it and einsum would not
            if bias_grad is not None and delta.shape[1] > 1:
                np.einsum("ij->j", delta, out=bias_grad)
            elif bias_grad is not None:
                delta.sum(axis=0, out=bias_grad)
            if layer > 0:
                h = hs[layer]  # not read again: tanh' overwrites it
                delta = delta @ arrays[2 * layer].T
                if spec.activation == "tanh":
                    np.square(h, out=h)
                    np.subtract(1.0, h, out=h)
                    delta *= h
                elif spec.activation == "relu":
                    delta *= h > 0.0
        return loss, flat

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

