"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of nexusopt where their callers look them
up (a module global such as ``harness.inner_loop``, a class attribute such as
``MLPTask.grad``, or the ``validate._SUITE_FNS`` table), records one span per
call in memory, and restores the originals on ``uninstall``. Nothing inside
the program changes: the wrappers call the original function with the
original arguments, which the self-check confirms by comparing metrics.csv
digests of traced and untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


def _enumerated_sequences(args, kwargs) -> int:
    """n^M index sequences one exact expectation enumerates (0 if unknown)."""
    try:
        ts = args[0] if args else kwargs["ts"]
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        return len(ts) ** cfg.inner_steps
    except (AttributeError, KeyError, TypeError):
        return 0


# (module, attribute path, span name, per-call count function or None).
# A function that several modules import is wrapped in each module that a
# workload reaches it through.
TARGETS = [
    ("nexusopt.cli", "load_config", "config.load_config", None),
    ("nexusopt.cli", "run", "harness.run", None),
    ("nexusopt.cli", "write_outputs", "harness.write_outputs", None),
    ("nexusopt.cli", "sweep", "harness.sweep", None),
    ("nexusopt.cli", "validate_theorems", "validate.validate_theorems", None),
    ("nexusopt.harness", "run", "harness.run", None),
    ("nexusopt.harness", "write_outputs", "harness.write_outputs", None),
    ("nexusopt.harness", "build_problem", "harness.build_problem", None),
    ("nexusopt.harness", "train", "harness.train", None),
    ("nexusopt.harness", "inner_loop", "nexus.inner_loop", None),
    ("nexusopt.harness", "adamw_step", "optimizers.adamw_step", None),
    ("nexusopt.harness", "cosine_matrix", "analysis.cosine_matrix", None),
    ("nexusopt.harness", "train_grad", "tasks.train_grad", None),
    ("nexusopt.harness", "train_loss", "tasks.train_loss", None),
    ("nexusopt.mlp", "MLPTask.loss", "mlp.loss", None),
    ("nexusopt.mlp", "MLPTask.grad", "mlp.grad", None),
    ("nexusopt.mlp", "MLPTask.hvp", "mlp.hvp", None),
    ("nexusopt.tasks", "tensor_operator_bound", "tasks.tensor_operator_bound", None),
    ("nexusopt.validate", "random_cubic_task", "tasks.random_cubic_task", None),
    ("nexusopt.validate", "expected_pseudo_gradient_exact", "oracles.expected_pseudo_gradient_exact",
     _enumerated_sequences),
    ("nexusopt.oracles", "expected_pseudo_gradient_exact", "oracles.expected_pseudo_gradient_exact",
     _enumerated_sequences),
]
SUITE_TABLE = ("nexusopt.validate", "_SUITE_FNS")  # validate.<suite> spans


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "in_emit", "count")

    def __init__(self, name, start, parent, op, in_emit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.in_emit = in_emit
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _called_from_emit(frame) -> bool:
    """True when one of the two nearest callers is harness.train's metrics emit."""
    for _ in range(2):
        if frame is None:
            return False
        if frame.f_code.co_name == "emit":
            return True
        frame = frame.f_back
    return False


class Tracer:
    """Records spans of the wrapped functions, grouped by operation id."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._local = threading.local()
        self._main_stack: list = []
        self._restore: list = []
        self.missing: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, count_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a sweep worker thread starts with an empty stack: its runs are
            # children of whatever the operation's main thread has open
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            if parent is not None and parent.name == "harness.train":
                in_emit = _called_from_emit(sys._getframe(1))
            else:
                in_emit = parent is not None and parent.in_emit
            span = Span(name, time.perf_counter(), parent, tracer.op, in_emit)
            if count_fn is not None:
                span.count = count_fn(args, kwargs)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def begin_op(self, op_id) -> Span:
        """Open the root span of one operation on the calling thread."""
        self.op = op_id
        self._main_stack = self._stack()
        span = Span("op", time.perf_counter(), None, op_id, False)
        self._main_stack.append(span)
        return span

    def end_op(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._main_stack.pop()
        self.spans.append(span)
        self.op = None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, count_fn in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, name, count_fn))
            self._restore.append((owner, attr, original))
        module_name, table_name = SUITE_TABLE
        table = getattr(importlib.import_module(module_name), table_name, None)
        if table is None:
            self.missing.append(f"{module_name}.{table_name}")
            return
        originals = dict(table)
        for suite, fn in originals.items():
            table[suite] = self._wrap(fn, f"validate.{suite}", None)
        self._restore.append((table, None, originals))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def op_spans(self, op_id) -> list:
        return [s for s in self.spans if s.op == op_id]

    def dump(self, path: str, t0: float) -> None:
        """Write every span as [name, start, end, parent index, op, in_emit, count]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start - t0, s.end - t0, index.get(id(s.parent)), s.op, s.in_emit, s.count]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "op", "in_emit", "count"],
                       "spans": rows}, fh)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(id(s), ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[id(s)] = s.duration - covered
    return out


def has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def aggregate(spans: list) -> dict:
    """Span name -> {calls, total_s, self_s, count} over one operation's spans."""
    selfs = self_times(spans)
    agg: dict = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        a["calls"] += 1
        a["total_s"] += s.duration
        a["self_s"] += selfs[id(s)]
        a["count"] += s.count
    return agg
