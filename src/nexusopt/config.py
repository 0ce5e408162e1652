"""Experiment configuration: a strict, flat, dotted-key text format.

One assignment per line, ``key.path = value``, ``#`` comments allowed. Values
are JSON literals (numbers, strings, booleans, lists). The schema is closed:
unknown keys are rejected with their exact path, and the seed is mandatory --
hyperparameter provenance is the point of the harness.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError, MissingField, ParseError, UnknownKey

PROBLEM_KINDS = ("quadratic_family", "mlp_multisource", "cubic_set", "custom_taskset_file")
OPTIMIZER_KINDS = ("adamw", "sgd", "nsgd_adamw", "nexus_adamw", "nexus_dot_adamw")
SCHEDULE_KINDS = ("constant", "cosine", "wsd")
SAMPLING_KINDS = ("iid_uniform", "fixed_sequence")


def _choice(options):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {options}, got {v!r}")
        return v

    return check


def _positive(v):
    if v <= 0:
        raise ValueError(f"must be > 0, got {v}")
    return v


def _non_negative(v):
    if v < 0:
        raise ValueError(f"must be >= 0, got {v}")
    return v


def _fraction(v):
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {v}")
    return v


def _int_list(v):
    # type() rather than isinstance: a bool is an int, and [8, true, 1] must not parse as [8, 1, 1]
    if not isinstance(v, list) or not all(type(x) is int and x > 0 for x in v):
        raise ValueError(f"must be a list of positive integers, got {v!r}")
    return [int(x) for x in v]


# key -> (type, required, default, validator)
SCHEMA = {
    "name": (str, False, "run", None),
    "seed": (int, True, None, None),
    "total_steps": (int, False, 100, _non_negative),
    "metric_cadence": (int, False, 1, _positive),
    "output_dir": (str, False, "", None),
    "problem.kind": (str, False, "quadratic_family", _choice(PROBLEM_KINDS)),
    "problem.k": (int, False, 4, _positive),
    "problem.dim": (int, False, 4, _positive),
    "problem.curvature": (float, False, 1.0, _positive),
    "problem.variance": (float, False, 1.0, _non_negative),
    "problem.depth": (float, False, 0.0, None),
    "problem.third_bound": (float, False, 0.3, _non_negative),
    "problem.d_in": (int, False, 8, _positive),
    "problem.d_out": (int, False, 1, _positive),
    "problem.n_per_source": (int, False, 512, _positive),
    "problem.shared_fraction": (float, False, 0.5, _fraction),
    "problem.widths": (list, False, [8, 16, 8, 1], _int_list),
    "problem.activation": (str, False, "tanh", _choice(("tanh", "relu", "identity"))),
    "problem.path": (str, False, "", None),
    "problem.init_scale": (float, False, 1.0, _positive),
    "optimizer.kind": (str, False, "adamw", _choice(OPTIMIZER_KINDS)),
    "optimizer.beta1": (float, False, 0.9, _fraction),
    "optimizer.beta2": (float, False, 0.95, _fraction),
    "optimizer.eps": (float, False, 1e-10, _positive),
    "optimizer.weight_decay": (float, False, 0.0, _non_negative),
    "optimizer.clip_norm": (float, False, 0.0, _non_negative),  # 0 disables clipping
    "schedule.kind": (str, False, "constant", _choice(SCHEDULE_KINDS)),
    "schedule.base_lr": (float, False, 0.01, _non_negative),
    "schedule.warmup_steps": (int, False, 0, _non_negative),
    "schedule.decay_steps": (int, False, 0, _non_negative),
    "nexus.gamma": (float, False, 0.01, _positive),
    "nexus.inner_steps": (int, False, 4, _positive),
    "nexus.sampling": (str, False, "iid_uniform", _choice(SAMPLING_KINDS)),
    "nexus.grad_floor": (float, False, 1e-12, _positive),
}


@dataclass
class ExperimentConfig:
    """Validated flat key/value mapping with attribute-free dotted access."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in overrides.items():
            if key not in SCHEMA:
                raise UnknownKey(f"unknown config key {key!r}", key)
            merged[key] = _validate_one(key, value)
        return ExperimentConfig(merged)

    def to_text(self) -> str:
        lines = [f"{key} = {json.dumps(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"


def _coerce(key: str, raw, expected_type):
    if isinstance(raw, bool):  # bool is an int subtype; never accept it for numbers
        raise ValueError(f"expected {expected_type.__name__}, got bool ({raw!r})")
    if expected_type is float and isinstance(raw, int):
        return float(raw)
    if not isinstance(raw, expected_type):
        raise ValueError(f"expected {expected_type.__name__}, got {type(raw).__name__} ({raw!r})")
    return raw


def _validate_one(key: str, raw):
    expected_type, _, _, validator = SCHEMA[key]
    try:
        value = _coerce(key, raw, expected_type)
        if validator is not None:
            value = validator(value)
    except ValueError as exc:
        raise ParseError(f"invalid value for {key}: {exc}", key) from exc
    return value


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMA:
            raise UnknownKey(f"{source}:{lineno}: unknown config key {key!r}", key)
        if key in values:
            raise ParseError(f"{source}:{lineno}: duplicate key {key!r}", key)
        try:
            parsed = json.loads(raw_value)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}:{lineno}: value for {key} is not a JSON literal: {raw_value!r}") from exc
        values[key] = _validate_one(key, parsed)
    for key, (_, required, default, _) in SCHEMA.items():
        if key not in values:
            if required:
                raise MissingField(f"required config key {key!r} missing", key)
            values[key] = default
    if values["problem.kind"] == "custom_taskset_file":
        if not values["problem.path"]:
            raise MissingField("problem.path required when problem.kind = custom_taskset_file", "problem.path")
        if not os.path.exists(values["problem.path"]):
            raise ConfigError(f"referenced file does not exist: {values['problem.path']}", "problem.path")
    return ExperimentConfig(values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))
