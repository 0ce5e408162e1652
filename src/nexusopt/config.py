"""Experiment configuration: a strict, flat, dotted-key text format.

One assignment per line, ``key.path = value``, ``#`` comments allowed. Values are JSON
literals (numbers, strings, booleans, lists). A sweep's ``--set`` values go through the same
JSON-literal reader (``decode_axis``), which takes any other value as a bare string. The
schema is closed: unknown keys are rejected with their exact path, and the seed is mandatory
-- hyperparameter provenance is the point of the harness. SCHEMA's last column names the
kinds under which each key takes effect; a run records only those keys
(``ExperimentConfig.resolved``) as its config.resolved.json.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .mlp import ACTIVATIONS
from .optimizers import DEFAULT_GRAD_FLOOR, SCHEDULE_KINDS

PROBLEM_KINDS = ("quadratic_family", "mlp_multisource", "cubic_set", "custom_taskset_file")
OPTIMIZER_KINDS = ("adamw", "sgd", "nsgd_adamw", "nexus_adamw", "nexus_dot_adamw")
DUAL_LOOP_MODES = ("nsgd_adamw", "nexus_adamw", "nexus_dot_adamw")
SAMPLING_KINDS = ("iid_uniform", "fixed_sequence")


def _shown(value) -> str:
    """repr(value) for an error message; when longer than 40 characters, its first 40 and the
    length of the value (of a string) or of the repr."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(value) if isinstance(value, str) else len(text)} characters)"


def _choice(options):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {options}, got {_shown(v)}")
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


def _decay_rate(v):
    # AdamW's bias correction divides by 1 - beta**t, which is 0 at beta = 1
    if not 0.0 <= v < 1.0:
        raise ValueError(f"must lie in [0, 1), got {v}")
    return v


def _widths(v):
    # type() rather than isinstance: a bool is an int, and [8, true, 1] must not parse as [8, 1, 1]
    if not isinstance(v, list) or len(v) < 2 or not all(type(x) is int and x > 0 for x in v):
        raise ValueError(f"must list at least the input and output widths as positive integers, got {_shown(v)}")
    return [int(x) for x in v]


# The kinds under which a key takes effect: (selector key, its kinds), or ALWAYS.
ALWAYS = None
_QUADRATIC = ("problem.kind", ("quadratic_family",))
_MLP = ("problem.kind", ("mlp_multisource",))
_ADAMW = ("optimizer.kind", tuple(kind for kind in OPTIMIZER_KINDS if kind != "sgd"))
_DUAL_LOOP = ("optimizer.kind", DUAL_LOOP_MODES)

# key -> (type, default, validator, applies under); a default of None marks a required key
SCHEMA = {
    "name": (str, "run", None, ALWAYS),
    "seed": (int, None, None, ALWAYS),
    "total_steps": (int, 100, _non_negative, ALWAYS),
    "metric_cadence": (int, 1, _positive, ALWAYS),
    "problem.kind": (str, "quadratic_family", _choice(PROBLEM_KINDS), ALWAYS),
    "problem.k": (int, 4, _positive, ("problem.kind", ("quadratic_family", "mlp_multisource", "cubic_set"))),
    "problem.dim": (int, 4, _positive, ("problem.kind", ("quadratic_family", "cubic_set"))),
    "problem.curvature": (float, 1.0, _positive, _QUADRATIC),
    "problem.variance": (float, 1.0, _non_negative, _QUADRATIC),
    "problem.depth": (float, 0.0, None, _QUADRATIC),
    "problem.third_bound": (float, 0.3, _non_negative, ("problem.kind", ("cubic_set",))),
    "problem.n_per_source": (int, 512, _positive, _MLP),
    "problem.shared_fraction": (float, 0.5, _fraction, _MLP),
    "problem.widths": (list, [8, 16, 8, 1], _widths, _MLP),
    "problem.activation": (str, "tanh", _choice(ACTIVATIONS), _MLP),
    "problem.path": (str, "", None, ("problem.kind", ("custom_taskset_file",))),
    "problem.init_scale": (float, 1.0, _positive, ALWAYS),
    "optimizer.kind": (str, "adamw", _choice(OPTIMIZER_KINDS), ALWAYS),
    "optimizer.beta1": (float, 0.9, _decay_rate, _ADAMW),
    "optimizer.beta2": (float, 0.95, _decay_rate, _ADAMW),
    "optimizer.eps": (float, 1e-10, _positive, _ADAMW),
    "optimizer.weight_decay": (float, 0.0, _non_negative, _ADAMW),
    "optimizer.clip_norm": (float, 0.0, _non_negative, ALWAYS),  # 0 disables clipping
    "schedule.kind": (str, "constant", _choice(SCHEDULE_KINDS), ALWAYS),
    "schedule.base_lr": (float, 0.01, _non_negative, ALWAYS),
    "schedule.warmup_steps": (int, 0, _non_negative, ("schedule.kind", ("cosine", "wsd"))),
    "schedule.decay_steps": (int, 0, _non_negative, ("schedule.kind", ("wsd",))),
    "nexus.gamma": (float, 0.01, _positive, _DUAL_LOOP),
    "nexus.inner_steps": (int, 4, _positive, ("optimizer.kind", ("nexus_adamw", "nexus_dot_adamw"))),
    "nexus.sampling": (str, "iid_uniform", _choice(SAMPLING_KINDS), _DUAL_LOOP),
    "nexus.grad_floor": (float, DEFAULT_GRAD_FLOOR, _positive, ("optimizer.kind", ("nsgd_adamw", "nexus_adamw"))),
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
                raise ConfigError(f"unknown config key {_shown(key)}")
            merged[key] = _validate_one(key, value)
        return ExperimentConfig(merged)

    def resolved(self) -> dict:
        """The keys that take effect under this config's kinds, by SCHEMA's last column."""
        resolved = {}
        for key, value in self.values.items():
            applies = SCHEMA[key][3]
            if applies is ALWAYS or self.values[applies[0]] in applies[1]:
                resolved[key] = value
        return resolved

    def to_text(self) -> str:
        lines = [f"{key} = {json.dumps(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"


def _coerce(raw, expected_type):
    if isinstance(raw, bool):  # bool is an int subtype; never accept it for numbers
        raise ValueError(f"expected {expected_type.__name__}, got bool ({raw!r})")
    if expected_type is float and isinstance(raw, int):
        return float(raw)
    if not isinstance(raw, expected_type):
        raise ValueError(f"expected {expected_type.__name__}, got {type(raw).__name__} ({_shown(raw)})")
    if expected_type is float and not math.isfinite(raw):  # json reads NaN, Infinity and -Infinity
        raise ValueError(f"must be finite, got {raw!r}")
    return raw


def _validate_one(key: str, raw):
    expected_type, _, validator, _ = SCHEMA[key]
    try:
        value = _coerce(raw, expected_type)
        if validator is not None:
            value = validator(value)
    except (ValueError, OverflowError) as exc:  # float() of an int beyond the float range overflows
        raise ConfigError(f"invalid value for {key}: {exc}") from exc
    return value


_BLANK = re.compile(r"[ \t\n\r]*")  # JSON's blank space
_BARE = re.compile(r"[^,]*")


def _decode_value(raw_value: str):
    """The JSON literal that starts raw_value; only blank space or a comment may follow it."""
    value, end = json.JSONDecoder().raw_decode(raw_value)
    rest = raw_value[end:].lstrip()
    if rest and not rest.startswith("#"):
        raise json.JSONDecodeError("Extra data", raw_value, end)
    return value


def decode_axis(text: str) -> list:
    """The values of a sweep axis, ``--set key=text``: from each value's start, a JSON literal that ends,
    after blank space, just before a comma or at the end of text, or else a bare string up to the next
    comma. So a comma or a bracket inside a JSON string or list stays in its value."""
    values, pos, decoder = [], 0, json.JSONDecoder()
    while pos <= len(text):
        try:
            value, end = decoder.raw_decode(text, _BLANK.match(text, pos).end())
            end = _BLANK.match(text, end).end()
        except ValueError:  # no JSON literal starts here, or an integer too long for int()
            end = -1
        if end != len(text) and text[end:end + 1] != ",":
            end = _BARE.match(text, pos).end()
            value = text[pos:end]
        values.append(value)
        pos = end + 1
    return values


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """Parse ``key = <JSON literal>`` lines. A ``#`` starts a comment outside a
    JSON string, so a value is decoded first and only blank space or a
    comment may follow it."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw_value = line.partition("=")
        if not eq or "#" in key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {_shown(raw_line)}")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key {_shown(key)}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            parsed = _decode_value(raw_value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{lineno}: value for {key} is not a JSON literal: {_shown(raw_value)}") from exc
        except ValueError as exc:  # json reads digits with int(), which refuses more than 4300 of them
            raise ConfigError(f"{source}:{lineno}: value for {key} is an integer too long to read: "
                              f"{_shown(raw_value)}") from exc
        except RecursionError as exc:
            raise ConfigError(f"{source}:{lineno}: value for {key} is nested too deeply to decode") from exc
        values[key] = _validate_one(key, parsed)
    for key, (_, default, _, _) in SCHEMA.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"required config key {key!r} missing")
            values[key] = default
    return ExperimentConfig(values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {type(exc).__name__}: {exc}") from exc
    return parse_config_text(text, source=str(path))
