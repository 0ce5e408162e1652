import json
import pathlib

import pytest

import nexusopt
from nexusopt.config import SCHEMA, decode_axis, load_config, parse_config_text
from nexusopt.errors import ConfigError
from nexusopt.harness import build_problem
from nexusopt.numerics import rng_root

MINIMAL = "seed = 42\n"


def test_minimal_config_gets_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg["seed"] == 42
    assert cfg["problem.kind"] == "quadratic_family"
    assert cfg["optimizer.kind"] == "adamw"
    assert cfg["nexus.gamma"] == 0.01


def test_round_trip_through_file(tmp_path):
    cfg = parse_config_text("seed = 7\nnexus.gamma = 0.05\nname = \"trial\"\n")
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text(), encoding="utf-8")
    again = load_config(path)
    assert again.values == cfg.values


def test_unknown_key_reports_exact_path():
    with pytest.raises(ConfigError, match="unknown config key 'nexus.gamm'") as err:
        parse_config_text("seed = 1\nnexus.gamm = 0.1\n")
    assert err.value.path == "nexus.gamm"


def test_missing_seed():
    with pytest.raises(ConfigError, match="required config key 'seed' missing") as err:
        parse_config_text("name = \"x\"\n")
    assert err.value.path == "seed"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1" + "0" * 400])
@pytest.mark.parametrize("key", ["problem.curvature", "schedule.base_lr", "problem.depth", "nexus.gamma"])
def test_non_finite_value_is_a_parse_error(key, literal):
    # json reads the first four as non-finite floats, and the last is an int that overflows a float
    for parse in (lambda: parse_config_text(f"seed = 1\n{key} = {literal}\n"),
                  lambda: parse_config_text(MINIMAL).with_overrides({key: json.loads(literal)})):
        with pytest.raises(ConfigError, match=f"invalid value for {key}: ") as err:
            parse()
        assert err.value.path == key


def test_bad_value_is_a_parse_error():
    with pytest.raises(ConfigError, match="invalid value for nexus.gamma: "):
        parse_config_text("seed = 1\nnexus.gamma = -0.5\n")
    with pytest.raises(ConfigError, match="invalid value for total_steps: "):
        parse_config_text("seed = 1\ntotal_steps = \"many\"\n")
    with pytest.raises(ConfigError, match="expected 'key = value', got 'broken line'"):
        parse_config_text("seed = 1\nbroken line\n")
    # a negative variance, a momentum of 1 or above (AdamW's bias correction divides
    # by 1 - beta**t), and a boolean where a number is expected
    for line in ("problem.variance = -1", "optimizer.beta1 = 1.5", "optimizer.beta1 = 1", "optimizer.beta2 = 1.0",
                 "nexus.gamma = true"):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"invalid value for {key}: ") as err:
            parse_config_text(f"seed = 1\n{line}\n")
        assert err.value.path == key


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# comment\n\nseed = 3  # trailing\n")
    assert cfg["seed"] == 3


def test_enum_values_validated():
    with pytest.raises(ConfigError, match="invalid value for optimizer.kind: "):
        parse_config_text("seed = 1\noptimizer.kind = \"sgdm\"\n")
    with pytest.raises(ConfigError, match="invalid value for nexus.sampling: ") as err:
        parse_config_text("seed = 1\nnexus.sampling = \"round_robin\"\n")
    assert err.value.path == "nexus.sampling"


def test_widths_reject_booleans():
    with pytest.raises(ConfigError, match="invalid value for problem.widths: ") as err:
        parse_config_text("seed = 1\nproblem.widths = [8, true, 1]\n")
    assert err.value.path == "problem.widths"


@pytest.mark.parametrize("widths", ["[8]", "[]"])
def test_widths_need_an_input_and_an_output_width(widths):
    # MLPSpec would raise a bare ValueError at run time
    with pytest.raises(ConfigError, match="invalid value for problem.widths: ") as err:
        parse_config_text(f"seed = 1\nproblem.widths = {widths}\n")
    assert err.value.path == "problem.widths"


def test_custom_taskset_requires_path():
    cfg = parse_config_text("seed = 1\nproblem.kind = \"custom_taskset_file\"\nproblem.path = \"\"\n")
    with pytest.raises(ConfigError) as err:
        build_problem(cfg, rng_root(1))
    assert err.value.path == "problem.path"


def test_overrides_validate():
    cfg = parse_config_text(MINIMAL)
    bumped = cfg.with_overrides({"seed": 11})
    assert bumped["seed"] == 11 and cfg["seed"] == 42
    with pytest.raises(ConfigError, match="unknown config key 'nope'"):
        cfg.with_overrides({"nope": 1})


def test_int_accepted_for_float_fields():
    cfg = parse_config_text("seed = 1\nnexus.gamma = 1\n")
    assert cfg["nexus.gamma"] == 1.0 and isinstance(cfg["nexus.gamma"], float)


@pytest.mark.parametrize("key, value", [
    ("accum_steps", "2"), ("nexus.variant", "\"dot\""), ("problem.d_in", "8"), ("problem.d_out", "1"),
    ("output_dir", '"x"'),
])
def test_removed_keys_are_unknown(key, value):
    with pytest.raises(ConfigError, match=f"unknown config key {key!r}") as err:
        parse_config_text(f"seed = 1\n{key} = {value}\n")
    assert err.value.path == key
    with pytest.raises(ConfigError, match=f"unknown config key {key!r}"):
        parse_config_text(MINIMAL).with_overrides({key: 2})


def test_every_schema_key_is_read():
    # an accepted key that nothing reads would make config.resolved.json
    # record a setting that never took effect
    package = pathlib.Path(nexusopt.__file__).parent
    source = "".join(p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py")) if p.name != "config.py")
    unread = [key for key in SCHEMA if f'["{key}"]' not in source]
    assert unread == []


def test_hash_inside_a_string_value_is_not_a_comment():
    cfg = parse_config_text('seed = 1\nname = "runs/#3"  # where\n')
    assert cfg["name"] == "runs/#3"
    renamed = cfg.with_overrides({"name": "run#2"})
    assert parse_config_text(renamed.to_text()).values == renamed.values


def test_only_a_comment_may_follow_a_value():
    assert parse_config_text("seed = 3  # trailing\n")["seed"] == 3
    for line, message in (
        ('name = "a" "b"', "value for name is not a JSON literal"),
        ("name = \"a\" b # c", "value for name is not a JSON literal"),
        ("total_steps # = 3", "expected 'key = value'"),
        ("total_steps = # 3", "value for total_steps is not a JSON literal"),
    ):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"seed = 1\n{line}\n")


def test_an_integer_too_long_for_python_is_a_config_error():
    # json reads digits with int(), which refuses more than 4300 of them
    with pytest.raises(ConfigError, match="value for seed is an integer too long to read") as err:
        parse_config_text(f"seed = {'1' * 5000}\n")
    assert str(err.value) == f"<string>:1: value for seed is an integer too long to read: '{'1' * 39}... (5000 characters)"
    assert err.value.path == "seed"


def test_a_long_value_is_echoed_as_a_prefix_and_its_length():
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"seed = 1\nproblem.activation = \"{'x' * 300}\"\n")
    assert str(err.value).endswith(f"got '{'x' * 39}... (300 characters)")
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nproblem.widths = [" + "0, " * 100 + "0]\n")
    assert str(err.value).endswith(f"got [{'0, ' * 13}... (303 characters)")
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"seed = 1\n{'k' * 5000} = 1\n")
    assert str(err.value) == f"<string>:2: unknown config key '{'k' * 39}... (5000 characters)"
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\n").with_overrides({"k" * 5000: 1})
    assert str(err.value) == f"unknown config key '{'k' * 39}... (5000 characters)"


@pytest.mark.parametrize("text, values", [
    # forms that the README and the tests use, read as the old comma-and-bracket split read them
    ("[8,16,8,1],[8,32,1]", [[8, 16, 8, 1], [8, 32, 1]]),
    ("adamw,nexus_adamw", ["adamw", "nexus_adamw"]),
    ("0.1,0.2", [0.1, 0.2]),
    ("a,,b", ["a", "", "b"]),
    ("1abc,2", ["1abc", 2]),
    ("true,false", [True, False]),
    ('{"k": [1,2]},x', [{"k": [1, 2]}, "x"]),
    ("null", [None]),
    ("1, 2", [1, 2]),
    (" a , b", [" a ", " b"]),
    ("a,", ["a", ""]),
    (",", ["", ""]),
    ("", [""]),
    ("NaN,Infinity", [float("nan"), float("inf")]),
    ('"ok.json","nofile.json"', ["ok.json", "nofile.json"]),
    # a bracket or comma inside a JSON string or list stays in its value
    ('"x[",y', ["x[", "y"]),
    ('"]",b,c', ["]", "b", "c"]),
    ('"a,b",c', ["a,b", "c"]),
    ('[1,"]",2],3', [[1, "]", 2], 3]),
    # a bare string runs up to the next comma, unclosed brackets or not
    ("a[b,c", ["a[b", "c"]),
    ("[1,2", ["[1", 2]),
    # so does an integer too long for int(), which json cannot read
    ("1" * 5000 + ",2", ["1" * 5000, 2]),
])
def test_an_axis_value_is_a_json_literal_up_to_a_comma_or_else_a_bare_string(text, values):
    # repr, so that NaN equals NaN
    assert repr(decode_axis(text)) == repr(values)
