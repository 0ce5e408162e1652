import pathlib

import pytest

import nexusopt
from nexusopt.config import SCHEMA, load_config, parse_config_text
from nexusopt.errors import ConfigError, MissingField, ParseError, UnknownKey
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
    with pytest.raises(UnknownKey) as err:
        parse_config_text("seed = 1\nnexus.gamm = 0.1\n")
    assert err.value.path == "nexus.gamm"


def test_missing_seed():
    with pytest.raises(MissingField) as err:
        parse_config_text("name = \"x\"\n")
    assert err.value.path == "seed"


def test_bad_value_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_config_text("seed = 1\nnexus.gamma = -0.5\n")
    with pytest.raises(ParseError):
        parse_config_text("seed = 1\ntotal_steps = \"many\"\n")
    with pytest.raises(ParseError):
        parse_config_text("seed = 1\nbroken line\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_config_text("seed = 1\nseed = 2\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# comment\n\nseed = 3  # trailing\n")
    assert cfg["seed"] == 3


def test_enum_values_validated():
    with pytest.raises(ParseError):
        parse_config_text("seed = 1\noptimizer.kind = \"sgdm\"\n")


def test_widths_reject_booleans():
    with pytest.raises(ParseError) as err:
        parse_config_text("seed = 1\nproblem.widths = [8, true, 1]\n")
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
    with pytest.raises(UnknownKey):
        cfg.with_overrides({"nope": 1})


def test_int_accepted_for_float_fields():
    cfg = parse_config_text("seed = 1\nnexus.gamma = 1\n")
    assert cfg["nexus.gamma"] == 1.0 and isinstance(cfg["nexus.gamma"], float)


@pytest.mark.parametrize("key, value", [("accum_steps", "2"), ("nexus.variant", "\"dot\"")])
def test_removed_keys_are_unknown(key, value):
    with pytest.raises(UnknownKey) as err:
        parse_config_text(f"seed = 1\n{key} = {value}\n")
    assert err.value.path == key
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL).with_overrides({key: 2})


def test_every_schema_key_is_read():
    # an accepted key that nothing reads would make config.resolved.json
    # record a setting that never took effect
    package = pathlib.Path(nexusopt.__file__).parent
    source = "".join(p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py")) if p.name != "config.py")
    unread = [key for key in SCHEMA if f'["{key}"]' not in source]
    assert unread == []
