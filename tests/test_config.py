import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secrecy_ascent.cli as cli
from secrecy_ascent.config import (REQUIRED, SCHEMA, ConfigError, build_system_config, flat_items,
                                   parse_config_text, resolve_config_file, resolve_values)
from secrecy_ascent.experiment import ExperimentKind
from secrecy_ascent.optimizer import OptimizerConfig


def value_of(convert, default):
    """Values ``resolve_values`` accepts for a key with this converter."""
    if convert is int:
        values = st.integers()
    elif convert is float:
        values = st.floats(allow_nan=False, allow_infinity=False)
    else:  # an enum
        values = st.sampled_from(list(convert))
    return st.one_of(st.none(), values) if default is None else values


def typed(resolved: dict) -> dict:
    """Each value with its type, and floats by their bits (-0.0 is not 0.0)."""
    return {k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in resolved.items()}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({key: value_of(*spec) for key, spec in SCHEMA.items()}))
def test_flat_items_round_trip_through_the_parser(resolved):
    text = "".join(f"{key} = {value}\n" for key, value in flat_items(resolved))
    back = resolve_values(parse_config_text(text))
    assert typed(back) == typed(resolved)


def test_required_keys_alone_build_the_default_optimizer_config():
    # the schema's optimizer defaults are OptimizerConfig's, and mu_db's
    # 30 dB is its mu: the comparison covers every field, mu included
    text = "n_tx = 8\nn_rx = 2\nn_clusters = 2\nn_rays = 3\nexperiment = fixed_power\n"
    cfg = build_system_config(resolve_values(parse_config_text(text)))
    assert cfg.optimizer == OptimizerConfig()


def test_band_is_an_unknown_key(tmp_path, capsys):
    # the carrier band entered no formula, so the schema no longer has it: a
    # config that sets it fails as any unknown key does, and nothing runs
    text = "n_tx = 8\nn_rx = 2\nn_clusters = 2\nn_rays = 3\nexperiment = fixed_power\n"
    assert "band" not in SCHEMA and len(SCHEMA) == 18
    with pytest.raises(ConfigError, match="^unknown key 'band'$"):
        resolve_values(parse_config_text(text + "band = sub6\n"))
    path = tmp_path / "band.cfg"
    path.write_text(text + "band = mmwave\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown key 'band'" in err


def test_a_preset_is_named_bare(tmp_path, capsys):
    # a missing path is a preset only when it is a bare name: a path to a
    # file that lacks only its .cfg suffix is not found, not joined under
    # the package's presets, which an absolute path would escape
    (tmp_path / "x.cfg").write_text(
        "n_tx = 8\nn_rx = 2\nn_clusters = 2\nn_rays = 3\nexperiment = fixed_power\n")
    assert cli.main(["validate", "--config", str(tmp_path / "x.cfg")]) == 0
    assert cli.main(["validate", "--config", str(tmp_path / "x")]) == 2
    assert f"config file not found: {tmp_path / 'x'}" in capsys.readouterr().err


def _readme_config_lines():
    """README's "Config keys" block as (keys, description) pairs. Each key
    line starts with its key names, comma-separated; continuation lines are
    indented and belong to the line above."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config keys\n.*?```\n(.*?)```", readme, re.S).group(1)
    lines = []
    for line in block.splitlines():
        if line and not line[0].isspace():
            names, text = re.split(r"\s{2,}", line, maxsplit=1)
            lines.append((names.split(", "), text))
        elif line:
            lines[-1] = (lines[-1][0], f"{lines[-1][1]} {line.strip()}")
    return lines


def test_readme_config_keys_are_the_schema():
    assert sorted(key for keys, _ in _readme_config_lines() for key in keys) == sorted(SCHEMA)


def test_readme_config_defaults_are_the_schemas():
    # "default X" is the default of each key on its line, "defaults X / Y"
    # those of its keys in turn; a key stated with no default has none
    for keys, text in _readme_config_lines():
        stated = re.search(r"\bdefaults? (\S+(?: / \S+)*)$", text)
        values = stated.group(1).split(" / ") if stated else [None]
        values = values * len(keys) if len(values) == 1 else values
        for key, value in zip(keys, values, strict=True):
            convert, default = SCHEMA[key]
            if value is None:
                assert default is REQUIRED or default is None, key
            else:
                assert convert(value) == default, (key, value, default)


PRESET_KEYS = ["n_tx", "n_rx", "n_clusters", "n_rays", "zeta", "experiment"]
# what `validate` prints after a preset's geometry, the same for both bands
BAND_SHARED = ["angular_spread_deg = 10.0", "p_s_db = 10.0", "p_j_db = 10.0", "delta0 = 0.1",
               "epsilon = 1e-07", "kappa = 0.01", "zeta = 4.0", "mu_db = 30.0",
               "max_iters = 10000", "max_cycles = 1000", "delta_min = 1e-06", "n_trials = 1000",
               "seed = 0", "experiment = fixed_power"]


@pytest.mark.parametrize("preset, geometry", [
    ("mmwave", ["n_tx = 64", "n_rx = 4", "n_clusters = 4", "n_rays = 15"]),
    ("sub6", ["n_tx = 16", "n_rx = 4", "n_clusters = 10", "n_rays = 20"]),
], ids=["mmwave", "sub6"])
def test_a_preset_states_only_what_sets_its_band_apart(preset, geometry, capsys):
    # every other value is SCHEMA's default: a default that moves moves
    # both bands, and shows here as a diff
    text = (resources.files("secrecy_ascent") / "configs" / f"{preset}.cfg").read_text()
    assert list(parse_config_text(text)) == PRESET_KEYS
    assert cli.main(["validate", "--config", preset]) == 0
    assert capsys.readouterr().out.splitlines() == geometry + BAND_SHARED


def _changed(value):
    """A valid value of the key whose value is ``value`` that is not ``value``."""
    if isinstance(value, ExperimentKind):
        return next(kind for kind in ExperimentKind if kind is not value)
    return value + 1 if isinstance(value, int) else value / 2


@pytest.mark.parametrize("key", SCHEMA)
def test_each_key_reaches_the_built_config(key):
    # keys fill dataclass fields by name: a key whose field is missing or
    # renamed would be dropped without this
    resolved = resolve_config_file("sub6")
    built = build_system_config(resolved)
    assert build_system_config({**resolved, key: _changed(resolved[key])}) != built
