import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secrecy_ascent.cli as cli
from secrecy_ascent.config import (SCHEMA, ConfigError, build_system_config, flat_items,
                                   parse_config_text, resolve_values)
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


def test_readme_config_keys_are_the_schema():
    # each key line of README's "Config keys" block starts with its key
    # names, comma-separated; continuation lines are indented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config keys\n+```\n(.*?)```", readme, re.S).group(1)
    documented = [key for line in block.splitlines() if line and not line[0].isspace()
                  for key in re.split(r"\s{2,}", line, maxsplit=1)[0].split(", ")]
    assert sorted(documented) == sorted(SCHEMA)
