import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_ascent.config import (SCHEMA, build_system_config, flat_items, parse_config_text,
                                   resolve_values)
from secrecy_ascent.optimizer import OptimizerConfig


def value_of(convert, default):
    """Values ``resolve_values`` accepts for a key with this converter."""
    if convert is int:
        values = st.integers()
    elif convert is float:
        values = st.floats(allow_nan=False, allow_infinity=False)
    elif isinstance(convert, type) and issubclass(convert, enum.Enum):
        values = st.sampled_from(list(convert))
    else:  # the boolean parser
        values = st.booleans()
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
