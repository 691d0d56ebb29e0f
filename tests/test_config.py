"""Config files map onto ExperimentConfig field for field."""

import configparser
from dataclasses import fields
from pathlib import Path

from dropfed.config import ExperimentConfig, load_config

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
# The two keys that are not their field's name.
RENAMED = {("task", "kind"): "task", ("rates", "kind"): "rate_kind"}

# A value other than the default for every field, consistent as one config.
NON_DEFAULT = dict(
    task="mlp", classes=3, per_class=7, dim=3, separation=2.5, reg=0.25, hidden=5,
    test_per_class=4, clients=7, shards_per_client=3, algorithm="fedprox", iterations=17,
    local_steps=3, local_lr=0.02, batch_size=6, prox_mu=0.5, init="normal",
    init_scale=0.75, scaffold_anchor="within_round", scenario="weighted", tau_max=4,
    prob=0.25, ratio=0.75, force_full_start=False, rate_kind="exponential", eta0=0.3,
    decay=0.9, scale=2.0, beta=3.0, nu=0.05, seeds=(4, 9), out="runs/elsewhere",
    phi_replays=3, phi_every=2, expected_mode="mc", expected_replays=5, workers=2,
)


def example_keys() -> list[tuple[str, str]]:
    """(section, field name) of every key of the annotated example file."""
    ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    ini.read(EXAMPLE)
    return [(s, RENAMED.get((s, k), k)) for s in ini.sections() for k in ini[s]]


def test_example_lists_every_field_once():
    names = [name for _, name in example_keys()]
    assert len(names) == len(set(names)) == 37
    assert set(names) == {f.name for f in fields(ExperimentConfig)}


def test_every_field_round_trips_through_a_file(tmp_path):
    defaults = ExperimentConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    for name, value in NON_DEFAULT.items():
        assert getattr(defaults, name) != value, name
    keys = {field: key for (_, key), field in RENAMED.items()}
    sections: dict[str, dict[str, str]] = {}
    for section, name in example_keys():
        value = NON_DEFAULT[name]
        if name == "seeds":
            value = ", ".join(map(str, value))
        elif isinstance(value, bool):
            value = str(value).lower()
        sections.setdefault(section, {})[keys.get(name, name)] = str(value)
    ini = configparser.ConfigParser()
    ini.read_dict(sections)
    path = tmp_path / "all.ini"
    with open(path, "w") as fh:
        ini.write(fh)
    assert load_config(path) == ExperimentConfig(**NON_DEFAULT)
