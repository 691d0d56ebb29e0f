"""Experiment configuration: every option of a run and the INI file loader.

The ExperimentConfig fields are the only list of options.  A config file
sets them by section; each key is its field's name, except the two `kind`
keys, and each value is converted by the type of its field's default.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .aggregation import ALGORITHMS
from .availability import check_prob, check_tau_max, weighted_count
from .data import check_blobs, check_shards
from .errors import ConfigError
from .local_trainer import LocalConfig
from .objectives import MlpObjective, check_classifier
from .schedules import check_decay, check_finite, check_nu, check_positive

# The allowed values of each option that names a choice.
CHOICES = {
    "task": ("quadratic", "logistic", "mlp"),
    "algorithm": ALGORITHMS,
    "init": ("zeros", "normal"),
    "scaffold_anchor": ("persistent", "within_round"),
    "scenario": ("round_robin", "static", "weighted"),
    "rate_kind": ("constant", "exponential", "inverse_time"),
    "expected_mode": ("fullbatch", "mc"),
}

# A config is refused as it loads when its run would hold more than
# MEMORY_BUDGET bytes, a fixed budget so it fails alike on every machine: 10
# bytes a mask cell (seeds x iterations x clients) and 256 a seed's round, as
# measured for `run` (10.1 at 1000 clients x 20,000 rounds; at 1 client, about
# 100 before training and 140 for the recorded row).
CELL_BYTES, ROUND_BYTES, MEMORY_BUDGET = 10, 256, 2**30


@dataclass
class ExperimentConfig:
    """Every option of a run; _SECTIONS places each in a config file."""

    task: str = "quadratic"
    classes: int = 2
    per_class: int = 50
    dim: int = 2
    separation: float = 4.0
    reg: float = 0.0
    hidden: int = 8
    test_per_class: int = 0
    clients: int = 10
    shards_per_client: int = 1
    algorithm: str = "fedavg"
    iterations: int = 100
    local_steps: int = 1
    local_lr: float = 0.1
    batch_size: int = 1_000_000
    prox_mu: float = 0.0
    init: str = "zeros"
    init_scale: float = 1.0
    scaffold_anchor: str = "persistent"
    scenario: str = "static"
    tau_max: int = 10
    prob: float = 0.5
    ratio: float = 0.5
    force_full_start: bool = True
    rate_kind: str = "constant"
    eta0: float = 0.1
    decay: float = 0.99
    scale: float = 1.0
    beta: float = 10.0
    nu: float = 0.01
    seeds: tuple[int, ...] = (1,)
    out: str = "runs/out"
    phi_replays: int = 0
    phi_every: int = 0
    expected_mode: str = "fullbatch"
    expected_replays: int = 64
    workers: int = 1

    def __post_init__(self) -> None:
        for name in _FLOATS:
            check_finite(name, getattr(self, name))
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.algorithm == "fedprox" and self.prox_mu <= 0:
            raise ConfigError("fedprox needs prox_mu > 0")
        if self.algorithm != "fedprox" and self.prox_mu > 0:
            raise ConfigError("prox_mu > 0 is only meaningful with algorithm = fedprox")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        need = len(self.seeds) * self.iterations * (self.clients * CELL_BYTES + ROUND_BYTES)
        if need > MEMORY_BUDGET:
            raise ConfigError(f"{len(self.seeds)} seeds x {self.iterations} iterations x "
                              f"{self.clients} clients need about {need / 2**30:.3g} GiB, over "
                              f"the budget of {MEMORY_BUDGET / 2**30:g} GiB")
        if self.phi_replays == 1 or self.phi_replays < 0:
            raise ConfigError(f"phi_replays must be 0 (off) or >= 2, got {self.phi_replays}")
        if self.phi_every < 0:
            raise ConfigError(f"phi_every must be >= 0 (0: off), got {self.phi_every}")
        if self.expected_mode == "mc" and self.expected_replays < 1:
            raise ConfigError(
                f"expected_mode = mc needs expected_replays >= 1, got {self.expected_replays}"
            )
        if self.algorithm == "mifa" and self.scenario == "static" and not self.force_full_start:
            raise ConfigError(
                "mifa needs every client's update before it aggregates; "
                "use force_full_start = true with scenario = static"
            )
        if not self.out.strip():
            raise ConfigError(f"out must name an output directory, got {self.out!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # The task's own checks, before any work.
        check_blobs(self.classes, self.per_class, self.dim, self.separation)
        if self.test_per_class < 0:
            raise ConfigError(f"test_per_class must be >= 0 (0: none), got {self.test_per_class}")
        if self.task != "quadratic":
            check_classifier(self.classes, self.reg)
        if self.task == "mlp":
            MlpObjective.size(self.dim, self.classes, self.hidden)
        self.local_config()
        if self.init == "normal":
            check_positive("init_scale", self.init_scale)
        # The configured schedules' own checks; keys of other kinds stay free.
        if self.rate_kind == "inverse_time":
            check_positive("scale", self.scale)
            check_positive("beta", self.beta)
        else:
            check_positive("eta0", self.eta0)
        if self.rate_kind == "exponential":
            check_decay(self.decay)
        check_nu(self.nu)
        if self.scenario == "round_robin":
            check_tau_max(self.tau_max)
        elif self.scenario == "static":
            check_prob(self.prob)
        else:
            weighted_count(self.ratio, self.clients)

    def local_config(self) -> LocalConfig:
        return LocalConfig(self.local_steps, self.local_lr, self.batch_size, self.prox_mu)

    def check_partition(self) -> None:
        """Reject a shard count that does not divide the data, before any is built.

        Not part of __post_init__: a config that only builds schedules needs
        no partition.
        """
        check_shards(self.classes * self.per_class, self.clients, self.shards_per_client)

    def fingerprint(self) -> str:
        """Hash of everything that defines the task, data, and participation.

        Two runs are comparable iff their fingerprints match; algorithm,
        iteration count, and step sizes are deliberately excluded.
        """
        parts = [
            getattr(self, name)
            for section in ("task", "partition", "availability")
            for name in _SECTIONS[section]
        ] + [",".join(map(str, self.seeds))]
        blob = "|".join(repr(p) for p in parts).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# The fields each section of a config file sets.  A key is its field's
# name, except for the two `kind` keys.
_SECTIONS = {
    "task": ("task", "classes", "per_class", "dim", "separation", "reg", "hidden",
             "test_per_class"),
    "partition": ("clients", "shards_per_client"),
    "federation": ("algorithm", "iterations", "local_steps", "local_lr", "batch_size",
                   "prox_mu", "init", "init_scale", "scaffold_anchor"),
    "availability": ("scenario", "tau_max", "prob", "ratio", "force_full_start"),
    "rates": ("rate_kind", "eta0", "decay", "scale", "beta", "nu"),
    "run": ("seeds", "out", "phi_replays", "phi_every", "expected_mode",
            "expected_replays", "workers"),
}
_KEY_OF = {"task": "kind", "rate_kind": "kind"}
_FIELD_OF = {
    section: {_KEY_OF.get(name, name): name for name in names}
    for section, names in _SECTIONS.items()
}


def parse_seeds(raw: str) -> tuple[int, ...]:
    """Seeds separated by commas or whitespace."""
    try:
        return tuple(int(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad seed list {raw!r}") from exc


_FLOATS = tuple(f.name for f in fields(ExperimentConfig) if isinstance(f.default, float))
_CONVERTERS = {f.name: type(f.default) for f in fields(ExperimentConfig)}
_CONVERTERS.update(
    seeds=parse_seeds,
    force_full_start=lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
)


def read_ini(path: str | Path) -> configparser.ConfigParser:
    """The INI file at path; one that cannot be read as UTF-8 INI text is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:  # a message of one line
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    return parser


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an INI-style experiment file; unknown sections or keys are errors."""
    parser = read_ini(path)
    kwargs = {}
    for section in parser.sections():
        if section not in _FIELD_OF:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            name = _FIELD_OF[section].get(key)
            if name is None:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                kwargs[name] = _CONVERTERS[name](raw.strip())
            except (KeyError, ValueError) as exc:  # KeyError: not a boolean
                raise ConfigError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    return ExperimentConfig(**kwargs)
