"""Flat key=value run configuration files and named presets.

A config file is plain text: one `key = value` pair per line, `#` comments
and blank lines ignored. Every key has a default, so a file only states
what it changes. `lambda` is the on-disk spelling of the cost-penalty
weight `lam`; `pca_components` is the model's explained-variance threshold
for timestep allocation. `acs_constraint` (pruning budget) and `rho`
(timestep scaling) are read by `ablate` straight from the RunConfig.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import os

from .errors import InvalidInputError
from .model import ModelConfig
from .trainer import TrainConfig

__all__ = ["RunConfig", "parse_config", "load_config", "resolve_config",
           "available_presets"]


@dataclasses.dataclass
class RunConfig:
    # model dimensions
    num_layers: int = 2
    hidden_size: int = 32
    num_heads: int = 4
    intermediate_size: int = 64
    seq_len: int = 16
    vocab_size: int = 12
    num_classes: int = 2
    leak: float = 1.0
    t_conv: int = 40
    initial_vth: float = 1.0
    pca_components: float = 0.99999
    pca_base: float = 1.3
    # optimization
    learning_rate: float = 0.1
    epochs: int = 8
    penalty_epochs: int = 0
    lam: float = 5e-9
    eta: float = 0.001
    kappa: float = 10.0
    momentum: float = 0.9
    pca_interval: int = 2
    train_batch: int = 32
    test_batch: int = 250
    # pruning
    acs_constraint: float = 0.6
    rho: float = 1.0
    # data
    seed: int = 0
    train_examples: int = 2000
    test_examples: int = 500

    def __post_init__(self):
        for name in ("acs_constraint", "rho"):
            if not (0 < getattr(self, name) <= 1):
                raise InvalidInputError(f"{name} must be in (0, 1]")

    def _split(self, target, **overrides):
        """A target (ModelConfig or TrainConfig) whose init fields take this
        config's value under the same name or the name _RENAMED gives; fields
        with no config key keep their defaults, and overrides win."""
        ours = {f.name for f in dataclasses.fields(self)}
        kwargs = {f.name: getattr(self, _RENAMED.get(f.name, f.name))
                  for f in dataclasses.fields(target)
                  if f.init and _RENAMED.get(f.name, f.name) in ours}
        return target(**{**kwargs, **overrides})

    def model_config(self) -> ModelConfig:
        return self._split(ModelConfig)

    def train_config(self, **overrides) -> TrainConfig:
        return self._split(TrainConfig, **overrides)


# ModelConfig fields that the config file spells differently
_RENAMED = {"variance_threshold": "pca_components"}
_ALIASES = {"lambda": "lam"}
# every key parses as its RunConfig field's declared type
_PARSERS = {f.name: (int, "an integer") if f.type == "int" else (float, "a number")
            for f in dataclasses.fields(RunConfig)}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{source}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        val = val.strip()
        if key not in _PARSERS:
            raise InvalidInputError(f"{source}:{lineno}: unknown key {key!r}")
        parse, kind = _PARSERS[key]
        try:
            values[key] = parse(val)
        except ValueError:
            raise InvalidInputError(f"{source}:{lineno}: {key} must be {kind}") from None
    try:
        cfg = RunConfig(**values)
        # the split configs check their own fields; build them here so that
        # their errors name the source too
        cfg.model_config()
        cfg.train_config()
        return cfg
    except InvalidInputError as e:
        raise InvalidInputError(f"{source}: {e}") from None


def available_presets():
    root = importlib.resources.files("spikeprune") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def resolve_config(name_or_path: str) -> RunConfig:
    """Load a config from a file path or a bundled preset name."""
    if os.path.exists(name_or_path):
        return load_config(name_or_path)
    if name_or_path in available_presets():
        preset = importlib.resources.files("spikeprune") / "presets" / (name_or_path + ".cfg")
        return parse_config(preset.read_text(encoding="utf-8"), name_or_path)
    raise InvalidInputError(
        f"no config file or preset named {name_or_path!r}; "
        f"presets: {', '.join(available_presets())}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), path)
    except UnicodeDecodeError as e:
        raise InvalidInputError(f"{path}: not UTF-8 text ({e})") from None
