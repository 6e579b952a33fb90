"""Flat key=value run configuration files and named presets.

A config file is plain text: one `key = value` pair per line, `#` comments
and blank lines ignored. Every key has a default, so a file only states
what it changes. `lambda` and `acs_constraint` are the on-disk spellings
for the cost-penalty weight and pruning budget; `pca_components` is the
explained-variance threshold used for timestep allocation.
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

    def model_config(self) -> ModelConfig:
        return ModelConfig(num_layers=self.num_layers,
                           hidden_size=self.hidden_size,
                           num_heads=self.num_heads,
                           intermediate_size=self.intermediate_size,
                           seq_len=self.seq_len,
                           vocab_size=self.vocab_size,
                           num_classes=self.num_classes,
                           leak=self.leak,
                           t_conv=self.t_conv,
                           variance_threshold=self.pca_components,
                           pca_base=self.pca_base,
                           initial_vth=self.initial_vth)

    def train_config(self, **overrides) -> TrainConfig:
        kwargs = dict(learning_rate=self.learning_rate,
                      epochs=self.epochs,
                      penalty_epochs=self.penalty_epochs,
                      lam=self.lam,
                      eta=self.eta,
                      pca_interval=self.pca_interval,
                      kappa=self.kappa,
                      seed=self.seed,
                      train_batch=self.train_batch,
                      test_batch=self.test_batch,
                      budget=self.acs_constraint,
                      base=self.pca_base,
                      theta=self.pca_components,
                      rho=self.rho,
                      momentum=self.momentum)
        kwargs.update(overrides)
        return TrainConfig(**kwargs)


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
    return RunConfig(**values)


def available_presets():
    root = importlib.resources.files("spikeprune") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def resolve_config(name_or_path: str) -> RunConfig:
    """Load a config from a file path or a bundled preset name."""
    if os.path.exists(name_or_path):
        return load_config(name_or_path)
    preset = importlib.resources.files("spikeprune") / "presets" / (name_or_path + ".cfg")
    if preset.is_file():
        return parse_config(preset.read_text(encoding="utf-8"), name_or_path)
    raise InvalidInputError(
        f"no config file or preset named {name_or_path!r}; "
        f"presets: {', '.join(available_presets())}")


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path)
