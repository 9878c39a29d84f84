"""Training configuration and the key=value config file format.

One flat dataclass covers both the video heads and the audio models; each
trainer reads the fields it cares about. Config files are plain text, one
``key = value`` pair per line, ``#`` comments and blank lines ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .data import read_text
from .errors import ConfigError

VIDEO_HEADS = ("score-mean", "avg-pool", "weighted-avg-pool", "lstm")
AUDIO_MODELS = ("mlp", "forest")


@dataclass
class TrainConfig:
    # video
    head: str = "avg-pool"
    n: int = 16                      # frames kept per clip
    score_mode: str = "probs"        # how stored frame scores are read
    lstm_hidden: int = 128
    # shared optimization
    epochs: int = 30
    batch_size: int = 16
    optimizer: str = "adam"
    lr: float = 0.01
    momentum: float = 0.9
    seed: int | None = None
    # audio mlp
    model: str = "mlp"
    hidden: int = 64
    dropout: float = 0.2
    pretrain_epochs: int | None = None   # defaults to `epochs` when pretraining
    finetune_lr_ratio: float = 0.1
    # audio forest
    n_trees: int = 100
    max_depth: int | None = None
    max_features: int | None = None

    def validate(self):
        if self.head not in VIDEO_HEADS:
            raise ConfigError(f"unknown head {self.head!r}, expected one of "
                              f"{', '.join(VIDEO_HEADS)}")
        if self.model not in AUDIO_MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of "
                              f"{', '.join(AUDIO_MODELS)}")
        if self.score_mode not in ("probs", "logits"):
            raise ConfigError(f"score_mode must be 'probs' or 'logits', "
                              f"got {self.score_mode!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        for name in ("epochs", "batch_size", "lstm_hidden", "hidden",
                     "n_trees"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.finetune_lr_ratio <= 1.0:
            raise ConfigError("finetune_lr_ratio must be in (0, 1]")
        return self


_FIELDS = {f.name: f for f in fields(TrainConfig)}
_INT_FIELDS = {"n", "lstm_hidden", "epochs", "batch_size", "seed", "hidden",
               "pretrain_epochs", "n_trees", "max_depth", "max_features"}
_FLOAT_FIELDS = {"lr", "momentum", "dropout", "finetune_lr_ratio"}
_OPTIONAL_FIELDS = {"seed", "pretrain_epochs", "max_depth", "max_features"}


def parse_config(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse key=value lines into a TrainConfig (over ``base`` or defaults)."""
    cfg = TrainConfig(**vars(base)) if base is not None else TrainConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            if value.lower() == "none" and key in _OPTIONAL_FIELDS:
                parsed = None
            elif key in _INT_FIELDS:
                parsed = int(value)
            elif key in _FLOAT_FIELDS:
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for key {key!r}") from None
        setattr(cfg, key, parsed)
    return cfg.validate()


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    return parse_config(read_text(path, "config", ConfigError), base=base)


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {'none' if value is None else value}")
    return "\n".join(lines) + "\n"
