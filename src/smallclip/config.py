"""Training configuration and the key=value config file format.

One flat dataclass covers both the video heads and the audio models; each
trainer reads the fields it cares about. Config files are plain text, one
``key = value`` pair per line, ``#`` comments and blank lines ignored;
``key_values`` reads that format for config and recipe files alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .data import quoted, read_text
from .errors import ConfigError

VIDEO_HEADS = ("score-mean", "avg-pool", "weighted-avg-pool", "lstm")
AUDIO_MODELS = ("mlp", "forest")
OPTIMIZERS = ("adam", "sgd")
SCORE_MODES = ("probs", "logits")


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
    # audio mlp
    model: str = "mlp"
    hidden: int = 64
    dropout: float = 0.2
    pretrain_epochs: int | None = None   # `epochs` when unset
    finetune_lr_ratio: float = 0.1
    # audio forest
    n_trees: int = 100
    max_depth: int | None = None
    max_features: int | None = None

    def validate(self):
        for name, allowed in (("head", VIDEO_HEADS), ("model", AUDIO_MODELS),
                              ("optimizer", OPTIMIZERS),
                              ("score_mode", SCORE_MODES)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {quoted(getattr(self, name))}, "
                                  f"expected one of {', '.join(allowed)}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0.0 < self.lr < float("inf"):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.finetune_lr_ratio <= 1.0:
            raise ConfigError(f"finetune_lr_ratio must be in (0, 1], "
                              f"got {self.finetune_lr_ratio}")
        return self


# annotation by field name; int fields, in declaration order, must be >= 1,
# and an optional one (`int | None`) reads `none` as unset
_FIELDS = {f.name: f.type for f in fields(TrainConfig)}
_INT_FIELDS = [k for k, t in _FIELDS.items() if t in ("int", "int | None")]


def key_values(text: str):
    """``(line number, key, value)`` for each ``key = value`` line of ``text``.

    ``#`` starts a comment; blank and comment-only lines are skipped. Keys
    and values are stripped, and a value may itself contain ``=``. A line
    without ``=`` raises a ConfigError naming its number. Config and recipe
    files are both read with it.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {quoted(raw)}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_config(text: str) -> TrainConfig:
    """Parse key=value lines into a TrainConfig over the defaults."""
    cfg = TrainConfig()
    for lineno, key, value in key_values(text):
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {quoted(key)}")
        try:
            if value.lower() == "none" and _FIELDS[key] == "int | None":
                parsed = None
            elif key in _INT_FIELDS:
                parsed = int(value)
            elif _FIELDS[key] == "float":
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {quoted(value)} for key {key!r}") from None
        setattr(cfg, key, parsed)
    return cfg.validate()


def load_config(path) -> TrainConfig:
    return parse_config(read_text(path, "config", ConfigError))
