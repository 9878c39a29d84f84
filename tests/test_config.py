import pytest

from smallclip.config import (TrainConfig, config_to_text, load_config,
                              parse_config)
from smallclip.errors import ConfigError


def test_defaults_validate():
    cfg = TrainConfig()
    assert cfg.validate() is cfg
    assert cfg.head == "avg-pool"
    assert cfg.n == 16
    assert cfg.model == "mlp"
    assert cfg.n_trees == 100
    assert cfg.max_depth is None


def test_parse_round_trip():
    cfg = TrainConfig(head="lstm", n=8, lr=0.003, pretrain_epochs=42,
                      max_depth=5)
    back = parse_config(config_to_text(cfg))
    assert back == cfg


def test_comments_and_blank_lines_ignored():
    text = """
    # video settings
    head = weighted-avg-pool

    n = 4   # frames per clip
    """
    cfg = parse_config(text)
    assert cfg.head == "weighted-avg-pool"
    assert cfg.n == 4


def test_base_config_is_overlaid_not_mutated():
    base = TrainConfig(epochs=50, lr=0.5)
    cfg = parse_config("lr = 0.25\n", base=base)
    assert cfg.lr == 0.25
    assert cfg.epochs == 50
    assert base.lr == 0.5


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("n = 4\nlearning_rate = 0.1\n")


def test_bad_value_names_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("epochs = soon\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("n = 2\nhead = lstm\nlr = fast\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just a line\n")


def test_none_for_optional_fields():
    cfg = parse_config("max_features = none\nmax_depth = None\n"
                       "pretrain_epochs = 7\n")
    assert cfg.max_features is None
    assert cfg.max_depth is None
    assert cfg.pretrain_epochs == 7
    # 'none' is not a value for required numeric fields
    with pytest.raises(ConfigError):
        parse_config("epochs = none\n")


def test_validate_rejects_bad_fields():
    cases = [
        dict(head="max-pool"),
        dict(model="svm"),
        dict(score_mode="raw"),
        dict(n=0),
        dict(epochs=0),
        dict(n_trees=0),
        dict(lr=0.0),
        dict(lr=-1.0),
        dict(dropout=1.0),
        dict(dropout=-0.1),
        dict(finetune_lr_ratio=0.0),
        dict(finetune_lr_ratio=1.5),
        dict(optimizer="foo"),
        dict(optimizer="sgd-momentum"),
        dict(lr=float("inf")),
        dict(lr=float("nan")),
        dict(momentum=-0.1),
        dict(momentum=1.0),
        dict(pretrain_epochs=0),
        dict(pretrain_epochs=-3),
        dict(max_depth=0),
        dict(max_depth=-2),
        dict(max_features=0),
        dict(max_features=-1),
    ]
    for kw in cases:
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()


def test_load_config(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text("head = score-mean\nepochs = 3\n")
    cfg = load_config(p)
    assert cfg.head == "score-mean"
    assert cfg.epochs == 3
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_text_lists_every_field():
    text = config_to_text(TrainConfig())
    for key in ("head", "n", "epochs", "lr", "model", "n_trees", "max_depth"):
        assert any(line.startswith(f"{key} = ") for line in text.splitlines())
    assert "max_depth = none" in text
