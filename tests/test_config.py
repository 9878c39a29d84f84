import pytest

from dataclasses import fields

from smallclip.config import TrainConfig, load_config, parse_config
from smallclip.errors import ConfigError
from smallclip.recipes import parse_recipe


def test_defaults_validate():
    cfg = TrainConfig()
    assert cfg.validate() is cfg
    assert cfg.head == "avg-pool"
    assert cfg.n == 16
    assert cfg.model == "mlp"
    assert cfg.n_trees == 100
    assert cfg.max_depth is None


def test_parse_round_trip():
    text = """\
head = lstm
n = 8
score_mode = logits
lstm_hidden = 32
epochs = 12
batch_size = 4
optimizer = sgd
lr = 0.003
momentum = 0.5
model = forest
hidden = 16
dropout = 0.1
pretrain_epochs = none
finetune_lr_ratio = 0.25
n_trees = 7
max_depth = none
max_features = none
"""
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == [f.name for f in fields(TrainConfig)]
    assert parse_config(text) == TrainConfig(
        head="lstm", n=8, score_mode="logits", lstm_hidden=32, epochs=12,
        batch_size=4, optimizer="sgd", lr=0.003, momentum=0.5, model="forest",
        hidden=16, dropout=0.1, pretrain_epochs=None, finetune_lr_ratio=0.25,
        n_trees=7, max_depth=None, max_features=None)


def test_comments_and_blank_lines_ignored():
    text = """
    # video settings
    head = weighted-avg-pool

    n = 4   # frames per clip
    """
    cfg = parse_config(text)
    assert cfg.head == "weighted-avg-pool"
    assert cfg.n == 4


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


# each parser with a line it accepts, a check of what it read from that
# line, and a line whose value it rejects
KEY_VALUE_PARSERS = [
    (parse_config, "n = 4", lambda cfg: cfg.n == 4, "n = {}"),
    (parse_recipe, "video = lstm", lambda r: r.video == [("lstm", 1)],
     "weights = {}"),
]


@pytest.mark.parametrize("template, error", [
    ("{good}  # a note = 3\n", None),
    ("\n# heading\n   \n{good}\n  # indented\n\n{bad}\n", "line 7: bad "),
    ("{good}\n\n# note\nno equals here\n",
     "line 4: expected key=value, got 'no equals here'"),
    ("{good}\n{bad}\n", "line 2: bad "),
], ids=["comment-after-value", "blank-and-comment-lines",
        "line-without-equals", "value-with-equals"])
def test_config_and_recipe_share_key_value_rules(template, error):
    """One key=value reader: both file kinds skip the same lines, count
    lines the same way, keep a value's own "=" and give the same message
    for a line without one."""
    messages = []
    for parse, good, check, bad in KEY_VALUE_PARSERS:
        text = template.format(good=good, bad=bad.format("x=y"))
        if error is None:
            assert check(parse(text))
            continue
        with pytest.raises(ConfigError) as err:
            parse(text)
        messages.append(str(err.value))
    if "{bad}" in template:  # the whole value, "=" included, is rejected
        assert all(m.startswith(error) and "'x=y'" in m for m in messages)
    elif error is not None:
        assert messages == [error, error]
