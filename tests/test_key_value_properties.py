"""Property tests for the config and recipe parsers: any text either parses
into a TrainConfig or Recipe that validates, or raises a ConfigError."""

from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallclip.config import (AUDIO_MODELS, OPTIMIZERS, SCORE_MODES,
                              VIDEO_HEADS, TrainConfig, parse_config)
from smallclip.errors import ConfigError
from smallclip.recipes import Recipe, parse_recipe

# values in each field's range and past it: integers with underscores,
# non-ASCII digits or past int()'s digit limit; non-finite, overflowing and
# subnormal floats; every kind name and one that is none
INTS = ["1", "3", " 2 ", "1_0", "٣", "0", "-1", "1e3", "9" * 5000]
FLOATS = ["0.5", "0.01", "1", "0.999", "1e-320", "1e308", "1.7e308", "0",
          "-0.0", "nan", "inf", "1e999", "half"]
NAMES = [*VIDEO_HEADS, *AUDIO_MODELS, *OPTIMIZERS, *SCORE_MODES, "x"]
ANY_VALUE = st.one_of(st.sampled_from(INTS + FLOATS + NAMES + ["", "none"]),
                      st.text(max_size=8))
# a line with no "=" comes from the lines of any text
SEPARATORS = st.sampled_from(["=", " = ", "\t=", " ="])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", " # note\n"])

CONFIG_POOLS = {
    f.name: st.sampled_from({"int": INTS, "int | None": INTS + ["none"],
                             "float": FLOATS}.get(f.type, NAMES))
    for f in fields(TrainConfig)}


def _members(kinds):
    """Member lists such as ``avg-pool*2, lstm``; a bad kind comes from
    ANY_VALUE."""
    token = st.tuples(st.sampled_from(kinds), st.sampled_from(
        ["", "*1", "*2", "*٣", "*0", "*1e3"]))
    return st.lists(token, min_size=1, max_size=3).map(
        lambda tokens: ", ".join(kind + mult for kind, mult in tokens))


RECIPE_POOLS = {
    "name": st.text(max_size=8),
    "video": _members(VIDEO_HEADS),
    "audio": _members(AUDIO_MODELS),
    "weights": st.lists(st.sampled_from(
        ["0.5", "1", "0", "1e308", "1.7e308", "nan", "-1"]), min_size=1,
        max_size=3).map(" ".join),
    "train_on": st.sampled_from(["train", "train+val"]),
}


@st.composite
def key_value_texts(draw, pools, most):
    """Up to ``most`` keys of ``pools`` in any order, each on a line of its
    own with a value from its pool or, one time in five, any value; and one
    time in five a line of any text."""
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(pools)), max_size=most,
                             unique=True)):
        value = draw(ANY_VALUE if draw(st.integers(0, 4)) == 4
                     else pools[key])
        lines.append(key + draw(SEPARATORS) + value)
    if draw(st.integers(0, 4)) == 4:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.text(max_size=12)))
    return "".join(line + draw(LINE_ENDS) for line in lines)


@settings(max_examples=250, derandomize=True, deadline=1000, database=None)
@given(st.one_of(*[key_value_texts(CONFIG_POOLS, 4)] * 3,
                 st.text(max_size=60)))
def test_any_text_parses_to_a_valid_config_or_raises_a_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, TrainConfig)
    assert cfg.validate() is cfg


@settings(max_examples=250, derandomize=True, deadline=1000, database=None)
@given(st.one_of(*[key_value_texts(RECIPE_POOLS, 5)] * 3,
                 st.text(max_size=60)))
# found at 3,000 examples: each weight is finite, their sum is not, and
# check_weights summed them with a RuntimeWarning
@example("audio=mlp\nname=\nvideo=score-mean\nweights=1e308 1e308\n")
def test_any_text_parses_to_a_valid_recipe_or_raises_a_config_error(text):
    try:
        recipe = parse_recipe(text)
    except ConfigError:
        return
    assert isinstance(recipe, Recipe)
    assert recipe.validate() is recipe
