"""Property test for the manifest parser: structural mutations of a valid
manifest's records either load or fail with a SmallclipError, and records
left as they are read back to the same bytes."""

import functools
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smallclip.data import dataset_to_manifest_text, load_dataset, write_dataset
from smallclip.errors import SmallclipError
from smallclip.synth import SynthConfig, generate_synthetic

# JSON scalars; numbers include integers no float can hold
NON_STRINGS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.sampled_from([10 ** 400, -10 ** 400]))
SCALARS = st.one_of(NON_STRINGS, st.text(max_size=3))


@functools.lru_cache(maxsize=None)
def _manifest():
    cfg = SynthConfig(n_classes=2, train_per_class=2, val_per_class=1,
                      test_per_class=1, frames_min=1, frames_max=2,
                      d_feature=2, d_audio=2)
    return dataset_to_manifest_text(generate_synthetic(cfg, 0))


def _places(node, pattern=()):
    """(pattern, container, key) of every value under ``node``; a pattern
    is the value's path with each list index read as ``*``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in list(items):
        place = (*pattern, "*" if isinstance(node, list) else key)
        yield place, node, key
        yield from _places(child, place)


def _swap(draw, node, key):
    """A list or an object becomes a scalar, a scalar a list of scalars."""
    node[key] = draw(SCALARS if isinstance(node[key], (list, dict))
                     else st.lists(SCALARS, max_size=3))


def _retype(draw, node, key):
    """Any value becomes a scalar: an id a number, a label a string, ..."""
    node[key] = draw(NON_STRINGS if isinstance(node[key], str) else SCALARS)


def _nest(draw, node, key):
    """A list one level deeper: wrapped whole, or each item wrapped."""
    if isinstance(node[key], list):
        node[key] = ([node[key]] if draw(st.booleans())
                     else [[item] for item in node[key]])


def _drop(draw, node, key):
    if isinstance(node, dict):
        del node[key]


@st.composite
def manifests(draw):
    """Some of the synth manifest's records, in some order, with up to
    three mutations; returns (records, whether any was made). A mutation
    picks a path pattern, such as every frame's ``f``, and changes the
    values at all of its places or at one."""
    records = [json.loads(line) for line in _manifest().splitlines()]
    records = draw(st.permutations(records))
    records = records[:draw(st.integers(1, len(records)))]
    mutations = draw(st.lists(st.sampled_from([_swap, _retype, _nest,
                                               _drop]), max_size=3))
    for mutate in mutations:
        places = list(_places(records))
        pattern = draw(st.sampled_from(sorted({p for p, _, _ in places})))
        targets = [(n, k) for p, n, k in places if p == pattern]
        if draw(st.booleans()):
            targets = [draw(st.sampled_from(targets))]
        for node, key in reversed(targets):  # list indices stay valid
            mutate(draw, node, key)
    return records, bool(mutations)


@settings(max_examples=150, derandomize=True, deadline=1000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifests())
def test_mutated_manifest_loads_or_raises_a_smallclip_error(tmp_path, case):
    records, mutated = case
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records)
    path, back = tmp_path / "data.jsonl", tmp_path / "back.jsonl"
    path.write_text(text)
    try:
        ds = load_dataset(path)
    except SmallclipError:
        assert mutated
        return
    if not mutated:
        write_dataset(ds, back)
        assert back.read_text() == text
