import numpy as np
import pytest

from smallclip import parallel, recipes
from smallclip.audio import train_audio_model
from smallclip.config import TrainConfig
from smallclip.errors import ConfigError
from smallclip.fusion import fuse_tables
from smallclip.recipes import (PRESET_NAMES, Recipe, _units, load_recipe,
                               packaged_recipe, parse_recipe, run_recipe)
from smallclip.scores import ScoreTable
from smallclip.synth import SynthConfig, generate_synthetic
from smallclip.video import train_video_model


def test_parse_members_and_weights():
    r = parse_recipe("video = avg-pool*2, lstm\n"
                     "audio = mlp*3\n"
                     "weights = 0.7, 0.3\n")
    assert r.video == [("avg-pool", 2), ("lstm", 1)]
    assert r.audio == [("mlp", 3)]
    assert r.weights == [0.7, 0.3]
    assert sum(m for _, m in r.video + r.audio) == 6


def test_parse_name_comments_and_train_on():
    r = parse_recipe("# a remark\nname = late-night\nvideo = score-mean\n"
                     "train_on = train+val\n")
    assert r.name == "late-night"
    assert r.train_on == "train+val"
    assert r.audio == []


def test_parse_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_recipe("video = avg-pool*two\n")
    with pytest.raises(ConfigError, match="unknown recipe key"):
        parse_recipe("video = avg-pool\nflavor = mild\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_recipe("video avg-pool\n")
    with pytest.raises(ConfigError, match="bad weights"):
        parse_recipe("video = avg-pool\naudio = mlp\nweights = half half\n")


def test_validate_errors():
    with pytest.raises(ConfigError, match="no members"):
        Recipe("r", [], []).validate()
    with pytest.raises(ConfigError, match="unknown video head"):
        Recipe("r", [("max-pool", 1)], []).validate()
    with pytest.raises(ConfigError, match="unknown audio model"):
        Recipe("r", [], [("svm", 1)]).validate()
    with pytest.raises(ConfigError, match="multiplicity"):
        Recipe("r", [("avg-pool", 0)], []).validate()
    with pytest.raises(ConfigError, match=r"expected 2 weights, got shape"):
        Recipe("r", [("avg-pool", 1)], [("mlp", 1)],
               weights=[1.0]).validate()
    with pytest.raises(ConfigError, match="train_on"):
        Recipe("r", [("avg-pool", 1)], [], train_on="test").validate()


def test_load_recipe_uses_stem_as_name(tmp_path):
    p = tmp_path / "mix.preset"
    p.write_text("video = avg-pool\naudio = mlp\n")
    r = load_recipe(p)
    assert r.name == "mix"
    with pytest.raises(ConfigError):
        load_recipe(tmp_path / "gone.preset")


def test_packaged_presets_load_and_validate():
    for name in PRESET_NAMES:
        r = packaged_recipe(name)
        assert r.name == name
        r.validate()
    with pytest.raises(ConfigError):
        packaged_recipe("submission8")


def test_packaged_preset_structure():
    r1 = packaged_recipe("submission1")
    assert r1.video == [("avg-pool", 1)] and r1.audio == [("mlp", 1)]
    assert r1.weights == [0.65, 0.35]

    r3 = packaged_recipe("submission3")
    assert r3.video == [("avg-pool", 2), ("weighted-avg-pool", 2)]
    assert r3.audio == [("forest", 1), ("mlp", 1)]
    assert r3.weights is None
    assert sum(m for _, m in r3.video + r3.audio) == 6

    r6 = packaged_recipe("submission6")
    assert sum(m for _, m in r6.video + r6.audio) == 52

    r7 = packaged_recipe("submission7")
    assert r7.train_on == "train+val"


def recipe_dataset(seed=0, test_labels=True):
    cfg = SynthConfig(train_per_class=4, val_per_class=2, test_per_class=2,
                      n_classes=3, d_feature=5, d_audio=6, frames_min=2,
                      frames_max=4, margin=5.0, noise=0.2)
    ds = generate_synthetic(cfg, seed)
    return ds


def fast_config():
    return TrainConfig(epochs=2, n=3, hidden=8, n_trees=3, lstm_hidden=8)


def test_run_recipe_members_and_seeds():
    ds = recipe_dataset()
    recipe = parse_recipe("video = avg-pool*2\naudio = forest*1 mlp*1\n")
    result = run_recipe(recipe, ds, fast_config(), seed=10)
    assert [m["seed"] for m in result.members] == [10, 11, 12, 13]
    assert [m["modality"] for m in result.members] == \
        ["video", "video", "audio", "audio"]
    assert [m["kind"] for m in result.members] == \
        ["avg-pool", "avg-pool", "forest", "mlp"]
    assert result.table.ids == [c.id for c in ds.clips]
    assert result.report is not None


def test_run_recipe_deterministic_and_jobs_invariant():
    ds = recipe_dataset(seed=1)
    recipe = parse_recipe("video = avg-pool\naudio = mlp\n"
                          "weights = 0.65 0.35\n")
    a = run_recipe(recipe, ds, fast_config(), seed=0, jobs=1)
    b = run_recipe(recipe, ds, fast_config(), seed=0, jobs=3)
    assert np.array_equal(a.table.probs, b.table.probs)
    c = run_recipe(recipe, ds, fast_config(), seed=1)
    assert not np.array_equal(a.table.probs, c.table.probs)


def test_run_recipe_single_modality():
    ds = recipe_dataset(seed=2)
    recipe = parse_recipe("video = score-mean\n")
    result = run_recipe(recipe, ds, fast_config(), seed=0)
    assert len(result.members) == 1
    assert result.report is not None
    assert np.all(result.table.probs >= 0)


def test_run_recipe_train_plus_val_reports_on_test():
    ds = recipe_dataset(seed=3)
    recipe = parse_recipe("video = avg-pool\ntrain_on = train+val\n")
    result = run_recipe(recipe, ds, fast_config(), seed=0)
    # test split carries labels here, so the report covers it
    assert result.report is not None
    assert result.report.n == len(ds.split("test"))
    again = run_recipe(recipe, ds, fast_config(), seed=0, jobs=2)
    assert np.array_equal(again.table.probs, result.table.probs)


def test_run_recipe_train_plus_val_beats_more_data_signal():
    # with val merged into train, a val-trained clip appears in the table too
    ds = recipe_dataset(seed=4)
    recipe = parse_recipe("video = avg-pool\ntrain_on = train+val\n")
    result = run_recipe(recipe, ds, fast_config(), seed=0)
    assert set(result.table.ids) == {c.id for c in ds.clips}


def _members(text):
    recipe = parse_recipe(text)
    return [{"modality": modality, "kind": kind}
            for modality, groups in (("video", recipe.video),
                                     ("audio", recipe.audio))
            for kind, mult in groups for _ in range(mult)]


def test_units_split_trainable_groups_into_contiguous_stacks():
    members = _members("video = avg-pool*5 weighted-avg-pool lstm*3 "
                       "score-mean*2 avg-pool*2\n"
                       "audio = forest*2 mlp*3\n")
    # avg-pool 0-4 and 11-12, weighted-avg-pool 5, lstm 6-8, score-mean
    # 9-10, forest 13-14, mlp 15-17: six groups, each one unit while there
    # are at least as many groups as jobs; every kind follows the same rule
    whole = [[0, 1, 2, 3, 4, 11, 12], [5], [6, 7, 8], [9, 10], [13, 14],
             [15, 16, 17]]
    for jobs in (1, 2, 3):
        assert _units(members, jobs) == whole
    # a lone group splits into contiguous halves, the first the larger
    assert _units(_members("video = lstm*3\n"), 2) == [[0, 1], [2]]
    assert _units(members[:2], 8) == [[0], [1]]


def test_units_split_the_largest_group_while_fewer_than_jobs():
    members = _members("video = avg-pool*4\naudio = mlp*2\n")
    assert _units(members, 2) == [[0, 1, 2, 3], [4, 5]]
    assert _units(members, 3) == [[0, 1], [2, 3], [4, 5]]
    # of equal units the first splits, in place
    assert _units(members, 4) == [[0], [1], [2, 3], [4, 5]]
    # submission6: 50 avg-pool members and 2 mlp members, two units at 2
    s6 = _members("video = avg-pool*50\naudio = mlp*2\n")
    assert _units(s6, 2) == [list(range(50)), [50, 51]]
    # no unit splits below one member
    assert _units(members, 8) == [[0], [1], [2], [3], [4], [5]]


def test_stacks_split_for_no_more_workers_than_cores(monkeypatch):
    # submission4 has two kinds, so at jobs=3 _units would split a stack for
    # a third worker that parallel_map never starts on two cores
    ds = recipe_dataset(seed=4)
    recipe = packaged_recipe("submission4")
    serial = run_recipe(recipe, ds, fast_config(), seed=3, jobs=1)
    for module in (parallel, recipes):
        monkeypatch.setattr(module, "_cores", lambda: 2)
    mapped = []
    real_map = recipes.parallel_map

    def counting_map(fn, items, jobs=1):
        mapped.append(len(items))
        return real_map(fn, items, jobs=jobs)

    monkeypatch.setattr(recipes, "parallel_map", counting_map)
    capped = run_recipe(recipe, ds, fast_config(), seed=3, jobs=3)
    assert mapped == [2]
    assert np.array_equal(capped.table.probs, serial.table.probs)


def test_run_recipe_stacks_are_jobs_invariant_and_match_members_alone():
    ds = recipe_dataset(seed=6)
    cfg = fast_config()
    recipe = parse_recipe("video = avg-pool*5 weighted-avg-pool*2 lstm*2 "
                          "score-mean*2 avg-pool*2\n"
                          "audio = forest*2 mlp*3\n")
    results = [run_recipe(recipe, ds, cfg, seed=20, jobs=jobs)
               for jobs in (1, 2, 3)]
    for r in results[1:]:
        assert np.array_equal(r.table.probs, results[0].table.probs)
        assert r.members == results[0].members
    # reference: every member trained alone and scored with predict_batch
    ids = [c.id for c in ds.clips]
    tables = {"video": [], "audio": []}
    for m in results[0].members:
        member_cfg = TrainConfig(**vars(cfg))
        setattr(member_cfg, "head" if m["modality"] == "video" else "model",
                m["kind"])
        if m["modality"] == "video":
            model, _ = train_video_model(ds, member_cfg, m["seed"])
        else:
            model, _ = train_audio_model(ds, member_cfg, m["seed"])
        tables[m["modality"]].append(
            ScoreTable(ids, model.predict_batch(ds.clips)))
    fused = fuse_tables([fuse_tables(tables["video"]),
                         fuse_tables(tables["audio"])])
    assert np.array_equal(results[0].table.probs, fused.probs)
