"""Named training-and-fusion recipes (the seven shipped presets).

A recipe lists the model members per modality with multiplicities, e.g.
``video = avg-pool*2 weighted-avg-pool*2`` plus ``audio = forest*1 mlp*1``.
Members of one modality are trained with derived seeds (base seed + global
member index) and mean-ensembled into one modality table; the modality tables
are then fused by the fixed weights of a ``weights`` line, or else by mean.
``train_on = train+val`` merges the val split into training (submission7).

Preset files are key=value text; the seven packaged ones are named
``submission1`` .. ``submission7``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

from .audio import train_audio_models
from .config import AUDIO_MODELS, VIDEO_HEADS, TrainConfig, key_values
from .data import Dataset, quoted, read_text
from .errors import ConfigError
from .evaluate import EvalReport, evaluate, predictions_from_table
from .fusion import check_weights, fuse, fuse_tables
from .parallel import _cores, parallel_map
from .scores import ScoreTable
# train_video_model is unused here, but perfbench's tracer test checks that
# the tracer rewraps this module's binding of it
from .video import (predict_stacked, train_video_model,  # noqa: F401
                    train_video_models)

PRESET_NAMES = tuple(f"submission{i}" for i in range(1, 8))


@dataclass
class Recipe:
    name: str
    video: list  # [(head kind, multiplicity), ...]
    audio: list  # [(model kind, multiplicity), ...]
    weights: list | None = None     # one weight per modality; None: mean
    train_on: str = "train"         # "train" | "train+val"

    def validate(self):
        if not self.video and not self.audio:
            raise ConfigError("recipe has no members")
        for members, kinds, what in ((self.video, VIDEO_HEADS, "video head"),
                                     (self.audio, AUDIO_MODELS, "audio model")):
            for kind, mult in members:
                if kind not in kinds:
                    raise ConfigError(f"unknown {what} {quoted(kind)}")
                if mult < 1:
                    raise ConfigError(f"multiplicity must be >= 1, got {mult}")
        if self.weights is not None:
            check_weights(self.weights, bool(self.video) + bool(self.audio),
                          ConfigError)
        if self.train_on not in ("train", "train+val"):
            raise ConfigError(f"train_on must be 'train' or 'train+val', "
                              f"got {quoted(self.train_on)}")
        return self


def _parse_members(value, lineno):
    members = []
    for token in value.replace(",", " ").split():
        kind, star, mult = token.partition("*")
        try:
            members.append((kind, int(mult) if star else 1))
        except ValueError:
            raise ConfigError(f"line {lineno}: bad member token "
                              f"{quoted(token)}, expected kind*count") from None
    return members


def parse_recipe(text: str, name: str = "recipe") -> Recipe:
    recipe = Recipe(name=name, video=[], audio=[])
    for lineno, key, value in key_values(text):
        if key == "name":
            recipe.name = value
        elif key == "video":
            recipe.video = _parse_members(value, lineno)
        elif key == "audio":
            recipe.audio = _parse_members(value, lineno)
        elif key == "weights":
            try:
                recipe.weights = [float(v) for v in
                                  value.replace(",", " ").split()]
            except ValueError:
                raise ConfigError(f"line {lineno}: bad weights "
                                  f"{quoted(value)}") from None
        elif key == "train_on":
            recipe.train_on = value
        else:
            raise ConfigError(f"line {lineno}: unknown recipe key {quoted(key)}")
    return recipe.validate()


def load_recipe(path) -> Recipe:
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_recipe(read_text(path, "recipe", ConfigError), name=stem)


def packaged_recipe(name: str) -> Recipe:
    """Load one of the shipped presets by name (``submission1``..``7``)."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, expected one of "
                          f"{', '.join(PRESET_NAMES)}")
    ref = resources.files("smallclip").joinpath(f"presets/{name}.preset")
    return parse_recipe(ref.read_text(encoding="utf-8"), name=name)


@dataclass
class RecipeResult:
    table: ScoreTable
    report: EvalReport | None
    members: list = field(default_factory=list)  # dicts: modality, kind, seed


def _units(members, jobs: int):
    """Lists of member indices, each trained as one unit.

    A unit is one ``video.train_video_models`` or
    ``audio.train_audio_models`` call. Each (modality, kind) is one unit of
    its members, in order of its first member. Only while there are fewer
    units than ``jobs`` is the largest unit (the first of equals) split into
    two contiguous halves, in place, so that every worker gets a unit;
    splitting a stack repeats its per-step work in each half.
    """
    groups = {}  # in order of first member
    for i, member in enumerate(members):
        groups.setdefault((member["modality"], member["kind"]), []).append(i)
    units = list(groups.values())
    while 0 < len(units) < jobs:
        largest = max(range(len(units)), key=lambda u: len(units[u]))
        unit = units[largest]
        if len(unit) < 2:
            break
        half = (len(unit) + 1) // 2
        units[largest:largest + 1] = [unit[:half], unit[half:]]
    return units


def score_members(train_ds: Dataset, config: TrainConfig, members, clips,
                  jobs: int = 1, pretrain: Dataset | None = None):
    """Train ``members`` on ``train_ds`` and score ``clips`` with each.

    ``members`` are dicts with ``modality``, ``kind`` and ``seed``. Returns
    one (N, C) probability array per member, in member order. Members are
    independent, so how ``jobs``, capped at the cores this process may run
    on, splits them into units (``_units``) only changes wall-clock time: a
    unit trains in one call, and a video unit scores every clip in one
    batched pass (``video.predict_stacked``). Only the audio mlp takes the
    ``pretrain`` corpus.
    """
    def run_unit(unit):
        first = members[unit[0]]
        cfg = TrainConfig(**vars(config))
        seeds = [members[i]["seed"] for i in unit]
        if first["modality"] == "video":
            cfg.head = first["kind"]
            trained = train_video_models(train_ds, cfg, seeds)
            return predict_stacked([model for model, _ in trained], clips)
        cfg.model = first["kind"]
        trained = train_audio_models(
            train_ds, cfg, seeds,
            pretrain=pretrain if first["kind"] == "mlp" else None)
        return [model.predict_batch(clips) for model, _ in trained]

    # parallel_map starts at most one worker per core, so a stack split
    # for more workers than that would only repeat its per-step work
    units = _units(members, min(jobs, _cores()))
    probs = [None] * len(members)
    for unit, out in zip(units, parallel_map(run_unit, units, jobs=jobs)):
        for i, p in zip(unit, out):
            probs[i] = p
    return probs


def _merge_val_into_train(ds: Dataset) -> Dataset:
    clips = [c.with_split("train") if c.split == "val" else c
             for c in ds.clips]
    return Dataset(clips, ds.dims, ds.meta)


def run_recipe(recipe: Recipe, ds: Dataset, config: TrainConfig, seed: int,
               pretrain: Dataset | None = None, jobs: int = 1) -> RecipeResult:
    """Train every member, ensemble within modality, fuse across modalities.

    Member i (in recipe order, video first) trains with seed ``seed + i``.
    The members of each kind train as one unit (``score_members``), split
    only when there are fewer kinds than ``jobs``. Members are independent,
    so ``jobs`` only changes wall-clock time. The returned table scores
    every clip in the dataset; the report holds val-split accuracy, or
    test-split accuracy when training consumed the val split, or None when
    that split has no labels.
    """
    recipe.validate()
    config.validate()
    train_ds = _merge_val_into_train(ds) if recipe.train_on == "train+val" else ds
    all_ids = [c.id for c in ds.clips]

    members = []
    for modality, groups in (("video", recipe.video), ("audio", recipe.audio)):
        for kind, mult in groups:
            for _ in range(mult):
                members.append({"modality": modality, "kind": kind,
                                "seed": seed + len(members)})

    probs = score_members(train_ds, config, members, ds.clips, jobs=jobs,
                          pretrain=pretrain)
    modality_tables = []
    for modality in ("video", "audio"):
        group = [p for p, m in zip(probs, members) if m["modality"] == modality]
        if group:
            modality_tables.append(ScoreTable(all_ids, fuse(group)))

    fused = fuse_tables(modality_tables, weights=recipe.weights)

    report = None
    eval_split = "test" if recipe.train_on == "train+val" else "val"
    if any(c.label is not None for c in ds.split(eval_split)):
        pred, true = predictions_from_table(fused, ds, eval_split)
        report = evaluate(pred, true, ds.n_classes)
    return RecipeResult(fused, report, members)
