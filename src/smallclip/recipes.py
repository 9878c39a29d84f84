"""Named training-and-fusion recipes (the seven shipped presets).

A recipe lists the model members per modality with multiplicities, e.g.
``video = avg-pool*2 weighted-avg-pool*2`` plus ``audio = forest*1 mlp*1``.
Members of one modality are trained with derived seeds (base seed + global
member index) and mean-ensembled into one modality table; the modality tables
are then fused by mean or by fixed weights. ``train_on = train+val`` merges
the val split into training (the last shipped preset does this).

Preset files are key=value text; the seven packaged ones are named
``submission1`` .. ``submission7``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

from .audio import train_audio_model
from .config import AUDIO_MODELS, VIDEO_HEADS, TrainConfig
from .data import Dataset, build_dataset, read_text
from .errors import ConfigError
from .evaluate import EvalReport, evaluate, predictions_from_table
from .fusion import ensemble_tables, fuse_tables
from .parallel import parallel_map
from .scores import ScoreTable
from .video import selected_frames, train_video_model

PRESET_NAMES = tuple(f"submission{i}" for i in range(1, 8))


@dataclass
class Recipe:
    name: str
    video: list  # [(head kind, multiplicity), ...]
    audio: list  # [(model kind, multiplicity), ...]
    fusion: str = "mean"            # "mean" | "weighted"
    weights: list | None = None     # one weight per modality, fusion=weighted
    train_on: str = "train"         # "train" | "train+val"

    def validate(self):
        if not self.video and not self.audio:
            raise ConfigError("recipe has no members")
        for kind, mult in self.video:
            if kind not in VIDEO_HEADS:
                raise ConfigError(f"unknown video head {kind!r}")
            if mult < 1:
                raise ConfigError(f"multiplicity must be >= 1, got {mult}")
        for kind, mult in self.audio:
            if kind not in AUDIO_MODELS:
                raise ConfigError(f"unknown audio model {kind!r}")
            if mult < 1:
                raise ConfigError(f"multiplicity must be >= 1, got {mult}")
        if self.fusion not in ("mean", "weighted"):
            raise ConfigError(f"fusion must be 'mean' or 'weighted', "
                              f"got {self.fusion!r}")
        n_modalities = int(bool(self.video)) + int(bool(self.audio))
        if self.fusion == "weighted":
            if self.weights is None:
                raise ConfigError("weighted fusion needs a weights line")
            if len(self.weights) != n_modalities:
                raise ConfigError(f"{len(self.weights)} weights for "
                                  f"{n_modalities} modalities")
        if self.train_on not in ("train", "train+val"):
            raise ConfigError(f"train_on must be 'train' or 'train+val', "
                              f"got {self.train_on!r}")
        return self

    @property
    def n_members(self) -> int:
        return (sum(m for _, m in self.video)
                + sum(m for _, m in self.audio))


def _parse_members(value, lineno):
    members = []
    for token in value.replace(",", " ").split():
        kind, star, mult = token.partition("*")
        try:
            members.append((kind, int(mult) if star else 1))
        except ValueError:
            raise ConfigError(f"line {lineno}: bad member token {token!r}, "
                              f"expected kind*count") from None
    return members


def parse_recipe(text: str, name: str = "recipe") -> Recipe:
    recipe = Recipe(name=name, video=[], audio=[])
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "name":
            recipe.name = value
        elif key == "video":
            recipe.video = _parse_members(value, lineno)
        elif key == "audio":
            recipe.audio = _parse_members(value, lineno)
        elif key == "fusion":
            recipe.fusion = value
        elif key == "weights":
            try:
                recipe.weights = [float(v) for v in
                                  value.replace(",", " ").split()]
            except ValueError:
                raise ConfigError(f"line {lineno}: bad weights "
                                  f"{value!r}") from None
        elif key == "train_on":
            recipe.train_on = value
        else:
            raise ConfigError(f"line {lineno}: unknown recipe key {key!r}")
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
    fusion: str = "mean"
    weights: list | None = None


def train_member(ds: Dataset, cfg: TrainConfig, modality: str, seed: int,
                 pretrain: Dataset | None = None):
    """Train one member on ``ds``; returns ``(model, history)``.

    ``modality`` "video" trains the head ``cfg.head`` (history: a list of
    per-epoch dicts); "audio" trains the model ``cfg.model`` (history: one
    dict). Only the audio mlp takes a ``pretrain`` corpus.
    """
    if modality == "video":
        return train_video_model(ds, cfg, seed=seed)
    return train_audio_model(ds, cfg, seed=seed, pretrain=pretrain)


def _merge_val_into_train(ds: Dataset) -> Dataset:
    clips = [c.with_split("train") if c.split == "val" else c
             for c in ds.clips]
    return build_dataset(clips, meta=dict(ds.meta or {}))


def run_recipe(recipe: Recipe, ds: Dataset, config: TrainConfig, seed: int,
               pretrain: Dataset | None = None, jobs: int = 1) -> RecipeResult:
    """Train every member, ensemble within modality, fuse across modalities.

    Member i (in recipe order, video first) trains with seed ``seed + i``;
    members are independent, so ``jobs`` only changes wall-clock time.
    Frames are selected for every clip before the members start, so worker
    processes share one selection per clip. The returned table scores every
    clip in the dataset; the report holds val-split accuracy, or test-split
    accuracy when training consumed the val split, or None when the
    relevant split has no labels.
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

    def score_member(member) -> ScoreTable:
        cfg = TrainConfig(**vars(config))
        setattr(cfg, "head" if member["modality"] == "video" else "model",
                member["kind"])
        model, _ = train_member(
            train_ds, cfg, member["modality"], member["seed"],
            pretrain=pretrain if member["kind"] == "mlp" else None)
        return ScoreTable(all_ids, model.predict_batch(ds.clips))

    if any(kind != "score-mean" for kind, _ in recipe.video):
        for clip in ds.clips:  # train_ds's clips share this memo
            selected_frames(clip, config.n)
    tables = parallel_map(score_member, members, jobs=jobs)
    modality_tables = []
    for modality in ("video", "audio"):
        group = [t for t, m in zip(tables, members)
                 if m["modality"] == modality]
        if group:
            modality_tables.append(ensemble_tables(group))

    weights = recipe.weights if recipe.fusion == "weighted" else None
    fused = fuse_tables(modality_tables, weights=weights)

    report = None
    eval_split = "test" if recipe.train_on == "train+val" else "val"
    if any(c.label is not None for c in ds.split(eval_split)):
        pred, true = predictions_from_table(fused, ds, eval_split)
        report = evaluate(pred, true, ds.n_classes)
    return RecipeResult(fused, report, members, recipe.fusion,
                        list(weights) if weights is not None else None)
