"""Command-line front end: reproducible runs over manifests and score tables.

One binary, twelve subcommands (synth, validate, train-video, train-audio,
predict, fuse, learn-fusion, ensemble, evaluate, cross-validate, repeat,
recipe). Every file output is written atomically and accompanied by a
``<out>.manifest.json`` run manifest recording the command, config snapshot,
seeds, paths, version, and duration, which is enough to reproduce the output
bit for bit. All randomness flows from ``--seed``. ``--jobs N`` (N >= 1)
trains independent units (stacks of ensemble members of one kind, folds,
seeds) in up to N forked worker processes, capped at the core count,
and never changes results.

Exit codes: 0 success, 2 usage error, 1 runtime error. ``SMALLCLIP_LOG``
(error, info, debug) controls logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field

# One BLAS thread per process, set before the first numpy import: the
# products here are tiny ((16, 128) @ (128, 512) per LSTM step), so a second
# BLAS thread mostly spin-waits and burns CPU for no wall time, and `--jobs`
# worker processes are the parallelism. A value the user set still wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

from . import __version__
from .audio import train_audio_model
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, load_config
from .data import (atomic_write_text, class_names, load_dataset,
                   load_distribution, packaged_distribution_path,
                   validate_dataset, write_dataset)
from .errors import ConfigError, ContractError, ParseError, SmallclipError
from .evaluate import (cross_validate, evaluate, predictions_from_table,
                       repeated_runs)
from .fusion import fuse_tables, grid_divisions, learn_fusion_weights
from .recipes import (load_recipe, packaged_recipe, run_recipe, score_members,
                      train_member)
from .scores import ScoreTable, load_score_table, write_score_table
from .synth import SynthConfig, generate_synthetic
from .video import train_video_model

log = logging.getLogger("smallclip")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


def _setup_logging():
    wanted = os.environ.get("SMALLCLIP_LOG", "error").lower()
    level = _LOG_LEVELS.get(wanted, logging.ERROR)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


# -- run manifests -------------------------------------------------------------

@dataclass
class RunManifest:
    command: str
    argv: list
    version: str
    seeds: list
    config: dict | None
    inputs: list
    outputs: list
    duration_s: float
    extra: dict = field(default_factory=dict)


def write_run_manifest(out_path, manifest: RunManifest):
    path = str(out_path) + ".manifest.json"
    atomic_write_text(path, json.dumps(asdict(manifest), indent=2,
                                       sort_keys=True) + "\n")
    log.info("wrote %s", path)


class _Run:
    """Collects manifest ingredients while a subcommand executes."""

    def __init__(self, args):
        self.command = args.command
        self.argv = list(sys.argv[1:]) if sys.argv[0] else []
        self.started = time.monotonic()
        self.seeds: list = []
        self.config: dict | None = None
        self.inputs: list = []
        self.outputs: list = []
        self.extra: dict = {}

    def emit(self, out_path):
        self.outputs.append(str(out_path))
        write_run_manifest(out_path, RunManifest(
            self.command, self.argv, __version__, self.seeds, self.config,
            self.inputs, list(self.outputs),
            time.monotonic() - self.started, self.extra))


# -- shared helpers ------------------------------------------------------------

def _load_manifest(run: _Run, path):
    run.inputs.append(str(path))
    if not os.path.exists(path):
        raise ParseError(f"manifest not found: {path}")
    return load_dataset(path)


def _load_config(run: _Run, args) -> TrainConfig:
    cfg = TrainConfig()
    if getattr(args, "config", None):
        run.inputs.append(args.config)
        if not os.path.exists(args.config):
            raise ParseError(f"config not found: {args.config}")
        cfg = load_config(args.config)
    if getattr(args, "pooling", None):
        cfg.head = args.pooling
    if getattr(args, "model", None) and args.command in ("train-audio",
                                                         "cross-validate",
                                                         "repeat", "ensemble"):
        cfg.model = args.model
    cfg.validate()
    run.config = dict(vars(cfg))
    return cfg


def _load_scores(run: _Run, paths) -> list:
    tables = []
    for p in paths:
        run.inputs.append(p)
        if not os.path.exists(p):
            raise ParseError(f"score table not found: {p}")
        tables.append(load_score_table(p))
    return tables


def _resolve_dist(run: _Run, path):
    if path is None:
        return None
    if os.path.exists(path):
        run.inputs.append(str(path))
        return load_distribution(path)
    packaged = packaged_distribution_path(os.path.basename(path))
    if os.path.exists(packaged):
        run.inputs.append(str(packaged))
        return load_distribution(packaged)
    raise ParseError(f"distribution file not found: {path}")


def _labels_of(ds) -> dict:
    return {c.id: c.label for c in ds.clips if c.label is not None}


def _print(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- subcommand handlers -------------------------------------------------------

def _cmd_synth(args):
    run = _Run(args)
    cfg = SynthConfig(n_classes=args.classes,
                      train_per_class=args.clips_per_class,
                      val_per_class=args.val_per_class,
                      test_per_class=args.test_per_class,
                      frames_min=args.frames_min, frames_max=args.frames_max,
                      d_feature=args.d_feature, d_audio=args.d_audio,
                      with_audio=not args.no_audio, margin=args.margin,
                      noise=args.noise, av_noise=args.av_noise,
                      centroid_seed=args.centroid_seed)
    run.seeds = [args.seed]
    run.config = dict(vars(cfg))
    ds = generate_synthetic(cfg, seed=args.seed)
    write_dataset(ds, args.out)
    run.emit(args.out)
    _print(f"wrote {len(ds.clips)} clips to {args.out}")
    return 0


def _cmd_validate(args):
    run = _Run(args)
    ds = _load_manifest(run, args.manifest)
    report = validate_dataset(ds)
    text = report.to_text()
    if args.out:
        atomic_write_text(args.out, text)
        run.emit(args.out)
    _print(text)
    return 0


def _cmd_train_video(args):
    run = _Run(args)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    run.seeds = [args.seed]
    model, history = train_video_model(ds, cfg, seed=args.seed)
    save_checkpoint(model, args.out)
    run.extra["final_epoch"] = history[-1]
    run.emit(args.out)
    val = history[-1]["val_accuracy"]
    _print(f"trained {cfg.head} head; "
           f"val accuracy: {'n/a' if val is None else f'{val:.4f}'}")
    return 0


def _cmd_train_audio(args):
    run = _Run(args)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    pretrain = _load_manifest(run, args.pretrain) if args.pretrain else None
    run.seeds = [args.seed]
    model, history = train_audio_model(ds, cfg, seed=args.seed,
                                       pretrain=pretrain)
    save_checkpoint(model, args.out)
    run.extra["log"] = {k: v for k, v in history.items()
                        if k in ("val_accuracy", "train_accuracy", "lr")}
    run.emit(args.out)
    val = history.get("val_accuracy")
    _print(f"trained audio {cfg.model}; "
           f"val accuracy: {'n/a' if val is None else f'{val:.4f}'}")
    return 0


def _cmd_predict(args):
    run = _Run(args)
    run.inputs.append(args.model)
    if not os.path.exists(args.model):
        raise ParseError(f"checkpoint not found: {args.model}")
    model = load_checkpoint(args.model)
    ds = _load_manifest(run, args.manifest)
    clips = ds.clips if args.split == "all" else ds.split(args.split)
    if not clips:
        raise ContractError(f"no clips in split {args.split!r}")
    table = ScoreTable([c.id for c in clips], model.predict_batch(clips))
    write_score_table(table, args.out)
    run.emit(args.out)
    _print(f"scored {len(clips)} clips to {args.out}")
    return 0


def _cmd_fuse(args):
    run = _Run(args)
    tables = _load_scores(run, args.scores)
    table = fuse_tables(tables, weights=args.weights)
    run.extra["weights"] = args.weights
    write_score_table(table, args.out)
    run.emit(args.out)
    _print(f"fused {len(tables)} tables over {len(table)} clips to {args.out}")
    return 0


def _cmd_learn_fusion(args):
    run = _Run(args)
    tables = _load_scores(run, args.scores)
    ds = _load_manifest(run, args.manifest)
    weights, acc = learn_fusion_weights(tables, _labels_of(ds),
                                        grid_step=args.grid_step)
    payload = {"weights": [float(w) for w in weights], "accuracy": acc,
               "grid_step": args.grid_step, "sources": list(args.scores)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        run.emit(args.out)
    _print("weights: " + " ".join(f"{w:g}" for w in weights)
           + f"\naccuracy: {acc:.4f}")
    return 0


def _cmd_ensemble(args):
    run = _Run(args)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    seeds = [args.seed + i for i in range(args.count)]
    run.seeds = seeds
    run.extra["modality"] = args.modality

    kind = cfg.head if args.modality == "video" else cfg.model
    members = [{"modality": args.modality, "kind": kind, "seed": seed}
               for seed in seeds]
    ids = [c.id for c in ds.clips]
    fused = fuse_tables([ScoreTable(ids, p) for p in score_members(
        ds, cfg, members, ds.clips, jobs=args.jobs)])
    write_score_table(fused, args.out)
    run.emit(args.out)
    _print(f"ensembled {args.count} members to {args.out}")
    return 0


def _cmd_evaluate(args):
    run = _Run(args)
    tables = _load_scores(run, [args.scores])
    ds = _load_manifest(run, args.manifest)
    dist = _resolve_dist(run, args.dist)
    pred, true = predictions_from_table(tables[0], ds, args.split)
    report = evaluate(pred, true, ds.n_classes, dist=dist)
    names = class_names(ds.n_classes)
    if args.out:
        text = (report.to_csv(names) if args.out.endswith(".csv")
                else report.to_text(names))
        atomic_write_text(args.out, text)
        run.emit(args.out)
    _print(report.to_text(names))
    return 0


def _cmd_cross_validate(args):
    run = _Run(args)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    run.seeds = [args.seed]

    def fit_predict(fold_ds, fold):
        model, _ = train_member(fold_ds, cfg, args.modality, args.seed + fold)
        return model.predict_batch(fold_ds.split("val")).argmax(axis=1)

    report = cross_validate(ds, args.folds, fit_predict, jobs=args.jobs)
    text = report.to_text()
    if args.out:
        lines = ["fold,accuracy,n"]
        lines += [f"{i},{repr(a)},{n}" for i, (a, n) in
                  enumerate(zip(report.fold_accuracies, report.fold_sizes))]
        lines.append(f"pooled,{repr(report.pooled)},{int(report.fold_sizes.sum())}")
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        run.emit(args.out)
    _print(text)
    return 0


def _cmd_repeat(args):
    run = _Run(args)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    run.seeds = list(args.seeds)

    def one(seed):
        _, history = train_member(ds, cfg, args.modality, seed)
        acc = (history[-1]["val_accuracy"] if args.modality == "video"
               else history.get("val_accuracy"))
        if acc is None:
            raise ContractError("no labeled val clips to score")
        return acc

    stats = repeated_runs(one, args.seeds, jobs=args.jobs)
    text = stats.to_text()
    if args.out:
        lines = ["seed,accuracy"]
        lines += [f"{s},{repr(v)}" for s, v in zip(stats.seeds, stats.values)]
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        run.emit(args.out)
    _print(text)
    return 0


def _cmd_recipe(args):
    run = _Run(args)
    if bool(args.preset) == bool(args.recipe):
        raise ConfigError("give exactly one of --preset or --recipe")
    recipe = (packaged_recipe(args.preset) if args.preset
              else load_recipe(args.recipe))
    if args.recipe:
        run.inputs.append(args.recipe)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    pretrain = _load_manifest(run, args.pretrain) if args.pretrain else None
    run.seeds = [args.seed]
    result = run_recipe(recipe, ds, cfg, seed=args.seed, pretrain=pretrain,
                        jobs=args.jobs)
    run.extra = {"recipe": recipe.name, "members": result.members,
                 "fusion": result.fusion, "weights": result.weights}
    write_score_table(result.table, args.out)
    run.emit(args.out)
    lines = [f"recipe {recipe.name}: {len(result.members)} members fused "
             f"({result.fusion})"]
    if result.report is not None:
        lines.append(f"held-out accuracy: {result.report.overall:.4f}")
    _print("\n".join(lines))
    return 0


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallclip",
        description="Train, fuse, and evaluate small audiovisual clip "
                    "classifiers from feature manifests.")
    parser.add_argument("--version", action="version",
                        version=f"smallclip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser

    p = add("synth", help="generate a synthetic labeled manifest")
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--clips-per-class", type=int, default=20,
                   help="train clips per class")
    p.add_argument("--val-per-class", type=int, default=10)
    p.add_argument("--test-per-class", type=int, default=0)
    p.add_argument("--frames-min", type=int, default=6)
    p.add_argument("--frames-max", type=int, default=18)
    p.add_argument("--d-feature", type=int, default=32)
    p.add_argument("--d-audio", type=int, default=64)
    p.add_argument("--no-audio", action="store_true")
    p.add_argument("--margin", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--av-noise", type=float, default=0.1)
    p.add_argument("--centroid-seed", type=int, default=None,
                   help="separate seed for class geometry (shared across sets)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("validate", help="check a manifest and print split statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)

    p = add("train-video", help="train a temporal pooling head")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--pooling", default=None,
                   choices=("score-mean", "avg-pool", "weighted-avg-pool",
                            "lstm"),
                   help="override the config's head")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")

    p = add("train-audio", help="train an audio classifier")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--model", default=None, choices=("mlp", "forest"),
                   help="override the config's model kind")
    p.add_argument("--pretrain", default=None,
                   help="manifest of a pretraining corpus (mlp only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")

    p = add("predict", help="score clips with a trained checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="all",
                   choices=("all", "train", "val", "test"))
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; scoring is one batched "
                        "call")
    p.add_argument("--out", required=True, help="score CSV path")

    p = add("fuse", help="combine score tables (mean or fixed weights)")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("learn-fusion", help="grid-search fusion weights on labeled clips")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--manifest", required=True, help="labels source")
    p.add_argument("--grid-step", type=float, default=None,
                   help="default 0.05 for two sources, 0.1 beyond")
    p.add_argument("--out", default=None, help="weights JSON path")

    p = add("ensemble", help="train seed-ensemble members and fuse their scores")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--modality", default="video", choices=("video", "audio"))
    p.add_argument("--pooling", default=None,
                   choices=("score-mean", "avg-pool", "weighted-avg-pool",
                            "lstm"))
    p.add_argument("--model", default=None, choices=("mlp", "forest"))
    p.add_argument("--count", type=int, default=4, help="ensemble size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)

    p = add("evaluate", help="score a table against manifest labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default=None,
                   choices=("train", "val", "test"),
                   help="default: all labeled clips the table covers")
    p.add_argument("--dist", default=None,
                   help="class distribution CSV for weighted accuracy "
                        "(falls back to the packaged file by name)")
    p.add_argument("--out", default=None,
                   help="report path; .csv extension selects CSV form")

    p = add("cross-validate", help="stratified k-fold CV over train+val")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--modality", default="video", choices=("video", "audio"))
    p.add_argument("--pooling", default=None,
                   choices=("score-mean", "avg-pool", "weighted-avg-pool",
                            "lstm"))
    p.add_argument("--model", default=None, choices=("mlp", "forest"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="per-fold CSV path")

    p = add("repeat", help="train with several seeds and report mean/std")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--modality", default="video", choices=("video", "audio"))
    p.add_argument("--pooling", default=None,
                   choices=("score-mean", "avg-pool", "weighted-avg-pool",
                            "lstm"))
    p.add_argument("--model", default=None, choices=("mlp", "forest"))
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="per-seed CSV path")

    p = add("recipe", help="run a named multi-member training and fusion recipe")
    p.add_argument("--preset", default=None,
                   help="one of submission1..submission7")
    p.add_argument("--recipe", default=None, help="recipe file path")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--pretrain", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="fused score CSV path")

    return parser


_HANDLERS = {
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "train-video": _cmd_train_video,
    "train-audio": _cmd_train_audio,
    "predict": _cmd_predict,
    "fuse": _cmd_fuse,
    "learn-fusion": _cmd_learn_fusion,
    "ensemble": _cmd_ensemble,
    "evaluate": _cmd_evaluate,
    "cross-validate": _cmd_cross_validate,
    "repeat": _cmd_repeat,
    "recipe": _cmd_recipe,
}


def _check_flags(args):
    """ConfigError naming the first flag whose value is out of range."""
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.command == "ensemble" and args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.command == "repeat" and len(args.seeds) < 2:
        raise ConfigError(f"--seeds needs at least two seeds, got "
                          f"{len(args.seeds)}")
    if args.command == "learn-fusion" and args.grid_step is not None:
        grid_divisions(args.grid_step, "--grid-step", ConfigError)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        _check_flags(args)
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        log.debug("usage error", exc_info=True)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SmallclipError as exc:
        log.debug("runtime error", exc_info=True)
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
