"""Command-line front end: reproducible runs over manifests and score tables.

One binary, twelve subcommands (synth, validate, train-video, train-audio,
predict, fuse, learn-fusion, ensemble, evaluate, cross-validate, repeat,
recipe). Every file output is written atomically and accompanied by a
``<out>.manifest.json`` run manifest recording the command, config snapshot,
seeds, paths, version, and duration, which is enough to reproduce the output
bit for bit. All randomness flows from ``--seed``. ``--jobs N`` (N >= 1)
trains independent units (one stack per kind of member, whose seeds come
from ``recipe``, ``ensemble`` or ``repeat``, or cross-validation folds) in
up to N forked worker processes, capped at the CPUs this process may run
on, each with a fixed share of the units and its own pipe back; it never
changes results.

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
from dataclasses import fields

# One BLAS thread per process, set before the first numpy import: the
# products here are tiny ((16, 128) @ (128, 512) per LSTM step), so a second
# BLAS thread mostly spin-waits and burns CPU for no wall time, and `--jobs`
# worker processes are the parallelism. A value the user set still wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__
from .audio import train_audio_model
from .checkpoint import load_checkpoint, save_checkpoint
from .config import AUDIO_MODELS, VIDEO_HEADS, TrainConfig, load_config
from .data import (Dataset, atomic_write_text, class_names, load_dataset,
                   load_distribution, packaged_distribution_path,
                   validate_dataset, write_dataset)
from .errors import ConfigError, ContractError, ParseError, SmallclipError
from .evaluate import (RunStatistics, cross_validate, evaluate,
                       predictions_from_table)
from .fusion import (check_weights, fuse_tables, grid_divisions,
                     learn_fusion_weights)
from .recipes import load_recipe, packaged_recipe, run_recipe, score_members
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

class _Run:
    """Collects manifest ingredients while a subcommand executes.

    The seeds start as the run's ``--seed`` or ``--seeds``, if it has one.
    """

    def __init__(self, args):
        self.command = args.command
        self.argv = list(sys.argv[1:]) if sys.argv[0] else []
        self.started = time.monotonic()
        given = vars(args)
        self.seeds: list = ([given["seed"]] if "seed" in given
                            else list(given.get("seeds", [])))
        self.config: dict | None = None
        self.inputs: list = []
        self.outputs: list = []
        self.extra: dict = {}

    def emit(self, out_path):
        """Write ``<out_path>.manifest.json`` (sorted keys) for this run."""
        self.outputs.append(str(out_path))
        manifest = {"command": self.command, "argv": self.argv,
                    "version": __version__, "seeds": self.seeds,
                    "config": self.config, "inputs": self.inputs,
                    "outputs": self.outputs,
                    "duration_s": time.monotonic() - self.started,
                    "extra": self.extra}
        path = str(out_path) + ".manifest.json"
        atomic_write_text(path, json.dumps(manifest, indent=2,
                                           sort_keys=True) + "\n")
        log.info("wrote %s", path)

    def write(self, path, text):
        """Write ``text`` to ``path`` and its manifest; no path, no write."""
        if path:
            atomic_write_text(path, text)
            self.emit(path)


# -- shared helpers ------------------------------------------------------------

def _load_manifest(run: _Run, path):
    run.inputs.append(str(path))
    return load_dataset(path)


def _load_config(run: _Run, args) -> TrainConfig:
    cfg = TrainConfig()
    if getattr(args, "config", None):
        run.inputs.append(args.config)
        cfg = load_config(args.config)
    if getattr(args, "pooling", None):
        cfg.head = args.pooling
    if getattr(args, "model", None):
        cfg.model = args.model
    cfg.validate()
    run.config = dict(vars(cfg))
    return cfg


def _load_scores(run: _Run, paths) -> list:
    run.inputs.extend(paths)
    return [load_score_table(p) for p in paths]


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


def _members(args, cfg, seeds) -> list:
    """One member of the configured ``--modality`` kind per seed."""
    kind = cfg.head if args.modality == "video" else cfg.model
    return [{"modality": args.modality, "kind": kind, "seed": seed}
            for seed in seeds]


def _scoreable(args, clips) -> list:
    """The labeled ``clips``, with audio for the audio ``--modality``."""
    return [c for c in clips if c.label is not None
            and (args.modality == "video" or c.audio is not None)]


def _print(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- subcommand handlers -------------------------------------------------------
# Each takes the parsed flags and the run that ``main`` started.

def _cmd_synth(args, run):
    names = {f.name for f in fields(SynthConfig)}
    cfg = SynthConfig(**{k: v for k, v in vars(args).items() if k in names})
    run.config = dict(vars(cfg))
    ds = generate_synthetic(cfg, seed=args.seed)
    write_dataset(ds, args.out)
    run.emit(args.out)
    _print(f"wrote {len(ds.clips)} clips to {args.out}")


def _cmd_validate(args, run):
    text = validate_dataset(_load_manifest(run, args.manifest)).to_text()
    run.write(args.out, text)
    _print(text)


def _cmd_train_video(args, run):
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    model, history = train_video_model(ds, cfg, seed=args.seed)
    save_checkpoint(model, args.out)
    run.extra["final_epoch"] = history[-1]
    run.emit(args.out)
    val = history[-1]["val_accuracy"]
    _print(f"trained {cfg.head} head; "
           f"val accuracy: {'n/a' if val is None else f'{val:.4f}'}")


def _cmd_train_audio(args, run):
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    pretrain = _load_manifest(run, args.pretrain) if args.pretrain else None
    model, history = train_audio_model(ds, cfg, seed=args.seed,
                                       pretrain=pretrain)
    save_checkpoint(model, args.out)
    run.extra["log"] = {k: v for k, v in history.items()
                        if k in ("val_accuracy", "train_accuracy", "lr")}
    run.emit(args.out)
    val = history.get("val_accuracy")
    _print(f"trained audio {cfg.model}; "
           f"val accuracy: {'n/a' if val is None else f'{val:.4f}'}")


def _cmd_predict(args, run):
    run.inputs.append(args.model)
    model = load_checkpoint(args.model)
    ds = _load_manifest(run, args.manifest)
    clips = ds.clips if args.split == "all" else ds.split(args.split)
    if not clips:
        raise ContractError(f"no clips in split {args.split!r}")
    # scores that overflow fail ScoreTable's row check, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scores = model.predict_batch(clips)
    table = ScoreTable([c.id for c in clips], scores)
    write_score_table(table, args.out)
    run.emit(args.out)
    _print(f"scored {len(clips)} clips to {args.out}")


def _cmd_fuse(args, run):
    tables = _load_scores(run, args.scores)
    table = fuse_tables(tables, weights=args.weights)
    run.extra["weights"] = args.weights
    write_score_table(table, args.out)
    run.emit(args.out)
    _print(f"fused {len(tables)} tables over {len(table)} clips to {args.out}")


def _cmd_learn_fusion(args, run):
    tables = _load_scores(run, args.scores)
    ds = _load_manifest(run, args.manifest)
    weights, acc = learn_fusion_weights(tables, ds, grid_step=args.grid_step)
    payload = {"weights": [float(w) for w in weights], "accuracy": acc,
               "grid_step": args.grid_step, "sources": list(args.scores)}
    run.write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print("weights: " + " ".join(f"{w:g}" for w in weights)
           + f"\naccuracy: {acc:.4f}")


def _cmd_ensemble(args, run):
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    run.seeds = [args.seed + i for i in range(args.count)]
    run.extra["modality"] = args.modality
    ids = [c.id for c in ds.clips]
    fused = fuse_tables([ScoreTable(ids, p) for p in score_members(
        ds, cfg, _members(args, cfg, run.seeds), ds.clips, jobs=args.jobs)])
    write_score_table(fused, args.out)
    run.emit(args.out)
    _print(f"ensembled {args.count} members to {args.out}")


def _cmd_evaluate(args, run):
    tables = _load_scores(run, [args.scores])
    ds = _load_manifest(run, args.manifest)
    dist = _resolve_dist(run, args.dist)
    pred, true = predictions_from_table(tables[0], ds, args.split)
    report = evaluate(pred, true, ds.n_classes, dist=dist)
    names = class_names(ds.n_classes)
    text = report.to_text(names)
    as_csv = (args.out or "").endswith(".csv")
    run.write(args.out, report.to_csv(names) if as_csv else text)
    _print(text)


def _cmd_cross_validate(args, run):
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)

    def fit_predict(fold_ds, fold):
        member = _members(args, cfg, [args.seed + fold])
        return score_members(fold_ds, cfg, member,
                             fold_ds.split("val"))[0].argmax(axis=1)

    pool = Dataset(_scoreable(args, ds.clips), ds.dims, ds.meta)
    report = cross_validate(pool, args.folds, fit_predict, jobs=args.jobs)
    run.write(args.out, report.to_csv())
    _print(report.to_text())


def _cmd_repeat(args, run):
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    val = _scoreable(args, ds.split("val"))
    if not val:
        raise ContractError("no labeled val clips to score")
    true = np.array([c.label for c in val])
    probs = score_members(ds, cfg, _members(args, cfg, args.seeds), val,
                          jobs=args.jobs)
    stats = RunStatistics(args.seeds, np.array(
        [int((p.argmax(axis=1) == true).sum()) / len(val) for p in probs]))
    run.write(args.out, stats.to_csv())
    _print(stats.to_text())


def _cmd_recipe(args, run):
    if bool(args.preset) == bool(args.recipe):
        raise ConfigError("give exactly one of --preset or --recipe")
    recipe = (packaged_recipe(args.preset) if args.preset
              else load_recipe(args.recipe))
    if args.recipe:
        run.inputs.append(args.recipe)
    ds = _load_manifest(run, args.manifest)
    cfg = _load_config(run, args)
    pretrain = _load_manifest(run, args.pretrain) if args.pretrain else None
    result = run_recipe(recipe, ds, cfg, seed=args.seed, pretrain=pretrain,
                        jobs=args.jobs)
    run.extra = {"recipe": recipe.name, "members": result.members,
                 "fusion": recipe.fusion, "weights": recipe.weights}
    write_score_table(result.table, args.out)
    run.emit(args.out)
    lines = [f"recipe {recipe.name}: {len(result.members)} members fused "
             f"({recipe.fusion})"]
    if result.report is not None:
        lines.append(f"held-out accuracy: {result.report.overall:.4f}")
    _print("\n".join(lines))


# -- argument parsing ----------------------------------------------------------

def _shared(flag, **kwargs) -> argparse.ArgumentParser:
    """A flag declared once, for the subcommands that list it in parents=."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallclip",
        description="Train, fuse, and evaluate small audiovisual clip "
                    "classifiers from feature manifests.")
    parser.add_argument("--version", action="version",
                        version=f"smallclip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    manifest = _shared("--manifest", required=True)
    config = _shared("--config")
    seed = _shared("--seed", type=int, default=0)
    jobs = _shared("--jobs", type=int, default=1,
                   help="worker processes; never changes results")
    pretrain = _shared("--pretrain",
                       help="manifest of a pretraining corpus (mlp only)")
    pooling = _shared("--pooling", choices=VIDEO_HEADS,
                      help="override the config's head")
    model = _shared("--model", choices=AUDIO_MODELS,
                    help="override the config's model kind")
    member_flags = [manifest, config, pooling, model,
               _shared("--modality", default="video",
                       choices=("video", "audio"))]

    # synth's defaults are SynthConfig's: an absent flag sets nothing
    p = add("synth", _cmd_synth, argument_default=argparse.SUPPRESS,
            help="generate a synthetic labeled manifest")
    p.add_argument("--classes", dest="n_classes", type=int)
    p.add_argument("--clips-per-class", dest="train_per_class", type=int,
                   help="train clips per class")
    for flag in ("--val-per-class", "--test-per-class", "--frames-min",
                 "--frames-max", "--d-feature", "--d-audio"):
        p.add_argument(flag, type=int)
    p.add_argument("--no-audio", dest="with_audio", action="store_false")
    for flag in ("--margin", "--noise", "--av-noise"):
        p.add_argument(flag, type=float)
    p.add_argument("--centroid-seed", type=int,
                   help="separate seed for class geometry (shared across sets)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("validate", _cmd_validate, parents=[manifest],
            help="check a manifest and print split statistics")
    p.add_argument("--out")

    p = add("train-video", _cmd_train_video,
            parents=[manifest, config, pooling, seed],
            help="train a temporal pooling head")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = add("train-audio", _cmd_train_audio,
            parents=[manifest, config, model, pretrain, seed],
            help="train an audio classifier")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = add("predict", _cmd_predict, parents=[manifest, jobs],
            help="score clips with a trained checkpoint",
            description="Scoring is one batched call; --jobs is accepted "
                        "for compatibility.")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--split", default="all",
                   choices=("all", "train", "val", "test"))
    p.add_argument("--out", required=True, help="score CSV path")

    p = add("fuse", _cmd_fuse,
            help="combine score tables (mean or fixed weights)")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float)
    p.add_argument("--out", required=True)

    p = add("learn-fusion", _cmd_learn_fusion, parents=[manifest],
            help="grid-search fusion weights on labeled clips")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--grid-step", type=float,
                   help="default 0.05 for two sources, 0.1 beyond")
    p.add_argument("--out", help="weights JSON path")

    p = add("ensemble", _cmd_ensemble, parents=member_flags + [seed, jobs],
            help="train seed-ensemble members and fuse their scores")
    p.add_argument("--count", type=int, default=4, help="ensemble size")
    p.add_argument("--out", required=True)

    p = add("evaluate", _cmd_evaluate, parents=[manifest],
            help="score a table against manifest labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--split", choices=("train", "val", "test"),
                   help="default: all labeled clips the table covers")
    p.add_argument("--dist",
                   help="class distribution CSV for weighted accuracy "
                        "(falls back to the packaged file by name)")
    p.add_argument("--out",
                   help="report path; .csv extension selects CSV form")

    p = add("cross-validate", _cmd_cross_validate,
            parents=member_flags + [seed, jobs],
            help="stratified k-fold CV over train+val")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", help="per-fold CSV path")

    p = add("repeat", _cmd_repeat, parents=member_flags + [jobs],
            help="train with several seeds and report mean/std")
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--out", help="per-seed CSV path")

    p = add("recipe", _cmd_recipe,
            parents=[manifest, config, pretrain, seed, jobs],
            help="run a named multi-member training and fusion recipe")
    p.add_argument("--preset", help="one of submission1..submission7")
    p.add_argument("--recipe", help="recipe file path")
    p.add_argument("--out", required=True, help="fused score CSV path")

    return parser


def _check_flags(args):
    """ConfigError naming the first flag whose value is out of range."""
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    for key in ("seed", "centroid_seed", "seeds"):
        low = min(np.ravel(getattr(args, key, None) or 0))
        if low < 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= 0, "
                              f"got {low}")
    if args.command == "ensemble" and args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.command == "repeat" and len(args.seeds) < 2:
        raise ConfigError(f"--seeds needs at least two seeds, got "
                          f"{len(args.seeds)}")
    if args.command == "learn-fusion" and args.grid_step is not None:
        grid_divisions(args.grid_step, "--grid-step", ConfigError)
    if args.command == "fuse" and args.weights is not None:
        check_weights(args.weights, len(args.scores), ConfigError)


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        _check_flags(args)
        args.handler(args, _Run(args))
        return 0
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
