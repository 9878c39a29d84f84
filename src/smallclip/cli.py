"""Command-line front end: reproducible runs over manifests and score tables.

One binary, twelve subcommands (synth, validate, train-video, train-audio,
predict, fuse, learn-fusion, ensemble, evaluate, cross-validate, repeat,
recipe). Every file output is written atomically and accompanied by a
``<out>.manifest.json`` run manifest recording the command, config snapshot,
seeds, paths, version, and duration, which is enough to reproduce the output
bit for bit. An ``--out`` that cannot be written, or that would replace a
file the command reads, fails before any work.
``train-video`` and ``train-audio`` report the val accuracy of the trained
model's ``predict_batch``, as ``evaluate`` computes it: training itself
scores no split. All randomness flows from ``--seed``. ``--jobs N`` (N >= 1)
trains independent units (one stack per kind of member, whose seeds come
from ``recipe``, ``ensemble`` or ``repeat``, or cross-validation folds) in
up to N forked worker processes, capped at the CPUs this process may run
on, each with a fixed share of the units and its own pipe back; it never
changes results.

Exit codes: 0 success, 2 usage error, 1 runtime error. A failure prints
one ``error: <message>`` line to stderr. ``SMALLCLIP_LOG`` adds lines of
the form ``<LEVEL> smallclip: <message>`` to stderr, never to stdout:

- ``error`` (the default, and what any other value means): none;
- ``info``: ``INFO smallclip: wrote <out>.manifest.json`` per run manifest;
- ``debug``: those, and before a failure's ``error:`` line, ``DEBUG
  smallclip: usage error`` or ``DEBUG smallclip: runtime error`` followed
  by the exception's traceback.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
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
from .fusion import (check_weights, fuse, fuse_tables, grid_divisions,
                     learn_fusion_weights)
from .recipes import load_recipe, packaged_recipe, run_recipe, score_members
from .scores import ScoreTable, load_score_table, write_score_table
from .synth import SynthConfig, generate_synthetic
from .video import train_video_model

# the levels each ``SMALLCLIP_LOG`` value shows; ``error``, the default,
# and any other value show none. The standard library's ``logging`` is not
# used: with the ``traceback`` and ``string`` modules it loads, it costs
# every process about 0.5 MB and 3 ms for three lines.
_LOG_SHOWS = {"info": ("info",), "debug": ("info", "debug")}


def _log(level, message, exc=False):
    """Write ``<LEVEL> smallclip: <message>`` to stderr when
    ``SMALLCLIP_LOG`` shows ``level``; with ``exc``, the traceback of the
    exception being handled follows it."""
    wanted = os.environ.get("SMALLCLIP_LOG", "error").lower()
    if level not in _LOG_SHOWS.get(wanted, ()):
        return
    sys.stderr.write(f"{level.upper()} smallclip: {message}\n")
    if exc:
        import traceback  # loaded only when a traceback prints
        traceback.print_exc(file=sys.stderr)


# -- run manifests -------------------------------------------------------------

class _Run:
    """Collects manifest ingredients while a subcommand executes.

    The inputs are the paths of the files the command reads, in
    ``INPUT_FLAGS`` order. The seeds start as the run's ``--seed`` or
    ``--seeds``, if it has one.
    """

    def __init__(self, args, argv, inputs):
        self.command = args.command
        self.argv = list(argv)
        self.started = time.monotonic()
        given = vars(args)
        self.seeds: list = ([given["seed"]] if "seed" in given
                            else list(given.get("seeds", [])))
        self.config: dict | None = None
        self.inputs = inputs
        self.extra: dict = {}

    def emit(self, out_path):
        """Write ``<out_path>.manifest.json`` (sorted keys) for this run."""
        manifest = {"command": self.command, "argv": self.argv,
                    "version": __version__, "seeds": self.seeds,
                    "config": self.config, "inputs": self.inputs,
                    "outputs": [str(out_path)],
                    "duration_s": time.monotonic() - self.started,
                    "extra": self.extra}
        path = str(out_path) + ".manifest.json"
        atomic_write_text(path, json.dumps(manifest, indent=2,
                                           sort_keys=True) + "\n")
        _log("info", f"wrote {path}")


# -- shared helpers ------------------------------------------------------------

def _load_config(run: _Run, args) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    if getattr(args, "pooling", None):
        cfg.head = args.pooling
    if getattr(args, "model", None):
        cfg.model = args.model
    cfg.validate()
    run.config = dict(vars(cfg))
    return cfg


def _write(path, text):
    """Write ``text`` to ``path``; no path, no write."""
    if path:
        atomic_write_text(path, text)


def _members(args, cfg, seeds) -> list:
    """One member of the configured ``--modality`` kind per seed."""
    kind = cfg.head if args.modality == "video" else cfg.model
    return [{"modality": args.modality, "kind": kind, "seed": seed}
            for seed in seeds]


def _val_accuracy(model, clips):
    """Accuracy of ``model.predict_batch`` on the labeled ``clips``, as
    ``evaluate`` reports it; None when there are none."""
    if not clips:
        return None
    pred = model.predict_batch(clips).argmax(axis=1)
    return evaluate(pred, [c.label for c in clips], model.n_classes).overall


# -- subcommand handlers -------------------------------------------------------
# Each takes the parsed flags and the run that ``main`` started, writes the
# command's output file, if any, and returns what it prints.

def _cmd_synth(args, run):
    names = {f.name for f in fields(SynthConfig)}
    cfg = SynthConfig(**{k: v for k, v in vars(args).items() if k in names})
    run.config = dict(vars(cfg))
    ds = generate_synthetic(cfg, seed=args.seed)
    write_dataset(ds, args.out)
    return f"wrote {len(ds.clips)} clips to {args.out}"


def _cmd_validate(args, run):
    text = validate_dataset(load_dataset(args.manifest)).to_text()
    _write(args.out, text)
    return text


def _cmd_train_video(args, run):
    ds = load_dataset(args.manifest)
    cfg = _load_config(run, args)
    model, history = train_video_model(ds, cfg, seed=args.seed)
    save_checkpoint(model, args.out)
    val = _val_accuracy(model, ds.labeled("val"))
    run.extra["final_epoch"] = dict(history[-1], val_accuracy=val)
    return (f"trained {cfg.head} head; "
            f"val accuracy: {'n/a' if val is None else f'{val:.4f}'}")


def _cmd_train_audio(args, run):
    ds = load_dataset(args.manifest)
    cfg = _load_config(run, args)
    pretrain = load_dataset(args.pretrain) if args.pretrain else None
    model, history = train_audio_model(ds, cfg, seed=args.seed,
                                       pretrain=pretrain)
    save_checkpoint(model, args.out)
    val = _val_accuracy(model, ds.labeled("val", "audio"))
    history["val_accuracy"] = val
    run.extra["log"] = {k: v for k, v in history.items()
                        if k in ("val_accuracy", "train_accuracy", "lr")}
    return (f"trained audio {cfg.model}; "
            f"val accuracy: {'n/a' if val is None else f'{val:.4f}'}")


def _cmd_predict(args, run):
    model = load_checkpoint(args.model)
    ds = load_dataset(args.manifest)
    clips = ds.clips if args.split == "all" else ds.split(args.split)
    if not clips:
        raise ContractError(f"no clips in split {args.split!r}")
    # scores that overflow fail ScoreTable's row check, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scores = model.predict_batch(clips)
    table = ScoreTable([c.id for c in clips], scores)
    write_score_table(table, args.out)
    return f"scored {len(clips)} clips to {args.out}"


def _cmd_fuse(args, run):
    tables = [load_score_table(p) for p in args.scores]
    table = fuse_tables(tables, weights=args.weights)
    run.extra["weights"] = args.weights
    write_score_table(table, args.out)
    return f"fused {len(tables)} tables over {len(table)} clips to {args.out}"


def _cmd_learn_fusion(args, run):
    tables = [load_score_table(p) for p in args.scores]
    ds = load_dataset(args.manifest)
    weights, acc = learn_fusion_weights(tables, ds, grid_step=args.grid_step)
    payload = {"weights": [float(w) for w in weights], "accuracy": acc,
               "grid_step": args.grid_step, "sources": list(args.scores)}
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ("weights: " + " ".join(f"{w:g}" for w in weights)
            + f"\naccuracy: {acc:.4f}")


def _cmd_ensemble(args, run):
    ds = load_dataset(args.manifest)
    cfg = _load_config(run, args)
    run.seeds = [args.seed + i for i in range(args.count)]
    run.extra["modality"] = args.modality
    probs = score_members(ds, cfg, _members(args, cfg, run.seeds), ds.clips,
                          jobs=args.jobs)
    write_score_table(ScoreTable([c.id for c in ds.clips], fuse(probs)),
                      args.out)
    return f"ensembled {args.count} members to {args.out}"


def _cmd_evaluate(args, run):
    table = load_score_table(args.scores)
    ds = load_dataset(args.manifest)
    dist = load_distribution(args.dist) if args.dist else None
    pred, true = predictions_from_table(table, ds, args.split)
    report = evaluate(pred, true, ds.n_classes, dist=dist)
    names = class_names(ds.n_classes)
    text = report.to_text(names)
    as_csv = (args.out or "").endswith(".csv")
    _write(args.out, report.to_csv(names) if as_csv else text)
    return text


def _cmd_cross_validate(args, run):
    ds = load_dataset(args.manifest)
    cfg = _load_config(run, args)

    def fit_predict(fold_ds, fold):
        member = _members(args, cfg, [args.seed + fold])
        return score_members(fold_ds, cfg, member,
                             fold_ds.split("val"))[0].argmax(axis=1)

    pool = Dataset(ds.labeled(modality=args.modality), ds.dims, ds.meta)
    report = cross_validate(pool, args.folds, fit_predict, jobs=args.jobs)
    _write(args.out, report.to_csv())
    return report.to_text()


def _cmd_repeat(args, run):
    ds = load_dataset(args.manifest)
    cfg = _load_config(run, args)
    val = ds.labeled("val", args.modality)
    if not val:
        raise ContractError("no labeled val clips to score")
    true = np.array([c.label for c in val])
    probs = score_members(ds, cfg, _members(args, cfg, args.seeds), val,
                          jobs=args.jobs)
    stats = RunStatistics(args.seeds, np.array(
        [int((p.argmax(axis=1) == true).sum()) / len(val) for p in probs]))
    _write(args.out, stats.to_csv())
    return stats.to_text()


def _cmd_recipe(args, run):
    if bool(args.preset) == bool(args.recipe):
        raise ConfigError("give exactly one of --preset or --recipe")
    recipe = (packaged_recipe(args.preset) if args.preset
              else load_recipe(args.recipe))
    ds = load_dataset(args.manifest)
    cfg = _load_config(run, args)
    pretrain = load_dataset(args.pretrain) if args.pretrain else None
    result = run_recipe(recipe, ds, cfg, seed=args.seed, pretrain=pretrain,
                        jobs=args.jobs)
    fusion = "mean" if recipe.weights is None else "weighted"
    run.extra = {"recipe": recipe.name, "members": result.members,
                 "fusion": fusion, "weights": recipe.weights}
    write_score_table(result.table, args.out)
    lines = [f"recipe {recipe.name}: {len(result.members)} members fused "
             f"({fusion})"]
    if result.report is not None:
        lines.append(f"held-out accuracy: {result.report.overall:.4f}")
    return "\n".join(lines)


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
    if getattr(args, "out", None) == "":
        raise ConfigError("--out must name a file, got ''")
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    for key in ("seed", "centroid_seed", "seeds"):
        low = min(np.ravel(getattr(args, key, None) or 0))
        if low < 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= 0, "
                              f"got {low}")
    if args.command in ("ensemble", "cross-validate", "repeat"):
        flag = "model" if args.modality == "video" else "pooling"
        if getattr(args, flag):
            raise ConfigError(f"--{flag} does not apply to --modality "
                              f"{args.modality}")
    if args.command == "ensemble" and args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.command == "repeat" and len(args.seeds) < 2:
        raise ConfigError(f"--seeds needs at least two seeds, got "
                          f"{len(args.seeds)}")
    if args.command == "repeat" and len(set(args.seeds)) < len(args.seeds):
        raise ConfigError(f"--seeds must be distinct, got "
                          f"{' '.join(map(str, args.seeds))}")
    if args.command == "learn-fusion" and args.grid_step is not None:
        grid_divisions(args.grid_step, "--grid-step", ConfigError)
    if args.command == "fuse" and args.weights is not None:
        check_weights(args.weights, len(args.scores), ConfigError)


def _check_out(path):
    """ParseError ``cannot write <path>: ...`` when a write of ``path`` or
    of its run manifest would fail for want of a writable parent directory
    or because the path is a directory. It creates nothing, and the writes
    keep their own checks: a directory can vanish in between."""
    for target in (path, path + ".manifest.json"):
        parent = os.path.dirname(target) or "."
        code = (errno.ENOENT if not os.path.exists(parent)
                else errno.ENOTDIR if not os.path.isdir(parent)
                else errno.EACCES if not os.access(parent, os.W_OK | os.X_OK)
                else errno.EISDIR if (os.path.isdir(target)
                                      and not os.path.islink(target))
                else None)
        if code is not None:
            raise ParseError(f"cannot write {target}: {os.strerror(code)}")


# flags naming files a command reads; ``--model`` names one only in predict,
# where the others take a model kind
INPUT_FLAGS = ("manifest", "model", "scores", "config", "recipe", "dist",
               "pretrain")


def _dist_path(path):
    """The file ``--dist`` reads. A bare file name that does not exist
    falls back to the packaged file of that name; any other path is read
    as given."""
    if not os.path.dirname(path) and not os.path.exists(path):
        packaged = packaged_distribution_path(path)
        if os.path.isfile(packaged):
            return packaged
    return path


def _inputs(args) -> list:
    """``(flag, path)`` for each file the command reads, in ``INPUT_FLAGS``
    order."""
    return [(flag, path) for flag in INPUT_FLAGS
            if flag != "model" or args.command == "predict"
            for path in np.ravel(getattr(args, flag, None) or []).tolist()]


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is missing, so writing ``a`` leaves ``b`` alone
        return False


def _check_out_spares_inputs(out, inputs):
    """ConfigError when ``out``, or its run manifest, is the same file as
    one of the ``(flag, path)`` inputs, which the write would replace."""
    for flag, path in inputs:
        for target, name in ((out, "--out"),
                             (out + ".manifest.json", "the run manifest")):
            if _same_file(target, path):
                raise ConfigError(f"{name} {target} would overwrite "
                                  f"--{flag} {path}")


def main(argv=None) -> int:
    """Run one command: check its flags, ``--out`` and inputs, run its
    handler, then write the run manifest beside ``--out`` and print what
    the handler returned."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        _check_flags(args)
        if getattr(args, "dist", None):
            args.dist = _dist_path(args.dist)
        inputs = _inputs(args)
        if args.out:
            _check_out_spares_inputs(args.out, inputs)
            _check_out(args.out)
        run = _Run(args, sys.argv[1:] if argv is None else argv,
                   [path for _, path in inputs])
        text = args.handler(args, run)
        if args.out:
            run.emit(args.out)
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return 0
    except ConfigError as exc:
        _log("debug", "usage error", exc=True)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SmallclipError as exc:
        _log("debug", "runtime error", exc=True)
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> int:
    """``main()`` as the ``smallclip`` command runs it: OpenSSL is never
    loaded, and what is loaded before and what is left after is frozen out
    of the garbage collector.

    ``numpy.random`` imports ``secrets``, whose ``hmac`` imports
    ``_hashlib`` and so maps OpenSSL's libcrypto (about 3.3 MB resident)
    for an OS-entropy helper that no seeded generator calls. A ``None``
    entry for ``_hashlib`` is how the standard library runs when built
    without OpenSSL: ``hashlib`` and ``hmac`` fall back to their builtin
    digests, which give the same bytes. Forked ``--jobs`` workers inherit
    the entry.

    The freeze moves every object alive at start-up (numpy and smallclip
    included) into a generation no collection scans, so the collections
    that training and tables trigger scan only what the command makes; the
    second spares the exit's work from rescanning the command's objects.
    ``main()`` neither blocks nor freezes, so callers in process keep
    their ``hashlib`` and their collector as they were.
    """
    sys.modules.setdefault("_hashlib", None)
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
