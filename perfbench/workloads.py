"""The benchmark's workloads, how one operation runs, and how it is checked.

An operation is one workload's full command sequence. Each command runs the
smallclip CLI either as a fresh process (``run_op``), the way users run it,
or in this process through ``smallclip.cli.main`` (``run_op_in_process``),
which is what the traced run uses. Commands run inside the operation's own
directory and name every file relatively, so outputs do not depend on where
the operation ran.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MANIFEST = "../data.jsonl"  # written by synth into the run directory
ROW_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple          # `smallclip synth` flags besides --seed and --out
    steps: tuple          # argv tuples, or callables(op_dir) -> argv
    outputs: tuple        # files every operation must write identically
    score_tables: tuple   # outputs that must score every manifest clip
    accuracy_from: str    # "stdout" (recipe) or an `evaluate` CSV output


def _fuse_with_learned_weights(op_dir: Path) -> tuple:
    weights = json.loads((op_dir / "fusion.json").read_text())["weights"]
    return ("fuse", "--scores", "video.csv", "audio.csv",
            "--weights", *map(repr, weights), "--out", "fused.csv")


# Sizes keep one operation to a few seconds, so that every run of the
# benchmark holds several operations.
WORKLOADS = {w.name: w for w in (
    Workload(
        "s3-large",
        "per-clip forest and video inference at scale with one worker; "
        "the largest manifest, so it weighs most on setup_s and peak_rss_mb",
        ("--margin", "10", "--noise", "0.1",
         "--clips-per-class", "60", "--val-per-class", "15"),
        (("recipe", "--preset", "submission3", "--manifest", MANIFEST,
          "--seed", "7", "--jobs", "1", "--out", "recipe.csv"),),
        ("recipe.csv",), ("recipe.csv",), "stdout"),
    Workload(
        "s6-small-j2",
        "52 tiny members whose per-epoch val accuracy dominates; no forest "
        "or LSTM; the only workload with --jobs above 1",
        ("--margin", "10", "--noise", "0.1",
         "--clips-per-class", "10", "--val-per-class", "5"),
        (("recipe", "--preset", "submission6", "--manifest", MANIFEST,
          "--seed", "7", "--jobs", "2", "--out", "recipe.csv"),),
        ("recipe.csv",), ("recipe.csv",), "stdout"),
    Workload(
        "roundtrip-hard",
        "the README round trip on noisy data: LSTM training, deep forest "
        "growth, and checkpoints and score tables written and read back",
        ("--margin", "2", "--noise", "1.0",
         "--clips-per-class", "12", "--val-per-class", "10"),
        (("train-video", "--manifest", MANIFEST, "--pooling", "lstm",
          "--seed", "0", "--out", "video.json"),
         ("train-audio", "--manifest", MANIFEST, "--model", "forest",
          "--seed", "0", "--out", "audio.json"),
         ("predict", "--model", "video.json", "--manifest", MANIFEST,
          "--out", "video.csv"),
         ("predict", "--model", "audio.json", "--manifest", MANIFEST,
          "--out", "audio.csv"),
         ("learn-fusion", "--scores", "video.csv", "audio.csv",
          "--manifest", MANIFEST, "--out", "fusion.json"),
         _fuse_with_learned_weights,
         ("evaluate", "--scores", "fused.csv", "--manifest", MANIFEST,
          "--split", "val", "--dist", "afew_test_dist.csv",
          "--out", "report.csv")),
        ("video.json", "audio.json", "video.csv", "audio.csv", "fusion.json",
         "fused.csv", "report.csv"),
        ("video.csv", "audio.csv", "fused.csv"), "report.csv"),
)}


def synth_argv(workload: Workload, seed: int) -> list:
    """The command that writes the workload's manifest for ``seed``."""
    return ["synth", "--seed", str(seed), *workload.synth,
            "--out", "data.jsonl"]


def subprocess_env() -> dict:
    """This environment with the checkout's sources first on the path.

    BLAS thread counts are left as found.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Command:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_command(argv, cwd: Path, env: dict, log_path: Path,
                timeout_s: float) -> Command:
    """Run ``smallclip <argv>`` as a fresh process and wait for it.

    CPU time and peak resident set come from the process's own rusage. The
    process is killed if it outlives ``timeout_s``.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "smallclip.cli", *argv],
                                cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0)


@dataclass
class Op:
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    held_out_acc: float | None = None
    hashes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _step_argv(step, op_dir: Path):
    return list(step(op_dir) if callable(step) else step)


def run_op(workload: Workload, op_dir: Path, env: dict, clip_ids,
           deadline: float) -> Op:
    """One operation, each command a fresh process; checked."""
    op_dir.mkdir()
    cpu, rss, problems, stdout = 0.0, 0.0, [], ""
    t0 = time.perf_counter()
    for i, step in enumerate(workload.steps):
        try:
            argv = _step_argv(step, op_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"step {i}: cannot build command: {exc}")
            break
        log_path = op_dir / f"step{i}.log"
        cmd = run_command(argv, op_dir, env, log_path,
                          deadline - time.monotonic())
        cpu += cmd.cpu_s
        rss = max(rss, cmd.peak_rss_mb)
        stdout = log_path.read_text(errors="replace")
        if cmd.code != 0:
            problems.append(f"{argv[0]} exited with code {cmd.code}: "
                            f"{stdout.strip()[-300:]}")
            break
    op = Op(time.perf_counter() - t0, cpu, rss, problems=problems)
    if not problems:
        check_outputs(workload, op_dir, clip_ids, stdout, op)
    return op


def run_op_in_process(workload: Workload, op_dir: Path, clip_ids) -> Op:
    """One operation through ``smallclip.cli.main`` in this process."""
    from smallclip import cli

    op_dir.mkdir()
    problems, out = [], io.StringIO()
    cwd, argv0 = os.getcwd(), sys.argv
    t0 = time.perf_counter()
    try:
        os.chdir(op_dir)
        for i, step in enumerate(workload.steps):
            try:
                argv = _step_argv(step, op_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"step {i}: cannot build command: {exc}")
                break
            sys.argv = ["smallclip", *argv]
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception:  # a crash fails this operation, not the run
                problems.append(f"{argv[0]} raised:\n"
                                f"{traceback.format_exc()[-600:]}")
                break
            if code != 0:
                problems.append(f"{argv[0]} exited with code {code}")
                break
    finally:
        os.chdir(cwd)
        sys.argv = argv0
    op = Op(time.perf_counter() - t0, problems=problems)
    if not problems:
        check_outputs(workload, op_dir, clip_ids, out.getvalue(), op)
    return op


# -- checks ------------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_score_table(path: Path, clip_ids) -> list:
    """Problems with a score table that must score every manifest clip."""
    import numpy as np
    from smallclip.errors import SmallclipError
    from smallclip.scores import load_score_table

    try:
        table = load_score_table(path)
    except SmallclipError as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    ids, want = set(table.ids), set(clip_ids)
    if len(table.ids) != len(ids) or ids != want:
        missing, extra = sorted(want - ids), sorted(ids - want)
        problems.append(f"{path.name}: clip ids differ from the manifest "
                        f"({len(missing)} missing, e.g. {missing[:1]}; "
                        f"{len(extra)} extra, e.g. {extra[:1]}; "
                        f"{len(table.ids) - len(ids)} repeated)")
    probs = table.probs
    if not np.all(np.isfinite(probs)):
        problems.append(f"{path.name}: non-finite scores")
    elif np.any(probs < 0):
        problems.append(f"{path.name}: negative scores")
    else:
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if worst > ROW_SUM_TOLERANCE:
            problems.append(f"{path.name}: a row sums to 1 {worst:+.3g}")
    return problems


def held_out_accuracy(workload: Workload, op_dir: Path, stdout: str):
    """The accuracy the operation itself reports, or None."""
    if workload.accuracy_from == "stdout":
        for line in stdout.splitlines():
            if line.startswith("held-out accuracy:"):
                return float(line.split(":", 1)[1])
        return None
    # Only the `overall` row: the per-class rows are not read.
    for line in (op_dir / workload.accuracy_from).read_text().splitlines():
        fields = line.split(",")
        if fields[0] == "overall":
            return float(fields[1])
    return None


def check_outputs(workload: Workload, op_dir: Path, clip_ids, stdout: str,
                  op: Op):
    """Fill ``op.hashes`` and ``op.held_out_acc``; add any problems found."""
    for name in workload.outputs:
        path = op_dir / name
        if not path.is_file():
            op.problems.append(f"{name}: not written")
            return
        op.hashes[name] = sha256(path)
    for name in workload.score_tables:
        op.problems += check_score_table(op_dir / name, clip_ids)
    try:
        acc = held_out_accuracy(workload, op_dir, stdout)
    except ValueError as exc:
        acc = None
        op.problems.append(f"held-out accuracy unreadable: {exc}")
    if acc is None or not math.isfinite(acc) or not 0.0 <= acc <= 1.0:
        op.problems.append(f"no valid held-out accuracy reported ({acc})")
    else:
        op.held_out_acc = acc


def compare_hashes(reference: dict, hashes: dict) -> list:
    """Problems where an output's bytes differ from the reference run's."""
    return [f"{name}: bytes changed between runs" for name in sorted(reference)
            if hashes.get(name) != reference[name]]
