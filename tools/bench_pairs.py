"""Alternating parent/change pairs of perfbench runs, summarised to BENCH JSON.

Usage, from the root of the change's checkout:

    git worktree add --detach ../parent <parent commit>
    python3 tools/bench_pairs.py ../parent . \\
        --workload s6-small-j2 roundtrip-hard --out BENCH_<n>.json

For each workload, pair ``p`` (from 1) runs each tree's own
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
with the tree as working directory, the parent first in odd pairs and the
change first in even ones. Every run gets this process's environment as it
is, in a session of its own: on a timeout, on SIGTERM or on any other
exception, its whole process group (the run and the CLI process it is
measuring) is killed. This script writes only ``--out``; what ``run.py``
leaves in a tree is its own scratch directory, ``.perfbench/`` (and
bytecode, unless ``PYTHONDONTWRITEBYTECODE`` is set).

The output keeps each run's last stdout line verbatim, in pair order, and
per side the environment line of its first run, the ``attempted`` and
``failed`` operations summed over its runs, and each end-to-end metric's
median and quartiles (``statistics.quantiles(n=4, method="inclusive")``)
over the runs. Per metric it counts the pairs the
change won (ties count for neither side) and gives the verdict for a gain:
the change won at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's interquartile range. It also
says whether the change's median is within the metric's bound from the
change's ``BENCHMARK.json``. Per workload, ``no_regression`` is the verdict
for a change that claims no gain: every end-to-end metric is within its
bound, and the change failed no larger share of its operations than the
parent. Per side it also records, under
``blas_threads``, the value of each of ``smallclip.cli.BLAS_THREAD_VARS``
that one ``import smallclip.cli`` from the tree's ``src/`` leaves in the
environment, which is what the measured commands run with.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


# how long a run may outlast its --seconds before it is killed
SLACK_S = 600


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result and environment.

    The run starts a session of its own, so its process group holds it and
    the CLI processes it starts. The whole group is killed if the run
    outlasts ``seconds + SLACK_S`` or anything interrupts the wait, such as
    the SIGTERM that ``main`` turns into an exception.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + SLACK_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited "
                         f"{proc.returncode}: {stderr[-500:]}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    return {"line": lines[-1], "result": json.loads(lines[-1]),
            "environment": env}


# run in a child with the tree's src/ first on the path
BLAS_PROBE = ("import json, os, smallclip.cli as cli; print(json.dumps({"
              "name: os.environ.get(name) for name in cli.BLAS_THREAD_VARS}))")


def blas_threads(tree: Path) -> dict:
    """The BLAS thread variables that ``import smallclip.cli`` from
    ``tree``'s ``src/`` leaves set, with this process's environment."""
    path = os.pathsep.join([str(tree / "src")] + (
        [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"import smallclip.cli in {tree} exited "
                         f"{done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout)


def side_summary(runs, metrics) -> dict:
    out = {"environment": runs[0]["environment"], "median": {},
           "quartiles": {}}
    for count in ("attempted", "failed"):
        out[count] = sum(run["result"][count] for run in runs)
    for name in metrics:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["median"][name] = statistics.median(values)
        out["quartiles"][name] = [q1, q3]
    out["runs"] = [run["line"] for run in runs]
    return out


def verdicts(runs, summaries, specs) -> dict:
    """Per metric: pair wins, the gain verdict and the bound check."""
    out = {}
    for name, spec in specs.items():
        sign = -1 if spec["better"] == "lower" else 1
        pairs = [(sign * p["result"]["metrics"][name]["value"],
                  sign * c["result"]["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])]
        wins = sum(c > p for p, c in pairs)
        losses = sum(c < p for p, c in pairs)
        base = summaries["parent"]["median"][name]
        gain = sign * (summaries["change"]["median"][name] - base)
        q1, q3 = summaries["parent"]["quartiles"][name]
        out[name] = {
            "better": spec["better"],
            "pairs": len(pairs),
            "change_wins": wins,
            "parent_wins": losses,
            "median_gain": gain,
            "parent_iqr": q3 - q1,
            "gain": 10 * wins >= 9 * len(pairs) and gain > q3 - q1,
            "bound": spec["bound"],
            "within_bound": -gain <= spec["bound"] * abs(base),
        }
    return out


def bench_workload(trees, workload, pairs, seconds, seed, specs, log):
    runs = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            t0 = time.monotonic()
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            log(f"{workload} pair {pair}/{pairs} {side} "
                f"{time.monotonic() - t0:.0f} s")
    out = {side: side_summary(runs[side], specs) for side in SIDES}
    out["metrics"] = verdicts(runs, out, specs)
    parent, change = out["parent"], out["change"]
    out["no_regression"] = (
        all(m["within_bound"] for m in out["metrics"].values())
        and change["failed"] * parent["attempted"]
        <= parent["failed"] * change["attempted"])
    return out


def _stop(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def git_commit(tree: Path):
    """The commit checked out in ``tree``, or None if it is no checkout."""
    if not (tree / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent commit's tree")
    ap.add_argument("change", type=Path, help="the change's tree")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} has no perfbench/run.py")
    config = json.loads((trees["change"] / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    specs = {m["name"]: m for m in config["end_to_end"]}

    def log(text):
        print(text, file=sys.stderr, flush=True)

    # SIGTERM unwinds like an exception, so run_once kills the running
    # run's process group; the caller's handler is back once all have run
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        blas = {side: blas_threads(trees[side]) for side in SIDES}
        workloads = {w: bench_workload(trees, w, args.pairs, args.seconds,
                                       args.seed, specs, log)
                     for w in args.workload}
    finally:
        signal.signal(signal.SIGTERM, previous)
    result = {
        "what": ("End-to-end results of perfbench/run.py for the parent and "
                 f"the change, {args.pairs} alternating pairs per workload "
                 "(odd pairs run the parent first), each `python3 "
                 "perfbench/run.py --workload <w> --seed "
                 f"{args.seed} --seconds {args.seconds} --trace 0` in its "
                 "own tree. 'runs' holds each run's last stdout line "
                 "verbatim, in pair order; 'environment' is the environment "
                 "line of each side's first run; 'attempted' and 'failed' "
                 "sum each side's operations; 'metrics' holds the pair "
                 "wins and the verdicts; 'no_regression' says whether every "
                 "metric is within its bound and the change failed no "
                 "larger share of operations; 'blas_threads' holds the BLAS "
                 "thread variables that importing each side's smallclip.cli "
                 "leaves set."),
        "parent_commit": git_commit(trees["parent"]),
        "change_commit": git_commit(trees["change"]),
        "blas_threads": blas,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, out in result["workloads"].items():
        for name, m in out["metrics"].items():
            medians = [out[side]["median"][name] for side in SIDES]
            log(f"{workload} {name}: parent {medians[0]:.4g} change "
                f"{medians[1]:.4g}, change won "
                f"{m['change_wins']}/{m['pairs']}, gain {m['gain']}, "
                f"within bound {m['within_bound']}")
        log(f"{workload}: no_regression {out['no_regression']}, failed "
            + ", ".join(f"{side} {out[side]['failed']}/"
                        f"{out[side]['attempted']}" for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
