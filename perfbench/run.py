"""End-to-end and per-layer benchmark of the smallclip CLI.

Usage, from the root of a checkout (no install needed; the checkout's
``src/`` is used):

    python3 perfbench/run.py --workload s3-large --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

A run writes the workload's manifest with ``smallclip synth --seed <seed>``,
then runs the workload's operation in a closed loop with one client: each
operation starts when the previous one ends, until ``--seconds`` (default
40) have passed. Every operation runs as fresh processes and is checked
(see ``workloads.check_outputs``). ``smallclip validate`` on the manifest
runs after each operation, and at least five times in all; ``setup_s`` is
its median wall time.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
operations. With ``--trace 1`` the loop runs the same way, then the
operation runs twice more inside this process through
``smallclip.cli.main``: once plain and once with every traced layer wrapped
(``tracing.py``). The result then holds the per-layer metrics of the traced
operation, and ``trace.overhead_s`` is its wall time minus the plain
in-process one's. The spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, and the environment. A failed
check makes ``correct`` false; the exit code is not 0 only when no result
could be made.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import (ROOT, SRC, WORKLOADS, compare_hashes,  # noqa: E402
                       run_command, run_op, run_op_in_process,
                       subprocess_env, synth_argv)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("held_out_acc", "fraction"),
)
MIN_SETUPS = 5
RUN_LIMIT_S = 170  # a run ends well within the 180 s a run may take
WORK = ROOT / ".perfbench"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT,
                capture_output=True, text=True, check=True,
                timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    src_lines = sum(path.read_bytes().count(b"\n")
                    for path in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_lines": src_lines,
    }


def clip_ids_of(manifest: Path) -> list:
    with open(manifest, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def measure(workload, seed: int, seconds: int, trace: bool,
            env_record) -> dict:
    """One run of one workload; returns the result object."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = subprocess_env()
    try:
        made = run_command(synth_argv(workload, seed), run_dir, env,
                           run_dir / "synth.log", deadline - time.monotonic())
        if made.code != 0:
            raise SystemExit(f"synth failed: "
                             f"{(run_dir / 'synth.log').read_text()[-300:]}")
        clip_ids = clip_ids_of(run_dir / "data.jsonl")

        # setup_s: validate runs between operations, so that they meet the
        # same machine load; the first one also fills the bytecode cache.
        def validate():
            cmd = run_command(["validate", "--manifest", "data.jsonl"],
                              run_dir, env, run_dir / "validate.log",
                              deadline - time.monotonic())
            if cmd.code != 0:
                raise SystemExit("validate failed: " + (
                    run_dir / "validate.log").read_text()[-300:])
            return cmd.wall_s

        validate()
        setups, ops = [], []
        loop_start = time.perf_counter()
        while not ops or time.perf_counter() - loop_start < seconds:
            op_dir = run_dir / f"op{len(ops)}"
            op = run_op(workload, op_dir, env, clip_ids, deadline)
            if ops and not op.failed:
                op.problems += compare_hashes(ops[0].hashes, op.hashes)
            ops.append(op)
            shutil.rmtree(op_dir, ignore_errors=True)
            if time.monotonic() > deadline:
                break
            setups.append(validate())
        loop_s = time.perf_counter() - loop_start
        while len(setups) < MIN_SETUPS:
            setups.append(validate())

        traced = None
        if trace:
            traced = trace_op(workload, seed, run_dir, clip_ids, ops[0],
                              env_record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_ops = ops + (traced["ops"] if traced else [])
    failed = [op for op in all_ops if op.failed]
    ok = [op for op in ops if not op.failed]
    if trace:
        metrics = {name: {"value": traced["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        accs = [op.held_out_acc for op in ok]
        values = {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(op.cpu_s for op in ops),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
            "held_out_acc": statistics.median(accs) if accs else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    report(workload, seed, ops, loop_s, setups, metrics, failed, len(all_ops))
    return {"correct": not failed, "attempted": len(all_ops),
            "failed": len(failed), "metrics": metrics}


def trace_op(workload, seed, run_dir: Path, clip_ids, reference,
             env_record) -> dict:
    """The operation in this process, plain and then traced; compared."""
    plain = run_op_in_process(workload, run_dir / "inproc", clip_ids)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_op_in_process(workload, run_dir / "traced", clip_ids)
    finally:
        tracer.uninstall()
    for op in (plain, traced):
        if not op.failed:
            op.problems += compare_hashes(reference.hashes, op.hashes)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    write_spans(WORK / f"spans-{workload.name}-seed{seed}.json", tracer,
                {"workload": workload.name, "seed": seed,
                 "environment": env_record})
    return {"ops": [plain, traced], "metrics": metrics}


def write_spans(path: Path, tracer: Tracer, header: dict):
    """Spans as [id, parent, layer index, start, end], in us from the first."""
    layers = sorted({span[2] for span in tracer.spans})
    index = {layer: i for i, layer in enumerate(layers)}
    t0 = min((span[3] for span in tracer.spans), default=0.0)
    spans = [[sid, parent, index[layer], round((start - t0) * 1e6),
              round((end - t0) * 1e6)]
             for sid, parent, layer, start, end in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "layers": layers,
                   "fields": ["id", "parent", "layer", "start_us", "end_us"],
                   "spans": spans, "counts": dict(tracer.counts)}, fh,
                  separators=(",", ":"))


def report(workload, seed, ops, loop_s, setups, metrics, failed, attempted):
    walls = sorted(op.wall_s for op in ops)
    print(f"{workload.name} (seed {seed}): {len(ops)} operations in "
          f"{loop_s:.1f} s, closed loop, one client; wall_s "
          f"{walls[0]:.3f} .. {walls[-1]:.3f} s; setup_s median of "
          f"{len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ops':32s} {len(failed):>14d} of {attempted}")
    for op in failed:
        for problem in op.problems:
            print(f"    FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that running commands are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "smallclip" / "cli.py").is_file():
        sys.stderr.write(f"error: no smallclip sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env_record = environment()
    results = {name: measure(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), env_record)
               for name in names}
    print("environment " + json.dumps(env_record, sort_keys=True))
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
