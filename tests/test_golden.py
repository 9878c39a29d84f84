"""Golden outputs: two fixed command sequences through ``cli.main``, checked
against the files in ``tests/data/golden/``.

* ``roundtrip-hard``: the README round trip on noisy synth data (seed 1):
  ``train-video --pooling lstm``, ``train-audio --model forest``, two
  ``predict``, ``learn-fusion``, ``fuse`` with the learned weights and
  ``evaluate`` against the packaged AFEW distribution.
* ``s6-small-j2``: ``recipe --preset submission1`` to ``submission7`` at
  ``--jobs`` 1 and 2 on small, well-separated synth data (seed 1).
* ``sgd-small``: ``train-video`` and ``predict`` of an LSTM and an avg-pool
  head trained by SGD with momentum (``SGD_CONFIG``), on tiny noisy synth
  data whose 28 train clips end every epoch on a short batch. No preset
  trains with SGD, so this pins its step end to end.

``golden.json`` holds the SHA-256 of every output file and of every
command's stdout (run manifests are left out: they record the duration),
and the environment the files were made in. The score tables themselves
are stored next to it.

* In that environment (same Python, numpy, BLAS and CPU model) the test
  runs in ``exact`` mode: every digest must match, byte for byte.
* Anywhere else, such as CI's runners, it runs in ``portable`` mode: every
  score table must pick the stored table's argmax on every clip and agree
  with it within ``TOLERANCE`` on every value. Checkpoints, the fusion
  weights, the report and stdout are not compared there; the tables
  predicted from them are.

A change that alters an output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from smallclip.cli import main
from smallclip.scores import load_score_table

GOLDEN = Path(__file__).parent / "data" / "golden"
TOLERANCE = 1e-6  # absolute, on each probability, in portable mode


def _fuse_with_learned_weights():
    weights = json.loads(Path("fusion.json").read_text())["weights"]
    return ["fuse", "--scores", "video.csv", "audio.csv",
            "--weights", *map(repr, weights), "--out", "fused.csv"]


ROUNDTRIP = [
    ["synth", "--seed", "1", "--margin", "2", "--noise", "1.0",
     "--clips-per-class", "12", "--val-per-class", "10",
     "--out", "data.jsonl"],
    ["train-video", "--manifest", "data.jsonl", "--pooling", "lstm",
     "--seed", "0", "--out", "video.json"],
    ["train-audio", "--manifest", "data.jsonl", "--model", "forest",
     "--seed", "0", "--out", "audio.json"],
    ["predict", "--model", "video.json", "--manifest", "data.jsonl",
     "--out", "video.csv"],
    ["predict", "--model", "audio.json", "--manifest", "data.jsonl",
     "--out", "audio.csv"],
    ["learn-fusion", "--scores", "video.csv", "audio.csv",
     "--manifest", "data.jsonl", "--out", "fusion.json"],
    _fuse_with_learned_weights,
    ["evaluate", "--scores", "fused.csv", "--manifest", "data.jsonl",
     "--split", "val", "--dist", "afew_test_dist.csv", "--out", "report.csv"],
]

PRESETS = [
    ["synth", "--seed", "1", "--margin", "10", "--noise", "0.1",
     "--clips-per-class", "10", "--val-per-class", "5",
     "--out", "data.jsonl"],
    *(["recipe", "--preset", f"submission{k}", "--manifest", "data.jsonl",
       "--seed", "7", "--jobs", str(jobs),
       "--out", f"submission{k}-jobs{jobs}.csv"]
      for k in range(1, 8) for jobs in (1, 2)),
]

SGD_CONFIG = """\
optimizer = sgd
momentum = 0.9
lr = 0.05
epochs = 4
n = 8
lstm_hidden = 16
"""


def _train_video_sgd(pooling):
    def step():
        Path("sgd.cfg").write_text(SGD_CONFIG)
        return ["train-video", "--manifest", "data.jsonl", "--config",
                "sgd.cfg", "--pooling", pooling, "--seed", "0",
                "--out", f"{pooling}.json"]
    return step


SGD = [
    ["synth", "--seed", "1", "--margin", "2", "--noise", "1.0",
     "--clips-per-class", "4", "--val-per-class", "3",
     "--out", "data.jsonl"],
    *(step for pooling in ("lstm", "avg-pool") for step in (
        _train_video_sgd(pooling),
        ["predict", "--model", f"{pooling}.json", "--manifest", "data.jsonl",
         "--out", f"{pooling}.csv"])),
]

SEQUENCES = {"roundtrip-hard": ROUNDTRIP, "s6-small-j2": PRESETS,
             "sgd-small": SGD}


def _is_table(name):
    return name.endswith(".csv") and not name.endswith("/report.csv")


def _stored(name):
    """The stored copy of a score table; ``--jobs`` 1 and 2 share one."""
    return GOLDEN / name.replace("-jobs1", "").replace("-jobs2", "")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    """What decides the last bits of the outputs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": cpu}


def run_sequence(name, root: Path):
    """Run sequence ``name`` in a new directory under ``root``; returns the
    files it wrote (as ``name/file``, under ``root``) and each command's
    stdout, keyed by the command line."""
    workdir = root / name
    workdir.mkdir()
    outputs, stdout, cwd = [], {}, os.getcwd()
    try:
        os.chdir(workdir)
        for step in SEQUENCES[name]:
            argv = step() if callable(step) else step
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == 0, f"smallclip {' '.join(argv)} exited {code}"
            # the run manifest next to each output records the duration
            outputs.append(f"{name}/{argv[argv.index('--out') + 1]}")
            stdout[" ".join(["smallclip", *argv])] = out.getvalue()
    finally:
        os.chdir(cwd)
    return outputs, stdout


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_golden_outputs(name, tmp_path):
    golden = json.loads((GOLDEN / "golden.json").read_text())
    mode = ("exact" if environment() == golden["environment"]
            else "portable")
    print(f"golden outputs of {name}: {mode} mode")
    outputs, stdout = run_sequence(name, tmp_path)
    want = golden["outputs"][name]
    assert sorted(outputs) == sorted(want)
    for out in outputs:
        path = tmp_path / out
        if mode == "exact":
            assert _sha256(path.read_bytes()) == want[out], \
                f"{mode} mode: {out} differs from its golden digest"
        elif _is_table(out):
            got, ref = load_score_table(path), load_score_table(_stored(out))
            assert got.ids == ref.ids, f"{mode} mode: {out}: clip ids differ"
            assert np.array_equal(got.probs.argmax(axis=1),
                                  ref.probs.argmax(axis=1)), \
                f"{mode} mode: {out}: a clip's argmax differs"
            worst = float(np.max(np.abs(got.probs - ref.probs)))
            assert worst <= TOLERANCE, \
                f"{mode} mode: {out}: a score differs by {worst:.3g}"
    if mode == "exact":
        digests = {cmd: _sha256(text.encode()) for cmd, text in stdout.items()}
        assert digests == golden["stdout"][name], \
            f"{mode} mode: stdout of {name} differs"


def test_golden_directory_holds_the_digests_and_the_tables_alone():
    # what regenerate() writes, so regenerating deletes no tracked file
    golden = json.loads((GOLDEN / "golden.json").read_text())
    want = {GOLDEN / "golden.json"} | {
        _stored(out) for outputs in golden["outputs"].values()
        for out in outputs if _is_table(out)}
    assert {p for p in GOLDEN.rglob("*") if p.is_file()} == want


def regenerate():
    """Rewrite ``tests/data/golden/`` from the outputs of this checkout."""
    golden = {"environment": environment(), "outputs": {}, "stdout": {}}
    tables = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in sorted(SEQUENCES):
            outputs, stdout = run_sequence(name, root)
            golden["stdout"][name] = {cmd: _sha256(text.encode())
                                      for cmd, text in stdout.items()}
            golden["outputs"][name] = {}
            for out in outputs:
                data = (root / out).read_bytes()
                golden["outputs"][name][out] = _sha256(data)
                if _is_table(out):
                    stored = _stored(out)
                    if tables.setdefault(stored, data) != data:
                        sys.exit(f"{out} differs from its other --jobs run")
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for stored, data in tables.items():
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_bytes(data)
    (GOLDEN / "golden.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
