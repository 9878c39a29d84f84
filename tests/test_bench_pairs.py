"""tools/bench_pairs.py on two stub trees whose run.py prints canned lines.

The real benchmark never runs here: each stub's ``perfbench/run.py`` logs
its side to a file outside the trees and prints the next of its canned
results, and each stub's ``src/smallclip/cli.py`` sets its own BLAS thread
default.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "held_out_acc", "unit": "fraction", "better": "higher",
     "bound": 0.25},
]

STUB = '''\
import json, os, sys
from pathlib import Path
side = Path(__file__).resolve().parents[1].name
runs = {runs!r}
log = Path(os.environ["BENCH_PAIRS_LOG"])
seen = log.read_text().split() if log.exists() else []
with open(log, "a") as fh:
    fh.write(side + " " + " ".join(sys.argv[1:]).replace(" ", ",") + "\\n")
values = dict(runs[sum(1 for word in seen if word == side)])
attempted, failed = values.pop("attempted", 3), values.pop("failed", 0)
print("s6-small-j2 (seed 1): a canned line")
print("environment " + json.dumps({{"side": side, "nproc": 2}}))
print(json.dumps({{"correct": not failed, "attempted": attempted,
                  "failed": failed,
                  "metrics": {{k: {{"value": v, "unit": "s"}}
                              for k, v in values.items()}}}}))
'''


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a stub cli module: it sets its BLAS variables on import, as the real one
# does, with a thread count that tells the sides apart
CLI_STUB = """\
import os
BLAS_THREAD_VARS = {names!r}
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, {threads!r})
"""


def parent_run(i):
    return {"wall_s": 0.7, "setup_s": 0.3 + i / 100, "cpu_s": 1.0 + i / 10,
            "peak_rss_mb": 35.0, "held_out_acc": 1.0}


def change_run(i):
    run = parent_run(i)
    # cpu_s: 0.5 s better in pairs 1-9, 0.1 s worse in pair 10
    run["cpu_s"] += -0.5 if i < 9 else 0.1
    # setup_s: far better, but in only 8 of 10 pairs
    run["setup_s"] += -1.0 if i < 8 else 0.01
    run["peak_rss_mb"] *= 1.1
    return run


def make_tree(root, name, runs):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB.format(runs=runs))
    package = tree / "src" / "smallclip"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(CLI_STUB.format(
        names=BLAS_VARS, threads="1" if name == "parent" else "3"))
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return tree


def listing(tree):
    return sorted(str(p.relative_to(tree)) for p in tree.rglob("*"))


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One ten-pair run of the driver; its output and the stubs' log."""
    root = tmp_path_factory.mktemp("bench")
    parent = make_tree(root, "parent", [parent_run(i) for i in range(10)])
    change = make_tree(root, "change", [change_run(i) for i in range(10)])
    before = {t: listing(t) for t in (parent, change)}
    out = root / "BENCH_99.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BENCH_PAIRS_LOG", str(root / "log"))
        mp.setenv("PYTHONDONTWRITEBYTECODE", "1")
        for name in BLAS_VARS:
            mp.delenv(name, raising=False)
        # a caller's value is what a child cli keeps
        mp.setenv("MKL_NUM_THREADS", "2")
        environ = dict(os.environ)
        assert bench_pairs.main([str(parent), str(change), "--workload",
                                 "s6-small-j2", "--seconds", "3",
                                 "--out", str(out)]) == 0
        assert dict(os.environ) == environ
    assert {t: listing(t) for t in (parent, change)} == before
    log = (root / "log").read_text().split("\n")[:-1]
    return json.loads(out.read_text()), log


def test_pairs_alternate_which_side_runs_first(bench):
    _, log = bench
    sides = [line.split()[0] for line in log]
    assert sides == ["parent", "change", "change", "parent"] * 5
    assert {line.split()[1] for line in log} == {
        "--workload,s6-small-j2,--seed,1,--seconds,3,--trace,0"}


def test_runs_are_kept_verbatim_with_each_side_environment(bench):
    result, _ = bench
    out = result["workloads"]["s6-small-j2"]
    for side, make in (("parent", parent_run), ("change", change_run)):
        assert out[side]["environment"] == {"side": side, "nproc": 2}
        runs = [json.loads(line) for line in out[side]["runs"]]
        assert [r["metrics"]["cpu_s"]["value"] for r in runs] == \
            [make(i)["cpu_s"] for i in range(10)]
        assert out[side]["runs"][0].startswith('{"correct": true')
    assert result["parent_commit"] is None


def test_blas_threads_are_what_each_side_cli_leaves_set(bench):
    result, _ = bench
    assert result["blas_threads"] == {
        side: {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": "2"}
        for side, threads in (("parent", "1"), ("change", "3"))}


def test_medians_and_inclusive_quartiles(bench):
    result, _ = bench
    parent = result["workloads"]["s6-small-j2"]["parent"]
    change = result["workloads"]["s6-small-j2"]["change"]
    # parent cpu_s 1.0 .. 1.9: quartiles at positions 2.25 and 6.75
    assert parent["median"]["cpu_s"] == pytest.approx(1.45)
    assert parent["quartiles"]["cpu_s"] == pytest.approx([1.225, 1.675])
    # change cpu_s 0.5 .. 1.3 and 2.0
    assert change["median"]["cpu_s"] == pytest.approx(0.95)
    assert change["quartiles"]["cpu_s"] == pytest.approx([0.725, 1.175])
    assert change["quartiles"]["wall_s"] == pytest.approx([0.7, 0.7])


def test_verdicts_follow_wins_and_the_parent_spread(bench):
    result, _ = bench
    metrics = result["workloads"]["s6-small-j2"]["metrics"]
    cpu = metrics["cpu_s"]
    assert (cpu["change_wins"], cpu["parent_wins"], cpu["pairs"]) == (9, 1, 10)
    assert cpu["median_gain"] == pytest.approx(0.5)
    assert cpu["parent_iqr"] == pytest.approx(0.45)
    assert cpu["gain"] is True and cpu["within_bound"] is True
    # a gap far wider than the spread, but won in only 8 of 10 pairs
    setup = metrics["setup_s"]
    assert setup["change_wins"] == 8 and setup["gain"] is False
    # ties count for neither side
    for name in ("wall_s", "held_out_acc"):
        m = metrics[name]
        assert m["change_wins"] == m["parent_wins"] == 0
        assert m["gain"] is False and m["within_bound"] is True
    # 10% more memory is beyond a 5% bound
    assert metrics["peak_rss_mb"]["parent_wins"] == 10
    assert metrics["peak_rss_mb"]["within_bound"] is False


def test_a_metric_beyond_its_bound_is_a_regression(bench):
    out = bench[0]["workloads"]["s6-small-j2"]
    assert [(out[side]["attempted"], out[side]["failed"])
            for side in ("parent", "change")] == [(30, 0), (30, 0)]
    assert out["no_regression"] is False  # peak_rss_mb, 10% over


@pytest.mark.parametrize("change_failures, verdict", [
    ([0, 0], True), ([1, 0], True), ([1, 1], False)])
def test_a_larger_failed_share_is_a_regression(tmp_path, monkeypatch, capsys,
                                               change_failures, verdict):
    # the parent fails one of its six operations; the change's metrics are
    # the parent's, cpu_s 10% worse, within its 25% bound
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(tmp_path / "log"))
    parent_runs = [dict(parent_run(0), failed=f) for f in (1, 0)]
    change_runs = [dict(parent_run(0), cpu_s=1.1, failed=f)
                   for f in change_failures]
    parent = make_tree(tmp_path, "parent", parent_runs)
    change = make_tree(tmp_path, "change", change_runs)
    out_path = tmp_path / "b.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "2", "--out", str(out_path)]) == 0
    out = json.loads(out_path.read_text())["workloads"]["w"]
    assert (out["parent"]["failed"], out["parent"]["attempted"]) == (1, 6)
    assert out["change"]["failed"] == sum(change_failures)
    assert all(m["within_bound"] for m in out["metrics"].values())
    assert out["no_regression"] is verdict
    assert (f"w: no_regression {verdict}, failed parent 1/6, change "
            f"{sum(change_failures)}/6") in capsys.readouterr().err.splitlines()


def test_a_failed_run_stops_the_driver(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(tmp_path / "log"))
    parent = make_tree(tmp_path, "parent", [parent_run(0)] * 2)
    change = make_tree(tmp_path, "change", [])  # IndexError: exits 1
    with pytest.raises(SystemExit, match="exited 1"):
        bench_pairs.main([str(parent), str(change), "--workload", "w",
                          "--pairs", "2", "--out", str(tmp_path / "b.json")])
    assert not (tmp_path / "b.json").exists()
