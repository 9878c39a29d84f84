"""parallel_map: order, worker cap, and how worker failures reach the caller.

No test starts more than ``os.cpu_count()`` worker processes.
"""

import gc
import os
import pickle
import signal
import time

import numpy as np
import pytest

from smallclip import parallel
from smallclip.errors import ContractError, TrainingError
from smallclip.parallel import parallel_map

CORES = os.cpu_count() or 1
needs_two_cores = pytest.mark.skipif(
    CORES < 2 or not parallel._FORK,
    reason="needs two cores and the fork start method")


def pid_and_square(x):
    time.sleep(0.05)  # long enough that every worker takes some items
    return os.getpid(), x * x


@needs_two_cores
def test_results_in_order_from_two_worker_processes():
    out = parallel_map(pid_and_square, range(8), jobs=2)
    assert [sq for _, sq in out] == [x * x for x in range(8)]
    pids = {pid for pid, _ in out}
    assert len(pids) == 2
    assert os.getpid() not in pids


def test_worker_count_capped_at_cores():
    out = parallel_map(pid_and_square, range(8), jobs=64)
    assert [sq for _, sq in out] == [x * x for x in range(8)]
    assert len({pid for pid, _ in out}) <= CORES


def test_without_fork_runs_in_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "_FORK", False)
    out = parallel_map(pid_and_square, range(4), jobs=2)
    assert out == [(os.getpid(), x * x) for x in range(4)]


def test_closure_state_is_inherited_not_pickled():
    table = {i: f"v{i}" for i in range(6)}
    lookup = lambda i: table[i]  # a lambda cannot be pickled
    assert parallel_map(lookup, range(6), jobs=2) == [table[i] for i in range(6)]


@needs_two_cores
def test_worker_exception_keeps_type_and_message():
    def check(x):
        if x == 5:
            raise ContractError(f"item {x} is out of contract")
        return x

    with pytest.raises(ContractError, match="^item 5 is out of contract$"):
        parallel_map(check, range(8), jobs=2)


@needs_two_cores
def test_dead_worker_becomes_training_error():
    def die(x):
        if x == 2:
            os._exit(3)
        return x

    with pytest.raises(TrainingError, match="worker process died"):
        parallel_map(die, range(4), jobs=2)


@needs_two_cores
def test_unpicklable_result_becomes_training_error():
    with pytest.raises(TrainingError, match="cannot be pickled"):
        parallel_map(lambda x: (lambda: x), range(3), jobs=2)


@needs_two_cores
def test_first_failing_item_in_submission_order_is_raised_at_two_jobs():
    def run(x):
        if x == 4:
            raise ValueError("late item, fast failure")
        if x == 2:
            time.sleep(0.2)  # fails after item 4 has already failed
            raise ValueError("early item, slow failure")
        return x

    with pytest.raises(ValueError, match="^early item, slow failure$"):
        parallel_map(run, [1, 2, 3, 4], jobs=2)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cap_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    out = parallel_map(pid_and_square, range(4), jobs=2)
    assert out == [(os.getpid(), x * x) for x in range(4)]


@needs_two_cores
def test_result_larger_than_the_pipe_buffer_comes_back_intact():
    def big(seed):
        return np.random.default_rng(seed).standard_normal(1 << 17)  # 1 MB

    out = parallel_map(big, [1, 2, 3], jobs=2)
    for seed, arr in zip([1, 2, 3], out):
        assert np.array_equal(arr, big(seed))
    assert_no_child_left()


@needs_two_cores
def test_killed_worker_becomes_training_error_and_is_reaped():
    def die(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(TrainingError, match="worker process died"):
        parallel_map(die, range(4), jobs=2)
    assert_no_child_left()


@needs_two_cores
def test_no_child_left_after_success_or_an_item_error():
    assert parallel_map(pid_and_square, range(4), jobs=2)
    assert_no_child_left()

    def check(x):
        if x == 0:
            raise ContractError("item 0 fails at once")
        time.sleep(0.05)
        return x

    with pytest.raises(ContractError, match="^item 0 fails at once$"):
        parallel_map(check, range(6), jobs=2)
    assert_no_child_left()


@needs_two_cores
def test_children_freeze_their_collector_and_the_caller_keeps_its_own():
    before = gc.get_freeze_count()
    counts = parallel_map(lambda x: gc.get_freeze_count(), range(4), jobs=2)
    # each child froze what it inherited, the caller's objects included
    assert all(count > before for count in counts)
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("jobs", [2, 3])
def test_results_at_more_jobs_equal_those_at_one(jobs):
    def work(x):
        return {"x": x, "row": np.arange(x, dtype=np.float64) / 7}

    expect = parallel_map(work, range(7), jobs=1)
    out = parallel_map(work, range(7), jobs=jobs)
    assert [r["x"] for r in out] == [r["x"] for r in expect]
    for a, b in zip(out, expect):
        assert np.array_equal(a["row"], b["row"])


@needs_two_cores
def test_children_are_killed_and_reaped_when_the_caller_fails(monkeypatch):
    class Interrupted(Exception):
        pass

    class BrokenLoads:  # the parent fails to read child 0's result
        dumps = staticmethod(pickle.dumps)
        HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

        @staticmethod
        def loads(blob):
            raise Interrupted

    def slow(x):
        time.sleep(5 if x else 0)
        return x

    monkeypatch.setattr(parallel, "pickle", BrokenLoads)
    started = time.monotonic()
    with pytest.raises(Interrupted):
        parallel_map(slow, range(2), jobs=2)
    assert time.monotonic() - started < 4  # child 1 was killed, not awaited
    assert_no_child_left()
