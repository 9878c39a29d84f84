"""parallel_map: order, worker cap, and how worker failures reach the caller.

No test starts more than ``os.cpu_count()`` worker processes.
"""

import os
import time

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
