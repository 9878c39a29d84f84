"""Order-preserving parallel map over independent work units.

Used for the units of ``recipes.score_members`` (the members of
``recipe``, ``ensemble`` and ``repeat``) and for cross-validation folds. A
member unit is a stack of members of one kind that train as one stacked
model, or one forest or score-mean member (``recipes._units`` splits each
kind's members into at most ``jobs`` stacks, so the workers share them); a
fold trains its one member in the worker. Each unit's result depends only
on its own inputs, and results come back in submission order, so outputs
are identical no matter how many workers run. When an item raises, the
first failing item in submission order is what the caller gets.

With ``jobs > 1`` the units run in worker processes started with the
``fork`` start method, at most ``min(jobs, len(items), os.cpu_count())`` of
them, so members' numpy steps do not contend for one interpreter lock.
Workers inherit the function, the items and everything the caller has
loaded (datasets, memoized frame selections) through fork: only an item's
index goes out and its pickled result comes back. What a unit changes in
memory (a memo it fills, a counter it bumps) stays in its worker, so a
caller that wants such state shared fills it before the map. The CLI
runs BLAS on one thread per process (``cli.BLAS_THREAD_VARS``), and
forked workers inherit that one-thread pool, so ``jobs`` workers keep
``jobs`` cores busy rather than each starting a pool of its own. Every
worker is joined before the map returns. Where no ``fork`` start method exists
(Windows), the units run one after another in the caller.
"""

from __future__ import annotations

import os
import pickle

from .errors import TrainingError

# The pool's modules are imported when a pool starts, not with the package:
# every CLI command imports this module, and most never start a pool.
_FORK = hasattr(os, "fork")

# (fn, items) of the map being run; set before the workers fork, so each
# worker inherits it and receives only item indices.
_task = None


def _run(i):
    """Run item ``i`` in a worker; return its result pickled.

    An exception from the item is re-raised as it is if it survives a pickle
    round trip, so the caller gets its type and message. An exception that
    does not, or a result that cannot be pickled, becomes a TrainingError.
    """
    fn, items = _task
    try:
        result = fn(items[i])
    except BaseException as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise TrainingError(
                f"item {i} raised {type(exc).__name__}: {exc} "
                f"(not picklable, so only its text is kept)") from None
        raise
    try:
        return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise TrainingError(
            f"the result of item {i} cannot be pickled: {exc}") from None


def parallel_map(fn, items, jobs=1):
    """``[fn(item) for item in items]``, on up to ``jobs`` worker processes."""
    items = list(items)
    workers = min(jobs or 1, len(items), os.cpu_count() or 1)
    if workers <= 1 or not _FORK:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _task
    _task = (fn, items)
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            try:
                blobs = list(pool.map(_run, range(len(items))))
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
    except BrokenProcessPool as exc:
        raise TrainingError(f"a worker process died: {exc}") from None
    finally:
        _task = None
    return [pickle.loads(blob) for blob in blobs]
