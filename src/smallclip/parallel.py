"""Order-preserving parallel map over independent work units.

Used for the units of ``recipes.score_members`` (the members of
``recipe``, ``ensemble`` and ``repeat``, one unit per (modality, kind)
unless ``recipes._units`` splits one to give every worker a unit) and for
cross-validation folds, each of which trains its one member in the worker.
Each unit's result depends only on its own inputs, and results come back in
submission order, so outputs are identical no matter how many workers run.
When items raise, the caller gets the failure of the lowest item index.

With ``jobs > 1`` the units run in ``W = min(jobs, len(items), cores)``
children made with ``os.fork``, where ``cores`` counts the CPUs this
process may run on. Child ``k`` runs the fixed share of items ``k, k + W,
k + 2W, ...`` and stops at its first failure; then it writes one pickle to
its own pipe, its ``(index, result)`` pairs or the failure, and exits.
Children inherit the function, the items and everything the caller has
loaded (datasets) through fork, so nothing is sent to them; what a unit
changes in memory (a counter it bumps) stays in its child. The caller
trains nothing itself: it reads every pipe to the end, then reaps every
child before the map returns, also when it fails. The CLI runs BLAS on one
thread per process (``cli.BLAS_THREAD_VARS``), and children inherit that
one-thread pool, so ``W`` children keep ``W`` cores busy rather than each
starting a pool of its own. Each child freezes what it inherited out of its
garbage collector (``gc.freeze``) as it starts; the caller's collector is
left as it was. Where ``os.fork`` does not exist (Windows), the units run
one after another in the caller.
"""

from __future__ import annotations

import gc
import os
import pickle

from .errors import TrainingError

_FORK = hasattr(os, "fork")


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(fn, items, start, step):
    """Pickled ``(pairs, failure)`` for items ``start, start + step, ...``.

    ``pairs`` holds ``(index, pickled result)`` up to the first failure;
    ``failure`` is ``None`` or ``(index, exception)``. An exception is kept
    as it is if it survives a pickle round trip, so the caller gets its type
    and message. One that does not, or a result that cannot be pickled,
    becomes a TrainingError.
    """
    pairs, failure = [], None
    for i in range(start, len(items), step):
        try:
            result = fn(items[i])
        except BaseException as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = TrainingError(
                    f"item {i} raised {type(exc).__name__}: {exc} "
                    f"(not picklable, so only its text is kept)")
            failure = (i, exc)
            break
        try:
            pairs.append((i, pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))
        except Exception as exc:
            failure = (i, TrainingError(
                f"the result of item {i} cannot be pickled: {exc}"))
            break
    return pickle.dumps((pairs, failure), pickle.HIGHEST_PROTOCOL)


def parallel_map(fn, items, jobs=1):
    """``[fn(item) for item in items]``, on up to ``jobs`` worker processes."""
    items = list(items)
    workers = min(jobs or 1, len(items), _cores())
    if workers <= 1 or not _FORK:
        return [fn(item) for item in items]

    children, fds = [], {}  # (pid, first index) not yet reaped; open reads
    results, failures = [None] * len(items), []
    try:
        for k in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: never returns
                # what it inherited is the caller's; its collections then
                # scan only what its units make, and never write to (so
                # copy) the inherited pages
                gc.freeze()
                code = 1
                try:
                    for fd in (read_fd, *fds.values()):
                        os.close(fd)
                    blob = _run_share(fn, items, k, workers)
                    with os.fdopen(write_fd, "wb") as out:
                        out.write(blob)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, k))
            fds[pid] = read_fd
        while children:
            pid, k = children[0]
            # read to the end before waiting: a result larger than the pipe
            # buffer blocks its writer until it is read
            with os.fdopen(fds.pop(pid), "rb") as pipe:
                blob = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0 or not blob:
                code = os.waitstatus_to_exitcode(status)
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                failures.append((k, TrainingError(
                    f"a worker process died: it {how}")))
                continue
            pairs, failure = pickle.loads(blob)
            for i, result in pairs:
                results[i] = pickle.loads(result)
            if failure is not None:
                failures.append(failure)
    finally:
        for fd in fds.values():
            os.close(fd)
        if children:  # unreaped, so their pids are still ours
            # imported here: every CLI command imports this module, and
            # loading signal's enums raised every command's peak memory
            from signal import SIGKILL
            for pid, _ in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
