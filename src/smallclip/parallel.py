"""Order-preserving parallel map over independent work units.

Used for ensemble members, CV folds and repeated seeds. Each unit's
result depends only on its own inputs, and results come back in submission
order, so outputs are identical no matter how many workers run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, jobs=1):
    items = list(items)
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))
