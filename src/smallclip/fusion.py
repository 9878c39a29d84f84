"""Late fusion of per-source class probabilities, and seed ensembles.

Fusion operates on probability vectors (post-softmax) that different sources
(video head, audio model, ensemble members) produced for the same clips, and
always renormalizes its output, so results are valid probability vectors even
when inputs carry small drift. ``learn_fusion_weights`` brute-forces an
accuracy-maximizing weight vector over a simplex grid, fusing and scoring
each grid point as ``fuse_tables`` and ``evaluate`` would.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .evaluate import labeled_rows
from .scores import ScoreTable


def check_weights(weights, n, error=ContractError) -> np.ndarray:
    """``weights`` as an (n,) array of finite, nonnegative values that are
    not all zero and whose sum is finite, so no fused score overflows;
    otherwise ``error``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise error(f"expected {n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise error("fusion weights must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        total = w.sum()
    if total == np.inf:
        raise error("fusion weights must have a finite sum")
    if total <= 0:
        raise error("fusion weights must not all be zero")
    return w


def _aligned(tables) -> np.ndarray:
    """Stack tables as (M, N, C) in the first table's id order."""
    if not tables:
        raise ContractError("no score tables to fuse")
    first = tables[0]
    out = [first.probs]
    for t in tables[1:]:
        if t.n_classes != first.n_classes:
            raise ContractError("score tables disagree on class count")
        out.append(t.reordered(first.ids).probs)
    return np.stack(out)


def _fuse(stack, w=None) -> np.ndarray:
    """The (N, C) weighted mean of an (M, N, C) stack, rows summing to 1.

    With no weights, or equal ones, the sources are summed, so fusing copies
    of one source gives it back up to renormalization; other weights take
    one matrix product. Every row comes out bit for bit as it would if
    fused alone.
    """
    if w is None or np.all(w == w[0]):
        fused = stack.sum(axis=0)
    else:
        fused = w @ stack.transpose(1, 0, 2)
    return fused / fused.sum(axis=1, keepdims=True)


def fuse(stack, weights=None) -> np.ndarray:
    """Fuse M sources that score the same N clips in the same order, as an
    (M, N, C) stack or M (N, C) arrays: mean, or weighted mean (``_fuse``)."""
    stack = np.asarray(stack, dtype=np.float64)
    w = None if weights is None else check_weights(weights, stack.shape[0])
    return _fuse(stack, w)


def fuse_tables(tables, weights=None) -> ScoreTable:
    """Fuse whole tables over the same clips (``fuse``), in the first
    table's id order."""
    fused = fuse(_aligned(tables), weights)  # refuses [] before tables[0]
    return ScoreTable(list(tables[0].ids), fused)


def _compositions(total, parts):
    # ascending lexicographic order; the order is the final tie-break
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def default_grid_step(n_sources: int) -> float:
    """0.05 for two sources, 0.1 beyond (the grid grows combinatorially)."""
    return 0.05 if n_sources <= 2 else 0.1


def grid_divisions(grid_step, name="grid_step", error=ContractError) -> int:
    """K = 1 / grid_step, for a step in (0, 0.5] whose reciprocal is an
    integer (to within 1e-9); otherwise ``error`` naming ``name``."""
    if not 0 < grid_step <= 0.5:
        raise error(f"{name} must be in (0, 0.5], got {grid_step}")
    k = round(1.0 / grid_step)
    if abs(1.0 / grid_step - k) > 1e-9:
        raise error(f"{name} must be 1/K for a whole number K, got "
                    f"{grid_step}")
    return k


def learn_fusion_weights(tables, ds, grid_step=None):
    """Exhaustive simplex-grid search for fusion weights.

    Candidate weights are multiples of ``grid_step`` summing to one (K =
    1/grid_step steps, see ``grid_divisions``), fused as ``fuse_tables``
    fuses and scored over ``evaluate.labeled_rows``, the labeled clips of
    ``ds`` the tables cover. Accuracy ties prefer the vector closest to
    uniform (exact integer distance), then the lexicographically smallest.
    Returns ``(weights, accuracy)``. Unit vectors are on the grid, so the
    winner is never worse than any single source.
    """
    stack = _aligned(tables)
    m = stack.shape[0]
    if grid_step is None:
        grid_step = default_grid_step(m)
    k = grid_divisions(grid_step)
    rows, y = labeled_rows(tables[0], ds)
    stack = stack[:, rows]

    def score(comp):
        w = np.asarray(comp, dtype=np.float64) / k
        return (int(np.sum(_fuse(stack, w).argmax(axis=1) == y)),
                -sum((ki * m - k) ** 2 for ki in comp))

    # max keeps the first of equal scores, the lexicographically smallest
    best = max(_compositions(k, m), key=score)
    return np.asarray(best, dtype=np.float64) / k, score(best)[0] / len(y)
