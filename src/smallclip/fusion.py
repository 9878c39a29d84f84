"""Late fusion of per-source class probabilities, and seed ensembles.

Fusion operates on probability vectors (post-softmax) that different sources
(video head, audio model, ensemble members) produced for the same clips, and
always renormalizes its output, so results are valid probability vectors even
when inputs carry small drift. ``learn_fusion_weights`` brute-forces an
accuracy-maximizing weight vector over a simplex grid, which is honest at
validation-set scale and fully reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .scores import ScoreTable


def _check_sources(probs) -> None:
    """ContractError unless ``probs`` (N, C) holds N >= 1 finite,
    nonnegative score vectors with positive sums."""
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ContractError(f"expected a nonempty list of score vectors, "
                            f"got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ContractError("score vectors must be finite")
    if np.any(probs < 0):
        raise ContractError("fusion expects probabilities, got negative scores")
    if np.any(probs.sum(axis=1) <= 0):
        raise ContractError("score vectors must have positive sum")


def check_weights(weights, n, error=ContractError) -> np.ndarray:
    """``weights`` as an (n,) array of finite, nonnegative values that are
    not all zero; otherwise ``error``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise error(f"expected {n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise error("fusion weights must be finite and nonnegative")
    if w.sum() <= 0:
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


def fuse_tables(tables, weights=None) -> ScoreTable:
    """Fuse whole tables over the same clips: mean, or weighted mean.

    With no weights, or equal ones, the tables are summed, so fusing copies
    of one table gives it back up to renormalization; other weights take
    one matrix product. Every row is then renormalized to sum 1, and comes
    out bit for bit as it would if fused alone.
    """
    stack = _aligned(tables)
    for probs in stack:
        _check_sources(probs)
    w = None if weights is None else check_weights(weights, stack.shape[0])
    if w is None or np.all(w == w[0]):
        fused = stack.sum(axis=0)
    else:
        fused = w @ stack.transpose(1, 0, 2)
    return ScoreTable(list(tables[0].ids),
                      fused / fused.sum(axis=1, keepdims=True))


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


def learn_fusion_weights(tables, labels, grid_step=None):
    """Exhaustive simplex-grid search for fusion weights.

    ``labels`` maps clip id to class index and must cover every clip of the
    aligned tables. Candidate weights are multiples of ``grid_step`` summing
    to one (K = 1/grid_step steps, see ``grid_divisions``); accuracy ties
    prefer the vector closest to uniform (exact integer distance), then the
    lexicographically smallest. Returns ``(weights, accuracy)``. Unit
    vectors are on the grid, so the winner is never worse than any single
    source.
    """
    stack = _aligned(tables)
    m, n_clips, _ = stack.shape
    if grid_step is None:
        grid_step = default_grid_step(m)
    k = grid_divisions(grid_step)
    ids = tables[0].ids
    missing = [cid for cid in ids if cid not in labels]
    if missing:
        raise ContractError(f"no label for clip {missing[0]!r}")
    y = np.array([labels[cid] for cid in ids], dtype=np.int64)

    best = None  # (hits, distance-to-uniform, composition)
    for comp in _compositions(k, m):
        w = np.asarray(comp, dtype=np.float64) / k
        fused = np.einsum("m,mnc->nc", w, stack)
        hits = int(np.sum(np.argmax(fused, axis=1) == y))
        dist = sum((ki * m - k) ** 2 for ki in comp)
        if best is None or hits > best[0] or (hits == best[0] and dist < best[1]):
            best = (hits, dist, comp)
    weights = np.asarray(best[2], dtype=np.float64) / k
    return weights, best[0] / n_clips
