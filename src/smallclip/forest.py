"""Random forest of CART trees over fixed-length feature vectors.

Trees are grown to purity by default (no depth cap), each on a bootstrap
sample of the training set, choosing the best Gini split among
floor(sqrt(D)) randomly drawn features per node. The ensemble prediction is
the mean of the per-tree leaf class distributions.

Trees are stored as parallel arrays (feature, threshold, left, right, leaf
histogram) so traversal stays in the compiled kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, TrainingError


@dataclass
class Tree:
    feature: np.ndarray    # (n_nodes,) int64, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64
    right: np.ndarray      # (n_nodes,) int64
    hist: np.ndarray       # (n_nodes, C) int64 label counts, zeros off-leaf

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X) -> np.ndarray:
        return kernels.tree_apply(self.feature, self.threshold, self.left,
                                  self.right, X)

    def predict_proba(self, X) -> np.ndarray:
        leaves = self.apply(X)
        h = self.hist[leaves].astype(np.float64)
        return h / h.sum(axis=1, keepdims=True)


def grow_tree(X, y, n_classes, rng, max_depth=None, max_features=None,
              sample_idx=None):
    """Grow one CART tree on ``X[sample_idx]`` (all rows when None)."""
    n_total = X.shape[0]
    d = X.shape[1]
    if sample_idx is None:
        sample_idx = np.arange(n_total, dtype=np.int64)
    m = max_features if max_features is not None else max(1, math.isqrt(d))
    m = min(m, d)

    feature, threshold, left, right, hists = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        hists.append(np.zeros(n_classes, dtype=np.int64))
        return len(feature) - 1

    root = new_node()
    stack = [(root, sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = np.bincount(y[idx], minlength=n_classes).astype(np.int64)
        hists[node] = counts
        pure = counts.max() == idx.shape[0]
        capped = max_depth is not None and depth >= max_depth
        if pure or capped or idx.shape[0] < 2:
            continue
        feats = np.sort(rng.choice(d, size=m, replace=False))
        f, thr, _ = kernels.best_split(X, y, idx, feats, n_classes)
        if f < 0:
            continue
        mask = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        lid = new_node()
        rid = new_node()
        left[node] = lid
        right[node] = rid
        # push right first so the left child is grown (and numbered) first
        stack.append((rid, idx[~mask], depth + 1))
        stack.append((lid, idx[mask], depth + 1))

    return Tree(np.asarray(feature, dtype=np.int64),
                np.asarray(threshold, dtype=np.float64),
                np.asarray(left, dtype=np.int64),
                np.asarray(right, dtype=np.int64),
                np.stack(hists))


@dataclass
class Forest:
    trees: list[Tree]
    n_classes: int
    d_feature: int
    seed: int

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d_feature:
            raise ContractError(
                f"expected (n, {self.d_feature}) features, got {X.shape}")
        per_tree = np.stack([t.predict_proba(X) for t in self.trees])
        return per_tree.mean(axis=0)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def train_forest(X, y, n_classes, n_trees=100, seed=0, max_depth=None,
                 max_features=None) -> Forest:
    """Fit a forest of ``n_trees`` bootstrap CART trees.

    Each tree gets its own child seed (SeedSequence spawn), and inside a tree
    the bootstrap draw precedes all per-node feature draws, so results are
    reproducible and independent of evaluation order.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    n = X.shape[0]
    if n < 2:
        raise TrainingError(f"forest training needs at least 2 samples, got {n}")
    if n_trees < 1:
        raise ContractError(f"n_trees must be >= 1, got {n_trees}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ContractError("labels out of range for n_classes")

    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for ss in children:
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        trees.append(grow_tree(X, y, n_classes, rng, max_depth=max_depth,
                               max_features=max_features, sample_idx=boot))
    return Forest(trees, n_classes, X.shape[1], seed)
