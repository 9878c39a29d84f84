"""Random forest of CART trees over fixed-length feature vectors.

Trees are grown to purity by default (no depth cap), each on a bootstrap
sample of the training set, choosing the best Gini split among
floor(sqrt(D)) randomly drawn features per node. The ensemble prediction is
the mean of the per-tree leaf class distributions.

This module owns the tree format, the parallel node arrays of
``TREE_ARRAYS`` that ``kernels.tree_apply`` walks, so traversal stays in the
compiled kernel. Every node holds the class counts of the rows that reached
it. ``Forest`` checks every tree it is given, trained, loaded or built by
hand, so that every walk ends at a leaf with a usable histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, TrainingError


# a tree's node arrays, in checkpoint order, with their dtypes
TREE_ARRAYS = {"feature": np.int64, "threshold": np.float64,
               "left": np.int64, "right": np.int64, "hist": np.int64}


@dataclass
class Tree:
    feature: np.ndarray    # (n_nodes,) int64, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64, -1 at leaves
    right: np.ndarray      # (n_nodes,) int64, -1 at leaves
    hist: np.ndarray       # (n_nodes, C) int64 class counts of every node

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


def _check_tree(i, tree: Tree, d_feature, n_classes):
    """ContractError naming tree ``i`` unless ``kernels.tree_apply`` walks it
    to a leaf with a usable histogram: children come after their parent (as
    ``grow_tree`` numbers them), so every walk moves forward and ends."""
    n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
    leaf, node = tree.feature == -1, np.arange(n)
    if n < 1 or any(a.shape != (n,) for a in
                    (tree.threshold, tree.left, tree.right)) or any(
            getattr(tree, key).dtype != t for key, t in TREE_ARRAYS.items()):
        problem = ("its node arrays must share one length of at least 1 "
                   "and have the dtypes of forest.TREE_ARRAYS")
    elif tree.hist.shape != (n, n_classes):
        problem = (f"hist has shape {tree.hist.shape}, expected "
                   f"{(n, n_classes)}")
    elif np.any(~leaf & ((tree.feature < 0) | (tree.feature >= d_feature))):
        problem = f"a feature index is not -1 or in [0, {d_feature})"
    elif np.any(np.where(
            leaf, (tree.left != -1) | (tree.right != -1),
            (tree.left <= node) | (tree.left >= n)
            | (tree.right <= node) | (tree.right >= n))):
        problem = ("a child index is not after its parent and inside the "
                   "tree, or a leaf has children")
    elif np.any(tree.hist < 0) or np.any(leaf & (tree.hist.sum(axis=1) <= 0)):
        problem = "hist must be nonnegative with a positive sum at every leaf"
    else:
        return
    raise ContractError(f"tree {i}: {problem}")


def grow_tree(X, y, n_classes, rng, max_depth=None, max_features=None,
              sample_idx=None):
    """Grow one CART tree on ``X[sample_idx]`` (all rows when None)."""
    n_total, d = X.shape
    if sample_idx is None:
        sample_idx = np.arange(n_total, dtype=np.int64)
    m = min(d, max_features if max_features is not None
            else max(1, math.isqrt(d)))

    nodes = [[-1, 0.0, -1, -1, None]]  # feature, threshold, left, right, hist
    stack = [(0, sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = np.bincount(y[idx], minlength=n_classes).astype(np.int64)
        nodes[node][4] = counts
        pure = counts.max() == idx.shape[0]
        capped = max_depth is not None and depth >= max_depth
        if pure or capped:
            continue
        feats = np.sort(rng.choice(d, size=m, replace=False))
        f, thr, _ = kernels.best_split(X, y, idx, feats, n_classes)
        if f < 0:
            continue
        mask = X[idx, f] <= thr
        lid = len(nodes)
        nodes[node][:4] = f, thr, lid, lid + 1
        nodes += [[-1, 0.0, -1, -1, None], [-1, 0.0, -1, -1, None]]
        # push right first so the left child is grown (and numbered) first
        stack.append((lid + 1, idx[~mask], depth + 1))
        stack.append((lid, idx[mask], depth + 1))

    feature, threshold, left, right, hists = zip(*nodes)
    return Tree(np.array(feature, dtype=np.int64),
                np.array(threshold, dtype=np.float64),
                np.array(left, dtype=np.int64),
                np.array(right, dtype=np.int64), np.stack(hists))


@dataclass
class Forest:
    trees: list[Tree]
    n_classes: int
    d_feature: int
    seed: int

    def __post_init__(self):
        if not self.trees:
            raise ContractError("forest has no trees")
        for i, tree in enumerate(self.trees):
            _check_tree(i, tree, self.d_feature, self.n_classes)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d_feature:
            raise ContractError(
                f"expected (n, {self.d_feature}) features, got {X.shape}")
        # (T, N, C): each tree's leaf histogram for each row
        h = np.stack([t.hist[kernels.tree_apply(t.feature, t.threshold,
                                                t.left, t.right, X)]
                      for t in self.trees], dtype=np.float64)
        return (h / h.sum(axis=2, keepdims=True)).mean(axis=0)

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
