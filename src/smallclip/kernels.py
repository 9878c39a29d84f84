"""Hot numeric kernels: CART best-split search and tree traversal.

Both kernels are numpy. ``tests/test_forest.py`` keeps plain-Python loop
versions of them as references and checks that these return the same results
bit for bit.

Split quality: for class counts c with S = sum(c^2) over a node of n samples,
the (unnormalized) Gini impurity is n - S/n. The kernel maximizes
S_L/n_L + S_R/n_R, which is equivalent to minimizing the summed child
impurity; a split is accepted only if it strictly beats the parent's S/n, so
an accepted split never worsens impurity. The threshold is the midpoint of
the two adjacent distinct values, or the lower value when the midpoint rounds
up to the upper one.

``best_split`` scores all drawn features at once: it sorts the node's (n, m)
values column by column, accumulates the sorted labels' one-hot rows into
(n-1, m, C) left-child class counts, and evaluates the metric for every
boundary of every feature. Ties are broken toward the lowest feature index,
then the lowest threshold: each feature's first best boundary, then the first
feature holding the largest value. That is the split an ascending scan over
features and boundaries keeps when it replaces its candidate only on strict
improvement, so the result is the loop reference's bit for bit.
"""

from __future__ import annotations

import numpy as np


def best_split(X, y, idx, feats, n_classes):
    """Best Gini split of ``X[idx]`` among ``feats`` (ascending feature ids).

    Returns ``(feature, threshold, metric)`` with ``feature == -1`` when no
    split strictly improves on the parent. Samples with value <= threshold go
    left; both children are always nonempty.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    feats = np.ascontiguousarray(feats, dtype=np.int64)
    n = idx.shape[0]
    yy = y[idx]
    counts = np.bincount(yy, minlength=n_classes).astype(np.int64)
    s_parent = int(np.sum(counts * counts))
    best_metric = s_parent / n
    m = feats.shape[0]
    cols = np.arange(m)
    vals = X[idx[:, None], feats]
    order = np.argsort(vals, axis=0, kind="stable")
    sv = np.take_along_axis(vals, order, axis=0)
    # left[j, k]: class counts of the j + 1 smallest values of feature k
    onehot = np.zeros((n, m, n_classes), dtype=np.int64)
    onehot[np.arange(n)[:, None], cols, yy[order]] = 1
    left = np.cumsum(onehot, axis=0)[:-1]
    n_l = np.arange(1, n, dtype=np.int64)[:, None]
    s_left = np.sum(left * left, axis=2)
    right = counts - left
    s_right = np.sum(right * right, axis=2)
    metric = s_left / n_l + s_right / (n - n_l)
    metric[sv[:-1] == sv[1:]] = -np.inf
    rows = np.argmax(metric, axis=0)  # first best boundary per feature
    top = metric[rows, cols]
    k = int(np.argmax(top))  # first feature holding the largest value
    if top[k] <= best_metric:
        return -1, 0.0, best_metric
    j = rows[k]
    v, v_next = sv[j, k], sv[j + 1, k]
    thr = v + (v_next - v) / 2.0
    if thr >= v_next:  # midpoint rounded up to the next value
        thr = v
    return int(feats[k]), float(thr), float(top[k])


def tree_apply(feature, threshold, left, right, X):
    """Leaf node id reached by each row of X (array-encoded tree)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        nd = node[active]
        go_left = X[active, feature[nd]] <= threshold[nd]
        node[active] = np.where(go_left, left[nd], right[nd])
        active = active[feature[node[active]] >= 0]
    return node
