"""Hot numeric kernels: CART best-split search and tree traversal.

Both kernels are numpy. ``tests/test_forest.py`` keeps plain-Python loop
versions of them as references and checks that these return the same results
bit for bit.

Split quality: for class counts c with S = sum(c^2) over a node of n samples,
the (unnormalized) Gini impurity is n - S/n. The kernel maximizes
S_L/n_L + S_R/n_R, which is equivalent to minimizing the summed child
impurity; a split is accepted only if it strictly beats the parent's S/n, so
an accepted split never worsens impurity. Ties are broken toward the lowest
feature index, then the lowest threshold (features and candidate thresholds
are scanned in ascending order with a strict improvement test). The threshold
is the midpoint of the two adjacent distinct values, or the lower value when
the midpoint rounds up to the upper one.
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
    best_feat = -1
    best_thr = 0.0
    for f in feats:
        vals = X[idx, f]
        order = np.argsort(vals, kind="mergesort")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        sy = yy[order]
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), sy] = 1
        left = np.cumsum(onehot, axis=0)[:-1]
        n_l = np.arange(1, n, dtype=np.int64)
        s_left = np.sum(left * left, axis=1)
        right = counts[None, :] - left
        s_right = np.sum(right * right, axis=1)
        metric = s_left / n_l + s_right / (n - n_l)
        metric[sv[:-1] == sv[1:]] = -np.inf
        j = int(np.argmax(metric))
        if metric[j] > best_metric:
            best_metric = float(metric[j])
            best_feat = int(f)
            v, v_next = sv[j], sv[j + 1]
            thr = v + (v_next - v) / 2.0
            if thr >= v_next:  # midpoint rounded up to the next value
                thr = v
            best_thr = float(thr)
    return best_feat, best_thr, best_metric


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
