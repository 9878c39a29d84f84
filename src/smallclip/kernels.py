"""Hot numeric kernels: CART best-split search and tree traversal.

Both kernels exist twice: a numba ``@njit`` version and a pure-numpy fallback.
The env flag ``SMALLCLIP_NUMBA=0`` (or a failed numba import) selects the
fallback; ``set_backend()`` switches at runtime (used by the forest tests'
``backend`` fixture). The two paths do the same integer count arithmetic and
the same float divisions in the same order, so they return identical
results. The equivalence tests call both kernels directly: the loop kernel
runs compiled where numba imports and, through the ``njit`` shim below, as
plain Python otherwise.

Split quality: for class counts c with S = sum(c^2) over a node of n samples,
the (unnormalized) Gini impurity is n - S/n. The kernel maximizes
S_L/n_L + S_R/n_R, which is equivalent to minimizing the summed child
impurity; a split is accepted only if it strictly beats the parent's S/n, so
an accepted split never worsens impurity. Ties are broken toward the lowest
feature index, then the lowest threshold (features and candidate thresholds
are scanned in ascending order with a strict improvement test).
"""

from __future__ import annotations

import logging
import os

import numpy as np

log = logging.getLogger("smallclip")

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - runs only where numba is absent
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


def _env_wants_numba() -> bool:
    return os.environ.get("SMALLCLIP_NUMBA", "1").lower() not in ("0", "false", "off")


_BACKEND = "numba" if (_HAVE_NUMBA and _env_wants_numba()) else "numpy"
if not _HAVE_NUMBA and _env_wants_numba():  # pragma: no cover
    log.info("numba unavailable; using the pure-numpy kernel path")


def backend() -> str:
    return _BACKEND


def set_backend(name: str):
    """Switch kernel backend ('numba' or 'numpy') at runtime."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    _BACKEND = name


# -- best split ---------------------------------------------------------------

# Compiled where numba imports, which coverage cannot trace; plain Python
# (and run by the equivalence tests) where it does not.
@njit(cache=True, nogil=True)
def _best_split_numba(X, y, idx, feats, n_classes):  # pragma: no cover
    n = idx.shape[0]
    counts = np.zeros(n_classes, np.int64)
    for j in range(n):
        counts[y[idx[j]]] += 1
    s_parent = 0
    for k in range(n_classes):
        s_parent += counts[k] * counts[k]
    best_metric = s_parent / n
    best_feat = -1
    best_thr = 0.0
    vals = np.empty(n, np.float64)
    left_counts = np.empty(n_classes, np.int64)
    for fi in range(feats.shape[0]):
        f = feats[fi]
        for j in range(n):
            vals[j] = X[idx[j], f]
        order = np.argsort(vals, kind="mergesort")
        if vals[order[0]] == vals[order[n - 1]]:
            continue
        for k in range(n_classes):
            left_counts[k] = 0
        s_left = 0
        s_right = s_parent
        for j in range(n - 1):
            c = y[idx[order[j]]]
            l_c = left_counts[c]
            r_c = counts[c] - l_c
            s_left += 2 * l_c + 1
            s_right += 1 - 2 * r_c
            left_counts[c] = l_c + 1
            v = vals[order[j]]
            v_next = vals[order[j + 1]]
            if v == v_next:
                continue
            n_l = j + 1
            n_r = n - n_l
            metric = s_left / n_l + s_right / n_r
            if metric > best_metric:
                best_metric = metric
                best_feat = f
                thr = v + (v_next - v) / 2.0
                if thr >= v_next:  # midpoint rounded up to the next value
                    thr = v
                best_thr = thr
    return best_feat, best_thr, best_metric


def _best_split_numpy(X, y, idx, feats, n_classes):
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
            if thr >= v_next:
                thr = v
            best_thr = float(thr)
    return best_feat, best_thr, best_metric


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
    if _BACKEND == "numba":
        feat, thr, metric = _best_split_numba(X, y, idx, feats, n_classes)
        return int(feat), float(thr), float(metric)
    return _best_split_numpy(X, y, idx, feats, n_classes)


# -- tree traversal -----------------------------------------------------------

# Compiled where numba imports, which coverage cannot trace; plain Python
# (and run by the equivalence tests) where it does not.
@njit(cache=True, nogil=True)
def _tree_apply_numba(feature, threshold, left, right, X, out):  # pragma: no cover
    for i in range(X.shape[0]):
        node = 0
        while feature[node] >= 0:
            if X[i, feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = node


def _tree_apply_numpy(feature, threshold, left, right, X):
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        nd = node[active]
        go_left = X[active, feature[nd]] <= threshold[nd]
        node[active] = np.where(go_left, left[nd], right[nd])
        active = active[feature[node[active]] >= 0]
    return node


def tree_apply(feature, threshold, left, right, X):
    """Leaf node id reached by each row of X (array-encoded tree)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if _BACKEND == "numba":
        out = np.empty(X.shape[0], dtype=np.int64)
        _tree_apply_numba(feature, threshold, left, right, X, out)
        return out
    return _tree_apply_numpy(feature, threshold, left, right, X)
