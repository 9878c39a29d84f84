import numpy as np
import pytest

from smallclip import kernels
from smallclip.errors import ContractError, TrainingError
from smallclip.forest import Forest, Tree, grow_tree, train_forest


def gini_sum(y, n_classes):
    """Summed child impurity oracle: n - sum(counts^2)/n per node."""
    counts = np.bincount(y, minlength=n_classes)
    n = y.size
    return n - (counts.astype(float) ** 2).sum() / n


def test_best_split_two_point_fixture():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    f, thr, metric = kernels.best_split(X, y, np.arange(2), np.arange(1), 2)
    assert f == 0
    assert thr == 0.5
    assert metric == 2.0  # 1/1 + 1/1


def test_best_split_midpoint_rounding_up_keeps_lower_value():
    # v has an odd last mantissa bit, so v + (v_next - v)/2 rounds to v_next;
    # the threshold must fall back to v or both rows would go left
    v = 1.0 + 2.0 ** -52
    v_next = 1.0 + 2.0 ** -51
    X = np.array([[v], [v_next]])
    y = np.array([0, 1])
    f, thr, _ = kernels.best_split(X, y, np.arange(2), np.arange(1), 2)
    assert f == 0 and thr == v
    assert best_split_loop(X, y, np.arange(2), np.arange(1), 2)[1] == v


def test_best_split_prefers_lowest_feature_on_tie():
    # identical columns: both split perfectly, feature 0 must win
    col = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.stack([col, col], axis=1)
    y = np.array([0, 0, 1, 1])
    f, thr, _ = kernels.best_split(X, y, np.arange(4), np.arange(2), 2)
    assert f == 0 and thr == 0.5


def test_best_split_prefers_lowest_threshold_on_tie():
    # values 0,1,2,3 labels 0,1,0,1: any single split leaves impurity, and
    # boundaries after 0 and after 2 tie; the lower threshold must win
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    f, thr, _ = kernels.best_split(X, y, np.arange(4), np.arange(1), 2)
    assert f == 0 and thr == 0.5


def test_best_split_constant_feature_rejected():
    X = np.ones((6, 1))
    y = np.array([0, 1, 0, 1, 0, 1])
    f, _, _ = kernels.best_split(X, y, np.arange(6), np.arange(1), 2)
    assert f == -1


def test_best_split_pure_node_rejected():
    X = np.arange(5, dtype=float)[:, None]
    y = np.zeros(5, dtype=np.int64)
    f, _, _ = kernels.best_split(X, y, np.arange(5), np.arange(1), 3)
    assert f == -1


def test_accepted_split_never_worsens_gini():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 4, size=n).astype(np.int64)
        idx = np.arange(n)
        f, thr, _ = kernels.best_split(X, y, idx, np.arange(d), 4)
        if f < 0:
            continue
        mask = X[:, f] <= thr
        assert 0 < mask.sum() < n
        parent = gini_sum(y, 4)
        child = gini_sum(y[mask], 4) + gini_sum(y[~mask], 4)
        assert child < parent + 1e-9


def best_split_loop(X, y, idx, feats, n_classes):
    """Loop reference for ``kernels.best_split``: one feature and one
    candidate boundary at a time, with the same integer count arithmetic and
    the same float divisions in the same order."""
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


def tree_apply_loop(feature, threshold, left, right, X):
    """Loop reference for ``kernels.tree_apply``: walk each row to its leaf."""
    out = np.empty(X.shape[0], dtype=np.int64)
    for i in range(X.shape[0]):
        node = 0
        while feature[node] >= 0:
            if X[i, feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = node
    return out


def split_and_reference(X, y, idx, feats, n_classes):
    """``kernels.best_split`` and the loop reference on one input.

    The reference gets the arrays converted as ``best_split`` converts them.
    Floats are returned as hex strings to compare bit for bit.
    """
    fa, ta, ma = kernels.best_split(X, y, idx, feats, n_classes)
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    feats = np.ascontiguousarray(feats, dtype=np.int64)
    fb, tb, mb = best_split_loop(X, y, idx, feats, n_classes)
    return ((fa, float(ta).hex(), float(ma).hex()),
            (int(fb), float(tb).hex(), float(mb).hex()))


def test_kernel_paths_match_loop_reference():
    rng = np.random.default_rng(23)
    # a separate stream for the grow_tree-style inputs leaves the draws of
    # the tied-value cases independent of them
    boot_rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(4, 80))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        # duplicated values exercise the tie handling
        X[rng.random(size=X.shape) < 0.3] = 0.25
        y = rng.integers(0, 5, size=n).astype(np.int64)
        a, b = split_and_reference(X, y, np.arange(n), np.arange(d), 5)
        assert a == b
        # what grow_tree passes: a bootstrap sample (repeated rows) and a
        # sorted random feature subset
        for _ in range(4):
            boot = boot_rng.integers(0, n, size=n)
            m = int(boot_rng.integers(1, d + 1))
            feats = np.sort(boot_rng.choice(d, size=m, replace=False))
            a, b = split_and_reference(X, y, boot, feats, 5)
            assert a == b


def test_best_split_matches_loop_reference_on_random_nodes():
    rng = np.random.default_rng(31)
    kinds = {"split": 0, "no split": 0}
    for node in range(500):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 10))
        n_classes = int(rng.integers(2, 8))
        # few distinct values, so boundaries tie within and across features
        X = rng.integers(0, 4, size=(n, d)) * 0.5
        if d > 1:
            X[:, rng.integers(0, d)] = X[:, rng.integers(0, d)]  # copy
            X[:, rng.integers(0, d)] = 1.5  # a constant feature
        if node % 10 == 0:
            X[:] = 0.25  # every feature constant
        y = rng.integers(0, n_classes, size=n).astype(np.int64)
        idx = rng.integers(0, n, size=n)  # bootstrap rows repeat
        m = int(rng.integers(1, d + 1))
        feats = np.sort(rng.choice(d, size=m, replace=False))
        a, b = split_and_reference(X, y, idx, feats, n_classes)
        assert a == b, (node, a, b)
        kinds["split" if a[0] >= 0 else "no split"] += 1
    assert min(kinds.values()) >= 50


def test_tree_apply_paths_match_loop_reference():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 6))
    y = rng.integers(0, 3, size=300).astype(np.int64)
    tree = grow_tree(X, y, 3, np.random.default_rng(0))
    # rows sitting exactly on a split threshold (the root's at least is
    # reached) check that value == threshold goes left
    nodes = np.nonzero(tree.feature >= 0)[0]
    ties = np.repeat(X[:1], nodes.size, axis=0)
    ties[np.arange(nodes.size), tree.feature[nodes]] = tree.threshold[nodes]
    X = np.vstack([X, ties])
    args = (tree.feature, tree.threshold, tree.left, tree.right, X)
    assert np.array_equal(kernels.tree_apply(*args), tree_apply_loop(*args))


def test_single_feature_gap_fixture():
    # perfectly separable at 0.5 with a gap (0.4, 0.6)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(0.0, 0.4, size=30)
    x1 = rng.uniform(0.6, 1.0, size=30)
    X = np.concatenate([x0, x1])[:, None]
    y = np.array([0] * 30 + [1] * 30, dtype=np.int64)
    forest = train_forest(X, y, 2, n_trees=10, seed=3)
    for tree in forest.trees:
        assert tree.feature[0] == 0
        assert 0.4 <= tree.threshold[0] <= 0.6
    assert (forest.predict(X) == y).all()


def test_depth_zero_pure_leaf():
    X = np.arange(8, dtype=float)[:, None]
    y = np.full(8, 3, dtype=np.int64)
    forest = train_forest(X, y, 7, n_trees=1, seed=0, max_depth=0)
    p = forest.predict_proba(np.array([[2.5]]))
    assert np.array_equal(p[0], np.eye(7)[3])


def test_two_tree_hand_average():
    t1 = Tree(np.array([0, -1, -1]), np.array([0.5, 0, 0]),
              np.array([1, -1, -1]), np.array([2, -1, -1]),
              np.array([[0, 0], [3, 1], [0, 2]]))
    t2 = Tree(np.array([-1]), np.array([0.0]), np.array([-1]),
              np.array([-1]), np.array([[1, 3]]))
    forest = Forest([t1, t2], 2, 1, 0)
    p = forest.predict_proba(np.array([[0.0], [1.0]]))
    # row 0: mean of (3/4, 1/4) and (1/4, 3/4); row 1: mean of (0,1), (1/4, 3/4)
    assert np.allclose(p[0], [0.5, 0.5])
    assert np.allclose(p[1], [0.125, 0.875])


def _stump(**changes):
    """A one-split tree over one feature, with ``changes`` to its arrays."""
    arrays = dict(feature=np.array([0, -1, -1]),
                  threshold=np.array([0.5, 0.0, 0.0]),
                  left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                  hist=np.array([[3, 3], [3, 1], [0, 2]]))
    return Tree(**{**arrays, **changes})


@pytest.mark.parametrize("trees, message", [
    ([], "forest has no trees"),
    ([_stump(), _stump(left=np.array([0, -1, -1]))],
     "tree 1: a child index is not after its parent"),
    ([_stump(feature=np.array([3, -1, -1]))],
     r"tree 0: a feature index is not -1 or in \[0, 1\)"),
    ([_stump(hist=np.array([[3, 3], [0, 0], [0, 2]]))],
     "tree 0: hist must be nonnegative with a positive sum at every leaf"),
    ([_stump(feature=np.array([0.0, -1.0, -1.0]))],
     "tree 0: .* the dtypes of forest.TREE_ARRAYS"),
], ids=["no-trees", "looping", "feature-out-of-range", "empty-leaf",
        "float-feature"])
def test_forest_rejects_a_tree_it_cannot_walk(trees, message):
    # only constructed: a looping tree would hang a prediction
    with pytest.raises(ContractError, match=message):
        Forest(trees, 2, 1, 0)


def test_every_internal_hist_is_the_sum_of_its_children():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 5))
    y = rng.integers(0, 4, size=80).astype(np.int64)
    for seed in range(5):
        forest = train_forest(X, y, 4, n_trees=4, seed=seed)
        for tree in forest.trees:
            inner = np.nonzero(tree.feature >= 0)[0]
            assert inner.size
            assert np.array_equal(
                tree.hist[inner],
                tree.hist[tree.left[inner]] + tree.hist[tree.right[inner]])


def test_forest_overfits_noisy_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(140, 20))
    y = rng.integers(0, 7, size=140).astype(np.int64)
    forest = train_forest(X, y, 7, n_trees=30, seed=0)
    assert (forest.predict(X) == y).mean() >= 0.99


def test_tree_order_invariance():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60).astype(np.int64)
    forest = train_forest(X, y, 3, n_trees=9, seed=4)
    shuffled = Forest(list(reversed(forest.trees)), 3, 5, 4)
    assert np.allclose(forest.predict_proba(X), shuffled.predict_proba(X),
                       atol=1e-12)


def test_bootstrap_oob_fraction():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(250, 4))
    y = rng.integers(0, 3, size=250).astype(np.int64)
    forest = train_forest(X, y, 3, n_trees=40, seed=1)
    # each tree's bootstrap draw is the first draw of its spawned rng
    fractions = []
    for tree, ss in zip(forest.trees, np.random.SeedSequence(1).spawn(40)):
        boot = np.random.default_rng(ss).integers(0, 250, size=250)
        assert np.array_equal(tree.hist[0], np.bincount(y[boot], minlength=3))
        fractions.append(np.setdiff1d(np.arange(250), boot).size / 250)
    assert abs(np.mean(fractions) - 1 / np.e) < 0.05


def test_leaf_histograms_sum_to_sample_count():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 4, size=50).astype(np.int64)
    tree = grow_tree(X, y, 4, np.random.default_rng(1))
    leaves = tree.feature < 0
    assert tree.hist[leaves].sum() == 50  # full partition of the sample
    assert tree.hist[0].sum() == 50       # root histogram covers everything


def test_training_determinism():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40).astype(np.int64)
    f1 = train_forest(X, y, 3, n_trees=5, seed=11)
    f2 = train_forest(X, y, 3, n_trees=5, seed=11)
    for t1, t2 in zip(f1.trees, f2.trees):
        assert np.array_equal(t1.feature, t2.feature)
        assert np.array_equal(t1.threshold, t2.threshold)
        assert np.array_equal(t1.hist, t2.hist)


def test_more_trees_help_on_noise():
    rng = np.random.default_rng(0)
    wins = []
    for seed in range(10):
        r = np.random.default_rng([seed, 77])
        centers = r.normal(size=(3, 6)) * 1.2
        yt = r.integers(0, 3, size=120)
        X = centers[yt] + r.normal(size=(120, 6))
        Xv = centers[yt[:60]] + r.normal(size=(60, 6))
        one = train_forest(X, yt, 3, n_trees=1, seed=seed)
        many = train_forest(X, yt, 3, n_trees=50, seed=seed)
        acc1 = (one.predict(Xv) == yt[:60]).mean()
        acc50 = (many.predict(Xv) == yt[:60]).mean()
        wins.append(acc50 - acc1)
    assert np.mean(wins) >= 0


def test_too_few_samples_raises():
    with pytest.raises(TrainingError):
        train_forest(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), 2)
