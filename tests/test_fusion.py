import numpy as np
import pytest

from smallclip.data import build_dataset
from smallclip.errors import ContractError
from smallclip.evaluate import evaluate, predictions_from_table
from smallclip.fusion import (default_grid_step, fuse_tables, grid_divisions,
                              learn_fusion_weights)
from smallclip.scores import ScoreTable

from conftest import make_clip


def labeled(labels, n_classes=2):
    """A val-split dataset whose clips carry the labels of ``labels``, a
    clip id to class map."""
    rng = np.random.default_rng(0)
    return build_dataset([make_clip(rng, cid, split="val", label=y,
                                    n_classes=n_classes)
                          for cid, y in labels.items()])


def fuse_rows(sources, weights=None):
    """The fused row of ``fuse_tables`` over one-row tables, one per source
    vector."""
    tables = [ScoreTable(["c"], np.asarray(s, dtype=np.float64)[None])
              for s in sources]
    return fuse_tables(tables, weights).probs[0]


def per_row_reference(tables, weights=None):
    """Reference: each clip's row fused on its own, uniform weights by a
    plain sum, then renormalized."""
    first = tables[0]
    stack = np.stack([first.probs]
                     + [t.reordered(first.ids).probs for t in tables[1:]])
    w = np.ones(len(tables)) if weights is None else np.asarray(weights)
    rows = []
    for i in range(stack.shape[1]):
        v = (stack[:, i, :].sum(axis=0) if np.all(w == w[0])
             else w @ stack[:, i, :])
        rows.append(v / v.sum())
    return np.stack(rows)


def test_mean_of_identical_sources_is_identity():
    p = np.array([0.25, 0.25, 0.5])  # dyadic, so the reduction is exact
    assert np.array_equal(fuse_rows([p, p, p]), p)
    q = np.random.default_rng(0).dirichlet(np.ones(7))
    assert np.allclose(fuse_rows([q, q]), q, atol=1e-12)


def test_mean_of_one_hots():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(fuse_rows([a, b]), [0.5, 0.5, 0.0])


def test_mean_matches_manual_average(rng):
    stack = rng.dirichlet(np.ones(5), size=4)
    expected = stack.mean(axis=0)
    expected = expected / expected.sum()
    assert np.allclose(fuse_rows(list(stack)), expected, atol=1e-12)


def test_output_is_renormalized(rng):
    # sources that do not sum to one still fuse to a distribution
    a = np.array([0.2, 0.2, 0.2])
    b = np.array([0.6, 0.3, 0.3])
    out = fuse_rows([a, b])
    assert abs(out.sum() - 1.0) < 1e-9
    out = fuse_rows([a, b], [0.7, 0.3])
    assert abs(out.sum() - 1.0) < 1e-9


def test_unit_weight_returns_source_unchanged():
    a = np.array([0.25, 0.25, 0.5])
    b = np.array([0.1, 0.1, 0.8])
    assert np.array_equal(fuse_rows([a, b], [1.0, 0.0]), a)


def test_uniform_weights_match_mean_exactly(rng):
    srcs = list(rng.dirichlet(np.ones(7), size=3))
    assert np.array_equal(fuse_rows(srcs, [0.5, 0.5, 0.5]),
                          fuse_rows(srcs))


def test_weighted_fixture():
    a = np.array([0.8, 0.2])
    b = np.array([0.4, 0.6])
    out = fuse_rows([a, b], [0.65, 0.35])
    assert np.allclose(out, [0.66, 0.34], atol=1e-12)


def test_negative_and_nonfinite_sources_rejected():
    with pytest.raises(ContractError):
        fuse_rows([np.array([0.5, -0.1]), np.array([0.5, 0.5])])
    with pytest.raises(ContractError):
        fuse_rows([np.array([np.inf, 0.0])])
    with pytest.raises(ContractError):
        fuse_rows([np.array([0.0, 0.0])])


def test_bad_weights_rejected():
    a = np.array([0.5, 0.5])
    with pytest.raises(ContractError):
        fuse_rows([a, a], [1.0])
    with pytest.raises(ContractError):
        fuse_rows([a, a], [0.5, -0.5])
    with pytest.raises(ContractError):
        fuse_rows([a, a], [0.0, 0.0])
    # each is finite, but a fused score would overflow
    with pytest.raises(ContractError, match="finite sum"):
        fuse_rows([a, a], [1.7e308, 1.6e308])


def test_fuse_tables_copies_and_order(rng):
    a, b = table_pair(rng)
    assert np.allclose(fuse_tables([a, a, a]).probs, a.probs, atol=1e-12)
    ab = fuse_tables([a, b])
    ba = fuse_tables([b, a]).reordered(a.ids)
    assert np.allclose(ab.probs, ba.probs, atol=1e-12)
    with pytest.raises(ContractError):
        fuse_tables([])


def rows_by_id(table):
    return dict(zip(table.ids, table.probs))


def table_pair(rng, n=6, c=4, shuffle=True):
    ids = [f"clip{i}" for i in range(n)]
    a = ScoreTable(list(ids), rng.dirichlet(np.ones(c), size=n))
    order = list(ids)
    if shuffle:
        order = [ids[i] for i in rng.permutation(n)]
    b = ScoreTable(order, rng.dirichlet(np.ones(c), size=n))
    return a, b


def test_fuse_tables_aligns_rows(rng):
    a, b = table_pair(rng)
    fused = fuse_tables([a, b])
    assert fused.ids == a.ids
    a_rows, b_rows, fused_rows = map(rows_by_id, (a, b, fused))
    for cid in a.ids:
        expected = fuse_rows([a_rows[cid], b_rows[cid]])
        assert np.allclose(fused_rows[cid], expected, atol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 50])
def test_fuse_tables_matches_per_row_reference(m, weighted):
    rng = np.random.default_rng([m, weighted])
    ids = [f"clip{i}" for i in range(40)]
    for c in (3, 7):
        tables = [ScoreTable([ids[i] for i in rng.permutation(40)],
                             rng.dirichlet(np.ones(c), size=40))
                  for _ in range(m)]
        weights = rng.random(m) + 0.05 if weighted else None
        fused = fuse_tables(tables, weights)
        assert fused.ids == tables[0].ids
        assert np.array_equal(fused.probs,
                              per_row_reference(tables, weights))


def test_fuse_tables_weighted(rng):
    a, b = table_pair(rng, shuffle=False)
    fused = fuse_tables([a, b], weights=[0.65, 0.35])
    a_rows, b_rows, fused_rows = map(rows_by_id, (a, b, fused))
    for cid in a.ids:
        expected = fuse_rows([a_rows[cid], b_rows[cid]], [0.65, 0.35])
        assert np.allclose(fused_rows[cid], expected, atol=1e-12)


def test_fuse_tables_rejects_mismatched_tables(rng):
    a, _ = table_pair(rng, c=4)
    c = ScoreTable(list(a.ids), rng.dirichlet(np.ones(3), size=len(a)))
    with pytest.raises(ContractError):
        fuse_tables([a, c])
    with pytest.raises(ContractError):
        fuse_tables([])


def test_default_grid_step():
    assert default_grid_step(2) == 0.05
    assert default_grid_step(3) == 0.1
    assert default_grid_step(6) == 0.1


def test_grid_step_bounds(rng):
    a, b = table_pair(rng, shuffle=False)
    ds = labeled({cid: 0 for cid in a.ids}, n_classes=4)
    # 0.3 and 0.4 would search thirds and halves, not the step asked for
    for bad in (0.0, -0.1, 0.6, 1.0, 0.3, 0.4):
        with pytest.raises(ContractError):
            learn_fusion_weights([a, b], ds, grid_step=bad)
    learn_fusion_weights([a, b], ds, grid_step=0.5)  # boundary is legal
    for step, k in ((0.05, 20), (0.1, 10), (0.25, 4), (0.5, 2), (1 / 3, 3)):
        assert grid_divisions(step) == k


def test_learned_weights_isolate_reliable_source():
    # source B is so wrong that any B mass above one grid step flips clip x
    a = ScoreTable(["x", "y"], np.array([[0.505, 0.495], [0.1, 0.9]]))
    b = ScoreTable(["x", "y"], np.array([[0.0, 1.0], [0.0, 1.0]]))
    w, acc = learn_fusion_weights([a, b], labeled({"x": 0, "y": 1}))
    assert np.array_equal(w, [1.0, 0.0])
    assert acc == 1.0


def test_identical_sources_pick_uniform_weights(rng):
    probs = rng.dirichlet(np.ones(3), size=5)
    ids = [f"c{i}" for i in range(5)]
    a = ScoreTable(list(ids), probs)
    b = ScoreTable(list(ids), probs.copy())
    ds = labeled({cid: int(np.argmax(probs[i])) for i, cid in enumerate(ids)},
                 n_classes=3)
    w, acc = learn_fusion_weights([a, b], ds)
    assert np.array_equal(w, [0.5, 0.5])
    assert acc == 1.0


def test_three_clip_fixture_selects_sixty_forty():
    # all three clips are right only for weights in (0.52, 0.68): on the 0.1
    # grid that is exactly (0.6, 0.4)
    a = ScoreTable(["c0", "c1", "c2"],
                   np.array([[0.70, 0.30], [0.64, 0.36], [0.9, 0.1]]))
    b = ScoreTable(["c0", "c1", "c2"],
                   np.array([[0.28, 0.72], [0.20, 0.80], [0.6, 0.4]]))
    ds = labeled({"c0": 0, "c1": 1, "c2": 0})
    w, acc = learn_fusion_weights([a, b], ds, grid_step=0.1)
    assert np.allclose(w, [0.6, 0.4], atol=1e-12)
    assert acc == 1.0


def test_learned_weights_never_worse_than_single_source(rng):
    for _ in range(5):
        a, b = table_pair(rng, n=10, c=3, shuffle=False)
        labels = {cid: int(rng.integers(0, 3)) for cid in a.ids}
        y = np.array([labels[cid] for cid in a.ids])
        w, acc = learn_fusion_weights([a, b], labeled(labels, n_classes=3),
                                      grid_step=0.25)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)
        for t in (a, b):
            solo = np.mean(np.argmax(t.probs, axis=1) == y)
            assert acc >= solo


def test_learned_accuracy_is_what_fuse_and_evaluate_report():
    # ten-tree forest votes: at weights 0.4 0.2 0.4 classes 1 and 2 tie
    # exactly, so rounding in the fused row picks the winner, and the search
    # must round as `fuse` does
    probs = ([0.1, 0.5, 0.4], [0.4, 0.4, 0.2], [0.4, 0.2, 0.4])
    tables = [ScoreTable(["c0"], np.array([p])) for p in probs]
    ds = labeled({"c0": 2}, n_classes=3)
    w, acc = learn_fusion_weights(tables, ds)
    pred, true = predictions_from_table(fuse_tables(tables, weights=w), ds)
    assert acc == evaluate(pred, true, 3).overall
