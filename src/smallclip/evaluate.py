"""Accuracy reporting and small-validation-set model selection helpers.

The validation sets here are small enough that a single accuracy number is
noisy and class imbalance matters, so this module also provides:

* distribution-weighted accuracy, combined in exact rational arithmetic so
  reweighting by a split's own distribution reproduces plain accuracy
  bit for bit,
* repeated-seed statistics (mean and population spread), and
* stratified k-fold cross-validation over the merged train+val pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassDistribution, Dataset, quoted
from .errors import ConfigError, ContractError
from .parallel import parallel_map


def weighted_accuracy(per_class_acc, counts) -> float:
    """Combine per-class accuracies under given class counts, exactly.

    Computes sum(a_k * n_k) / sum(n_k) in rational arithmetic. A
    ``Fraction`` accuracy is used as given; any other value is converted to
    the exact fraction of its float. So uniform per-class accuracy comes
    back unchanged and results are reproducible to the last bit.
    """
    # imported where used: fractions loads decimal, and only weighted
    # accuracy needs them, so other commands skip their 0.37 MB
    from fractions import Fraction

    accs = [a if isinstance(a, Fraction) else Fraction(float(a))
            for a in per_class_acc]
    ns = [int(c) for c in counts]
    if len(accs) != len(ns):
        raise ContractError(f"{len(accs)} accuracies vs {len(ns)} counts")
    if any(n < 0 for n in ns):
        raise ContractError("class counts must be nonnegative")
    total = sum(ns)
    if total == 0:
        raise ContractError("class counts sum to zero")
    return float(sum(a * n for a, n in zip(accs, ns)) / total)


@dataclass
class EvalReport:
    n: int
    overall: float
    per_class: np.ndarray       # recall per class, 0.0 where no support
    support: np.ndarray         # (C,) true-label counts
    confusion: np.ndarray       # (C, C) rows true, columns predicted
    weighted: float | None      # under the given target distribution

    def to_text(self, names=None) -> str:
        C = self.per_class.shape[0]
        names = names or [f"class{i}" for i in range(C)]
        lines = [f"clips evaluated: {self.n}",
                 f"overall accuracy: {self.overall:.4f}"]
        if self.weighted is not None:
            lines.append(f"weighted accuracy: {self.weighted:.4f}")
        for k in range(C):
            lines.append(f"  {names[k]}: {self.per_class[k]:.4f} "
                         f"(n={self.support[k]})")
        return "\n".join(lines) + "\n"

    def to_csv(self, names=None) -> str:
        C = self.per_class.shape[0]
        names = names or [f"class{i}" for i in range(C)]
        lines = ["metric,value,n"]
        lines.append(f"overall,{self.overall!r},{self.n}")
        if self.weighted is not None:
            lines.append(f"weighted,{self.weighted!r},{self.n}")
        for k in range(C):
            lines.append(f"{names[k]},{float(self.per_class[k])!r},"
                         f"{self.support[k]}")
        return "\n".join(lines) + "\n"


def evaluate(pred_labels, true_labels, n_classes,
             dist: ClassDistribution | None = None) -> EvalReport:
    """Score integer predictions against labels.

    When ``dist`` is given, the weighted accuracy reweights per-class recall
    by that distribution; per-class terms are kept as exact hit/support
    ratios, so passing the labels' own distribution yields the overall
    accuracy exactly.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ContractError(f"prediction shape {pred.shape} vs label shape "
                            f"{true.shape}")
    if pred.size == 0:
        raise ContractError("nothing to evaluate")
    if true.min() < 0 or true.max() >= n_classes:
        raise ContractError("labels out of range")
    if pred.min() < 0 or pred.max() >= n_classes:
        raise ContractError("predictions out of range")

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true, pred), 1)
    support = confusion.sum(axis=1)
    hits = np.diag(confusion)
    per_class = np.where(support > 0, hits / np.maximum(support, 1), 0.0)
    overall = float(int(hits.sum()) / pred.size)

    weighted = None
    if dist is not None:
        from fractions import Fraction  # where used, as in weighted_accuracy

        if len(dist.counts) != n_classes:
            raise ContractError(f"distribution covers {len(dist.counts)} "
                                f"classes, expected {n_classes}")
        weighted = weighted_accuracy(
            [Fraction(int(hits[k]), int(support[k])) if support[k] > 0
             else Fraction(0) for k in range(n_classes)], dist.counts)
    return EvalReport(int(pred.size), overall, per_class, support, confusion,
                      weighted)


def labeled_rows(table, ds: Dataset, split: str | None = None):
    """(rows, true): the table rows of the labeled clips it scores, in
    dataset order, and their labels.

    With an explicit split, that split must have labeled clips and every
    one of them a row (a missing prediction is a contract error naming the
    clip); without one, the table's own coverage defines the evaluation
    set, which must not be empty.
    """
    clips = ds.labeled(split)
    pos = {cid: i for i, cid in enumerate(table.ids)}
    if split is not None:
        if not clips:
            raise ContractError(f"split {split!r} has no labeled clips")
        missing = [c.id for c in clips if c.id not in pos]
        if missing:
            raise ContractError(f"no prediction for labeled clip "
                                f"{quoted(missing[0])} in split {split!r}")
    else:
        clips = [c for c in clips if c.id in pos]
        if not clips:
            raise ContractError("score table covers no labeled clips")
    rows = np.array([pos[c.id] for c in clips], dtype=np.int64)
    true = np.array([c.label for c in clips], dtype=np.int64)
    return rows, true


def predictions_from_table(table, ds: Dataset, split: str | None = None):
    """(pred, true) label arrays over ``labeled_rows``."""
    rows, true = labeled_rows(table, ds, split)
    return table.probs[rows].argmax(axis=1), true


# -- repeated seeds ------------------------------------------------------------

@dataclass
class RunStatistics:
    seeds: list
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        """Population standard deviation across the runs."""
        return float(self.values.std())

    def to_text(self) -> str:
        runs = " ".join(f"{s}:{v:.4f}" for s, v in zip(self.seeds, self.values))
        return (f"runs: {runs}\nmean: {self.mean:.4f}\n"
                f"std: {self.std:.4f}\n")

    def to_csv(self) -> str:
        lines = ["seed,accuracy"]
        lines += [f"{s},{float(v)!r}" for s, v in zip(self.seeds, self.values)]
        return "\n".join(lines) + "\n"


# -- cross-validation ----------------------------------------------------------

@dataclass
class CVReport:
    k: int
    fold_accuracies: np.ndarray
    fold_sizes: np.ndarray
    pooled: float   # all held-out hits over all held-out clips

    @property
    def mean(self) -> float:
        return float(self.fold_accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.fold_accuracies.std())

    def to_text(self) -> str:
        folds = " ".join(f"{a:.4f}" for a in self.fold_accuracies)
        return (f"{self.k}-fold accuracies: {folds}\n"
                f"mean: {self.mean:.4f}\nstd: {self.std:.4f}\n"
                f"pooled: {self.pooled:.4f}\n")

    def to_csv(self) -> str:
        lines = ["fold,accuracy,n"]
        lines += [f"{i},{float(a)!r},{n}" for i, (a, n) in
                  enumerate(zip(self.fold_accuracies, self.fold_sizes))]
        lines.append(f"pooled,{self.pooled!r},{int(self.fold_sizes.sum())}")
        return "\n".join(lines) + "\n"


def cross_validate(ds: Dataset, k: int, fit_predict, jobs=1) -> CVReport:
    """Stratified k-fold CV over the merged labeled train+val pool.

    Clips of each class are dealt round-robin to folds in dataset order, so
    folds are deterministic and class-balanced. Every represented class must
    have at least k labeled clips. ``fit_predict(fold_ds, fold)`` gets a
    dataset whose train split is the k-1 training folds and whose val split
    is the held-out fold, and returns predicted labels for that val split
    in order. Folds are independent, so ``jobs`` does not change results.
    """
    if k < 2:
        raise ConfigError(f"cross-validation needs k >= 2, got {k}")
    pool = [c for c in ds.clips if c.split in ("train", "val")
            and c.label is not None]
    if not pool:
        raise ContractError("no labeled train or val clips to cross-validate")
    by_class: dict[int, list] = {}
    for c in pool:
        by_class.setdefault(c.label, []).append(c)
    for label, clips in sorted(by_class.items()):
        if len(clips) < k:
            raise ConfigError(f"class {label} has {len(clips)} labeled "
                              f"clips, fewer than k={k}")
    fold_of = {}
    for label in sorted(by_class):
        for i, c in enumerate(by_class[label]):
            fold_of[c.id] = i % k

    def run_fold(fold):
        train = [c.with_split("train") for c in pool if fold_of[c.id] != fold]
        held = [c for c in pool if fold_of[c.id] == fold]
        val = [c.with_split("val") for c in held]
        fold_ds = Dataset(train + val, ds.dims, ds.meta)
        pred = np.asarray(fit_predict(fold_ds, fold), dtype=np.int64)
        true = np.array([c.label for c in held], dtype=np.int64)
        if pred.shape != true.shape:
            raise ContractError(f"fold {fold}: expected {true.size} "
                                f"predictions, got {pred.size}")
        return int((pred == true).sum()), true.size

    results = parallel_map(run_fold, range(k), jobs=jobs)
    hits = np.array([h for h, _ in results], dtype=np.int64)
    sizes = np.array([n for _, n in results], dtype=np.int64)
    return CVReport(k, hits / sizes, sizes, int(hits.sum()) / len(pool))
