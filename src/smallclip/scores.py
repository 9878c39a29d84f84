"""Score tables: per-clip class probability vectors, stored as CSV.

The format is one header row ``clip_id,p0,...,p{C-1}`` followed by one row
per clip. Floats are written with ``repr`` so a read back is bit-exact.
Tables keep their row order; ``reordered`` aligns one table to another's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import atomic_write_text, read_text
from .errors import ContractError, ParseError


@dataclass
class ScoreTable:
    ids: list[str]
    probs: np.ndarray  # (n_clips, C) float64

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[0] != len(self.ids):
            raise ContractError(
                f"probs shape {self.probs.shape} does not match "
                f"{len(self.ids)} ids")
        if len(set(self.ids)) != len(self.ids):
            raise ContractError("duplicate clip ids in score table")

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def __len__(self):
        return len(self.ids)

    def reordered(self, ids) -> "ScoreTable":
        """Same table with rows in the order of ``ids`` (must be the same set)."""
        if set(ids) != set(self.ids):
            raise ContractError("reorder ids do not match table ids")
        pos = {cid: i for i, cid in enumerate(self.ids)}
        rows = np.array([pos[cid] for cid in ids], dtype=np.int64)
        return ScoreTable(list(ids), self.probs[rows])


def score_table_to_text(table: ScoreTable) -> str:
    header = "clip_id," + ",".join(f"p{i}" for i in range(table.n_classes))
    lines = [header]
    for cid, row in zip(table.ids, table.probs):
        lines.append(cid + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_score_table(table: ScoreTable, path):
    atomic_write_text(path, score_table_to_text(table))


def load_score_table(path) -> ScoreTable:
    lines = read_text(path, "score table").splitlines()
    if not lines:
        raise ParseError(f"{path}: empty score table")
    header = lines[0].split(",")
    if header[0] != "clip_id" or len(header) < 2:
        raise ParseError(f"{path}: bad header {lines[0]!r}")
    n_classes = len(header) - 1
    if header[1:] != [f"p{i}" for i in range(n_classes)]:
        raise ParseError(f"{path}: bad header {lines[0]!r}")
    ids, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_classes + 1:
            raise ParseError(f"{path}: line {lineno}: expected "
                             f"{n_classes + 1} fields, got {len(parts)}")
        ids.append(parts[0])
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric score") from None
    if not ids:
        raise ParseError(f"{path}: score table has no rows")
    try:
        return ScoreTable(ids, np.asarray(rows, dtype=np.float64))
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from exc
