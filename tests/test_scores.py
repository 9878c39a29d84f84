import re

import numpy as np
import pytest

from smallclip.errors import ContractError, ParseError
from smallclip.scores import (ScoreTable, load_score_table,
                              score_table_to_text, write_score_table)


def random_table(rng, n=12, c=7):
    probs = rng.dirichlet(np.ones(c), size=n)
    ids = [f"clip-{i:03d}" for i in range(n)]
    return ScoreTable(ids, probs)


def test_round_trip_is_bit_exact(tmp_path, rng):
    table = random_table(rng)
    path = tmp_path / "scores.csv"
    write_score_table(table, path)
    back = load_score_table(path)
    assert back.ids == table.ids
    assert np.array_equal(back.probs, table.probs)  # repr floats, no rounding


def test_round_trip_survives_awkward_values(tmp_path):
    probs = np.array([[1e-300, 1.0 - 1e-300, 0.3333333333333333],
                      [0.1, 0.2, 0.7000000000000001]])
    table = ScoreTable(["a", "b"], probs)
    path = tmp_path / "s.csv"
    write_score_table(table, path)
    assert np.array_equal(load_score_table(path).probs, probs)


def test_text_header_and_rows(rng):
    table = random_table(rng, n=2, c=3)
    text = score_table_to_text(table)
    lines = text.splitlines()
    assert lines[0] == "clip_id,p0,p1,p2"
    assert lines[1].startswith("clip-000,")
    assert len(lines) == 3


def test_bad_header_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,p0,p1\nx,0.5,0.5\n")
    with pytest.raises(ParseError):
        load_score_table(p)
    p.write_text("clip_id,p0,p2\nx,0.5,0.5\n")  # wrong class column name
    with pytest.raises(ParseError):
        load_score_table(p)


def test_field_count_error_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("clip_id,p0,p1\na,0.5,0.5\nb,0.5\n")
    with pytest.raises(ParseError, match="line 3"):
        load_score_table(p)


def test_non_numeric_error_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("clip_id,p0,p1\na,0.5,oops\n")
    with pytest.raises(ParseError, match="line 2"):
        load_score_table(p)


def test_empty_and_missing_files_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_score_table(p)
    with pytest.raises(ParseError):
        load_score_table(tmp_path / "nope.csv")
    p.write_text("clip_id,p0,p1\n")
    with pytest.raises(ParseError):
        load_score_table(p)


def test_duplicate_ids_rejected(tmp_path):
    with pytest.raises(ContractError):
        ScoreTable(["a", "a"], np.ones((2, 3)))
    p = tmp_path / "dup.csv"
    p.write_text("clip_id,p0,p1\na,0.5,0.5\na,0.1,0.9\n")
    with pytest.raises(ParseError):
        load_score_table(p)


@pytest.mark.parametrize("cid", ["a,b", "a\nb", "a\r", "\u2028a"])
def test_ids_with_a_comma_or_line_break_rejected(cid):
    # the table would be written, and then no reader could split its rows
    with pytest.raises(ContractError, match=f"^clip {re.escape(repr(cid))}: "
                                            f"a score table cannot hold"):
        ScoreTable(["a", cid], np.ones((2, 3)))
    assert len(ScoreTable(["", "a b;\t"], np.ones((2, 3)))) == 2


def test_an_id_with_a_lone_surrogate_rejected():
    # a JSON string can spell one, and no UTF-8 file can hold it
    with pytest.raises(ContractError, match=r"^clip 'a\\ud800': a score table "
                                            r"cannot hold an id with a lone "
                                            r"surrogate$"):
        ScoreTable(["b", "a\ud800"], np.ones((2, 3)))


def test_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        ScoreTable(["a", "b", "c"], np.ones((2, 3)))
    with pytest.raises(ContractError):
        ScoreTable(["a"], np.ones(3))


@pytest.mark.parametrize("row, fault", [
    ([np.nan, 1.0], "non-finite"), ([np.inf, 1.0], "non-finite"),
    ([-0.5, 1.5], "negative"), ([0.0, 0.0], "all-zero")])
def test_every_row_is_finite_nonnegative_with_a_positive_sum(
        tmp_path, row, fault):
    with pytest.raises(ContractError, match=f"^clip 'b': {fault} scores"):
        ScoreTable(["a", "b", "c"], [[0.5, 0.5], row, [-1.0, 2.0]])
    p = tmp_path / "bad.csv"
    p.write_text("clip_id,p0,p1\na,0.5,0.5\nb,"
                 + ",".join(repr(float(v)) for v in row) + "\n")
    with pytest.raises(ParseError, match=f"bad.csv: clip 'b': {fault}"):
        load_score_table(p)
    with pytest.raises(ContractError, match="no rows"):
        ScoreTable([], np.ones((0, 2)))


def test_reordered_permutes_rows(rng):
    table = random_table(rng, n=5)
    new_order = list(reversed(table.ids))
    back = table.reordered(new_order)
    assert back.ids == new_order
    assert np.array_equal(back.probs, table.probs[::-1])
    with pytest.raises(ContractError):
        table.reordered(["clip-000"])


def test_from_predictions_stacks_rows(rng):
    rows = [rng.dirichlet(np.ones(3)) for _ in range(4)]
    table = ScoreTable(["a", "b", "c", "d"], rows)
    assert len(table) == 4
    assert table.n_classes == 3
    assert np.array_equal(table.probs[1], rows[1])
