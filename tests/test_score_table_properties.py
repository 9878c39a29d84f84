"""Property tests for the score-table parser: any bytes either load or
raise a SmallclipError, and a table of valid rows reads back from its file
as it was written, unless an id is one no table can hold."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smallclip.data import id_fault
from smallclip.errors import ContractError, SmallclipError
from smallclip.scores import ScoreTable, load_score_table, write_score_table

def _settings(max_examples):
    return settings(
        max_examples=max_examples, derandomize=True, deadline=1000,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture])

# bytes near the format as well as any: header fields, separators, line
# breaks, numbers and non-UTF-8
PIECES = st.sampled_from([b"clip_id", b",p0", b",p1", b"p", b"\n", b"\r\n",
                          b"\r", b"\x0b", b"\xc2\x85", b",", b"0.5", b"1e999",
                          b"nan", b"-0.0", b"-1", b"0x1", b"1_0", b" ",
                          b"\xff", b"a"])
TEXTS = st.one_of(st.binary(max_size=200),
                  st.lists(PIECES, max_size=40).map(b"".join))

# any text: ids with a comma, a line break or a lone surrogate included
IDS = st.text(max_size=6)
# a valid row is finite and nonnegative with a positive entry
ENTRIES = st.one_of(st.just(-0.0), st.floats(min_value=0.0,
                                             allow_infinity=False))


@st.composite
def tables(draw):
    """(ids, rows) of a table with valid rows."""
    ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    c = draw(st.integers(1, 4))
    rows = [draw(st.lists(ENTRIES, min_size=c, max_size=c).filter(
        lambda row: max(row) > 0)) for _ in ids]
    return ids, np.array(rows, dtype=np.float64)


@_settings(200)
@given(TEXTS)
def test_any_bytes_load_or_raise_a_smallclip_error(tmp_path, data):
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    try:
        table = load_score_table(path)
    except SmallclipError:
        return
    assert len(table) >= 1


@_settings(100)
@given(tables())
def test_a_table_reads_back_as_written_or_is_refused_when_built(tmp_path,
                                                                 case):
    ids, probs = case
    try:
        table = ScoreTable(ids, probs)
    except ContractError:
        assert any(id_fault(cid) for cid in ids)
        return
    path = tmp_path / "scores.csv"
    write_score_table(table, path)
    back = load_score_table(path)
    assert back.ids == table.ids
    assert back.probs.tobytes() == table.probs.tobytes()  # -0.0 included
