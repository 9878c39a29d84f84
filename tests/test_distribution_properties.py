"""Property test for the class-distribution parser: any bytes either load as
a ClassDistribution whose total is the sum of its nonnegative counts, or
raise a SmallclipError."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smallclip.data import ClassDistribution, load_distribution
from smallclip.errors import SmallclipError

# counts that are negative, at or past int64's limit, past int()'s digit
# limit or spelled as Python's int() reads them
COUNTS = [b"0", b"1", b"-1", b"+3", b" 2 ", b"1_0", b"1e3", b"\xd9\xa1",
          b"9223372036854775807", b"9223372036854775808", b"9" * 40,
          b"9" * 5000, b"x"]
# bytes near the format as well as any: the header, separators, quotes,
# line breaks, those counts, a field past csv's size limit, NUL and
# non-UTF-8
PIECES = st.sampled_from([b"class", b"count", b"class0", b",", b"\n",
                          b"\r\n", b"\r", b'"', b" ", b"7" * 131073,
                          b"\x00", b"\xff", b"a", *COUNTS])
BODIES = st.lists(PIECES, max_size=30).map(b"".join)
# well-formed rows whose counts are any of COUNTS
ROWS = st.lists(st.sampled_from(COUNTS), max_size=4).map(
    lambda counts: b"".join(b"class%d,%s\n" % (k, count)
                            for k, count in enumerate(counts)))
TEXTS = st.one_of(st.binary(max_size=200), BODIES,
                  st.one_of(BODIES, ROWS).map(
                      lambda body: b"class,count\n" + body))


@settings(max_examples=300, derandomize=True, deadline=1000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TEXTS)
def test_any_bytes_load_or_raise_a_smallclip_error(tmp_path, data):
    path = tmp_path / "dist.csv"
    path.write_bytes(data)
    try:
        dist = load_distribution(path)
    except SmallclipError:
        return
    assert isinstance(dist, ClassDistribution)
    counts = [int(c) for c in dist.counts]
    assert min(counts) >= 0 and dist.total == sum(counts) > 0
