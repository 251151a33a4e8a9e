import numpy as np
from hypothesis import given, settings, strategies as st

from atscalm.util import even_ranges, read_csv, read_json, write_csv, write_json

# Cells mix letters with the characters RFC 4180 quoting exists for, and a
# lone '\r', which the csv reader ends a record at.
CELL = st.text(alphabet=st.sampled_from('ab1 ,"\n\r'), max_size=8)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(CELL, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_write_then_read_returns_the_same_cells(tmp_path_factory, table):
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    header, *rows = table
    write_csv(path, header, rows)
    assert read_csv(path) == (header, rows)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 500), st.integers(1, 70))
def test_even_ranges_are_the_fewest_and_differ_by_one_at_most(n, most):
    ranges = even_ranges(n, most)
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
    sizes = [b - a for a, b in ranges]
    assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
    assert len(ranges) == max(1, -(-n // most))


def test_write_json_writes_nan_null_numpy_ints_and_tuples_as_json(tmp_path):
    path = str(tmp_path / "d.json")
    write_json(path, {"a": float("nan"), "b": np.int64(3), "c": (1, 2.5)})
    doc = read_json(path)
    assert doc == {"a": None, "b": 3, "c": [1, 2.5]}
    assert type(doc["b"]) is int
