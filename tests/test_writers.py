"""The CLI's streaming CSV writer against the writer it replaced.

``cli._write_csv`` must give the bytes of the row writer kept below, which
formats each value on its own.  It writes a chunk at a time, so it may not
hold much more than a chunk in memory.  (``cli._write_json`` is
``json.dump`` and a newline; the JSON digests of tests/test_same_bytes.py
pin its bytes.)
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinfilm import cli

CHUNK = cli._CHUNK


def reference_csv(path, header, rows):
    """The row writer: None is blank, a str is written as it is."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return f"{float(v):.17g}"

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.5, 1e308, -1e308, 5e-324, -2.2250738585072014e-308,
                  1e-310, 1e16, 1e-5, 0.1, float("inf"), float("-inf"), float("nan")]


def blanked(values, blank):
    """A column that is blank where ``blank`` is True."""
    return np.asarray(values, dtype=float), np.asarray(blank, dtype=bool)


def columns_and_rows(n, seed):
    """Columns of every kind the CLI writes, and the rows they stand for."""
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_FLOATS)
    raw = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True).view(float)
    # random bit patterns (NaN payloads, subnormals), special values, repeats
    pick = rng.integers(0, 3, n)
    values = np.where(pick == 0, raw, np.where(pick == 1, pool[rng.integers(0, pool.size, n)],
                                               np.round(rng.standard_normal(n), 1)))
    blank = rng.random(n) < 0.3
    cases = np.array([["J+R", "delta-shock", "pure-J", ""][i] for i in rng.integers(0, 4, n)])
    x = np.linspace(-1.0, 1.0, n)
    columns = [x, cases, values, blanked(values[::-1].copy(), blank), blanked(rng.standard_normal(n), ~blank)]
    rows = list(zip(x.tolist(), cases.tolist(), values.tolist(),
                    [None if b else v for v, b in zip(values[::-1].tolist(), blank)],
                    [None if not b else v for v, b in zip(columns[4][0].tolist(), blank)]))
    return columns, rows


class TestCsv:
    HEADER = ["x", "case", "value", "blank1", "blank2"]

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
           st.integers(0, 2**32 - 1))
    def test_bytes_of_row_writer(self, out_dir, n, seed):
        columns, rows = columns_and_rows(n, seed)
        new, old = out_dir / "new.csv", out_dir / "old.csv"
        cli._write_csv(str(new), self.HEADER, columns)
        reference_csv(str(old), self.HEADER, rows)
        assert new.read_bytes() == old.read_bytes()

    def test_all_blank_and_all_equal(self, out_dir):
        n = CHUNK + 1
        columns = [np.full(n, -0.0), blanked(np.zeros(n), np.ones(n, bool)), np.full(n, np.nan)]
        rows = [(-0.0, None, float("nan"))] * n
        new, old = out_dir / "new.csv", out_dir / "old.csv"
        cli._write_csv(str(new), ["a", "b", "c"], columns)
        reference_csv(str(old), ["a", "b", "c"], rows)
        assert new.read_bytes() == old.read_bytes()


def test_writers_stream(tmp_path):
    """The peak memory of writing a criterion-7-sized profile (24,390 rows,
    five columns) stays under a quarter of the bytes written: the writer
    does not hold the whole file."""
    rng = np.random.default_rng(7)
    n = 24_390
    on = rng.random(n) > 0.1
    columns = [np.linspace(-5.0, 20.0, n), 1.0 + rng.random(n), 1.0 + rng.random(n),
               blanked(rng.random(n), ~on), blanked(rng.random(n), ~on)]
    csv_path = tmp_path / "field.csv"
    tracemalloc.start()
    try:
        cli._write_csv(str(csv_path), ["x", "h", "b", "w1", "w2"], columns)
        _, csv_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csv_peak < csv_path.stat().st_size / 4
