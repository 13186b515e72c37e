"""The CLI's streaming CSV and JSON writers against the writers they replaced.

``cli._write_json`` must give the bytes of ``json.dump(doc, fh, indent=2,
sort_keys=True)`` plus a newline, and ``cli._write_csv`` the bytes of the
row writer kept below, which formats each value on its own.  Both write
a chunk at a time, so neither may hold much more than a chunk in memory.
"""

import json
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


def reference_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.5, 1e308, -1e308, 5e-324, -2.2250738585072014e-308,
                  1e-310, 1e16, 1e-5, 0.1, float("inf"), float("-inf"), float("nan")]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
texts = st.one_of(st.sampled_from(["", "J+R", "éα☃", 'a"b\\c\n\t\x00', "\U0001f600"]),
                  st.text(max_size=8))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
                    floats, texts)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
        # the shapes the CLI writes: float series and (t, mass) pairs
        st.lists(floats, max_size=40),
        st.lists(st.tuples(floats, floats), max_size=10),
        st.lists(st.lists(floats, min_size=3, max_size=3), max_size=10),
    ),
    max_leaves=40,
)


class TestJson:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(documents, st.dictionaries(texts, documents, max_size=6)))
    def test_bytes_of_json_dump(self, out_dir, doc):
        path = out_dir / "doc.json"
        cli._write_json(str(path), doc)
        assert path.read_bytes() == reference_json(doc)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_long_series_across_chunks(self, out_dir, n):
        rng = np.random.default_rng(n)
        series = rng.standard_normal(n).tolist()
        series[n // 2] = float("nan")
        pairs = [(t, m) for t, m in zip(series, reversed(series))]
        pairs[-1] = (float("inf"), -0.0)
        mixed = list(series)
        mixed[-1] = 7  # an int in the last chunk only
        doc = {
            "series": series,
            "finite": rng.standard_normal(n).tolist(),
            "numpy": list(np.linspace(0.0, 1.0, n)),  # np.float64 items
            "pairs": pairs,
            "uneven": [[v] * (1 + i % 2) for i, v in enumerate(series)],
            "mixed": mixed,
            "nested": {"inner": [series[:3], {"deep": pairs[:2]}]},
        }
        path = out_dir / "series.json"
        cli._write_json(str(path), doc)
        assert path.read_bytes() == reference_json(doc)

    @pytest.mark.parametrize("doc", [
        {"a": np.int64(1)},
        [object()],
        {(1, 2): 1.0},
    ], ids=["numpy-int", "object", "tuple-key"])
    def test_unserializable_raises_type_error(self, out_dir, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._write_json(str(out_dir / "bad.json"), doc)

    def test_non_string_keys(self, out_dir):
        for doc in ({1: "a", 2: [1.5]}, {1.5: None, 2.5: 0}, {True: 1, False: 2},
                    {None: 1.0}):
            path = out_dir / "keys.json"
            cli._write_json(str(path), doc)
            assert path.read_bytes() == reference_json(doc)


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
    five columns) and mass series (45,039 entries) stays under a quarter
    of the bytes written: no writer holds the whole file."""
    rng = np.random.default_rng(7)
    n = 24_390
    on = rng.random(n) > 0.1
    columns = [np.linspace(-5.0, 20.0, n), 1.0 + rng.random(n), 1.0 + rng.random(n),
               blanked(rng.random(n), ~on), blanked(rng.random(n), ~on)]
    doc = {"mass_h": (10.0 * rng.random(45_039)).tolist(),
           "mass_b": (10.0 * rng.random(45_039)).tolist(),
           "delta_mass": [(t, 2.0 * t) for t in rng.random(45_038).tolist()]}
    csv_path, json_path = tmp_path / "field.csv", tmp_path / "field_diag.json"
    tracemalloc.start()
    try:
        cli._write_csv(str(csv_path), ["x", "h", "b", "w1", "w2"], columns)
        _, csv_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli._write_json(str(json_path), doc)
        _, json_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csv_peak < csv_path.stat().st_size / 4
    assert json_peak < json_path.stat().st_size / 4
