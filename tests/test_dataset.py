"""Tables, CSV round trips, splits and the synthetic generators."""

import contextlib
import csv
import logging
import math
import os
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceda import dataset
from ceda.dataset import (
    DISCRETE_MAX_DISTINCT,
    KINDS,
    MISSING_MARKERS,
    Column,
    DataTable,
    LabeledDataset,
    SplitSpec,
    ZStats,
    column_stats,
    feature_matrix,
    load_csv,
    split_train_test,
    synth_generate,
    write_csv,
)
from ceda.errors import ConfigError, DataError


def make_labeled(n=6):
    rng = np.random.default_rng(3)
    cols = [
        Column("x", "continuous", rng.normal(size=n)),
        Column("g", "discrete", np.array([1.0, 2.0] * (n // 2))),
        Column("label", "categorical", np.array(["a", "b"] * (n // 2), dtype=object)),
    ]
    return LabeledDataset(DataTable(cols), "label")


class TestDataTable:
    def test_duplicate_column_names_rejected(self):
        cols = [Column("x", "continuous", np.ones(3)), Column("x", "continuous", np.ones(3))]
        with pytest.raises(DataError, match="duplicate"):
            DataTable(cols)

    def test_length_mismatch_rejected(self):
        cols = [Column("x", "continuous", np.ones(3)), Column("y", "continuous", np.ones(4))]
        with pytest.raises(DataError, match="length"):
            DataTable(cols)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            DataTable([Column("x", "continuous", np.array([1.0, np.nan]))])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            DataTable([])
        with pytest.raises(DataError, match="empty"):
            DataTable([Column("x", "continuous", np.array([]))])

    def test_subset_keeps_kinds(self):
        ds = make_labeled()
        sub = ds.table.subset([0, 2])
        assert sub.n_rows == 2
        assert sub.kind("g") == "discrete"
        assert sub.values("x")[1] == ds.table.values("x")[2]

    def test_label_column_must_be_categorical(self):
        t = DataTable([Column("x", "continuous", np.ones(2))])
        with pytest.raises(DataError, match="categorical"):
            LabeledDataset(t, "x")

    def test_label_universe_preserved_in_subset(self):
        ds = make_labeled()
        only_a = ds.subset(ds.rows_with_label("a"))
        assert only_a.labels == ("a", "b")
        assert len(only_a.rows_with_label("b")) == 0


class TestCsvRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = LabeledDataset(DataTable([
            Column("x", "continuous", rng.normal(size=40)),
            Column("third", "continuous", np.full(40, 1.0 / 3.0)),
            Column("label", "categorical", np.array(["a", "b"] * 20, dtype=object)),
        ]), "label")
        path = tmp_path / "t.csv"
        write_csv(ds.table, path)
        back = load_csv(path, "label")
        assert np.array_equal(back.table.values("x"), ds.table.values("x"))
        assert np.array_equal(back.table.values("third"), ds.table.values("third"))
        assert back.table.values("label").tolist() == ds.table.values("label").tolist()

    def test_missing_rows_dropped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,label\n1.0,a\nNA,b\n2.0,a\n,b\n3.0,null\n4.0,b\n")
        ds = load_csv(path, "label")
        assert ds.n_rows == 3
        assert ds.table.values("x").tolist() == [1.0, 2.0, 4.0]

    def test_all_rows_missing_is_an_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,label\nNA,a\n,b\n")
        with pytest.raises(DataError, match="empty table"):
            load_csv(path, "label")

    def test_declared_numeric_parse_failure_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,label\n1.0,a\noops,b\n")
        with pytest.raises(DataError, match="column 'x', row 1"):
            load_csv(path, "label", schema={"x": "continuous"})

    def test_kind_inference(self, tmp_path):
        path = tmp_path / "k.csv"
        rows = ["%d,%s,%s,a" % (i % 3, "%.3f" % (i * 0.37), "t%d" % (i % 2)) for i in range(30)]
        path.write_text("few,many,name,label\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, "label")
        assert ds.table.kind("few") == "discrete"
        assert ds.table.kind("many") == "continuous"
        assert ds.table.kind("name") == "categorical"
        assert ds.table.kind("label") == "categorical"

    def test_schema_override_beats_inference(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,label\n1,a\n2,b\n1,a\n2,b\n")
        ds = load_csv(path, "label", schema={"x": "continuous"})
        assert ds.table.kind("x") == "continuous"

    def test_unknown_schema_column_is_config_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,label\n1,a\n2,b\n")
        with pytest.raises(ConfigError, match="unknown column"):
            load_csv(path, "label", schema={"zz": "continuous"})

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "label")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,label\n1,a\n2\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path, "label")


def row_loader(path, label_column, schema=None):
    """The row-at-a-time loader that load_csv must match: a missing-marker
    check on every cell, then one float() per kept cell."""
    log = logging.getLogger("ceda.dataset")
    schema = dict(schema or {})
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty table: %s has no header" % path)
        rows = list(reader)
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError("duplicate column names: %s" % ", ".join(dupes))
    if label_column not in header:
        raise DataError("label column '%s' absent from %s" % (label_column, path))
    for name, kind in schema.items():
        if name not in header:
            raise ConfigError("schema override for unknown column '%s'" % name)
        if kind not in KINDS:
            raise ConfigError("schema override for '%s': unknown kind '%s'" % (name, kind))
    if not rows:
        raise DataError("empty table: %s has no data rows" % path)
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError("row %d has %d cells, expected %d" % (i, len(row), width))

    def is_missing(cell):
        return cell.strip().lower() in MISSING_MARKERS

    keep, dropped = [], []
    for i, row in enumerate(rows):
        (dropped if any(is_missing(c) for c in row) else keep).append(i)
    if dropped:
        shown = ", ".join(str(i) for i in dropped[:10])
        more = "" if len(dropped) <= 10 else ", ..."
        log.info("dropped %d rows with missing values (rows %s%s)", len(dropped), shown, more)
    if not keep:
        raise DataError("empty table: all rows of %s had missing values" % path)
    rows = [rows[i] for i in keep]

    columns = []
    for j, name in enumerate(header):
        cells = [r[j].strip() for r in rows]
        kind = "categorical" if name == label_column else schema.get(name)
        if kind in ("continuous", "discrete"):
            vals = np.empty(len(cells))
            for i, cell in enumerate(cells):
                try:
                    vals[i] = float(cell)
                except ValueError:
                    raise DataError(
                        "column '%s', row %d: cannot parse '%s' as a number"
                        % (name, keep[i], cell)
                    )
            columns.append(Column(name, kind, vals))
            continue
        if kind == "categorical":
            columns.append(Column(name, kind, np.array(cells, dtype=object)))
            continue
        try:
            vals = np.array([float(c) for c in cells])
        except ValueError:
            columns.append(Column(name, "categorical", np.array(cells, dtype=object)))
            continue
        n_distinct = len(np.unique(vals))
        inferred = "discrete" if n_distinct <= dataset.DISCRETE_MAX_DISTINCT else "continuous"
        columns.append(Column(name, inferred, vals))
    return LabeledDataset(DataTable(columns), label_column)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def load_outcome(loader, path, schema, max_distinct):
    """Columns (name, kind, values as bits or text), the error, and the log
    records of one load."""
    records = _Records()
    logger = logging.getLogger("ceda.dataset")
    level = logger.level
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    try:
        with mock.patch.object(dataset, "DISCRETE_MAX_DISTINCT", max_distinct):
            ds = loader(path, "label", schema=schema)
        result = [(c.name, c.kind, c.values.tolist() if c.kind == "categorical"
                   else np.asarray(c.values, dtype=float).view(np.int64).tolist())
                  for c in ds.table.columns]
    except (DataError, ConfigError) as exc:
        result = (type(exc).__name__, str(exc))
    finally:
        logger.removeHandler(records)
        logger.setLevel(level)
    return result, records.messages


PADDING = st.sampled_from(["", "", " ", "\t", "\u00a0", "\u2003", "\x1c", "\x85"])
CELLS = {
    "number": st.one_of(
        st.integers(-3, 3).map(str),
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        st.sampled_from(["1e3", "-0.0", "1_0", "0x1", "1.5e-320", "١٢"]),
    ),
    "marker": st.sampled_from(["", "na", "NA", "Na", "nan", "NaN", "NAN", "null", "NULL", "Null"]),
    "nan-like": st.sampled_from(["+nan", "-nan", "+NaN", "inf", "-inf", "Infinity", "n/a"]),
    "text": st.sampled_from(["a", "b", "oops", "1.2.3", "x1", "1,5"]),
}


@st.composite
def csv_files(draw):
    """CSV text with numeric, marker, NaN-like and text cells, padded with
    whitespace, plus the schema overrides for its columns."""
    n_cols = draw(st.integers(1, 4))
    names = ["c%d" % j for j in range(n_cols)] + ["label"]
    # each column mostly draws one kind of cell, so whole-number columns occur
    mixes = [draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3))
             for _ in range(n_cols)]
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        row = []
        for mix in mixes:
            kind = draw(st.sampled_from(["number"] * 4 + mix))
            row.append(draw(PADDING) + draw(CELLS[kind]) + draw(PADDING))
        row.append(draw(st.sampled_from(["a", "b", " b ", "a", "b", "NA", ""])))
        if draw(st.sampled_from([False] * 30 + [True])):
            row = row[:draw(st.integers(0, len(row) - 1))]  # a short or empty row
        rows.append(row)
    schema = draw(st.dictionaries(st.sampled_from(names[:-1]), st.sampled_from(KINDS),
                                  max_size=n_cols))
    return names, rows, schema


@settings(max_examples=200, deadline=None)
@given(data=csv_files(), max_distinct=st.sampled_from([1, 3, DISCRETE_MAX_DISTINCT]))
def test_load_csv_matches_the_row_loader(data, max_distinct):
    names, rows, schema = data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(rows)
        want = load_outcome(row_loader, path, schema, max_distinct)
        got = load_outcome(load_csv, path, schema, max_distinct)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(data=csv_files(), block=st.integers(1, 4))
def test_load_csv_in_small_blocks_matches_the_row_loader(data, block):
    """Plain text mixes blocks numpy parses with blocks float() parses."""
    names, rows, schema = data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(rows)
        want = load_outcome(row_loader, path, schema, DISCRETE_MAX_DISTINCT)
        with mock.patch.object(dataset, "_BLOCK", block):
            got = load_outcome(load_csv, path, schema, DISCRETE_MAX_DISTINCT)
    assert got == want


@contextlib.contextmanager
def load_path():
    """Within the block, path() tells how load_csv parsed the numbers so far:
    "numpy" all of them, "float" where numpy refused a block of plain text,
    and "csv" where the text is not plain."""
    plain = mock.Mock(wraps=dataset._plain_columns)
    floats = mock.Mock(wraps=dataset._parse_floats)
    with mock.patch.object(dataset, "_plain_columns", plain), \
            mock.patch.object(dataset, "_parse_floats", floats):
        yield lambda: "csv" if not plain.called else "float" if floats.called else "numpy"


PLAIN_NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["1e3", "-0.0", "+2", "1.", ".5", "1E+05", "1e-400", "1.5e-320"]),
)


@st.composite
def plain_csv_texts(draw):
    """Plain CSV text (no quote, one kind of line end, every line as wide as
    the header) whose number cells all parse as finite floats, with the
    schema overrides for its columns."""
    n_cols = draw(st.integers(1, 4))
    names = ["c%d" % j for j in range(n_cols)]
    names.insert(draw(st.integers(0, n_cols)), "label")
    # whole-number columns infer as discrete, the rest mostly as continuous
    whole = [draw(st.booleans()) for _ in names]
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        rows.append(",".join(
            draw(st.sampled_from(["a", "b", " b ", "a", "b", "NA", ""])) if name == "label"
            else draw(PADDING) + draw(st.integers(0, 2).map(str) if is_whole else PLAIN_NUMBERS)
            + draw(PADDING)
            for name, is_whole in zip(names, whole)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(names)] + rows) + draw(st.sampled_from(["", end]))
    schema = draw(st.dictionaries(st.sampled_from(names), st.sampled_from(KINDS), max_size=n_cols))
    schema.pop("label", None)
    return text, schema


def write_text(tmp, text):
    path = os.path.join(tmp, "t.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=100, deadline=None)
@given(data=plain_csv_texts(), max_distinct=st.sampled_from([1, 3, DISCRETE_MAX_DISTINCT]))
def test_plain_text_loads_through_numpy_as_the_row_loader_does(data, max_distinct):
    text, schema = data
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        want = load_outcome(row_loader, path, schema, max_distinct)
        with load_path() as path_taken:
            got = load_outcome(load_csv, path, schema, max_distinct)
            assert path_taken() == "numpy"
    assert got == want


PLAIN = "x,n,label\n1.5,1,a\n-2,2,b\n 3 ,\t1\x1c,a\n4e-3,\x852,NA\n"
CRLF = PLAIN.replace("\n", "\r\n")


@pytest.mark.parametrize("text,taken", [
    pytest.param(PLAIN, "numpy", id="plain"),
    pytest.param(CRLF, "numpy", id="crlf"),
    pytest.param(PLAIN.rstrip("\n"), "numpy", id="no-final-newline"),
    pytest.param(PLAIN.replace("1.5", '"1.5"'), "csv", id="quote"),
    pytest.param(PLAIN.replace("1.5", '"1.5"').rstrip("\n"), "csv", id="quote-no-final-newline"),
    pytest.param(PLAIN.replace("b\n", "b\x00\n"), "csv", id="nul"),
    pytest.param(PLAIN.replace("a\n", "a\r", 1), "csv", id="lone-cr"),
    pytest.param(PLAIN.replace("a\n", "a\r\n", 1), "csv", id="mixed-ends"),
    pytest.param(CRLF.replace("a\r\n", "a\r\r\n", 1), "csv", id="stray-cr"),
    pytest.param(CRLF.replace("a\r\n", "a\n\r\n", 1), "csv", id="stray-lf"),
    pytest.param(PLAIN.replace(",1,a", ",1,a,9"), "csv", id="long-row"),
    pytest.param(PLAIN.replace(",1,a", ",a"), "csv", id="short-row"),
    pytest.param(PLAIN + "\n", "csv", id="blank-line"),
    pytest.param(PLAIN.replace("-2", "1_0"), "float", id="underscore"),
    pytest.param(PLAIN.replace("-2", "\u0661\u0662"), "float", id="arabic-digits"),
    pytest.param(PLAIN.replace("-2", "nan"), "float", id="nan"),
    pytest.param(PLAIN.replace("-2", "inf"), "float", id="inf"),
    pytest.param(PLAIN.replace("-2", "1e400"), "float", id="overflow"),
    pytest.param(PLAIN.replace("-2", "NA"), "float", id="NA-number"),
    pytest.param(PLAIN.replace("-2", "oops"), "float", id="text-cell"),
])
def test_only_plain_text_takes_the_numpy_path(tmp_path, text, taken):
    path = write_text(tmp_path, text)
    with load_path() as path_taken:
        got = load_outcome(load_csv, path, None, DISCRETE_MAX_DISTINCT)
        assert path_taken() == taken
    assert got == load_outcome(row_loader, path, None, DISCRETE_MAX_DISTINCT)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_text_that_is_not_plain_loads_from_a_pipe(tmp_path):
    path = tmp_path / "p.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=('x,label\n1,"a"\n2,b\n',), daemon=True)
    writer.start()
    ds = load_csv(path, "label")
    writer.join()
    assert ds.table.values("x").tolist() == [1.0, 2.0]
    assert ds.table.values("label").tolist() == ["a", "b"]


class TestSplit:
    def test_eight_two_partition_matches_documented_shuffle(self):
        # oracle: the documented shuffle is one rng.permutation per label
        ds = LabeledDataset(DataTable([
            Column("x", "continuous", np.arange(10.0)),
            Column("label", "categorical", np.array(["a"] * 10, dtype=object)),
        ]), "label")
        perm = np.random.default_rng(0).permutation(10)
        want_train = sorted(perm[:8].tolist())
        want_test = sorted(perm[8:].tolist())
        train, test = split_train_test(ds, SplitSpec(train_fraction=0.8, seed=0))
        assert train.table.values("x").tolist() == [float(i) for i in want_train]
        assert test.table.values("x").tolist() == [float(i) for i in want_test]

    def test_same_seed_identical_twice(self):
        ds = make_labeled(40)
        a = split_train_test(ds, SplitSpec(0.7, seed=5))
        b = split_train_test(ds, SplitSpec(0.7, seed=5))
        assert np.array_equal(a[0].table.values("x"), b[0].table.values("x"))
        assert np.array_equal(a[1].table.values("x"), b[1].table.values("x"))

    def test_stratified_counts_within_one_row(self):
        labs = ["a"] * 7 + ["b"] * 13
        ds = LabeledDataset(DataTable([
            Column("x", "continuous", np.arange(20.0)),
            Column("label", "categorical", np.array(labs, dtype=object)),
        ]), "label")
        train, test = split_train_test(ds, SplitSpec(0.6, seed=1))
        assert [len(train.rows_with_label(lab)) for lab in "ab"] == [4, 8]
        assert [len(test.rows_with_label(lab)) for lab in "ab"] == [3, 5]

    def test_sides_partition_the_rows(self):
        ds = make_labeled(30)
        train, test = split_train_test(ds, SplitSpec(0.5, seed=2))
        both = np.concatenate([train.table.values("x"), test.table.values("x")])
        assert sorted(both.tolist()) == sorted(ds.table.values("x").tolist())

    def test_single_row_label_goes_to_train(self, caplog):
        labs = ["a"] * 9 + ["b"]
        ds = LabeledDataset(DataTable([
            Column("x", "continuous", np.arange(10.0)),
            Column("label", "categorical", np.array(labs, dtype=object)),
        ]), "label")
        with caplog.at_level("WARNING"):
            train, test = split_train_test(ds, SplitSpec(0.5, seed=0))
        assert len(train.rows_with_label("b")) == 1
        assert len(test.rows_with_label("b")) == 0
        assert any("single row" in r.message for r in caplog.records)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=0.0)


class TestSynth:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown synthetic kind"):
            synth_generate("wat", {})

    def test_same_seed_same_table(self):
        a = synth_generate("gauss-clouds", {"centers": [[0, 0], [3, 0]], "n_per_label": 20}, seed=4)
        b = synth_generate("gauss-clouds", {"centers": [[0, 0], [3, 0]], "n_per_label": 20}, seed=4)
        assert np.array_equal(a.table.values("f0"), b.table.values("f0"))

    def test_gauss_clouds_shape_and_labels(self):
        ds = synth_generate(
            "gauss-clouds",
            {"centers": [[0, 0], [1, 0], [10, 10]], "sd": 0.1, "n_per_label": 15},
            seed=1,
        )
        assert ds.labels == ("a", "b", "c")
        assert ds.n_rows == 45
        # tight clouds sit near their centers
        rows_c = ds.rows_with_label("c")
        assert abs(ds.table.values("f0")[rows_c].mean() - 10) < 0.2

    def test_gauss_clouds_validation(self):
        with pytest.raises(ConfigError, match="centers"):
            synth_generate("gauss-clouds", {})
        with pytest.raises(ConfigError, match="sd"):
            synth_generate("gauss-clouds", {"centers": [[0], [1]], "sd": 0.0})
        with pytest.raises(ConfigError, match="n_per_label"):
            synth_generate("gauss-clouds", {"centers": [[0], [1]], "n_per_label": 0})
        with pytest.raises(ConfigError, match="dimension"):
            synth_generate("gauss-clouds", {"centers": [[0, 1], [1]]})

    def test_magnus_noiseless_points_sit_on_the_circle(self):
        ds = synth_generate("magnus-manifold", {"n_per_label": 100, "labels": ["a"], "a": 1.3}, seed=9)
        r = ds.table.values("spin_rate")
        lhs = ds.table.values("pfx_x") ** 2 + ds.table.values("pfx_z") ** 2
        assert np.allclose(lhs, (1.3 * r) ** 2, rtol=1e-12, atol=1e-12)

    def test_magnus_label_offsets_move_the_centers(self):
        ds = synth_generate(
            "magnus-manifold",
            {"n_per_label": 300, "labels": ["a", "b"], "label_offset_scale": 2.0},
            seed=2,
        )
        mean_a = ds.table.values("pfx_x")[ds.rows_with_label("a")].mean()
        mean_b = ds.table.values("pfx_x")[ds.rows_with_label("b")].mean()
        # offsets point at angles 0 and pi, so the x means separate by about 4
        assert mean_a - mean_b > 3.0

    def test_magnus_rate_range_validated(self):
        with pytest.raises(ConfigError, match="spin_rate_range"):
            synth_generate("magnus-manifold", {"spin_rate_range": (1.0, 1.0)})

    def test_linear_speed_is_exactly_linear_when_noiseless(self):
        ds = synth_generate(
            "linear-speed",
            {"labels": ["p"], "coefs": [(2.0, -0.5, 1.0)], "n_per_label": 50},
            seed=3,
        )
        want = 2.0 - 0.5 * ds.table.values("x0") + 1.0 * ds.table.values("start_speed")
        assert np.allclose(ds.table.values("end_speed"), want, rtol=0, atol=1e-12)


def test_feature_matrix_rejects_categorical():
    ds = make_labeled()
    with pytest.raises(DataError, match="categorical"):
        feature_matrix(ds.table, ["x", "label"])


def test_feature_matrix_stacks_in_order():
    ds = make_labeled()
    X = feature_matrix(ds.table, ["g", "x"])
    assert X.shape == (ds.n_rows, 2)
    assert np.array_equal(X[:, 0], ds.table.values("g"))


def test_zstats_constant_feature_stays_inert():
    X = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
    z = ZStats.fit(X)
    assert z.sds[1] == 1.0
    Z = z.transform(X)
    assert np.all(Z[:, 1] == 0.0)
    assert abs(Z[:, 0].std() - 1.0) < 1e-12


def test_zstats_roundtrip_mean_zero():
    rng = np.random.default_rng(8)
    X = rng.normal(5, 3, size=(100, 3))
    Z = ZStats.fit(X).transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_zstats_measures_a_column_spread_below_1e_154():
    # the squared deviations of i * 1e-170 underflowed to an sd of 0.0, so the
    # column was taken as constant and kept unit scale
    X = np.arange(60.0)[:, None] * 1e-170
    up = np.ldexp(X, 560)
    z = ZStats.fit(X)
    assert z.means[0] == np.ldexp(up.mean(axis=0), -560)[0]
    assert z.sds[0] == np.ldexp(up.std(axis=0), -560)[0] != 1.0


@pytest.mark.parametrize("k", [-1000, -540, -1, 1, 300, 505])
def test_column_stats_scale_exactly_by_a_power_of_two(k):
    X = np.random.default_rng(3).normal([5.0, -2.0, 0.0], [3.0, 0.5, 1.0], size=(200, 3))
    means, sds = column_stats(X)
    assert np.array_equal(means, X.mean(axis=0)) and np.array_equal(sds, X.std(axis=0))
    got = column_stats(np.ldexp(X, k))
    assert np.array_equal(got[0], np.ldexp(means, k)) and np.array_equal(got[1], np.ldexp(sds, k))


def test_column_stats_name_a_column_whose_squared_range_overflows():
    X = np.column_stack([np.arange(60.0), np.ldexp(np.arange(60.0), 510)])
    with pytest.raises(DataError, match="feature 'f1' spreads too far: its squared range is not finite"):
        column_stats(X, ["f0", "f1"])
    with pytest.raises(DataError, match="feature '1' spreads too far"):
        column_stats(X)


def test_zstats_names_a_column_whose_sd_or_mean_overflows():
    # an sd above about 1e154 squares past the float range; a mean of 60
    # values of 1e307 sums past it
    wide = (-1.0) ** np.arange(60) * (1000 + np.arange(60)) * 1e304
    for bad in (wide, np.full(60, 1e307) + np.arange(60) * 1e291):
        X = np.column_stack([np.arange(60.0), bad])
        with pytest.raises(DataError, match="feature 'f1' spreads too far"):
            ZStats.fit(X, ["f0", "f1"])
        with pytest.raises(DataError, match="feature '1' spreads too far"):
            ZStats.fit(X)
