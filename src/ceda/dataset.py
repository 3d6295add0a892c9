"""Tabular data handling: typed columns, labeled datasets, splits, synthetic generators.

Columns are one of three kinds:

* ``continuous``  - float values, binned before any entropy computation
* ``discrete``    - numeric values with few distinct levels, used directly as categories
* ``categorical`` - string values

Kind inference for CSV input: a column whose non-missing cells all parse as
floats is numeric, and numeric columns with at most ``DISCRETE_MAX_DISTINCT``
distinct values are discrete, otherwise continuous.  Anything else is
categorical.  Explicit schema overrides win over inference.  The label column
is always categorical.  numpy parses the numbers of plain text, ``float()``
the rest, to the same values (see ``load_csv``).
"""

import csv
import io
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, check_kind

log = logging.getLogger(__name__)

KINDS = ("continuous", "discrete", "categorical")

# cells treated as missing on load (case-insensitive)
MISSING_MARKERS = frozenset({"", "na", "nan", "null"})

DISCRETE_MAX_DISTINCT = 12

# plain data lines per np.loadtxt call: a block numpy refuses costs at most this many
_BLOCK = 2048


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    values: np.ndarray


@dataclass
class DataTable:
    """An immutable-by-convention table of typed columns of equal length."""

    columns: list

    def __post_init__(self):
        if not self.columns:
            raise DataError("empty table: no columns")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError("duplicate column names: %s" % ", ".join(dupes))
        n = len(self.columns[0].values)
        if n == 0:
            raise DataError("empty table: no rows")
        for c in self.columns:
            if c.kind not in KINDS:
                raise DataError("column '%s' has unknown kind '%s'" % (c.name, c.kind))
            if len(c.values) != n:
                raise DataError("column '%s' length %d != %d" % (c.name, len(c.values), n))
            if c.kind in ("continuous", "discrete"):
                vals = np.asarray(c.values, dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise DataError("column '%s' contains non-finite values" % c.name)

    @property
    def n_rows(self):
        return len(self.columns[0].values)

    @property
    def names(self):
        return [c.name for c in self.columns]

    def column(self, name):
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError("no column named '%s'" % name)

    def kind(self, name):
        return self.column(name).kind

    def values(self, name):
        return self.column(name).values

    def subset(self, rows):
        rows = np.asarray(rows, dtype=int)
        return DataTable([Column(c.name, c.kind, c.values[rows]) for c in self.columns])


@dataclass
class LabeledDataset:
    """A DataTable plus a designated categorical label column."""

    table: DataTable
    label_column: str
    labels: tuple = field(default=())

    def __post_init__(self):
        col = self.table.column(self.label_column)
        if col.kind != "categorical":
            raise DataError("label column '%s' must be categorical" % self.label_column)
        if not self.labels:
            self.labels = tuple(sorted(set(col.values.tolist())))

    @property
    def n_rows(self):
        return self.table.n_rows

    @property
    def label_values(self):
        return self.table.values(self.label_column)

    def rows_with_label(self, label):
        return np.flatnonzero(self.label_values == label)

    def subset(self, rows):
        # label universe is preserved even if a label has no rows in the subset
        return LabeledDataset(self.table.subset(rows), self.label_column, self.labels)

    def feature_names(self):
        return [n for n in self.table.names if n != self.label_column]


def feature_matrix(table, features):
    """Stack numeric feature columns of a DataTable into an (n_rows, k) float matrix."""
    cols = []
    for name in features:
        c = table.column(name)
        if c.kind == "categorical":
            raise DataError("feature '%s' is categorical, not usable as a coordinate" % name)
        cols.append(np.asarray(c.values, dtype=float))
    if not cols:
        raise DataError("no features given")
    return np.column_stack(cols)


def column_stats(X, names=None):
    """Means and sds (ddof=0) of X's columns, taken on each column scaled by
    the power of two that brings its largest |x| into [0.5, 1).  The scaling
    is exact and keeps X's layout, hence numpy's summation order, so no spread
    is too small to measure and statistics that are normal floats keep their
    bits.  A column whose (max - min)^2 is not finite is a DataError naming it."""
    X = np.asarray(X, dtype=float)
    cols = np.ascontiguousarray(X.T)  # numpy takes a narrow row-major matrix's column extremes slowly
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~np.isfinite((hi - lo) ** 2))
    if len(bad):
        raise DataError("feature '%s' spreads too far: its squared range is not finite"
                        % (names[bad[0]] if names is not None else bad[0]))
    _, e = np.frexp(np.maximum(-lo, hi))
    S = np.ldexp(X, -e)
    return np.ldexp(S.mean(axis=0), e), np.ldexp(S.std(axis=0), e)


@dataclass(frozen=True)
class ZStats:
    """Per-feature mean and standard deviation frozen from a training matrix."""

    means: np.ndarray
    sds: np.ndarray

    @classmethod
    def fit(cls, X, names=None):
        """Column means and sds of X, as column_stats gives them."""
        means, sds = column_stats(X, names)
        # constant features carry no geometry; unit scale keeps them inert
        return cls(means=means, sds=np.where(sds > 0, sds, 1.0))

    def transform(self, X):
        return (np.asarray(X, dtype=float) - self.means) / self.sds


# ---------------------------------------------------------------------------
# CSV input / output


def _parse_floats(cells):
    """Float values of one column's cell texts, NaN where a cell does not parse,
    and a mask of the cells that do not parse.

    A cell parses as ``float(cell.strip())`` does.  ``float`` strips only some
    of the whitespace ``str.strip`` removes, so a cell it accepts as it stands
    has that same value; the rest are parsed again stripped, once per distinct
    text.
    """
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells)), np.zeros(len(cells), bool)
    except ValueError:
        pass
    values, failed = {}, set()
    for cell in set(cells):
        try:
            values[cell] = float(cell.strip())
        except ValueError:
            values[cell] = math.nan
            failed.add(cell)
    floats = np.fromiter(map(values.__getitem__, cells), dtype=float, count=len(cells))
    return floats, np.fromiter(map(failed.__contains__, cells), dtype=bool, count=len(cells))


def _plain_lines(text):
    """The lines of a plain text, as load_csv describes, or None."""
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\r\n" if "\r" in text else "\n")
    ends = len(lines) - 1
    if not lines[-1]:
        lines.pop()  # the end of the last line
    commas = {line.count(",") for line in lines}
    # one kind of line end, and the header's commas, one or more, on every
    # line: none blank, short or long
    if (text.count("\n") != ends or text.count("\r") not in (0, ends) or len(lines) < 2
            or len(commas) != 1 or 0 in commas):
        return None
    return lines


def _plain_columns(lines, kinds):
    """(cells, floats, unparsed) per column of plain data lines, as load_csv
    describes; cells only where a column is categorical or holds a NaN."""
    usecols = [j for j, kind in enumerate(kinds) if kind != "categorical"]
    blocks = []
    for start in range(0, len(lines), _BLOCK):
        block = lines[start:start + _BLOCK]
        try:
            X = np.loadtxt(block, delimiter=",", comments=None, quotechar=None, ndmin=2,
                           dtype=float, usecols=usecols)
            if np.isfinite(X).all():
                blocks.append([(x, np.zeros(len(x), bool)) for x in X.T])
                continue
        except ValueError:
            pass
        cols = list(zip(*(line.split(",") for line in block)))
        blocks.append([_parse_floats(cols[j]) for j in usecols])
    numbers, width, parsed = iter(zip(*blocks)), len(kinds), []
    for j, kind in enumerate(kinds):
        # a number column's floats and unparsed mask, joined over the blocks
        floats, unparsed = (None, None) if kind == "categorical" else (
            np.concatenate(part) for part in zip(*next(numbers)))
        # rsplit cuts off only the cells right of column j
        cells = None if floats is not None and not np.isnan(floats).any() else [
            line.rsplit(",", width - j)[j - width] for line in lines]
        parsed.append((cells, floats, unparsed))
    return parsed


def load_csv(path, label_column, schema=None):
    """Load a CSV file into a LabeledDataset.

    schema maps column names to kind overrides.  Rows with missing cells in
    any column are dropped (count logged).  A non-missing cell that fails to
    parse in a continuous or discrete column is an error naming row and
    column.

    Plain text (no quote or NUL, line ends all "\\n" or all "\\r\\n", the
    header's commas, one or more, on every line) is read once; np.loadtxt
    parses its numbers ``_BLOCK`` lines per call, ``float()`` a block with a
    cell numpy refuses or reads as non-finite.  Other text is read again by
    the csv module, for ``float()``.  Exact: numpy strips what ``str.strip``
    strips and parses as ``float()`` does (correctly rounded), and fails on
    what only ``float()`` accepts (``1_0``, non-ASCII digits).
    """
    schema = dict(schema or {})
    rows = None
    try:
        with open(path, newline="") as fh:
            text = fh.read()
            lines = _plain_lines(text)
            # the csv module reads other text again: from the file, a row at a
            # time, or, for a pipe, from memory
            source = fh if lines or fh.seekable() else io.StringIO(text, newline="")
            del text
            if lines is None:
                source.seek(0)
                rows = list(csv.reader(source))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError("cannot read %s: %s" % (path, exc))
    if not (lines or rows):
        raise DataError("empty table: %s has no header" % path)
    header = lines.pop(0).split(",") if lines else rows.pop(0)

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
    kinds = ["categorical" if name == label_column else schema.get(name) for name in header]

    if lines is not None:
        parsed = _plain_columns(lines, kinds)
    else:
        if not rows:
            raise DataError("empty table: %s has no data rows" % path)
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise DataError("row %d has %d cells, expected %d" % (i, len(row), len(header)))
        cols = list(zip(*rows))
        del rows  # the column tuples hold the same cell texts
        parsed = [(cells, None, None) if kind == "categorical" else (cells, *_parse_floats(cells))
                  for kind, cells in zip(kinds, cols)]
    # both paths give the cells of the label column
    n = len(parsed[header.index(label_column)][0])

    # drop rows with missing cells anywhere, keeping original indices for the log
    missing = np.zeros(n, dtype=bool)
    for cells, floats, _ in parsed:
        # only a cell that fails to parse (NaN here) or parses to NaN can be a marker
        suspects = set(cells) if floats is None else {
            cells[i] for i in np.flatnonzero(np.isnan(floats))}
        markers = {c for c in suspects if c.strip().lower() in MISSING_MARKERS}
        if markers:
            missing |= np.fromiter(map(markers.__contains__, cells), dtype=bool, count=n)
    dropped = np.flatnonzero(missing).tolist()
    if dropped:
        shown = ", ".join(str(i) for i in dropped[:10])
        more = "" if len(dropped) <= 10 else ", ..."
        log.info("dropped %d rows with missing values (rows %s%s)", len(dropped), shown, more)
    keep = np.flatnonzero(~missing)
    if not len(keep):
        raise DataError("empty table: all rows of %s had missing values" % path)

    columns = []
    for name, kind, (cells, floats, unparsed) in zip(header, kinds, parsed):
        if kind != "categorical":
            vals = floats[keep]
            bad = np.flatnonzero(unparsed[keep])
            if kind in ("continuous", "discrete"):
                if len(bad):
                    raise DataError(
                        "column '%s', row %d: cannot parse '%s' as a number"
                        % (name, keep[bad[0]], cells[keep[bad[0]]].strip())
                    )
                columns.append(Column(name, kind, vals))
                continue
            if not len(bad):
                n_distinct = len(np.unique(vals))
                inferred = "discrete" if n_distinct <= DISCRETE_MAX_DISTINCT else "continuous"
                columns.append(Column(name, inferred, vals))
                continue
        stripped = {cell: cell.strip() for cell in set(cells)}
        cells = np.array(list(map(stripped.__getitem__, cells)), dtype=object)
        columns.append(Column(name, "categorical", cells[keep]))

    return LabeledDataset(DataTable(columns), label_column)


def write_csv(table, path):
    """Write a DataTable as CSV.  Floats use repr, so a reload is bit-exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        writer.writerows(zip(*([str(v) for v in c.values] if c.kind == "categorical"
                               else [repr(float(v)) for v in c.values] for c in table.columns)))


def csv_text(rows):
    """Report rows as CSV text: cells quoted where needed, "\\n" line ends."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Train / test splitting


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("split.train_fraction must lie in (0, 1), got %r" % (self.train_fraction,))


def _take(n, fraction):
    # round-half-even, then clamp so both sides stay non-empty when possible
    k = int(round(fraction * n))
    return min(max(k, 1), n - 1) if n >= 2 else n


def split_train_test(ds, spec):
    """Deterministic seeded split; stratified keeps per-label fractions within one row.

    Labels with a single row go to train with a warning, so every label seen
    at train time is the full label universe.
    """
    rng = np.random.default_rng(spec.seed)
    train_ids, test_ids = [], []
    if spec.stratified:
        for lab in ds.labels:
            idx = ds.rows_with_label(lab)
            n = len(idx)
            if n == 0:
                continue
            if n == 1:
                log.warning("label '%s' has a single row; kept in train", lab)
                train_ids.extend(idx.tolist())
                continue
            perm = rng.permutation(n)
            k = _take(n, spec.train_fraction)
            train_ids.extend(idx[perm[:k]].tolist())
            test_ids.extend(idx[perm[k:]].tolist())
    else:
        n = ds.n_rows
        perm = rng.permutation(n)
        k = _take(n, spec.train_fraction)
        train_ids = perm[:k].tolist()
        test_ids = perm[k:].tolist()
    train_ids.sort()
    test_ids.sort()
    if not test_ids:
        raise DataError("split produced an empty test side")
    return ds.subset(train_ids), ds.subset(test_ids)


# ---------------------------------------------------------------------------
# Synthetic generators

SYNTH_KINDS = ("gauss-clouds", "magnus-manifold", "linear-speed")

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _default_labels(n):
    if n <= len(_ALPHABET):
        return [_ALPHABET[i] for i in range(n)]
    return ["l%d" % i for i in range(n)]


def _number(key, value, integer=False):
    """A generator parameter's value that must be one number, as an int or a
    float; a ConfigError naming synth.params.<key> otherwise."""
    value = check_kind("synth.params.%s" % key, value, int if integer else float)
    return int(value) if integer else float(value)


def _numbers(key, value, length=None):
    """The floats of a generator parameter that is a list of numbers, of the
    given length if any; a ConfigError naming synth.params.<key> otherwise."""
    if not isinstance(value, (list, tuple, np.ndarray)) or length not in (None, len(value)):
        what = "a list" if length is None else "a list of %d numbers" % length
        raise ConfigError("synth.params.%s must be %s, got %r" % (key, what, value))
    return [_number(key, v) for v in value]


def _per_label(params, key, default, n_labels, integer=False):
    """A generator parameter given once or once per label, as n_labels numbers."""
    value = params.get(key, default)
    if not isinstance(value, (list, tuple, np.ndarray)):
        return [_number(key, value, integer)] * n_labels
    if len(value) != n_labels:
        raise ConfigError("%s must be scalar or one entry per label" % key)
    return [_number(key, v, integer) for v in value]


def _counts(params, n_labels):
    if n_labels < 1:
        raise ConfigError("a synthetic dataset needs at least one label")
    counts = _per_label(params, "n_per_label", 200, n_labels, integer=True)
    if min(counts) < 1:
        raise ConfigError("n_per_label must be >= 1")
    return counts


def synth_generate(kind, params=None, seed=0):
    """Generate a labeled synthetic dataset.  Same kind, params and seed give
    an identical table."""
    params = dict(params or {})
    if not isinstance(params.get("labels") or [], (list, tuple)):
        raise ConfigError("synth.params.labels must be a list, got %r" % (params["labels"],))
    # labels are written as text, so 1 and "1" name one label
    names = [str(lab) for lab in params.get("labels") or []]
    if len(set(names)) < len(names):
        raise ConfigError("synth.params.labels repeats the label '%s'"
                          % next(name for name in names if names.count(name) > 1))
    if kind == "gauss-clouds":
        return _gauss_clouds(params, seed)
    if kind == "magnus-manifold":
        return _magnus_manifold(params, seed)
    if kind == "linear-speed":
        return _linear_speed(params, seed)
    raise ConfigError("unknown synthetic kind '%s' (choose from %s)" % (kind, ", ".join(SYNTH_KINDS)))


def _gauss_clouds(params, seed):
    centers = params.get("centers")
    if not isinstance(centers, (list, tuple, np.ndarray)) or not len(centers):
        raise ConfigError("gauss-clouds requires 'centers' (one vector per label)")
    centers = [np.asarray(_numbers("centers", c), dtype=float) for c in centers]
    dim = len(centers[0])
    if any(len(c) != dim for c in centers):
        raise ConfigError("gauss-clouds centers must share a dimension")
    n_labels = len(centers)
    labels = params.get("labels") or _default_labels(n_labels)
    if len(labels) != n_labels:
        raise ConfigError("labels must match the number of centers")
    counts = _counts(params, n_labels)
    sds = _per_label(params, "sd", 1.0, n_labels)
    if any(s <= 0 for s in sds):
        raise ConfigError("sd must be positive")
    feature_names = params.get("feature_names") or ["f%d" % j for j in range(dim)]
    if not isinstance(feature_names, (list, tuple)) or len(feature_names) != dim:
        raise ConfigError("feature_names must give one name per center coordinate")
    rng = np.random.default_rng(seed)
    blocks, labs = [], []
    for center, n, sd, lab in zip(centers, counts, sds, labels):
        blocks.append(center + sd * rng.standard_normal((n, dim)))
        labs.extend([str(lab)] * n)
    X = np.vstack(blocks)
    columns = [Column(feature_names[j], "continuous", X[:, j].copy()) for j in range(dim)]
    columns.append(Column(params.get("label_name", "label"), "categorical", np.array(labs, dtype=object)))
    return LabeledDataset(DataTable(columns), params.get("label_name", "label"))


def _magnus_manifold(params, seed):
    """Spin-driven two-response manifold:

    pfx_x = a * rate * sin(dir) + eps,  pfx_z = a * rate * cos(dir) + eps

    plus an independent standard normal 'noise' covariate.  With noise_sd 0
    and offsets 0 the points satisfy pfx_x^2 + pfx_z^2 == (a * rate)^2
    exactly.
    """
    labels = params.get("labels") or _default_labels(
        _number("n_labels", params.get("n_labels", 3), integer=True))
    n_labels = len(labels)
    counts = _counts(params, n_labels)
    a = _number("a", params.get("a", 1.0))
    rate_lo, rate_hi = _numbers("spin_rate_range", params.get("spin_rate_range", (0.75, 1.25)), 2)
    noise_sd = _number("noise_sd", params.get("noise_sd", 0.0))
    offset_scale = _number("label_offset_scale", params.get("label_offset_scale", 0.0))
    arcs = params.get("label_arcs")
    if arcs is not None:
        if not isinstance(arcs, (list, tuple)) or len(arcs) != n_labels:
            raise ConfigError("label_arcs must give one (lo, hi) pair per label")
        arcs = [_numbers("label_arcs", arc, 2) for arc in arcs]
    if not rate_lo < rate_hi:
        raise ConfigError("spin_rate_range must be an increasing pair")
    rng = np.random.default_rng(seed)
    dirs, rates, labs = [], [], []
    for i, lab in enumerate(labels):
        n = counts[i]
        lo, hi = (0.0, 2.0 * math.pi) if arcs is None else arcs[i]
        dirs.append(rng.uniform(lo, hi, n))
        rates.append(rng.uniform(rate_lo, rate_hi, n))
        labs.extend([str(lab)] * n)
    s = np.concatenate(dirs)
    r = np.concatenate(rates)
    total = len(s)
    pfx_x = a * r * np.sin(s)
    pfx_z = a * r * np.cos(s)
    if offset_scale != 0.0:
        # deterministic per-label offset direction around the unit circle
        angles = {lab: 2.0 * math.pi * i / n_labels for i, lab in enumerate(labels)}
        lab_arr = np.array(labs, dtype=object)
        for lab in labels:
            mask = lab_arr == lab
            pfx_x[mask] += offset_scale * math.cos(angles[lab])
            pfx_z[mask] += offset_scale * math.sin(angles[lab])
    if noise_sd > 0:
        pfx_x = pfx_x + noise_sd * rng.standard_normal(total)
        pfx_z = pfx_z + noise_sd * rng.standard_normal(total)
    noise = rng.standard_normal(total)
    columns = [
        Column("spin_dir", "continuous", s),
        Column("spin_rate", "continuous", r),
        Column("pfx_x", "continuous", pfx_x),
        Column("pfx_z", "continuous", pfx_z),
        Column("noise", "continuous", noise),
        Column("label", "categorical", np.array(labs, dtype=object)),
    ]
    return LabeledDataset(DataTable(columns), "label")


def _linear_speed(params, seed):
    """Per-label linear response: end_speed = alpha + b1*x0 + b2*start_speed + eps."""
    labels = params.get("labels") or _default_labels(
        _number("n_labels", params.get("n_labels", 3), integer=True))
    n_labels = len(labels)
    counts = _counts(params, n_labels)
    coefs = params.get("coefs")
    if coefs is None:
        coefs = [(0.05 * i, -0.05 * (i + 1), 1.0 - 0.02 * i) for i in range(n_labels)]
    if not isinstance(coefs, (list, tuple)) or len(coefs) != n_labels:
        raise ConfigError("coefs must give (alpha, b1, b2) per label")
    coefs = [_numbers("coefs", c, 3) for c in coefs]
    x0_centers = _per_label(params, "x0_centers", 0.0, n_labels)
    x0_sd = _number("x0_sd", params.get("x0_sd", 1.0))
    speed_lo, speed_hi = _numbers("start_speed_range", params.get("start_speed_range", (85.0, 95.0)), 2)
    noise_sd = _number("noise_sd", params.get("noise_sd", 0.0))
    rng = np.random.default_rng(seed)
    x0s, starts, ends, labs = [], [], [], []
    for i, lab in enumerate(labels):
        n = counts[i]
        alpha, b1, b2 = coefs[i]
        x0 = x0_centers[i] + x0_sd * rng.standard_normal(n)
        start = rng.uniform(speed_lo, speed_hi, n)
        end = alpha + b1 * x0 + b2 * start
        if noise_sd > 0:
            end = end + noise_sd * rng.standard_normal(n)
        x0s.append(x0)
        starts.append(start)
        ends.append(end)
        labs.extend([str(lab)] * n)
    columns = [
        Column("x0", "continuous", np.concatenate(x0s)),
        Column("start_speed", "continuous", np.concatenate(starts)),
        Column("end_speed", "continuous", np.concatenate(ends)),
        Column("label", "categorical", np.array(labs, dtype=object)),
    ]
    return LabeledDataset(DataTable(columns), "label")
