"""Tabular data handling: typed columns, labeled datasets, splits, synthetic generators.

Columns are one of three kinds:

* ``continuous``  - float values, binned before any entropy computation
* ``discrete``    - numeric values with few distinct levels, used directly as categories
* ``categorical`` - string values

Kind inference for CSV input: a column whose non-missing cells all parse as
floats is numeric, and numeric columns with at most ``discrete_max_distinct``
distinct values are discrete, otherwise continuous.  Anything else is
categorical.  Explicit schema overrides win over inference.  The label column
is always categorical.
"""

import csv
import io
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

KINDS = ("continuous", "discrete", "categorical")

# cells treated as missing on load (case-insensitive)
MISSING_MARKERS = frozenset({"", "na", "nan", "null"})

DISCRETE_MAX_DISTINCT = 12


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

    @property
    def per_label_counts(self):
        vals = self.label_values
        return {lab: int(np.sum(vals == lab)) for lab in self.labels}

    def rows_with_label(self, label):
        return np.flatnonzero(self.label_values == label)

    def subset(self, rows):
        # label universe is preserved even if a label has no rows in the subset
        return LabeledDataset(self.table.subset(rows), self.label_column, self.labels)

    def feature_names(self):
        return [n for n in self.table.names if n != self.label_column]


def feature_matrix(table, features):
    """Stack numeric feature columns into an (n_rows, k) float matrix."""
    if isinstance(table, LabeledDataset):
        table = table.table
    cols = []
    for name in features:
        c = table.column(name)
        if c.kind == "categorical":
            raise DataError("feature '%s' is categorical, not usable as a coordinate" % name)
        cols.append(np.asarray(c.values, dtype=float))
    if not cols:
        raise DataError("no features given")
    return np.column_stack(cols)


@dataclass(frozen=True)
class ZStats:
    """Per-feature mean and standard deviation frozen from a training matrix."""

    means: np.ndarray
    sds: np.ndarray

    @classmethod
    def fit(cls, X):
        X = np.asarray(X, dtype=float)
        means = X.mean(axis=0)
        sds = X.std(axis=0)
        # constant features carry no geometry; unit scale keeps them inert
        sds = np.where(sds > 0, sds, 1.0)
        return cls(means=means, sds=sds)

    def transform(self, X):
        return (np.asarray(X, dtype=float) - self.means) / self.sds


# ---------------------------------------------------------------------------
# CSV input / output


def load_csv(path, label_column, schema=None, discrete_max_distinct=DISCRETE_MAX_DISTINCT):
    """Load a CSV file into a LabeledDataset.

    schema maps column names to kind overrides.  Rows with missing cells in
    any column are dropped (count logged).  A non-missing cell that fails to
    parse in a continuous or discrete column is an error naming row and
    column.
    """
    schema = dict(schema or {})
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("empty table: %s has no header" % path)
            rows = list(reader)
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc))

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

    # drop rows with missing cells anywhere, keeping original indices for the log
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
        # infer
        try:
            vals = np.array([float(c) for c in cells])
        except ValueError:
            columns.append(Column(name, "categorical", np.array(cells, dtype=object)))
            continue
        n_distinct = len(np.unique(vals))
        inferred = "discrete" if n_distinct <= discrete_max_distinct else "continuous"
        columns.append(Column(name, inferred, vals))

    return LabeledDataset(DataTable(columns), label_column)


def write_csv(table, path):
    """Write a DataTable as CSV.  Floats use repr, so a reload is bit-exact."""
    if isinstance(table, LabeledDataset):
        table = table.table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        cols = []
        for c in table.columns:
            if c.kind == "categorical":
                cols.append([str(v) for v in c.values])
            else:
                cols.append([repr(float(v)) for v in c.values])
        for i in range(table.n_rows):
            writer.writerow([col[i] for col in cols])


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
            raise ConfigError("train_fraction must lie in (0, 1), got %r" % (self.train_fraction,))


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


def _per_label(value, n_labels, name):
    if np.isscalar(value):
        return [value] * n_labels
    value = list(value)
    if len(value) != n_labels:
        raise ConfigError("%s must be scalar or one entry per label" % name)
    return value


def synth_generate(kind, params=None, seed=0):
    """Generate a labeled synthetic dataset.  Same kind, params and seed give
    an identical table."""
    params = dict(params or {})
    if kind == "gauss-clouds":
        return _gauss_clouds(params, seed)
    if kind == "magnus-manifold":
        return _magnus_manifold(params, seed)
    if kind == "linear-speed":
        return _linear_speed(params, seed)
    raise ConfigError("unknown synthetic kind '%s' (choose from %s)" % (kind, ", ".join(SYNTH_KINDS)))


def _gauss_clouds(params, seed):
    centers = params.get("centers")
    if centers is None:
        raise ConfigError("gauss-clouds requires 'centers' (one vector per label)")
    centers = [np.asarray(c, dtype=float) for c in centers]
    dim = len(centers[0])
    if any(len(c) != dim for c in centers):
        raise ConfigError("gauss-clouds centers must share a dimension")
    n_labels = len(centers)
    labels = params.get("labels") or _default_labels(n_labels)
    if len(labels) != n_labels:
        raise ConfigError("labels must match the number of centers")
    counts = _per_label(params.get("n_per_label", 200), n_labels, "n_per_label")
    sds = _per_label(params.get("sd", 1.0), n_labels, "sd")
    if any(int(c) < 1 for c in counts):
        raise ConfigError("n_per_label must be >= 1")
    if any(float(s) <= 0 for s in sds):
        raise ConfigError("sd must be positive")
    feature_names = params.get("feature_names") or ["f%d" % j for j in range(dim)]
    rng = np.random.default_rng(seed)
    blocks, labs = [], []
    for center, n, sd, lab in zip(centers, counts, sds, labels):
        blocks.append(center + float(sd) * rng.standard_normal((int(n), dim)))
        labs.extend([str(lab)] * int(n))
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
    n_labels = int(params.get("n_labels", len(params.get("labels", [])) or 3))
    labels = params.get("labels") or _default_labels(n_labels)
    n_labels = len(labels)
    counts = _per_label(params.get("n_per_label", 200), n_labels, "n_per_label")
    a = float(params.get("a", 1.0))
    rate_lo, rate_hi = params.get("spin_rate_range", (0.75, 1.25))
    noise_sd = float(params.get("noise_sd", 0.0))
    offset_scale = float(params.get("label_offset_scale", 0.0))
    arcs = params.get("label_arcs")
    if arcs is not None and len(arcs) != n_labels:
        raise ConfigError("label_arcs must give one (lo, hi) pair per label")
    if not rate_lo < rate_hi:
        raise ConfigError("spin_rate_range must be an increasing pair")
    rng = np.random.default_rng(seed)
    dirs, rates, labs = [], [], []
    for i, lab in enumerate(labels):
        n = int(counts[i])
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
    n_labels = int(params.get("n_labels", len(params.get("labels", [])) or 3))
    labels = params.get("labels") or _default_labels(n_labels)
    n_labels = len(labels)
    counts = _per_label(params.get("n_per_label", 200), n_labels, "n_per_label")
    coefs = params.get("coefs")
    if coefs is None:
        coefs = [(0.05 * i, -0.05 * (i + 1), 1.0 - 0.02 * i) for i in range(n_labels)]
    if len(coefs) != n_labels or any(len(c) != 3 for c in coefs):
        raise ConfigError("coefs must give (alpha, b1, b2) per label")
    x0_centers = _per_label(params.get("x0_centers", 0.0), n_labels, "x0_centers")
    x0_sd = float(params.get("x0_sd", 1.0))
    speed_lo, speed_hi = params.get("start_speed_range", (85.0, 95.0))
    noise_sd = float(params.get("noise_sd", 0.0))
    rng = np.random.default_rng(seed)
    x0s, starts, ends, labs = [], [], [], []
    for i, lab in enumerate(labels):
        n = int(counts[i])
        alpha, b1, b2 = (float(v) for v in coefs[i])
        x0 = float(x0_centers[i]) + x0_sd * rng.standard_normal(n)
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
