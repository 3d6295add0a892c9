"""Entropy-based association between categorical (or binned) variables.

The directed value from rows to columns of a contingency table is the
weighted sum of row-specific Shannon entropies of the column variable,
rescaled by the unconditional Shannon entropy of the column variable:

    dce(row -> col) = sum_r p(r) * H(col | row = r) / H(col)

Entropies are in nats and empty cells contribute nothing (0 * log 0 = 0).
Averaging the two directed values gives a symmetric association measure in
[0, 1]: 0 means fully associated, values near 1 mean independent.

There is one entropy code path, ``row_entropies``, which scores every row
of a count array at once with the bits of scoring each row alone.
``mce_matrix`` and ``rank_features_by_label_association`` code each
variable once, count each pair's table with one ``bincount``, and score all
tables of one shape as a single stack.
"""

import itertools
import logging
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import hclust
from .dataset import csv_text
from .discretize import categorize_many
from .errors import DataError

log = logging.getLogger(__name__)


@dataclass
class ContingencyTable:
    row_var: str
    col_var: str
    row_cats: list
    col_cats: list
    counts: np.ndarray  # shape (len(row_cats), len(col_cats)), non-negative ints


def category_codes(table, name, binnings=None):
    """Integer category codes plus category labels for one variable."""
    col = table.column(name)
    if col.kind == "categorical":
        cats, codes = np.unique(col.values.astype(str), return_inverse=True)
        return codes, [str(c) for c in cats]
    if col.kind == "discrete":
        cats, codes = np.unique(np.asarray(col.values, dtype=float), return_inverse=True)
        return codes, [("%g" % c) for c in cats]
    binnings = binnings or {}
    if name not in binnings:
        raise DataError("continuous variable '%s' needs a binning" % name)
    b = binnings[name]
    ids, _ = categorize_many(b, col.values)
    return ids, ["bin%d" % i for i in range(b.n_bins)]


def cross_counts(row_codes, n_row, col_codes, n_col):
    """(n_row, n_col) integer table counting each (row code, column code) pair."""
    flat = np.bincount(row_codes * n_col + col_codes, minlength=n_row * n_col)
    return flat.reshape(n_row, n_col)


def contingency_table(table, row_var, col_var, binnings=None):
    """Cross-tabulate two variables of a DataTable.

    Continuous variables are mapped through their Binning from ``binnings``;
    discrete and categorical ones use their distinct values directly.
    """
    if row_var == col_var:
        raise DataError("row and column variable are the same ('%s')" % row_var)
    row_codes, row_cats = category_codes(table, row_var, binnings)
    col_codes, col_cats = category_codes(table, col_var, binnings)
    if len(row_cats) < 2 or len(col_cats) < 2:
        few = row_var if len(row_cats) < 2 else col_var
        raise DataError("variable '%s' has a single category after binning" % few)
    counts = cross_counts(row_codes, len(row_cats), col_codes, len(col_cats))
    return ContingencyTable(row_var, col_var, row_cats, col_cats, counts)


def row_entropies(C):
    """Entropy in nats of each row of a 2-D count or probability array.

    Each value has the bits of summing that row's own ``p log p`` terms: the
    nonzero terms are computed elementwise for the whole array, and the rows
    with m nonzero cells are summed together as one C-ordered (rows, m)
    matrix, which runs the same contiguous length-m reduction as the row
    alone.  A row with no positive total is 0.0; 0 log 0 is 0.
    """
    C = np.asarray(C, dtype=float, order="C")
    h = np.zeros(len(C))
    total = np.add.reduce(C, axis=1)
    live = np.flatnonzero(total > 0)
    P = C[live] / total[live, None]
    nz = P > 0
    p = P[nz]
    terms = p * np.log(p)  # the nonzero terms of each live row, rows in order
    m = np.count_nonzero(nz, axis=1)
    start = np.cumsum(m) - m
    for width in np.unique(m):
        rows = np.flatnonzero(m == width)
        h[live[rows]] = -np.add.reduce(terms[start[rows, None] + np.arange(width)], axis=1)
    return h


def directed_values(stack):
    """dce(row -> col) of each table in an (n_tables, rows, cols) count stack.

    NaN where the column variable has zero entropy.  Each table's weighted
    sum runs in row order from 0.0, as a loop over its rows would; an empty
    row adds 0.0, which leaves that sum unchanged.
    """
    n_tables, _, n_cols = stack.shape
    h_target = row_entropies(stack.sum(axis=1))
    h = row_entropies(stack.reshape(-1, n_cols)).reshape(n_tables, -1)
    totals = stack.sum(axis=2)
    weighted = totals / totals.sum(axis=1, keepdims=True) * h
    acc = np.add.accumulate(np.column_stack([np.zeros(n_tables), weighted]), axis=1)[:, -1]
    return np.divide(acc, h_target, out=np.full(n_tables, np.nan), where=h_target != 0)


@dataclass
class MceMatrix:
    features: list        # in clustered display order
    values: np.ndarray    # symmetric, zero diagonal, same order as features
    dendro: object        # Dendrogram over the features, leaf names in input order

    def groups(self, k):
        """The k feature groups of the clustering, as lists of names: each in
        display order, and the groups in the display order of their first."""
        pos = {name: i for i, name in enumerate(self.features)}
        groups = [sorted((self.dendro.leaf_names[i] for i in group), key=pos.get)
                  for group in hclust.cut(self.dendro, k)]
        return sorted(groups, key=lambda group: pos[group[0]])

    def to_csv_text(self):
        rows = [["feature"] + list(self.features)]
        rows += [[name] + ["%.10g" % v for v in row] for name, row in zip(self.features, self.values)]
        return csv_text(rows)


def mce_matrix(table, binnings=None, features=None):
    """Pairwise mutual conditional entropy over usable features of a
    DataTable (default: all of its columns).

    Degenerate features (a single category after binning) are skipped with a
    warning.  The output ordering is the leaf order of an average-linkage
    clustering of the matrix, so associated blocks sit together.
    """
    if features is None:
        features = table.names
    usable, coded = [], []
    for name in features:
        try:
            codes, cats = category_codes(table, name, binnings)
        except DataError as exc:
            log.warning("skipping feature '%s': %s", name, exc)
            continue
        if len(cats) < 2 or len(np.unique(codes)) < 2:
            log.warning("skipping degenerate feature '%s'", name)
            continue
        usable.append(name)
        coded.append((codes, len(cats)))
    if len(usable) < 2:
        raise DataError("need at least 2 usable features, have %d" % len(usable))
    twice = next((name for i, name in enumerate(usable) if name in usable[i + 1:]), None)
    if twice is not None:
        raise DataError("row and column variable are the same ('%s')" % twice)
    k = len(usable)
    # pairs whose tables share a shape are scored as one stack; every usable
    # feature has two observed categories, so no target is degenerate
    by_shape = defaultdict(list)
    for i, j in itertools.combinations(range(k), 2):
        by_shape[coded[i][1], coded[j][1]].append((i, j))
    values = np.zeros((k, k))
    for pairs in by_shape.values():
        stack = np.stack([cross_counts(*coded[i], *coded[j]) for i, j in pairs])
        mce = 0.5 * (directed_values(stack) + directed_values(stack.transpose(0, 2, 1)))
        for (i, j), v in zip(pairs, mce):
            values[i, j] = values[j, i] = v
    dendro = hclust.agglomerate(values)
    dendro.leaf_names = usable
    order = dendro.leaf_order()
    return MceMatrix(features=[usable[i] for i in order], values=values[np.ix_(order, order)], dendro=dendro)


def rank_features_by_label_association(ds, binnings=None):
    """Per-feature directed conditional entropy against the label column,
    both ways.

    Returns (feature, label_to_feature, feature_to_label) rows sorted by
    label_to_feature ascending, ties broken by name.  label_to_feature
    conditions on the label (lower = the label tells more about the
    feature), feature_to_label on the feature.  As in ``mce_matrix``, the
    label and each feature are coded once and the tables of one shape are
    scored as one stack, in both directions; unusable features are skipped
    with one warning each.
    """
    label, names = ds.label_column, ds.feature_names()
    label_codes, label_cats = category_codes(ds.table, label)
    coded, skipped = {}, {}
    for name in names:
        try:
            codes, cats = category_codes(ds.table, name, binnings)
        except DataError as exc:
            skipped[name] = str(exc)
            continue
        if len(label_cats) < 2 or len(cats) < 2:
            skipped[name] = "variable '%s' has a single category after binning" % (
                label if len(label_cats) < 2 else name)
            continue
        coded[name] = codes, len(cats)
    # (label, feature) tables that share a shape are scored as one stack
    by_shape = defaultdict(list)
    for name, (_, n_cats) in coded.items():
        by_shape[n_cats].append(name)
    value = {}
    for group in by_shape.values():
        stack = np.stack([cross_counts(label_codes, len(label_cats), *coded[name]) for name in group])
        value.update(zip(group, zip(directed_values(stack), directed_values(stack.transpose(0, 2, 1)))))
    out = []
    for name in names:
        if name in skipped:
            log.warning("skipping feature '%s': %s", name, skipped[name])
        elif np.isnan(value[name]).any():
            target = name if np.isnan(value[name][0]) else label
            log.warning("skipping feature '%s': degenerate target '%s': zero entropy", name, target)
        else:
            out.append((name, *value[name]))
    if not out:
        raise DataError("no usable features to rank")
    return sorted(out, key=lambda row: (row[1], row[0]))
