"""Entropy-based association between categorical (or binned) variables.

The directed value from rows to columns of a contingency table is the
weighted sum of row-specific Shannon entropies of the column variable,
rescaled by the unconditional Shannon entropy of the column variable:

    dce(row -> col) = sum_r p(r) * H(col | row = r) / H(col)

Entropies are in nats and empty cells contribute nothing (0 * log 0 = 0).
Averaging the two directed values gives a symmetric association measure in
[0, 1]: 0 means fully associated, values near 1 mean independent.

There is one entropy code path, ``row_entropies``, which scores every row
of a count array at once with the bits of scoring each row alone, and one
scorer of coded pairs, ``_directed_both_ways``, which counts each pair's
table with one ``bincount`` and scores all tables of one shape as a single
stack, both ways.  ``mce_matrix`` codes each feature once and keeps the
codes; ``rank_features_by_label_association`` codes only the label and
scores it against the matrix's features from those codes.
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


def _directed_both_ways(pairs):
    """dce(a -> b) and dce(b -> a) of each pair ((codes, n), (codes, n)) of
    coded variables, as two arrays in pair order.

    The pairs' tables that share a shape are scored as one stack.
    """
    by_shape = defaultdict(list)
    for p, (a, b) in enumerate(pairs):
        by_shape[a[1], b[1]].append(p)
    forward, backward = np.empty(len(pairs)), np.empty(len(pairs))
    for group in by_shape.values():
        stack = np.stack([cross_counts(*pairs[p][0], *pairs[p][1]) for p in group])
        forward[group] = directed_values(stack)
        backward[group] = directed_values(stack.transpose(0, 2, 1))
    return forward, backward


@dataclass
class MceMatrix:
    features: list        # in clustered display order
    values: np.ndarray    # symmetric, zero diagonal, same order as features
    dendro: object        # Dendrogram over the features, leaf names in input order
    coded: dict           # feature name -> (codes, category count), in input order

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
    # every usable feature has two observed categories, so no target is degenerate
    pairs = list(itertools.combinations(range(k), 2))
    forward, backward = _directed_both_ways([(coded[i], coded[j]) for i, j in pairs])
    values = np.zeros((k, k))
    for (i, j), v in zip(pairs, 0.5 * (forward + backward)):
        values[i, j] = values[j, i] = v
    dendro = hclust.agglomerate(values)
    dendro.leaf_names = usable
    order = dendro.leaf_order()
    return MceMatrix(features=[usable[i] for i in order], values=values[np.ix_(order, order)], dendro=dendro,
                     coded=dict(zip(usable, coded)))


def rank_features_by_label_association(ds, matrix):
    """Directed conditional entropy of each feature of an ``MceMatrix``
    against the label column, both ways.

    Returns (feature, label_to_feature, feature_to_label) rows sorted by
    label_to_feature ascending, ties broken by name.  label_to_feature
    conditions on the label (lower = the label tells more about the
    feature), feature_to_label on the feature.  Only the label is coded
    here: each feature's codes are the matrix's own, the label column is
    left out if the matrix holds it, and every feature has the two observed
    categories ``mce_matrix`` asks of it, so no target is degenerate.
    """
    label = ds.label_column
    codes, cats = category_codes(ds.table, label)
    if len(cats) < 2:
        raise DataError("no usable features to rank: the label '%s' has a single category" % label)
    names = [name for name in matrix.coded if name != label]
    forward, backward = _directed_both_ways([((codes, len(cats)), matrix.coded[name]) for name in names])
    return sorted(zip(names, forward, backward), key=lambda row: (row[1], row[0]))
